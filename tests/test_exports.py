"""Every exported name exists: each ``__all__`` entry under src/ is defined
in its own module, and each re-export of ``towerlab`` is a public name of
the module it comes from."""

import ast
import importlib
import pathlib

import pytest

import towerlab

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(SRC.rglob("*.py"))


def _top_level_names(tree: ast.Module) -> set[str]:
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            out |= {n.id for t in targets for n in ast.walk(t)
                    if isinstance(n, ast.Name)}
    return out


def _all(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return ast.literal_eval(node.value)
    return []


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_all_names_are_defined_in_their_module(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert set(_all(tree)) - _top_level_names(tree) == set()


def test_package_reexports_resolve():
    tree = ast.parse((SRC / "towerlab" / "__init__.py").read_text())
    imports = [n for n in tree.body if isinstance(n, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert alias.name in module.__all__, (node.module, alias.name)
            assert getattr(towerlab, alias.asname or alias.name) \
                is getattr(module, alias.name)
