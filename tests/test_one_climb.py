"""Static guard: one search for where the suffixes of a climb start.

Tower cells, tower-grid leaves and step counts come in non-falling order,
so the entries that still climb at step l are a suffix, and
``maps.suffix_starts`` finds where each suffix starts:
``np.searchsorted(h, np.arange(h.max()), side="right")``.  It is the only
code under src/ that may call ``searchsorted`` with an ``arange(...)``
argument (a bare one or one inside an expression, such as
``-np.arange(top)``); every other climb asks it.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

ALLOWED = {("towerlab/maps.py", "suffix_starts")}


def _calls(node, name: str) -> bool:
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    return (f.attr if isinstance(f, ast.Attribute)
            else getattr(f, "id", None)) == name


def _is_suffix_search(node) -> bool:
    if not _calls(node, "searchsorted"):
        return False
    args = list(node.args) + [k.value for k in node.keywords]
    return any(_calls(n, "arange") for a in args for n in ast.walk(a))


class _Walker(ast.NodeVisitor):
    def __init__(self, rel: str) -> None:
        self.rel = rel
        self.scope: list[str] = []
        self.found: list[str] = []

    def _enter(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def visit_Call(self, node) -> None:
        qual = ".".join(self.scope)
        if _is_suffix_search(node) and (self.rel, qual) not in ALLOWED:
            self.found.append(f"{self.rel}:{node.lineno} {qual or '<module>'}")
        self.generic_visit(node)


def suffix_searches(root: pathlib.Path = SRC) -> list[str]:
    found = []
    for path in sorted(root.rglob("*.py")):
        walker = _Walker(path.relative_to(root).as_posix())
        walker.visit(ast.parse(path.read_text(), filename=str(path)))
        found += walker.found
    return found


def test_one_climb():
    assert suffix_searches() == []


def test_the_helper_is_the_search():
    tree = ast.parse((SRC / "towerlab" / "maps.py").read_text())
    helper = [n for n in tree.body if isinstance(n, ast.FunctionDef)
              and n.name == "suffix_starts"]
    assert len(helper) == 1
    assert any(map(_is_suffix_search, ast.walk(helper[0])))


def test_guard_flags_every_other_copy(tmp_path):
    pkg = tmp_path / "towerlab"
    pkg.mkdir()
    (pkg / "maps.py").write_text(
        "import numpy as np\n"
        "def suffix_starts(h):\n"
        "    return np.searchsorted(h, np.arange(h.max()), side='right')\n"
        "def climb_order(steps, top):\n"
        "    order = np.argsort(-steps, kind='stable')\n"
        "    return np.searchsorted(-steps[order], -np.arange(top))\n")
    (pkg / "tower.py").write_text(
        "import numpy as np\n"
        "from numpy import searchsorted, arange\n"
        "class Tower:\n"
        "    def column_positions(self):\n"
        "        return searchsorted(self.heights, v=arange(9), side='right')\n"
        "    def cell_of(self, y):\n"
        "        return np.searchsorted(self.lo, y, side='right')\n"
        "FIRST = np.searchsorted([1, 2], np.arange(2))\n")
    assert suffix_searches(tmp_path) == [
        "towerlab/maps.py:6 climb_order",
        "towerlab/tower.py:5 Tower.column_positions",
        "towerlab/tower.py:8 <module>",
    ]
