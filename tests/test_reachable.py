"""Static guard: every def under src/ is reached from a driver.

The drivers are the runs that check something: the CLI handlers (every
``cmd_*`` in ``cli.py``, plus ``main``), the module-level statements of
every module under src/ (which hold ``acceptance.CHECKS``, ``OBSERVABLES``,
``ROOFS`` and ``SCHEMA``), every name that the benchmark workloads load
(``perfbench/workloads.py`` and ``perfbench/gates.py``, read with AST,
never imported), and the short list ``ALLOWED`` below, each entry with its
reason.

A def is reached when a reached body loads its name, as a bare name or as
the attribute of an ``a.name`` expression.  A reached class reaches its
dunder methods and its class-body statements.  Annotations, strings (so
the names in ``__all__``) and the aliases of ``from ... import`` are no
use.  Nested defs belong to the body that holds them.

The rule matches by name alone, so it over-approximates: two defs of the
same name reach each other, and a method is reached by any ``x.name`` on
any object.  So the guard never flags live code; it can miss a dead def
that shares its name with a live one.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH = [ROOT / "perfbench" / "workloads.py", ROOT / "perfbench" / "gates.py"]

ALLOWED = {
    # health checks and diagnostics of the map and basis hypotheses
    "InducedMap.check_bijectivity": "hypothesis check: F is onto Y per cell",
    "InducedMap.check_expansion": "hypothesis check: uniform expansion of F",
    "InducedMap.check_backward_lipschitz":
        "hypothesis check: inverse branches contract",
    "InducedMap.check_distortion": "hypothesis check: bounded distortion",
    "InducedMap.mean_return_tail": "Kac check: mean return time from tails",
    "CylinderBasis.check_nesting": "diagnostic: the partitions nest",
    "OperatorMatrix.duality_defect":
        "diagnostic: R is the dual of composition with F",
    # independent references that tests compare driven results against
    "assemble_R": "dense reference for the untwisted operator",
    "OperatorMatrix.pointwise_apply": "pointwise reference for R",
    "MapModel.apply_deriv": "reference derivative for the cell checks",
    "verify_triple": "reference for the periodic-orbit triples",
    "primitive_necklace_count": "closed-form count of primitive orbits",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _loads(nodes) -> set[str]:
    """Names that the nodes load, annotations skipped."""
    out = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        for field, value in ast.iter_fields(node):
            if field in ("annotation", "returns"):
                continue
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    stack.append(child)
    return out


class _Def:
    """One module-level def or class, or one method."""

    def __init__(self, rel: str, node, owner: "_Def | None" = None) -> None:
        self.name = node.name
        self.qualname = f"{owner.name}.{node.name}" if owner else node.name
        self.where = f"{rel}:{node.lineno} {self.qualname}"
        if isinstance(node, ast.ClassDef):
            self.methods = [_Def(rel, n, self) for n in node.body
                            if isinstance(n, _DEFS)]
            body = [n for n in node.body if not isinstance(n, _DEFS)]
            self.uses = _loads(body + node.bases + node.keywords
                               + node.decorator_list)
        else:
            self.methods = []
            self.uses = _loads([node])


def unreached_defs(src: pathlib.Path = SRC, bench=BENCH,
                   allowed=ALLOWED) -> list[str]:
    defs: list[_Def] = []
    roots: set[str] = set()
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        rel = str(path.relative_to(src))
        top = [_Def(rel, n) for n in tree.body if isinstance(n, _DEFS)]
        roots |= _loads(n for n in tree.body if not isinstance(n, _DEFS))
        if path.name == "cli.py":
            roots |= {d.name for d in top
                      if d.name.startswith("cmd_") or d.name == "main"}
        for d in top:
            defs += [d] + d.methods
    for path in bench:
        if path.exists():
            roots |= _loads([ast.parse(path.read_text(), filename=str(path))])

    by_name: dict[str, list[_Def]] = {}
    for d in defs:
        by_name.setdefault(d.name, []).append(d)
    reached: set[int] = set()
    todo = [d for d in defs if d.qualname in allowed]
    todo += [d for n in roots for d in by_name.get(n, [])]
    while todo:
        d = todo.pop()
        if id(d) in reached:
            continue
        reached.add(id(d))
        todo += [e for n in d.uses for e in by_name.get(n, [])]
        todo += [m for m in d.methods if _is_dunder(m.name)]
    return [d.where for d in defs
            if id(d) not in reached and not _is_dunder(d.name)]


def test_every_def_is_reached_from_a_driver():
    assert unreached_defs() == []


def test_every_allowed_name_is_a_def():
    quals = set()
    for path in SRC.rglob("*.py"):
        tree = ast.parse(path.read_text())
        for d in (_Def("", n) for n in tree.body if isinstance(n, _DEFS)):
            quals |= {d.qualname} | {m.qualname for m in d.methods}
    assert set(ALLOWED) <= quals


def test_guard_flags_an_unreached_def(tmp_path):
    (tmp_path / "cli.py").write_text(
        "from m import live\n"
        "def cmd_run():\n"
        "    return live()\n")
    (tmp_path / "m.py").write_text(
        "__all__ = ['dead', 'live', 'kept']\n"
        "def dead():\n"
        "    return 1\n"
        "def live():\n"
        "    return 2\n"
        "def kept():\n"
        "    return 3\n")
    (tmp_path / "other.py").write_text("from m import dead as alias\n")
    assert unreached_defs(tmp_path, [], {"kept": "planted"}) == ["m.py:2 dead"]
