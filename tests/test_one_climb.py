"""Static guards: one search for where the suffixes of a climb start, and
one tower step.

Tower cells, tower-grid leaves and step counts come in non-falling order,
so the entries that still climb at step l are a suffix, and
``maps.suffix_starts`` finds where each suffix starts:
``np.searchsorted(h, np.arange(h.max()), side="right")``.  It is the only
code under src/ that may call ``searchsorted`` with an ``arange(...)``
argument (a bare one or one inside an expression, such as
``-np.arange(top)``); every other climb asks it.

A point of the tower steps along its cell word, through
``InducedMap.climb``.  No def in the flow, the tower or the tower grid
steps a point by the map's own branch lookup, ``.model.apply`` or
``.model.advance``.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

ALLOWED = {("towerlab/maps.py", "suffix_starts")}
TOWER_STEPPERS = ("towerlab/suspension.py", "towerlab/tower.py",
                  "towerlab/transfer/towerop.py")


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


class _MapStepWalker(_Walker):
    """Uses of ``<x>.model.apply`` or ``<x>.model.advance`` inside a def,
    called there or bound to a name."""

    visit_Call = ast.NodeVisitor.generic_visit

    def visit_Attribute(self, node) -> None:
        if self.scope and node.attr in ("apply", "advance") \
                and isinstance(node.value, ast.Attribute) \
                and node.value.attr == "model":
            self.found.append(f"{self.rel}:{node.lineno} "
                              f"{'.'.join(self.scope)}")
        self.generic_visit(node)


def _walk(root: pathlib.Path, walker, rels=None) -> list[str]:
    found = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rels is None or rel in rels:
            w = walker(rel)
            w.visit(ast.parse(path.read_text(), filename=str(path)))
            found += w.found
    return found


def suffix_searches(root: pathlib.Path = SRC) -> list[str]:
    return _walk(root, _Walker)


def map_steps(root: pathlib.Path = SRC) -> list[str]:
    return _walk(root, _MapStepWalker, TOWER_STEPPERS)


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


def test_one_tower_step():
    assert map_steps() == []


def test_guard_flags_every_map_step(tmp_path):
    pkg = tmp_path / "towerlab"
    (pkg / "transfer").mkdir(parents=True)
    (pkg / "suspension.py").write_text(
        "def _cross(tower, pos, idx):\n"
        "    pos[idx] = tower.ind.model.apply(pos[idx])\n"
        "def sample(ind, cand, level):\n"
        "    return ind.climb(cand, 0, level)\n")
    (pkg / "tower.py").write_text(
        "class Tower:\n"
        "    def column_positions(self, cur):\n"
        "        return self.ind.model.advance(cur, 1)\n"
        "    def apply(self, v):\n"
        "        return self.model_apply(v)\n")
    (pkg / "transfer" / "towerop.py").write_text(
        "class TowerGrid:\n"
        "    def __init__(self, basis):\n"
        "        step = basis.ind.model.apply\n"
        "        self.pos_at = [step(basis.mid)]\n")
    (pkg / "maps.py").write_text(
        "class InducedMap:\n"
        "    def F(self, j, y):\n"
        "        return self.model.advance(y, self.r[j])\n")
    assert map_steps(tmp_path) == [
        "towerlab/suspension.py:2 _cross",
        "towerlab/tower.py:3 Tower.column_positions",
        "towerlab/transfer/towerop.py:3 TowerGrid.__init__",
    ]
