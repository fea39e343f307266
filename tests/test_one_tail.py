"""Static guard: one account of the return-time tail past the cell cutoff.

Past the cell cutoff, mu_Y(r > n) is the density at the accumulation edge
times the exact Lebesgue widths of {r = n} along the escape orbit, plus the
unswept remainder past the tail horizon.  Those inputs are
``InducedMap._mu0_r_width``, ``_mu0_remainder`` and ``_edge_rho``, and only
the methods of ``InducedMap`` in ``maps.py`` may load them; every other
reader of the tail asks one of those methods (``ladder_tail``,
``tail_columns``, ``mu0_tail``), so no second tail model can grow beside
them.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

PRIVATE = {"_mu0_r_width", "_mu0_remainder", "_edge_rho"}


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

    def _allowed(self) -> bool:
        return (self.rel == "towerlab/maps.py" and len(self.scope) >= 2
                and self.scope[0] == "InducedMap")

    def visit_Attribute(self, node) -> None:
        if (node.attr in PRIVATE and isinstance(node.ctx, ast.Load)
                and not self._allowed()):
            qual = ".".join(self.scope) or "<module>"
            self.found.append(f"{self.rel}:{node.lineno} {qual} {node.attr}")
        self.generic_visit(node)


def private_tail_loads(root: pathlib.Path = SRC) -> list[str]:
    found = []
    for path in sorted(root.rglob("*.py")):
        walker = _Walker(path.relative_to(root).as_posix())
        walker.visit(ast.parse(path.read_text(), filename=str(path)))
        found += walker.found
    return found


def test_one_tail():
    assert private_tail_loads() == []


def test_guard_flags_every_other_reader(tmp_path):
    pkg = tmp_path / "towerlab"
    (pkg / "transfer").mkdir(parents=True)
    (pkg / "maps.py").write_text(
        "class InducedMap:\n"
        "    def __init__(self, w):\n"
        "        self._mu0_r_width = w\n"
        "        self._edge_rho = 1.0\n"
        "    def ladder_tail(self, n):\n"
        "        return self._edge_rho * self._mu0_r_width[n:].sum()\n"
        "    _SHARED = staticmethod(lambda ind: ind._mu0_remainder)\n"
        "def return_time_tail(ind, n):\n"
        "    return ind._edge_rho * (n / ind.r.max()) ** -2\n")
    (pkg / "transfer" / "towerop.py").write_text(
        "class InducedMap:\n"
        "    def tail_columns(self):\n"
        "        return self._mu0_r_width\n"
        "def means(ind):\n"
        "    def inner():\n"
        "        return ind._mu0_remainder\n"
        "    return inner() + ind.ladder_tail(3)\n"
        "EDGE = getattr(object(), 'x', None) or object()._edge_rho\n")
    assert private_tail_loads(tmp_path) == [
        "towerlab/maps.py:7 InducedMap _mu0_remainder",
        "towerlab/maps.py:9 return_time_tail _edge_rho",
        "towerlab/transfer/towerop.py:3 InducedMap.tail_columns _mu0_r_width",
        "towerlab/transfer/towerop.py:6 means.inner _mu0_remainder",
        "towerlab/transfer/towerop.py:8 <module> _edge_rho",
    ]
