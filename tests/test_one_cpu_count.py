"""Static guard: one count of the CPUs the process may use.

``suspension.usable_cpus`` reads the process's affinity
(``os.sched_getaffinity``, or ``os.cpu_count`` where there is none).  The
flow's chunking and the tower step's hand-off both ask it, so
``taskset -c 0`` runs both serially.  No other code under src/ reads
either function, called or bound to a name.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

ALLOWED = {("towerlab/suspension.py", "usable_cpus")}
READERS = ("sched_getaffinity", "cpu_count")


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

    def _check(self, node, name: str) -> None:
        qual = ".".join(self.scope)
        if name in READERS and (self.rel, qual) not in ALLOWED:
            self.found.append(f"{self.rel}:{node.lineno} {qual or '<module>'}")

    def visit_Attribute(self, node) -> None:
        self._check(node, node.attr)
        self.generic_visit(node)

    def visit_Name(self, node) -> None:
        self._check(node, node.id)

    def visit_ImportFrom(self, node) -> None:
        for alias in node.names:
            self._check(node, alias.name)


def cpu_counts(root: pathlib.Path = SRC) -> list[str]:
    found = []
    for path in sorted(root.rglob("*.py")):
        w = _Walker(path.relative_to(root).as_posix())
        w.visit(ast.parse(path.read_text(), filename=str(path)))
        found += w.found
    return found


def test_one_cpu_count():
    assert cpu_counts() == []


def test_the_helper_reads_the_affinity():
    tree = ast.parse((SRC / "towerlab" / "suspension.py").read_text())
    helper = [n for n in tree.body if isinstance(n, ast.FunctionDef)
              and n.name == "usable_cpus"]
    assert len(helper) == 1
    attrs = {n.attr for n in ast.walk(helper[0])
             if isinstance(n, ast.Attribute)}
    assert set(READERS) <= attrs


def test_guard_flags_every_other_count(tmp_path):
    pkg = tmp_path / "towerlab"
    (pkg / "transfer").mkdir(parents=True)
    (pkg / "suspension.py").write_text(
        "import os\n"
        "def usable_cpus():\n"
        "    return len(os.sched_getaffinity(0))\n"
        "def _flow_threads():\n"
        "    return os.cpu_count() or 1\n")
    (pkg / "transfer" / "towerop.py").write_text(
        "import os\n"
        "from os import sched_getaffinity\n"
        "CPUS = len(sched_getaffinity(0))\n"
        "class TowerGrid:\n"
        "    def step(self, V):\n"
        "        count = os.cpu_count\n"
        "        return count()\n")
    assert cpu_counts(tmp_path) == [
        "towerlab/suspension.py:5 _flow_threads",
        "towerlab/transfer/towerop.py:2 <module>",
        "towerlab/transfer/towerop.py:3 <module>",
        "towerlab/transfer/towerop.py:6 TowerGrid.step",
    ]
