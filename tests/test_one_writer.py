"""Static guard: one writer of tables.

Library modules return data and never format it.  ``cli._csv`` is the only
code under src/ that writes a table, so every CSV of every subcommand gets
the same format rules from one place, and ``cli._plot_script`` is the only
other code that writes a file.  No def under src/ opens a file for writing
(``open`` with a mode holding w, a, x or +, ``write_text``,
``write_bytes``), and no def is named ``to_csv``.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

ALLOWED = {
    ("towerlab/cli.py", "_csv"): "the one table writer: header, then one "
                                 "line per row under the CLI's format rules",
    ("towerlab/cli.py", "_plot_script"): "writes the matplotlib script "
                                         "beside a table, not a table",
}
WRITE_MODE = set("wax+")


def _mode(node: ast.Call):
    """The mode argument of an ``open`` call, or None if it has none."""
    f = node.func
    # builtins.open / io.open take (file, mode); Path.open takes (mode)
    pos = 1 if isinstance(f, ast.Name) or (
        isinstance(f.value, ast.Name) and f.value.id in ("io", "builtins")) \
        else 0
    for k in node.keywords:
        if k.arg == "mode":
            return k.value
    return node.args[pos] if len(node.args) > pos else None


def _writes(node: ast.Call) -> bool:
    f = node.func
    name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    mode = _mode(node)
    if mode is None:
        return False
    # a mode that is not a literal could be anything: count it as a write
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not WRITE_MODE & set(mode.value))


class _Walker(ast.NodeVisitor):
    def __init__(self, rel: str) -> None:
        self.rel = rel
        self.scope: list[str] = []
        self.found: list[str] = []

    def _flag(self, node, what: str) -> None:
        qual = ".".join(self.scope)
        if (self.rel, qual) not in ALLOWED:
            self.found.append(f"{self.rel}:{node.lineno} "
                              f"{qual or '<module>'} {what}")

    def _enter(self, node) -> None:
        if node.name == "to_csv":
            self._flag(node, "def to_csv")
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def visit_Call(self, node) -> None:
        if _writes(node):
            self._flag(node, "writes a file")
        self.generic_visit(node)


def file_writers(root: pathlib.Path = SRC) -> list[str]:
    found = []
    for path in sorted(root.rglob("*.py")):
        w = _Walker(path.relative_to(root).as_posix())
        w.visit(ast.parse(path.read_text(), filename=str(path)))
        found += w.found
    return found


def test_one_writer():
    assert file_writers() == []


def test_the_exempt_defs_exist_and_write():
    tree = ast.parse((SRC / "towerlab" / "cli.py").read_text())
    defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    for _, name in ALLOWED:
        assert any(isinstance(n, ast.Call) and _writes(n)
                   for n in ast.walk(defs[name]))


def test_guard_flags_every_other_writer(tmp_path):
    pkg = tmp_path / "towerlab"
    pkg.mkdir()
    (pkg / "cli.py").write_text(
        "def _csv(run, name, header, rows):\n"
        "    with open(name, 'w') as fh:\n"
        "        fh.write(header)\n"
        "def _plot_script(run, name):\n"
        "    open(name, mode='w').close()\n"
        "def _load(path):\n"
        "    with open(path) as fh:\n"
        "        return fh.read()\n"
        "def cmd_tail(run, path):\n"
        "    with open(path, 'a') as fh:\n"
        "        fh.write('n\\n')\n")
    (pkg / "tower.py").write_text(
        "import io, pathlib\n"
        "class Tower:\n"
        "    def to_csv(self, path):\n"
        "        pathlib.Path(path).write_text('j\\n')\n"
        "    def read(self, path):\n"
        "        return open(path, 'rb').read()\n"
        "def dump(path, mode):\n"
        "    io.open(path, mode).close()\n"
        "    pathlib.Path(path).open('x').close()\n"
        "    pathlib.Path(path).write_bytes(b'')\n"
        "LOG = open('log.txt', 'r+')\n")
    assert file_writers(tmp_path) == [
        "towerlab/cli.py:10 cmd_tail writes a file",
        "towerlab/tower.py:3 Tower def to_csv",
        "towerlab/tower.py:4 Tower.to_csv writes a file",
        "towerlab/tower.py:8 dump writes a file",
        "towerlab/tower.py:9 dump writes a file",
        "towerlab/tower.py:10 dump writes a file",
        "towerlab/tower.py:11 <module> writes a file",
    ]
