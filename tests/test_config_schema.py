"""Static guard: the config table in cli.py and what the handlers read agree.

Every (section, key) declared in ``cli.SCHEMA`` is read by some handler as
``run["section", "key"]`` (directly or through a helper it calls), and every
such read is declared.  README's example config uses declared keys only and
parses through ``cli._load``.  ``cli.FLAG_READERS`` names exactly the
subcommands whose handlers read each flag.
"""

import ast
import pathlib
import re

from towerlab import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def key_reads(source: str) -> dict[str, set]:
    """For each module-level function, the constant ``x["sec", "key"]``
    subscripts and ``x.strict`` reads in it and in the module-level
    functions it calls, transitively."""
    fns = {f.name: f for f in ast.parse(source).body
           if isinstance(f, ast.FunctionDef)}
    own, calls = {}, {}
    for name, fn in fns.items():
        own[name], calls[name] = set(), set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Subscript) and \
                    isinstance(node.slice, ast.Tuple) and \
                    len(node.slice.elts) == 2 and \
                    all(isinstance(e, ast.Constant) and isinstance(e.value, str)
                        for e in node.slice.elts):
                own[name].add(tuple(e.value for e in node.slice.elts))
            elif isinstance(node, ast.Attribute) and node.attr == "strict":
                own[name].add("--strict")
            elif isinstance(node, ast.Name) and node.id in fns:
                calls[name].add(node.id)
    out = {}
    for name in fns:
        seen, todo = set(), [name]
        while todo:
            f = todo.pop()
            if f not in seen:
                seen.add(f)
                todo += calls[f]
        out[name] = set().union(*(own[f] for f in seen))
    return out


def handler_reads() -> dict[str, set]:
    reads = key_reads(pathlib.Path(cli.__file__).read_text())
    return {sub: reads[fn.__name__] for sub, fn in cli.HANDLERS.items()}


def readme_config() -> str:
    return re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)


def test_every_declared_key_is_read():
    read = set().union(*handler_reads().values())
    assert [k for k in cli.SCHEMA if k not in read] == []


def test_every_read_key_is_declared():
    read = set().union(*handler_reads().values()) - {"--strict"}
    assert sorted(read - set(cli.SCHEMA)) == []


def test_flag_readers_match_handlers():
    reads = handler_reads()
    assert cli.FLAG_READERS == {
        "config": {s for s, r in reads.items() if r & set(cli.SCHEMA)},
        "seed": {s for s, r in reads.items() if ("run", "seed") in r},
        "strict": {s for s, r in reads.items() if "--strict" in r},
    }


def test_readme_config_is_declared_and_runs(tmp_path):
    # _load refuses an undeclared section or key, so this also checks that
    # README declares nothing the table lacks
    path = tmp_path / "readme.ini"
    path.write_text(readme_config())
    cfg = cli._load(str(path), "induce")
    # inline comments are stripped, including the indented comment line
    assert cfg["map", "kind"] == "pm" and cfg["basis", "refine"] == 24
    assert cfg["observables", "w"] == "coordinate"
    assert cli.main(["induce", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 0


def test_guard_sees_reads_through_helpers():
    reads = key_reads(
        "def _helper(run):\n"
        "    return run['map', 'J'], run[0], run['a', 1]\n"
        "def cmd_x(run):\n"
        "    return _helper(run) + run.strict\n"
        "def cmd_y(run):\n"
        "    return run['grids', 'typo']\n")
    assert reads["cmd_x"] == {("map", "J"), "--strict"}
    assert reads["cmd_y"] == {("grids", "typo")}
