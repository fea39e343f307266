"""Static guard: no hidden module state.

A result of the library depends on its arguments, not on what earlier calls
left behind in a module.  So no def under src/ changes a module-level name
in place (an item or attribute store, a ``del``, or a call of a mutating
method such as ``append``, ``update`` or ``setdefault``), none rebinds one
through ``global``, and none is memoised with ``functools.lru_cache`` or
``functools.cache``.  The defs that must keep module state are listed in
``ALLOWED`` with the reason.  A cache per instance (``cached_property``)
is not module state.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

ALLOWED = {
    ("towerlab/transfer/towerop.py", "_base_worker"):
        "starts the module's one worker thread on first use, under its lock",
    ("towerlab/transfer/towerop.py", "_forget_worker"):
        "a forked child drops its parent's worker and lock",
    ("towerlab/systems.py", "pm_induced"):
        "induction is deterministic: tests and the CLI share one instance "
        "per parameter set",
    ("towerlab/systems.py", "doubling_full"): "as pm_induced",
    ("towerlab/systems.py", "doubling_induced"): "as pm_induced",
    ("towerlab/acceptance.py", "_pm05_basis"):
        "the criteria share one basis, built on first use",
    ("towerlab/acceptance.py", "_doubling_basis"): "as _pm05_basis",
}
MUTATORS = {"append", "extend", "insert", "pop", "popitem", "remove",
            "clear", "update", "setdefault", "add", "discard", "sort",
            "reverse", "__setitem__", "__delitem__"}
CACHES = {"lru_cache", "cache"}
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _root(node):
    """The name at the bottom of an a.b[c].d chain, or None."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _own(node):
    """The nodes of a def's body, not those of the defs and classes in it."""
    todo = list(ast.iter_child_nodes(node))
    while todo:
        n = todo.pop()
        yield n
        if not isinstance(n, DEFS + (ast.ClassDef,)):
            todo.extend(ast.iter_child_nodes(n))


def _bound(node) -> tuple[set, set]:
    """The names a def binds locally, and those it declares global."""
    args = node.args
    local = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    local |= {a.arg for a in (args.vararg, args.kwarg) if a}
    glob = set()
    for n in _own(node):
        if isinstance(n, ast.Global):
            glob.update(n.names)
        elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
            local.add(n.id)
        elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                            ast.ClassDef)):
            local.add(n.name)
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            local |= {a.asname or a.name.split(".")[0] for a in n.names}
        elif isinstance(n, ast.ExceptHandler) and n.name:
            local.add(n.name)
    return local - glob, glob


def _module_names(tree: ast.Module) -> set:
    """The names a module assigns; not its imports, whose methods (as
    ``np.sort``) are functions."""
    return {n.id for n in _own(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}


def _cached(node) -> bool:
    for d in node.decorator_list:
        f = d.func if isinstance(d, ast.Call) else d
        name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id",
                                                                   None)
        if name in CACHES:
            return True
    return False


def _mutated(node) -> list[tuple[int, str]]:
    """(line, name) of every in-place change in a def's own body, by the
    name it changes."""
    out = []
    for n in _own(node):
        targets = []
        if isinstance(n, (ast.Assign, ast.Delete)):
            targets = n.targets
        elif isinstance(n, (ast.AugAssign, ast.AnnAssign)):
            targets = [n.target]
        for t in targets:
            for e in (t.elts if isinstance(t, ast.Tuple) else [t]):
                if isinstance(e, (ast.Attribute, ast.Subscript)):
                    out.append((e.lineno, _root(e)))
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) \
                and n.func.attr in MUTATORS:
            out.append((n.lineno, _root(n.func.value)))
    return out


class _Walker(ast.NodeVisitor):
    def __init__(self, rel: str, module: set, allowed) -> None:
        self.rel, self.module, self.allowed = rel, module, allowed
        self.scope: list[str] = []
        self.shadow: list[set] = []
        self.found: list[str] = []

    def visit_ClassDef(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_FunctionDef(self, node) -> None:
        self.scope.append(node.name)
        qual = ".".join(self.scope)
        local, glob = _bound(node)
        hidden = set().union(local, *self.shadow)
        flags = []
        if _cached(node):
            flags.append((node.lineno, "is memoised"))
        flags += [(node.lineno, f"rebinds {g} through global")
                  for g in sorted(glob & self.module)]
        flags += [(line, f"changes {name} in place")
                  for line, name in _mutated(node)
                  if name in self.module and name not in hidden]
        if (self.rel, qual) not in self.allowed:
            self.found += [f"{self.rel}:{line} {qual} {what}"
                           for line, what in sorted(flags)]
        self.shadow.append(local)
        self.generic_visit(node)
        self.shadow.pop()
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef


def module_state(root: pathlib.Path = SRC, allowed=ALLOWED) -> list[str]:
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        w = _Walker(path.relative_to(root).as_posix(), _module_names(tree),
                    allowed)
        w.visit(tree)
        found += w.found
    return found


def test_no_module_state():
    assert module_state() == []


def test_the_exempt_defs_exist_and_keep_state():
    held = set()
    for line in module_state(allowed={}):
        where, qual = line.split(" ")[:2]
        held.add((where.split(":")[0], qual))
    assert held == set(ALLOWED)


def test_guard_flags_every_other_module_state(tmp_path):
    pkg = tmp_path / "towerlab"
    pkg.mkdir()
    # the per-grid norm cache the passage decomposition once kept
    (pkg / "renewal.py").write_text(
        "import weakref\n"
        "_NORMS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()\n"
        "def tower_operator_decomposition(grid, s, n, n_probes=12, seed=0):\n"
        "    norms = _NORMS.setdefault(grid, {})\n"
        "    key = (s, n_probes, seed)\n"
        "    if key not in norms:\n"
        "        norms[key] = (s,)\n"
        "    return norms[key]\n")
    (pkg / "state.py").write_text(
        "import functools\n"
        "from functools import lru_cache, cached_property\n"
        "SEEN = []\n"
        "TABLE = {}\n"
        "COUNT = 0\n"
        "class Box:\n"
        "    level = 0\n"
        "BOX = Box()\n"
        "def note(x):\n"
        "    SEEN.append(x)\n"
        "    TABLE[x] = 1\n"
        "def bump():\n"
        "    global COUNT\n"
        "    COUNT += 1\n"
        "class Grid:\n"
        "    def raise_level(self):\n"
        "        BOX.level = 1\n"
        "        del TABLE[0]\n"
        "    @cached_property\n"
        "    def flat(self):\n"
        "        return [1]\n"
        "    def fill(self, x):\n"
        "        self.rows = []\n"
        "        self.rows.append(x)\n"
        "        return TABLE.get(x)\n"
        "@lru_cache(maxsize=None)\n"
        "def basis():\n"
        "    return 1\n"
        "@functools.cache\n"
        "def other():\n"
        "    return 2\n"
        "def shadowed(SEEN, x):\n"
        "    SEEN.append(x)\n"
        "    TABLE = {}\n"
        "    TABLE[x] = 1\n"
        "    def inner(y):\n"
        "        TABLE[y] = 2\n"
        "        SEEN.append(y)\n"
        "    return inner\n"
        "def outer():\n"
        "    def inner(y):\n"
        "        TABLE.update(y=y)\n"
        "    return inner\n")
    assert module_state(tmp_path, allowed={}) == [
        "towerlab/renewal.py:4 tower_operator_decomposition "
        "changes _NORMS in place",
        "towerlab/state.py:10 note changes SEEN in place",
        "towerlab/state.py:11 note changes TABLE in place",
        "towerlab/state.py:12 bump rebinds COUNT through global",
        "towerlab/state.py:17 Grid.raise_level changes BOX in place",
        "towerlab/state.py:18 Grid.raise_level changes TABLE in place",
        "towerlab/state.py:27 basis is memoised",
        "towerlab/state.py:30 other is memoised",
        "towerlab/state.py:42 outer.inner changes TABLE in place",
    ]
