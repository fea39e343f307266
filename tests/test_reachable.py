"""Static guards: every def under src/ is reached from a driver, and
every default of a def is one that some driver call changes.

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

The second guard reads the calls that the drivers make: the calls in the
module-level statements, in the benchmark files and in the bodies of the
defs reached from the roots (``ALLOWED`` left out, so a health check or a
test reference is no driver).  A call reaches a def by the same names, and
a class name reaches its ``__init__``.  Its positional arguments map onto
the def's parameters in order, ``self`` or ``cls`` skipped for a method.
An argument changes a defaulted parameter unless it is a literal equal to
the default; a non-literal argument counts as a change, and so does every
parameter that a ``*args`` (from its position on) or ``**kwargs`` splat
can reach.  A defaulted parameter that no driver call changes is a
constant dressed as an option, unless ``KEPT_DEFAULTS`` names it with a
reason.
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
    "CylinderBasis.check_nesting": "diagnostic: the partitions nest",
    "OperatorMatrix.duality_defect":
        "diagnostic: R is the dual of composition with F",
    # independent references that tests compare driven results against
    "assemble_R": "reference: the untwisted R on the basis's table",
    "OperatorMatrix.pointwise_apply": "pointwise reference for R",
    "MapModel.apply_deriv": "reference derivative for the cell checks",
    "verify_triple": "reference for the periodic-orbit triples",
    "primitive_necklace_count": "closed-form count of primitive orbits",
}

# Defaulted parameters that no driver call changes, each with its reason.
KEPT_DEFAULTS = {
    # the health checks that the run manifest will call at their defaults
    "InducedMap.check_bijectivity(tol)": "health check: endpoint tolerance",
    "InducedMap.check_expansion(pairs_per_cell)": "health check: sample size",
    "InducedMap.check_expansion(rng)": "health check: seeded by default",
    "InducedMap.check_backward_lipschitz(pairs_per_cell)":
        "health check: sample size",
    "InducedMap.check_backward_lipschitz(rng)":
        "health check: seeded by default",
    "InducedMap.check_distortion(pairs_per_cell)": "health check: sample size",
    "InducedMap.check_distortion(rng)": "health check: seeded by default",
    "CylinderBasis.check_nesting(tol)": "health check: tiling tolerance",
    "OperatorMatrix.duality_defect(n_pairs)": "diagnostic: sample size",
    "OperatorMatrix.duality_defect(seed)": "diagnostic: seeded by default",
    # sizes and failing sides that the tests set
    "pm_induced(branch_cutoff)": "tests build small pm systems",
    "pm_induced(tail_horizon)": "tests build small pm systems",
    "doubling_induced(branch_cutoff)": "tests build small doubling systems",
    "doubling_induced(tail_horizon)": "tests build small doubling systems",
    "approx_eigenfunction_search(depth)":
        "tests check depths 1 and 2 against a brute-force minimum",
    "resolvent_scan(n_adversarial)":
        "tests compare the probe block with a loop of fewer probes",
    # references and entry points
    "verify_triple(roof)": "test reference: roof 1 when none is given",
    "main(argv)": "entry point: sys.argv when run as a script",
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
        self.node = node
        self.owner = owner
        self.name = node.name
        self.qualname = f"{owner.name}.{node.name}" if owner else node.name
        self.where = f"{rel}:{node.lineno} {self.qualname}"
        if isinstance(node, ast.ClassDef):
            self.methods = [_Def(rel, n, self) for n in node.body
                            if isinstance(n, _DEFS)]
            self.body = [n for n in node.body if not isinstance(n, _DEFS)] \
                + node.bases + node.keywords + node.decorator_list
        else:
            self.methods = []
            self.body = [node]
        self.uses = _loads(self.body)


def _scan(src: pathlib.Path, bench):
    """The defs under ``src``, the names the roots reach, and the root
    nodes: module-level statements and the benchmark files."""
    defs: list[_Def] = []
    roots: set[str] = set()
    nodes: list[ast.AST] = []
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        rel = str(path.relative_to(src))
        top = [_Def(rel, n) for n in tree.body if isinstance(n, _DEFS)]
        nodes += [n for n in tree.body if not isinstance(n, _DEFS)]
        if path.name == "cli.py":
            roots |= {d.name for d in top
                      if d.name.startswith("cmd_") or d.name == "main"}
        for d in top:
            defs += [d] + d.methods
    for path in bench:
        if path.exists():
            nodes.append(ast.parse(path.read_text(), filename=str(path)))
    return defs, roots | _loads(nodes), nodes


def _reach(defs: list[_Def], roots: set[str], allowed) -> set[int]:
    """ids of the defs reached from the root names and the allowed defs."""
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
    return reached


def unreached_defs(src: pathlib.Path = SRC, bench=BENCH,
                   allowed=ALLOWED) -> list[str]:
    defs, roots, _ = _scan(src, bench)
    reached = _reach(defs, roots, allowed)
    return [d.where for d in defs
            if id(d) not in reached and not _is_dunder(d.name)]


def _defaults(d: _Def) -> tuple[list[str], dict[str, ast.AST]]:
    """The positional parameters a call fills (``self``/``cls`` dropped for
    a method) and the defaulted parameters with their default nodes."""
    args = d.node.args
    pos = [a.arg for a in args.posonlyargs + args.args]
    out = dict(zip(pos[len(pos) - len(args.defaults):], args.defaults))
    out.update((a.arg, v) for a, v in zip(args.kwonlyargs, args.kw_defaults)
               if v is not None)
    return (pos[1:] if d.owner else pos), out


def _same_literal(arg: ast.AST, default: ast.AST) -> bool:
    try:
        return ast.literal_eval(arg) == ast.literal_eval(default)
    except ValueError:
        return False


def _changed(call: ast.Call, pos: list[str], defaults) -> set[str]:
    """The defaulted parameters that one call may set to another value."""
    if any(k.arg is None for k in call.keywords):
        return set(defaults)
    out = set()
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return out | (set(pos[i:]) & set(defaults))
        if i < len(pos) and pos[i] in defaults \
                and not _same_literal(arg, defaults[pos[i]]):
            out.add(pos[i])
    return out | {k.arg for k in call.keywords if k.arg in defaults
                  and not _same_literal(k.value, defaults[k.arg])}


def unchanged_defaults(src: pathlib.Path = SRC, bench=BENCH,
                       kept=KEPT_DEFAULTS) -> list[str]:
    defs, roots, nodes = _scan(src, bench)
    reached = _reach(defs, roots, {})
    nodes += [n for d in defs if id(d) in reached for n in d.body]
    calls: dict[str, list[ast.Call]] = {}
    for node in (c for n in nodes for c in ast.walk(n)):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else \
                f.attr if isinstance(f, ast.Attribute) else None
            calls.setdefault(name, []).append(node)
    out = []
    for d in defs:
        if isinstance(d.node, ast.ClassDef):
            continue
        pos, defaults = _defaults(d)
        name = d.owner.name if d.name == "__init__" else d.name
        changed = set()
        for call in calls.get(name, []):
            changed |= _changed(call, pos, defaults)
        out += [f"{d.where}({p})" for p in defaults
                if p not in changed and f"{d.qualname}({p})" not in kept]
    return out


def test_every_def_is_reached_from_a_driver():
    assert unreached_defs() == []


def test_every_default_is_changed_by_a_driver():
    assert unchanged_defaults() == []


def test_every_allowed_name_is_a_def():
    defs, _, _ = _scan(SRC, [])
    assert set(ALLOWED) <= {d.qualname for d in defs}


def test_every_kept_default_is_a_defaulted_parameter():
    defs, _, _ = _scan(SRC, [])
    params = {f"{d.qualname}({p})" for d in defs
              if not isinstance(d.node, ast.ClassDef) for p in _defaults(d)[1]}
    assert set(KEPT_DEFAULTS) <= params
    assert all(KEPT_DEFAULTS.values())


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


def test_guard_flags_an_unchanged_default(tmp_path):
    (tmp_path / "cli.py").write_text(
        "from m import f, K\n"
        "def cmd_run(x):\n"
        "    K(x)\n"
        "    return f(0, 1, 5, d=x, e=4)\n")
    (tmp_path / "m.py").write_text(
        "def f(a, b=1, c=2, d=3, e=4, g=6):\n"
        "    return a\n"
        "def unused(h=8):\n"
        "    return h\n"
        "class K:\n"
        "    def __init__(self, k=9):\n"
        "        self.k = k\n"
        "    def m(self, n=10):\n"
        "        return n\n")
    (tmp_path / "other.py").write_text("K().m(11)\n")
    # b and e get literals equal to their defaults, by position and by
    # keyword; c changes by position, d by keyword; g is allowlisted; k
    # changes through the class name, n through a module-level call; h is
    # never called
    got = unchanged_defaults(tmp_path, [], {"f(g)": "planted"})
    assert got == ["m.py:1 f(b)", "m.py:1 f(e)", "m.py:3 unused(h)"]
