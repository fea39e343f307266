"""Static guard: every parameter of every function under src/ is read.

A parameter that the body never reads is a setting that does nothing:
callers can pass it, nothing changes.  The walk covers every ``def``
(methods and nested functions included); a read inside a nested function
or lambda counts, and a method's receiver ``self``/``cls`` is not checked.
Only the uniform call signature below is exempt.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# A fixed calling convention, not a per-function choice: every observable
# callback is called as f(x, u, h), whether or not it needs all of them.
OBSERVABLE_ARGS = ["x", "u", "h"]


def _params(fn: ast.FunctionDef) -> list[str]:
    a = fn.args
    names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
    names += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
    return names


def _reads(fn: ast.FunctionDef) -> set[str]:
    out = set()
    for stmt in fn.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add(node.id)
    return out


def unread_parameters(root: pathlib.Path = SRC) -> list[str]:
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for f in c.body
                   if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            params = _params(fn)
            if params == OBSERVABLE_ARGS:
                continue
            if id(fn) in methods and params and params[0] in ("self", "cls"):
                params = params[1:]
            reads = _reads(fn)
            for name in params:
                if name not in reads:
                    rel = path.relative_to(root)
                    found.append(f"{rel}:{fn.lineno} {fn.name}({name})")
    return found


def test_every_parameter_is_read():
    assert unread_parameters() == []


def test_guard_flags_an_unread_parameter(tmp_path):
    (tmp_path / "m.py").write_text(
        "def f(a, b=1, *rest, c, **kw):\n"
        "    return a + len(rest) + kw['k']\n"
        "def cmd_x(cfg, args):\n"
        "    pass\n"
        "def obs(x, u, h):\n"
        "    return x\n"
        "class K:\n"
        "    def m(self, v):\n"
        "        def inner():\n"
        "            return v\n"
        "        return inner\n")
    assert unread_parameters(tmp_path) == [
        "m.py:1 f(b)", "m.py:1 f(c)", "m.py:3 cmd_x(cfg)", "m.py:3 cmd_x(args)"]
