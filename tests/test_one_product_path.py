"""Static guard: one product path for the real transfer matrix ``Mhat``.

``CylinderBasis.apply`` is the only code under src/ that multiplies by
Mhat.  It multiplies a complex operand as its real (re, im) pairs, where
``Mhat @ u`` would cast all of Mhat to a fresh complex copy.  The walk
fails on:

- a matrix product with Mhat (or a view of it, e.g. ``Mhat.T``) as an
  operand: ``@``, ``np.dot``/``matmul``/``einsum``/... or ``.dot``,
  outside ``CylinderBasis.apply``;
- an elementwise product ``Mhat * x``, a dense copy whose only use is a
  matrix product, outside ``assemble_twisted``, which builds the twisted
  operator matrix;
- Mhat bound to another name, which would hide a product from this walk.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

MATMUL_ALLOWED = {("towerlab/transfer/basis.py", "CylinderBasis.apply")}
SCALE_ALLOWED = {("towerlab/transfer/operators.py", "assemble_twisted")}
PRODUCT_CALLS = {"dot", "matmul", "einsum", "tensordot", "inner", "vdot",
                 "multi_dot"}


def _is_mhat(node) -> bool:
    """Mhat itself, or an attribute, item or method result of it."""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Call)):
        if isinstance(node, ast.Attribute) and node.attr == "Mhat":
            return True
        node = node.func if isinstance(node, ast.Call) else node.value
    return isinstance(node, ast.Name) and node.id == "Mhat"


def _is_ref(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "Mhat") or \
        (isinstance(node, ast.Name) and node.id == "Mhat")


def _findings(node, where: tuple[str, str]) -> list[str]:
    if isinstance(node, ast.BinOp) and (_is_mhat(node.left)
                                        or _is_mhat(node.right)):
        if isinstance(node.op, ast.MatMult) and where not in MATMUL_ALLOWED:
            return ["matrix product"]
        if isinstance(node.op, ast.Mult) and where not in SCALE_ALLOWED:
            return ["elementwise product"]
    if isinstance(node, ast.Call):
        f = node.func
        name = f.attr if isinstance(f, ast.Attribute) else \
            getattr(f, "id", None)
        operands = list(node.args)
        if isinstance(f, ast.Attribute):
            operands.append(f.value)
        if name in PRODUCT_CALLS and any(map(_is_mhat, operands)) and \
                where not in MATMUL_ALLOWED:
            return [f"{name} call"]
    if isinstance(node, (ast.Assign, ast.AnnAssign, ast.NamedExpr)) and \
            node.value is not None and _is_ref(node.value):
        return ["alias"]
    return []


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

    def generic_visit(self, node) -> None:
        qual = ".".join(self.scope)
        for what in _findings(node, (self.rel, qual)):
            self.found.append(f"{self.rel}:{node.lineno} {qual or '<module>'}"
                              f": {what}")
        super().generic_visit(node)


def mhat_products(root: pathlib.Path = SRC) -> list[str]:
    found = []
    for path in sorted(root.rglob("*.py")):
        walker = _Walker(path.relative_to(root).as_posix())
        walker.visit(ast.parse(path.read_text(), filename=str(path)))
        found += walker.found
    return found


def test_one_product_path():
    assert mhat_products() == []


def test_guard_flags_every_other_product(tmp_path):
    pkg = tmp_path / "towerlab" / "transfer"
    pkg.mkdir(parents=True)
    (pkg / "basis.py").write_text(
        "class CylinderBasis:\n"
        "    def apply(self, u):\n"
        "        return self.Mhat @ u\n"
        "    def other(self, u):\n"
        "        return u @ self.Mhat.T\n")
    (pkg / "operators.py").write_text(
        "def assemble_twisted(basis, tw):\n"
        "    return basis.Mhat * tw\n"
        "def elsewhere(basis, tw, u):\n"
        "    M = basis.Mhat\n"
        "    A = basis.Mhat * tw\n"
        "    return np.dot(basis.Mhat, u) + basis.Mhat.dot(u) + A @ M\n")
    assert mhat_products(tmp_path) == [
        "towerlab/transfer/basis.py:5 CylinderBasis.other: matrix product",
        "towerlab/transfer/operators.py:4 elsewhere: alias",
        "towerlab/transfer/operators.py:5 elsewhere: elementwise product",
        "towerlab/transfer/operators.py:6 elsewhere: dot call",
        "towerlab/transfer/operators.py:6 elsewhere: dot call",
    ]
