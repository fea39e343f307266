"""Static guard: one product path for the real transfer matrix ``Mhat``.

``CylinderBasis.apply`` is the only code under src/ that multiplies by
Mhat.  It multiplies through the data that ``CylinderBasis`` keeps of
Mhat (the dense column view ``_mhat_dense`` and the blocks
``_mhat_blocks``), and it multiplies a complex operand as its real
(re, im) pairs, where ``Mhat @ u`` would cast all of Mhat to a fresh
complex copy.  ``OperatorMatrix.mat`` counts as Mhat data too: it is Mhat
itself for the untwisted operator and Mhat diag(tw) otherwise.  The walk
fails on:

- a matrix product with Mhat data (or a view of it, e.g. ``Mhat.T``) as
  an operand: ``@``, ``np.dot``/``matmul``/``einsum``/... or ``.dot``,
  outside ``CylinderBasis.apply``;
- an elementwise product ``Mhat * x``, a dense copy whose only use is a
  matrix product, outside ``OperatorMatrix.mat``, which builds the
  twisted matrix whose I - R ``_near_kernel`` factorises;
- Mhat data bound to another name, which would hide a product from this
  walk: the data itself anywhere, and a subscript or slice of it, or a
  loop over it, outside ``CylinderBasis``; a negated copy, ``-Mhat``,
  counts as the data;
- a sparse matrix or sparse factorisation built outside
  ``operators.lu_factor``, which makes the one sparse copy of I - R, for
  SuperLU.  The walk cannot follow I - R from ``_near_kernel`` into that
  helper, so a sparse constructor anywhere else counts, as a possible
  sparse copy of Mhat data under another name, even in a function that
  ``DENSE_ALLOWED`` names.

Only the functions in ``DENSE_ALLOWED`` may use the dense matrix, each for
the reason given there.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

MHAT_DATA = {"Mhat", "_mhat_dense", "_mhat_blocks", "mat"}
MATMUL_ALLOWED = {("towerlab/transfer/basis.py", "CylinderBasis.apply")}
SCALE_ALLOWED = {("towerlab/transfer/operators.py", "OperatorMatrix.mat")}
VIEW_ALLOWED = ("towerlab/transfer/basis.py", "CylinderBasis")
SPARSE_ALLOWED = {("towerlab/transfer/operators.py", "lu_factor")}
DENSE_ALLOWED = {
    ("towerlab/transfer/operators.py", "_near_kernel"):
        "builds I - R for the sparse LU of resolvent_scan and "
        "laplace_transform, and takes the residual A @ x of its near-kernel "
        "vector",
    ("towerlab/transfer/operators.py", "OperatorMatrix.duality_defect"):
        "a diagnostic: builds the mu-adjoint of the matrix and multiplies "
        "by it",
}
PRODUCT_CALLS = {"dot", "matmul", "einsum", "tensordot", "inner", "vdot",
                 "multi_dot"}
SPARSE_CALLS = {f"{kind}_{form}" for kind in ("bsr", "coo", "csc", "csr",
                                              "dia", "dok", "lil")
                for form in ("matrix", "array")} | \
    {"splu", "spilu", "spsolve", "factorized"}


def _call_name(node: ast.Call):
    f = node.func
    return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)


def _is_mhat(node) -> bool:
    """Mhat data itself, or an attribute, item, method result or negation
    of it."""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Call,
                            ast.UnaryOp)):
        if isinstance(node, ast.Attribute) and node.attr in MHAT_DATA:
            return True
        node = node.func if isinstance(node, ast.Call) else \
            node.operand if isinstance(node, ast.UnaryOp) else node.value
    return isinstance(node, ast.Name) and node.id in MHAT_DATA


def _is_ref(node) -> bool:
    while isinstance(node, ast.UnaryOp):
        node = node.operand
    return (isinstance(node, ast.Attribute) and node.attr in MHAT_DATA) or \
        (isinstance(node, ast.Name) and node.id in MHAT_DATA)


def _in_basis(where: tuple[str, str]) -> bool:
    return where[0] == VIEW_ALLOWED[0] and \
        where[1].split(".")[0] == VIEW_ALLOWED[1]


def _findings(node, where: tuple[str, str]) -> list[str]:
    if isinstance(node, ast.BinOp) and (_is_mhat(node.left)
                                        or _is_mhat(node.right)):
        if isinstance(node.op, ast.MatMult) and where not in MATMUL_ALLOWED:
            return ["matrix product"]
        if isinstance(node.op, ast.Mult) and where not in SCALE_ALLOWED:
            return ["elementwise product"]
    if isinstance(node, ast.Call):
        f = node.func
        name = _call_name(node)
        operands = list(node.args)
        if isinstance(f, ast.Attribute):
            operands.append(f.value)
        if name in PRODUCT_CALLS and any(map(_is_mhat, operands)) and \
                where not in MATMUL_ALLOWED:
            return [f"{name} call"]
    if isinstance(node, (ast.Assign, ast.AnnAssign, ast.NamedExpr)) and \
            node.value is not None:
        if _is_ref(node.value):
            return ["alias"]
        if isinstance(node.value, ast.Subscript) and \
                _is_mhat(node.value) and not _in_basis(where):
            return ["subscript alias"]
    if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)) and \
            _is_mhat(node.iter) and not _in_basis(where):
        return ["loop alias"]
    return []


def _sparse_findings(node, where: tuple[str, str]) -> list[str]:
    if isinstance(node, ast.Call) and _call_name(node) in SPARSE_CALLS and \
            where not in SPARSE_ALLOWED:
        return ["sparse copy"]
    return []


class _Walker(ast.NodeVisitor):
    def __init__(self, rel: str, allowed) -> None:
        self.rel = rel
        self.allowed = allowed
        self.scope: list[str] = []
        self.found: list[str] = []

    def _enter(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def generic_visit(self, node) -> None:
        qual = ".".join(self.scope)
        where = (self.rel, qual)
        dense = [] if where in self.allowed else _findings(node, where)
        for what in dense + _sparse_findings(node, where):
            line = (node.iter if isinstance(node, ast.comprehension)
                    else node).lineno
            self.found.append(f"{self.rel}:{line} {qual or '<module>'}"
                              f": {what}")
        super().generic_visit(node)


def mhat_products(root: pathlib.Path = SRC,
                  allowed=tuple(DENSE_ALLOWED)) -> list[str]:
    found = []
    for path in sorted(root.rglob("*.py")):
        walker = _Walker(path.relative_to(root).as_posix(), allowed)
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
        "    def __init__(self):\n"
        "        self._mhat_dense = self.Mhat[:, 3:]\n"
        "    def apply(self, u):\n"
        "        out = self._mhat_dense @ u[3:]\n"
        "        for rows, cols, vals in self._mhat_blocks:\n"
        "            out[rows] += vals @ u[cols]\n"
        "        return out\n"
        "    def other(self, u):\n"
        "        return u @ self.Mhat.T\n")
    (pkg / "operators.py").write_text(
        "class OperatorMatrix:\n"
        "    def mat(self):\n"
        "        return self.basis.Mhat * self.tw\n"
        "def elsewhere(basis, tw, u):\n"
        "    M = basis.Mhat\n"
        "    A = basis.Mhat * tw\n"
        "    return np.dot(basis.Mhat, u) + basis.Mhat.dot(u) + A @ M\n"
        "def blocked(basis, u):\n"
        "    D = basis.Mhat[:, 3:]\n"
        "    out = basis._mhat_dense @ u[3:]\n"
        "    for rows, cols, vals in basis._mhat_blocks:\n"
        "        out[rows] += vals @ u[cols]\n"
        "    return [v for _, _, v in basis._mhat_blocks], D\n")
    assert mhat_products(tmp_path) == [
        "towerlab/transfer/basis.py:10 CylinderBasis.other: matrix product",
        "towerlab/transfer/operators.py:5 elsewhere: alias",
        "towerlab/transfer/operators.py:6 elsewhere: elementwise product",
        "towerlab/transfer/operators.py:7 elsewhere: dot call",
        "towerlab/transfer/operators.py:7 elsewhere: dot call",
        "towerlab/transfer/operators.py:9 blocked: subscript alias",
        "towerlab/transfer/operators.py:10 blocked: matrix product",
        "towerlab/transfer/operators.py:11 blocked: loop alias",
        "towerlab/transfer/operators.py:13 blocked: loop alias",
    ]


def test_dense_matrix_uses_are_each_needed():
    # without its allowance, each allowed function is flagged; the scan and
    # the Laplace transform reach the dense matrix only through the
    # near-kernel helper
    flagged = {f.split(" ")[1].rstrip(":") for f in mhat_products(allowed=())}
    assert flagged == {qual for _, qual in DENSE_ALLOWED}
    assert flagged == {"_near_kernel", "OperatorMatrix.duality_defect"}


def test_guard_sees_through_operator_matrix(tmp_path):
    pkg = tmp_path / "towerlab" / "transfer"
    pkg.mkdir(parents=True)
    (pkg / "operators.py").write_text(
        "def elsewhere(op, v):\n"
        "    return op.mat @ v\n"
        "def _near_kernel(op, x):\n"
        "    A = -op.mat\n"
        "    return A @ x\n")
    assert mhat_products(tmp_path) == [
        "towerlab/transfer/operators.py:2 elsewhere: matrix product"]
    assert mhat_products(tmp_path, allowed=()) == [
        "towerlab/transfer/operators.py:2 elsewhere: matrix product",
        "towerlab/transfer/operators.py:4 _near_kernel: alias"]


def test_guard_allows_one_sparse_copy(tmp_path):
    # only the LU helper may build a sparse matrix; the dense allowance of
    # _near_kernel does not cover one
    pkg = tmp_path / "towerlab" / "transfer"
    pkg.mkdir(parents=True)
    (pkg / "operators.py").write_text(
        "def lu_factor(A):\n"
        "    return splu(csc_matrix(A))\n"
        "def _near_kernel(op, x):\n"
        "    A = -op.mat\n"
        "    return sparse.csc_matrix(A), splu(A)\n"
        "def elsewhere(basis):\n"
        "    return csr_matrix(basis.Mhat), csr_array(basis.Mhat.T)\n")
    assert mhat_products(tmp_path) == [
        "towerlab/transfer/operators.py:5 _near_kernel: sparse copy",
        "towerlab/transfer/operators.py:5 _near_kernel: sparse copy",
        "towerlab/transfer/operators.py:7 elsewhere: sparse copy",
        "towerlab/transfer/operators.py:7 elsewhere: sparse copy",
    ]
