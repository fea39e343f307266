"""Static guard: one product path for the real transfer matrix ``Mhat``.

``CylinderBasis`` keeps Mhat as its n x J cylinder table ``_mhat_table``
(row i holds the entry of each inverse branch j, at the leaf
``_colmap[i, j]``) and the blocks ``_mhat_blocks`` gathered from it; no
code under src/ holds Mhat as a dense n x n array.
``CylinderBasis.apply`` is the only code under src/ that multiplies by
Mhat.  It multiplies through the table's unrefined columns and the
blocks, and it multiplies a complex operand as its real (re, im) pairs,
where a complex product would cast the table to a fresh complex copy.
The walk fails on:

- a matrix product with table data (or a view of it, e.g. ``_mhat_table.T``)
  as an operand: ``@``, ``np.dot``/``matmul``/``einsum``/... or ``.dot``,
  outside ``CylinderBasis.apply``;
- an elementwise product ``_mhat_table * x``, a copy whose only use is a
  matrix product, outside ``OperatorMatrix.i_minus``, which twists the
  table's entries on the sparse pattern of I - Mhat;
- table data bound to another name, which would hide a product from this
  walk: the data itself anywhere, and a subscript or slice of it, or a
  loop over it, outside ``CylinderBasis``; a negated copy, ``-_mhat_table``,
  counts as the data;
- a sparse matrix or sparse factorisation built outside
  ``OperatorMatrix.i_minus``, which builds the sparse I - R that
  ``_near_kernel`` factorises and multiplies by, and ``operators.lu_factor``,
  which factorises it with SuperLU.  The walk cannot follow a sparse
  matrix under another name, so a sparse constructor anywhere else
  counts, as a possible sparse copy of table data, even in a function that
  ``DENSE_ALLOWED`` names.

``DENSE_ALLOWED`` would name the functions that may use table data freely,
each with its reason; it is empty.  A runtime test checks that building a
basis of n = 4096 peaks below one dense n x n array.
"""

import ast
import pathlib
import tracemalloc

from towerlab import systems
from towerlab.transfer.basis import CylinderBasis
from towerlab.transfer.operators import assemble_R

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

MHAT_DATA = {"_mhat_table", "_mhat_blocks"}
MATMUL_ALLOWED = {("towerlab/transfer/basis.py", "CylinderBasis.apply")}
SCALE_ALLOWED = {("towerlab/transfer/operators.py", "OperatorMatrix.i_minus")}
VIEW_ALLOWED = ("towerlab/transfer/basis.py", "CylinderBasis")
SPARSE_ALLOWED = {("towerlab/transfer/operators.py", "OperatorMatrix.i_minus"),
                  ("towerlab/transfer/operators.py", "lu_factor")}
DENSE_ALLOWED: dict = {}
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
    """Table data itself, or an attribute, item, method result or negation
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
        "        self._mhat_blocks = [(r, c, self._mhat_table[r, :3])]\n"
        "    def apply(self, u):\n"
        "        out = self._mhat_table[:, 3:] @ u[3:]\n"
        "        for rows, cols, vals in self._mhat_blocks:\n"
        "            out[rows] += vals @ u[cols]\n"
        "        return out\n"
        "    def other(self, u):\n"
        "        return u @ self._mhat_table.T\n")
    (pkg / "operators.py").write_text(
        "class OperatorMatrix:\n"
        "    def i_minus(self):\n"
        "        return self.basis._mhat_table * self.tw\n"
        "def elsewhere(basis, tw, u):\n"
        "    M = basis._mhat_table\n"
        "    A = basis._mhat_table * tw\n"
        "    return np.dot(basis._mhat_table, u) + basis._mhat_table.dot(u)"
        " + A @ M\n"
        "def blocked(basis, u):\n"
        "    D = basis._mhat_table[:, 3:]\n"
        "    out = basis._mhat_table[:, 3:] @ u[3:]\n"
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
    # without its allowance, each allowed function is flagged; none is
    # allowed, as nothing needs the dense matrix: the scan, the Laplace
    # transform and the duality diagnostic all run on the sparse I - R
    flagged = {f.split(" ")[1].rstrip(":") for f in mhat_products(allowed=())}
    assert flagged == {qual for _, qual in DENSE_ALLOWED}
    assert flagged == set()


def test_guard_sees_through_operator_matrix(tmp_path):
    pkg = tmp_path / "towerlab" / "transfer"
    pkg.mkdir(parents=True)
    (pkg / "operators.py").write_text(
        "def elsewhere(op, v):\n"
        "    return op.basis._mhat_table @ v\n"
        "def _near_kernel(op, x):\n"
        "    A = -op.basis._mhat_table\n"
        "    return A @ x\n"
        "class OperatorMatrix:\n"
        "    def i_minus(self):\n"
        "        return -(self.basis._mhat_table[rows, cols] * self.tw[cols])"
        "\n")
    # the near-kernel helper has no dense allowance: its -table is an
    # alias of table data, and the sparse builder may only twist entries
    assert mhat_products(tmp_path) == [
        "towerlab/transfer/operators.py:2 elsewhere: matrix product",
        "towerlab/transfer/operators.py:4 _near_kernel: alias"]


def test_guard_allows_one_sparse_copy(tmp_path):
    # only the I - R builder and the LU helper may build a sparse matrix;
    # the near-kernel helper that uses both may not
    pkg = tmp_path / "towerlab" / "transfer"
    pkg.mkdir(parents=True)
    (pkg / "operators.py").write_text(
        "class OperatorMatrix:\n"
        "    def i_minus(self):\n"
        "        return csc_matrix((data, indices, indptr))\n"
        "def lu_factor(A):\n"
        "    return splu(csc_matrix(A))\n"
        "def _near_kernel(op, x):\n"
        "    A = op.i_minus()\n"
        "    return sparse.csc_matrix(A), splu(A)\n"
        "def elsewhere(basis):\n"
        "    return csr_matrix(basis._mhat_table), "
        "csr_array(basis._mhat_table.T)\n")
    assert mhat_products(tmp_path) == [
        "towerlab/transfer/operators.py:8 _near_kernel: sparse copy",
        "towerlab/transfer/operators.py:8 _near_kernel: sparse copy",
        "towerlab/transfer/operators.py:10 elsewhere: sparse copy",
        "towerlab/transfer/operators.py:10 elsewhere: sparse copy",
    ]


def test_basis_build_holds_no_dense_matrix():
    # the doubling basis at depth 12 (n = 4096) builds, normalises and
    # blocks its table, and gives the sparse I - R, with a peak below one
    # dense float64 n x n array (134 MB): a dense Mhat alone would reach it
    ind = systems.doubling_full()
    tracemalloc.start()
    try:
        basis = CylinderBasis(ind, depth=12, refine_symbols=2)
        assemble_R(basis).i_minus()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert basis.n == 4096
    assert peak < 8 * basis.n ** 2
