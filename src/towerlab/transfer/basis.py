"""Cylinder discretisation of the induced base map.

Functions on the base are represented by their values on a finite partition
of Y into cylinders of the return map: the first ``refine_symbols`` cells
are refined to word depth ``depth`` (deep continuations aggregated into one
sibling per node), the remaining represented cells stay whole.  Collocation
is at cylinder midpoints.  The transfer matrix is normalised through its
Perron pair so that R1 = 1 and the discrete measure is exactly stationary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from towerlab.maps import InducedMap
from towerlab.transfer.diameters import GroupDiameters

BIG = -2  # aggregated deep-continuation symbol (cells >= refine_symbols)

__all__ = ["CylinderBasis", "BIG"]


@dataclass(frozen=True)
class _Leaf:
    word: tuple[int, ...]
    lo: float
    hi: float


class CylinderBasis:
    """Finite cylinder partition of the base with collocation structure."""

    def __init__(self, ind: InducedMap, depth: int = 2,
                 refine_symbols: int = 50) -> None:
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.ind = ind
        self.depth = int(depth)
        self.refine = int(min(refine_symbols, ind.J))
        leaves: list[_Leaf] = []
        self._tree: dict = {}
        big_lo, big_hi = self._aggregate_range()
        self._big_range = (big_lo, big_hi)

        def expand(word: tuple[int, ...], lo: float, hi: float, node: dict):
            if len(word) == self.depth:
                node["leaf"] = len(leaves)
                leaves.append(_Leaf(word, lo, hi))
                return
            kids: dict = {}
            node["children"] = kids
            targets = np.empty(2 * self.refine + 2)
            targets[0:2 * self.refine:2] = ind.lo[: self.refine]
            targets[1:2 * self.refine:2] = ind.hi[: self.refine]
            targets[-2:] = (big_lo, big_hi)
            pulled = self._pull(word, targets)
            for i in range(self.refine):
                kid: dict = {}
                kids[i] = kid
                expand(word + (i,), float(pulled[2 * i]),
                       float(pulled[2 * i + 1]), kid)
            if big_hi > big_lo:
                kids[BIG] = {"leaf": len(leaves)}
                leaves.append(_Leaf(word + (BIG,), float(pulled[-2]),
                                    float(pulled[-1])))

        for j in range(ind.J):
            node: dict = {}
            self._tree[j] = node
            if j < self.refine and self.depth > 1:
                expand((j,), ind.lo[j], ind.hi[j], node)
            else:
                node["leaf"] = len(leaves)
                leaves.append(_Leaf((j,), ind.lo[j], ind.hi[j]))

        self.leaves = leaves
        self.n = len(leaves)
        self.words = [lf.word for lf in leaves]
        self.lo = np.array([lf.lo for lf in leaves])
        self.hi = np.array([lf.hi for lf in leaves])
        self.width = self.hi - self.lo
        self.mid = 0.5 * (self.lo + self.hi)
        self.col = np.array([lf.word[0] for lf in leaves], dtype=int)
        self.r_col = ind.r[self.col]
        order = np.argsort(self.lo, kind="stable")
        self._sorted_lo = self.lo[order]
        self._sorted_idx = order
        # prefix groups for the symbolic seminorm, contiguous by construction
        self._groups = []
        for d in range(self.depth):
            seen: dict = {}
            gid = np.empty(self.n, dtype=int)
            for i, w in enumerate(self.words):
                key = w[:d]
                gid[i] = seen.setdefault(key, len(seen))
            self._groups.append(gid)
        self._diameters = GroupDiameters(dict(enumerate(self._groups)))
        self._assemble()

    # -- geometry ------------------------------------------------------------

    def _aggregate_range(self) -> tuple[float, float]:
        ind = self.ind
        if self.refine >= ind.J:
            return (ind.Y[0], ind.Y[0])  # empty aggregate
        hi = float(ind.hi[self.refine:].max())
        lo = ind.Y[0]
        widths = float(ind.widths[self.refine:].sum())
        tailw = (hi - lo) - widths
        if tailw < -1e-9 or not np.all(np.diff(ind.lo[self.refine:]) < 0):
            raise ValueError("deep cells do not form a contiguous aggregate")
        return lo, hi

    def _pull(self, word: tuple[int, ...], pts: np.ndarray) -> np.ndarray:
        for sym in reversed(word):
            pts = self.ind.F_inverse(sym, pts)
        return pts

    def leaf_of_word(self, syms) -> int:
        """Leaf containing the cylinder word; unresolved symbols aggregate."""
        s0 = syms[0]
        if s0 >= len(self._tree):
            s0 = len(self._tree) - 1  # clamp words past the represented range
        node = self._tree[s0]
        for s in syms[1:]:
            if "leaf" in node:
                return node["leaf"]
            kids = node["children"]
            node = kids[s] if s in kids else kids[BIG]
        while "leaf" not in node:
            node = node["children"][BIG]
        return node["leaf"]

    def leaf_of_point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        pos = np.searchsorted(self._sorted_lo, x, side="right") - 1
        pos = np.clip(pos, 0, self.n - 1)
        return self._sorted_idx[pos]

    # -- transfer matrix -------------------------------------------------------

    def _assemble(self) -> None:
        ind = self.ind
        n = self.n
        # column leaf of the query word (cell j) + (row word); it depends on
        # the row only through the first depth-1 symbols, so tabulate per
        # distinct row prefix
        prefix_ids: dict[tuple[int, ...], int] = {}
        row_prefix = np.empty(n, dtype=np.int32)
        reps: list[tuple[int, ...]] = []
        for i, w in enumerate(self.words):
            key = w[: self.depth - 1]
            if key not in prefix_ids:
                prefix_ids[key] = len(reps)
                reps.append(key)
            row_prefix[i] = prefix_ids[key]
        table = np.empty((ind.J, len(reps)), dtype=np.int32)
        for j in range(ind.J):
            for p, rep in enumerate(reps):
                table[j, p] = self.leaf_of_word((j,) + rep)
        colmap = table[:, row_prefix].T.copy()
        M = np.zeros((n, n))
        rows = np.arange(n)
        for j, _, deriv in ind.inverse_chain(self.mid):
            np.add.at(M, (rows, colmap[:, j]), 1.0 / deriv)
        self._colmap = colmap
        self.M_leb = M
        rho = np.full(n, 1.0)
        m = self.width / self.width.sum()
        lam = 1.0
        for it in range(1, 1501):
            nr = M @ rho
            nm = m @ M
            lam = float(nr @ rho / (rho @ rho))
            nr /= nr.max()
            nm /= nm.sum()
            done = max(np.max(np.abs(nr - rho)), np.max(np.abs(nm - m))) < 5e-16
            rho, m = nr, nm
            if done:
                break
        self.lam = lam
        self.rho = rho
        resid = np.max(np.abs(M @ rho - lam * rho)) / np.max(rho)
        resid = max(resid, np.max(np.abs(m @ M - lam * m)) / np.max(m))
        if resid > 1e-12:
            raise ArithmeticError(f"Perron pair not converged: {resid:.2e}")
        self.perron_residual = float(resid)
        self.perron_iterations = it
        self.Mhat = M * rho[None, :] / (lam * rho[:, None])
        self.Mhat.flags.writeable = False  # shared by every operator view
        mu = m * rho
        self.mu = mu / mu.sum()

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Mhat @ u for a real or complex u of shape (n,) or (n, w).

        Mhat is real, so a complex u is multiplied as its interleaved
        (re, im) pairs: one real product of Mhat with the (n, 2w) float
        view of a C-contiguous u, viewed back as complex.  Mhat is never
        cast to complex.
        """
        if not np.iscomplexobj(u):
            return self.Mhat @ u
        u = np.ascontiguousarray(u, dtype=complex)
        out = self.Mhat @ u.reshape(self.n, -1).view(np.float64)
        return out.view(complex).reshape(u.shape)

    # -- norms ------------------------------------------------------------------

    def sup_norm(self, v: np.ndarray) -> float:
        return float(np.max(np.abs(v)))

    def theta_seminorm(self, v: np.ndarray, theta: float) -> float:
        """|v|_theta = sup |v(x)-v(y)| / theta^(separation of x, y).

        Exact for real and complex v: the largest prefix-group diameter
        max |v_i - v_j|, weighted by theta^-depth.
        """
        return self._diameters.value(v, theta)

    def norm_b(self, v: np.ndarray, b: float, C6: float, theta: float) -> float:
        """max(sup norm, theta seminorm / (2 C6 |b|))."""
        return max(self.sup_norm(v),
                   self.theta_seminorm(v, theta) / (2.0 * C6 * abs(b)))

    # -- diagnostics ---------------------------------------------------------------

    def check_nesting(self, tol: float = 1e-10) -> float:
        """Leaf widths must tile their cells (one-symbol-extension nesting)."""
        bycol = np.zeros(self.ind.J)
        np.add.at(bycol, self.col, self.width)
        worst = float(np.max(np.abs(bycol - self.ind.widths)))
        if worst > tol:
            raise AssertionError(f"cylinder nesting defect {worst:.2e}")
        return worst
