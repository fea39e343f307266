"""Cylinder discretisation of the induced base map.

Functions on the base are represented by their values on a finite partition
of Y into cylinders of the return map: the first ``refine_symbols`` cells
are refined to word depth ``depth`` (deep continuations aggregated into one
sibling per node), the remaining represented cells stay whole.  The leaf
words are kept as one integer array, in the order of their mixed-radix
codes, and every table over the leaves is built from it by array
operations.  Collocation is at cylinder midpoints.  The transfer matrix
is normalised through its Perron pair so that R1 = 1 and the discrete
measure is exactly stationary.
It is kept as its n x J cylinder table: row i of Mhat has one entry per
inverse branch j, at the leaf ``_colmap[i, j]`` that holds F_j^{-1}(mid_i).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from towerlab.maps import InducedMap
from towerlab.transfer.diameters import GroupDiameters

__all__ = ["CylinderBasis"]


class CylinderBasis:
    """Finite cylinder partition of the base with collocation structure.

    Leaf i is the cylinder of the word ``words[i]``, one row of an
    (n, depth) int array.  Symbol ``refine`` is the aggregate of the cells
    past the refined range, and also pads a word after its last symbol.
    Leaves come in tree order: ascending mixed-radix code of the padded
    word (radix J for the first symbol, refine + 1 for the others).
    """

    def __init__(self, ind: InducedMap, depth: int = 2,
                 refine_symbols: int = 50) -> None:
        if depth < 1:
            raise ValueError(f"depth = {depth}: not >= 1")
        if refine_symbols < 0:
            raise ValueError(f"refine = {refine_symbols}: not >= 0")
        self.ind = ind
        self.depth = d = int(depth)
        self.refine = a = int(min(refine_symbols, ind.J))
        big_lo, big_hi = self._aggregate_range()
        agg = int(big_hi > big_lo)
        if ind.J * (a + 1) ** (d - 1) >= 2 ** 63:
            raise ValueError(f"depth = {d}: words overflow 64-bit codes")
        radix = (a + 1) ** np.arange(d - 1, -1, -1)
        # the leaves of each word length L: the unrefined cells (every cell
        # at depth 1); below each refined node of length L - 1 the
        # aggregate, and at full depth each refined symbol too, with the
        # ends that the node's pullbacks hold for that child symbol
        first = a if d > 1 else 0
        words = [np.c_[np.arange(first, ind.J),
                       np.full((ind.J - first, d - 1), a)]]
        ends = [np.array([ind.lo[first:], ind.hi[first:]])]
        for L, pulled in enumerate(self._pullbacks(big_lo, big_hi), 2):
            last = np.arange(0 if L == d else a, a + agg)
            w = np.full((a ** (L - 1) * last.size, d), a)
            w[:, :L] = np.indices((a,) * (L - 1) + last.shape).reshape(L, -1).T
            w[:, L - 1] = last[w[:, L - 1]]
            words.append(w)
            ends.append(pulled.reshape(-1, a + 1, 2)[:, last].reshape(-1, 2).T)
        words = np.concatenate(words)
        code = words @ radix
        order = np.argsort(code)
        code = code[order]
        self.words = words[order]
        self.lo, self.hi = np.concatenate(ends, axis=1)[:, order]
        self.n = len(code)
        self.width = self.hi - self.lo
        self.mid = 0.5 * (self.lo + self.hi)
        self.col = self.words[:, 0]
        self.r_col = ind.r[self.col]
        order = np.argsort(self.lo, kind="stable")
        self._sorted_lo = self.lo[order]
        self._sorted_idx = order
        # prefix groups for the symbolic seminorm: the rows are sorted, so
        # a depth-k group is a run of rows with one length-k prefix
        self._groups = [np.r_[0, np.cumsum(np.any(
            self.words[1:, :k] != self.words[:-1, :k], axis=1))]
            for k in range(d)]
        self._diameters = GroupDiameters(dict(enumerate(self._groups)))
        # colmap[i, j]: leaf of the word (j,) + words[i][:depth-1], which
        # holds F_j^{-1}(mid_i); symbols past the refined range take the
        # aggregate.  A padded leaf word's code is the largest in its
        # cylinder, so the leaf is the first whose code is not below
        # the word's.
        pulled_code = np.arange(ind.J) * radix[0] + \
            (np.minimum(self.words[:, :-1], a) @ radix[1:])[:, None]
        self._colmap = np.searchsorted(code, pulled_code).astype(np.int32)
        self._assemble()
        # Mhat by its cylinder structure, for apply: every row hits the
        # leaves of the J - refine unrefined cells, the last ones in tree
        # order, so their columns are the table's columns past refine; each
        # run of rows that hit the same refined leaves is one
        # (rows x refine) block, and the blocks of one height are stacked
        # for one batched matmul
        hit = self._colmap[:, :self.refine]
        starts = np.flatnonzero(
            np.r_[True, np.any(hit[1:] != hit[:-1], axis=1)])
        sizes = np.diff(np.r_[starts, self.n])
        self._mhat_blocks = []
        for h in np.unique(sizes):
            first = starts[sizes == h]
            rows = first[:, None] + np.arange(h)
            self._mhat_blocks.append(
                (rows, hit[first], self._mhat_table[rows, :self.refine]))

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

    def _pullbacks(self, big_lo: float, big_hi: float) -> list[np.ndarray]:
        """Endpoints of the children of every refined node, by level.

        pulled[k][w] holds F_{w_0}^{-1} ... F_{w_k}^{-1} of the refined cell
        ends and the aggregate range, as (lo, hi) pairs, for the node word
        w of length k + 1: each level is one inverse_chain pass over the
        previous level's points.
        """
        ind, refine = self.ind, self.refine
        pts = np.empty(2 * refine + 2)
        pts[0:2 * refine:2] = ind.lo[:refine]
        pts[1:2 * refine:2] = ind.hi[:refine]
        pts[-2:] = (big_lo, big_hi)
        pulled = []
        for _ in range(self.depth - 1):
            nxt = np.empty((refine,) + pts.shape)
            left = refine
            for j, y, _dy in ind.inverse_chain(pts.ravel()):
                if j < refine:
                    nxt[j] = y.reshape(pts.shape)
                    left -= 1
                    if not left:
                        break
            pulled.append(pts := nxt)
        return pulled

    def leaf_of_point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        pos = np.searchsorted(self._sorted_lo, x, side="right") - 1
        pos = np.clip(pos, 0, self.n - 1)
        return self._sorted_idx[pos]

    # -- transfer matrix -------------------------------------------------------

    def _assemble(self) -> None:
        ind, n, a = self.ind, self.n, self.refine
        # the table of the unnormalised M: M[i, _colmap[i, j]] = T[i, j]
        T = np.empty((n, ind.J))
        for j, _, deriv in ind.inverse_chain(self.mid):
            T[:, j] = 1.0 / deriv
        # M v and m M split as in apply: BLAS on the unrefined columns, a
        # gather (M v) or a bincount (m M) on the refined leaves, which
        # come first in tree order
        tail, hit = n - (ind.J - a), self._colmap[:, :a]

        def right(v):
            return T[:, a:] @ v[tail:] + np.sum(T[:, :a] * v[hit], axis=1)

        def left(m):
            w = np.bincount(hit.ravel(), np.ravel(m[:, None] * T[:, :a]), tail)
            return np.r_[w, m @ T[:, a:]]

        rho = np.full(n, 1.0)
        m = self.width / self.width.sum()
        lam = 1.0
        for it in range(1, 1501):
            nr = right(rho)
            nm = left(m)
            lam = float(nr @ rho / (rho @ rho))
            nr /= nr.max()
            nm /= nm.sum()
            done = max(np.max(np.abs(nr - rho)), np.max(np.abs(nm - m))) < 5e-16
            rho, m = nr, nm
            if done:
                break
        self.lam = lam
        self.rho = rho
        resid = np.max(np.abs(right(rho) - lam * rho)) / np.max(rho)
        resid = max(resid, np.max(np.abs(left(m) - lam * m)) / np.max(m))
        if resid > 1e-12:
            raise ArithmeticError(f"Perron pair not converged: {resid:.2e}")
        self.perron_residual = float(resid)
        self.perron_iterations = it
        self._mhat_table = T * rho[self._colmap] / (lam * rho[:, None])
        mu = m * rho
        self.mu = mu / mu.sum()

    @cached_property
    def csc_pattern(self) -> tuple[np.ndarray, ...]:
        """The CSC pattern of I - Mhat, built on first use: row i of Mhat
        hits only the leaves ``_colmap[i]``, and I adds the diagonal.

        (indptr, indices, cols, entry, diag): the column pointers and the
        row of each slot, as for a ``csc_matrix``, the column of each slot,
        the index of each slot's Mhat value in the flattened table followed
        by n zeros (for the diagonal slots that no symbol hits), and the
        slots on the diagonal.  Rows ascend within each column.
        """
        n, J = self._colmap.shape
        rows = np.r_[np.repeat(np.arange(n), J), np.arange(n)]
        cols = np.r_[self._colmap.ravel(), np.arange(n)]
        key = cols.astype(np.int64) * n + rows
        order = np.argsort(key, kind="stable")
        # a diagonal that a symbol hits is one slot, valued from the table
        entry = order[np.r_[True, np.diff(key[order]) != 0]]
        cols, rows = cols[entry], rows[entry]
        indptr = np.r_[0, np.cumsum(np.bincount(cols, minlength=n))]
        return (indptr.astype(np.intc), rows.astype(np.intc), cols, entry,
                np.flatnonzero(rows == cols))

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Mhat @ u for a real or complex u of shape (n,) or (n, w).

        One product with the table's unrefined columns plus one batched
        matmul per block height.  The sums run in another order than in a
        dense ``Mhat @ u``, so the result is deterministic but not
        bit-equal to it; both are within rounding of the exact product.
        Mhat is real, so a complex u is multiplied as its interleaved
        (re, im) pairs: the (n, 2w) float view of a C-contiguous u, viewed
        back as complex.  Mhat is never cast to complex.
        """
        cplx = np.iscomplexobj(u)
        if cplx:
            u = np.ascontiguousarray(u, dtype=complex)
        x = u.reshape(self.n, -1)
        if cplx:
            x = x.view(np.float64)
        out = self._mhat_table[:, self.refine:] @ \
            x[self.n - self.ind.J + self.refine:]
        for rows, cols, vals in self._mhat_blocks:
            out[rows] += vals @ x[cols]
        return (out.view(complex) if cplx else out).reshape(u.shape)

    # -- norms ------------------------------------------------------------------

    # Each norm takes v of shape (n,) and returns a float, or a column
    # stack of shape (n, P) and returns the P norms of its columns.

    def sup_norm(self, v: np.ndarray):
        return np.max(np.abs(v), axis=0)

    def theta_seminorm(self, v: np.ndarray, theta: float):
        """|v|_theta = sup |v(x)-v(y)| / theta^(separation of x, y).

        Exact for real and complex v: the largest prefix-group diameter
        max |v_i - v_j|, weighted by theta^-depth.
        """
        return self._diameters.value(v, theta)

    def norm_b(self, v: np.ndarray, b: float, C6: float, theta: float):
        """max(sup norm, theta seminorm / (2 C6 |b|))."""
        return np.maximum(self.sup_norm(v),
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
