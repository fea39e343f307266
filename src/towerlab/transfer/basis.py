"""Cylinder discretisation of the induced base map.

Functions on the base are represented by their values on a finite partition
of Y into cylinders of the return map: the first ``refine_symbols`` cells
are refined to word depth ``depth`` (deep continuations aggregated into one
sibling per node), the remaining represented cells stay whole.  Collocation
is at cylinder midpoints.  The transfer matrix is normalised through its
Perron pair so that R1 = 1 and the discrete measure is exactly stationary.
"""

from __future__ import annotations

import numpy as np

from towerlab.maps import InducedMap
from towerlab.transfer.diameters import GroupDiameters

BIG = -2  # aggregated deep-continuation symbol (cells >= refine_symbols)

__all__ = ["CylinderBasis", "BIG"]


class CylinderBasis:
    """Finite cylinder partition of the base with collocation structure."""

    def __init__(self, ind: InducedMap, depth: int = 2,
                 refine_symbols: int = 50) -> None:
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.ind = ind
        self.depth = int(depth)
        self.refine = int(min(refine_symbols, ind.J))
        big_lo, big_hi = self._aggregate_range()
        pulled = self._pullbacks(big_lo, big_hi)
        words: list[tuple[int, ...]] = []
        lo: list[float] = []
        hi: list[float] = []
        # the cylinder tree, nodes in depth-first order: child_of[node] is
        # the child of each refined symbol, then of the aggregate; a leaf is
        # its own child, so a walk stops there.  node_leaf: leaf index.
        child_of: list[list[int]] = []
        node_leaf: list[int] = []

        def leaf(word: tuple[int, ...], a: float, b: float) -> int:
            node_leaf.append(len(words))
            words.append(word)
            lo.append(a)
            hi.append(b)
            child_of.append([len(child_of)] * (self.refine + 1))
            return len(child_of) - 1

        def expand(word: tuple[int, ...], a: float, b: float) -> int:
            if len(word) == self.depth:
                return leaf(word, a, b)
            node = len(child_of)
            child_of.append([])
            node_leaf.append(-1)
            ends = pulled[len(word) - 1][word]
            kids = [expand(word + (i,), float(ends[2 * i]),
                           float(ends[2 * i + 1])) for i in range(self.refine)]
            kids.append(leaf(word + (BIG,), float(ends[-2]), float(ends[-1]))
                        if big_hi > big_lo else node)
            child_of[node] = kids
            return node

        roots = [expand((j,), ind.lo[j], ind.hi[j]) if j < self.refine
                 else leaf((j,), ind.lo[j], ind.hi[j]) for j in range(ind.J)]
        self.n = len(words)
        self.words = words
        self.lo = np.array(lo)
        self.hi = np.array(hi)
        self.width = self.hi - self.lo
        self.mid = 0.5 * (self.lo + self.hi)
        self.col = np.array([w[0] for w in words], dtype=int)
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
        # colmap[i, j]: leaf of the word (j,) + words[i][:depth-1], which
        # holds F_j^{-1}(mid_i); symbols past the refined range, and the
        # padding of short words, take the aggregate child
        syms = np.array([(w + (BIG,) * self.depth)[:self.depth - 1]
                         for w in words]).reshape(self.n, self.depth - 1)
        syms = np.where((syms >= 0) & (syms < self.refine), syms, self.refine)
        child_of = np.array(child_of)
        node = np.broadcast_to(np.array(roots), (self.n, ind.J))
        for t in range(self.depth - 1):
            node = child_of[node, syms[:, t, None]]
        self._colmap = np.array(node_leaf, dtype=np.int32)[node]
        self._assemble()
        # Mhat by its cylinder structure, for apply: every row hits the
        # leaves of the J - refine unrefined cells, the last ones in tree
        # order (kept as a column view); each run of rows that hit the same
        # refined leaves is one (rows x refine) block, and the blocks of
        # one height are stacked for one batched matmul
        self._mhat_dense = self.Mhat[:, self.n - (ind.J - self.refine):]
        hit = self._colmap[:, :self.refine]
        starts = np.flatnonzero(
            np.r_[True, np.any(hit[1:] != hit[:-1], axis=1)])
        sizes = np.diff(np.r_[starts, self.n])
        self._mhat_blocks = []
        for h in np.unique(sizes):
            first = starts[sizes == h]
            rows = first[:, None] + np.arange(h)
            cols = hit[first]
            self._mhat_blocks.append(
                (rows, cols, self.Mhat[rows[:, :, None], cols[:, None, :]]))

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
        ind = self.ind
        n = self.n
        M = np.zeros((n, n))
        rows = np.arange(n)
        for j, _, deriv in ind.inverse_chain(self.mid):
            np.add.at(M, (rows, self._colmap[:, j]), 1.0 / deriv)
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

        One product with the dense column view plus one batched matmul
        per block height.  The sums run in another order than in
        ``Mhat @ u``, so the result is deterministic but not bit-equal to
        it; both are within rounding of the exact product.  Mhat is real,
        so a complex u is multiplied as its interleaved (re, im) pairs:
        the (n, 2w) float view of a C-contiguous u, viewed back as
        complex.  Mhat is never cast to complex.
        """
        cplx = np.iscomplexobj(u)
        if cplx:
            u = np.ascontiguousarray(u, dtype=complex)
        x = u.reshape(self.n, -1)
        if cplx:
            x = x.view(np.float64)
        out = self._mhat_dense @ x[self.n - self._mhat_dense.shape[1]:]
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
