"""Discrete suspension towers over induced maps.

A tower stacks each first-return cell Y_j into a column of height r(j); the
tower map climbs columns and drops to the base through the return map.  A
tower cut at level N caps the column heights at N, splitting the tower into
a short-column part and a tall-column part, with exact identities tying the
cut mean height to the return-time tail.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from towerlab.maps import InducedMap, suffix_starts

__all__ = [
    "Tower",
    "visit_measure",
]


class Tower:
    """Tower over an induced map, cut at level N if N is given.

    Column j has height r(j), or min(r(j), N); the return map is unchanged.
    Cell (j, l) carries measure mu_Y(Y_j)/rbar, rbar = sum height mu_Y over
    represented cells (tail mass beyond the branch cutoff is excluded).
    Cell (j, l) is number start[j] + l in flat, column-major order, and
    cell_col and cell_level map a number back to (j, l).
    """

    def __init__(self, ind: InducedMap, N: int | None = None) -> None:
        if N is not None and N < 1:
            raise ValueError("truncation level must be >= 1")
        self.ind = ind
        self.N = N
        self.heights = ind.r.copy() if N is None else np.minimum(ind.r, N)
        self.rbar = float(np.sum(self.heights * ind.muY))
        self.column_mass = ind.muY / self.rbar  # per level of each column
        self.n_cells = int(self.heights.sum())
        self.start = np.cumsum(self.heights) - self.heights
        self.cell_col = np.repeat(np.arange(ind.J, dtype=np.int32),
                                  self.heights)
        self.cell_level = (np.arange(self.n_cells)
                           - self.start[self.cell_col]).astype(np.int32)

    @cached_property
    def kernel(self) -> np.ndarray:
        """The induced map's cell kernel, built on first use: every
        ``visit_measure`` call on this tower shares it."""
        return self.ind.transition_kernel()

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.heights * self.column_mass))

    def column_positions(self, y_nodes: np.ndarray, reduce=None) -> np.ndarray:
        """Positions T^l(y_nodes[j]) of every cell (j, l), y_nodes of shape
        (J, m), as rows in flat cell order.

        All columns climb together, one step of their cell words per level
        for the columns still taller: cells come in order of r, so these
        are a suffix.
        ``reduce``, if given, maps each level's positions to one row per
        column; its rows are returned instead."""
        cur = np.asarray(y_nodes, dtype=float)
        out, prev = None, 0
        for ell, f in enumerate(suffix_starts(self.heights)):
            if ell:
                cur = self.ind.climb(cur[f - prev:], ell - 1, 1)
            prev = f
            vals = cur if reduce is None else reduce(cur)
            if out is None:
                out = np.empty((self.n_cells,) + vals.shape[1:])
            out[self.start[f:] + ell] = vals
        return out

    def to_csv(self, path) -> None:
        ind = self.ind
        ends = iter(self.column_positions(np.column_stack([ind.lo, ind.hi])))
        with open(path, "w") as fh:
            fh.write("j,level,measure,r,r_trunc,lo_proj,hi_proj\n")
            for j in range(ind.J):
                for ell in range(int(self.heights[j])):
                    lo, hi = next(ends)
                    fh.write(f"{j},{ell},{self.column_mass[j]:.17g},"
                             f"{ind.r[j]},{self.heights[j]},"
                             f"{lo:.17g},{hi:.17g}\n")

    # -- exact truncation identities of a cut tower (represented mass) -------

    def tall_part_mass(self) -> float:
        """mu_Delta of the tall-column part of the uncut tower."""
        ind = self.ind
        tall = ind.r >= self.N
        return float(np.sum(ind.r[tall] * (ind.muY / ind.mean_return)[tall]))

    def identity_mean_defect(self) -> tuple[float, float]:
        """(rbar_uncut - rbar, sum_{n>N} mu_Y(r >= n)); equal up to roundoff."""
        lhs = math.fsum((self.ind.r - self.heights) * self.ind.muY)
        return lhs, self.ind.tail_sums(self.N)[1]

    def identity_tall_mass(self) -> tuple[float, float]:
        """mu_Delta(tall part) vs (N mu_Y(r>=N) + sum_{n>N} mu_Y(r>=n))/mean r."""
        lhs = self.tall_part_mass()
        tail_ge_N, s = self.ind.tail_sums(self.N)
        rhs = (self.N * tail_ge_N + s) / self.ind.mean_return
        return lhs, rhs


# ---------------------------------------------------------------------------
# Excursions into the tall part
# ---------------------------------------------------------------------------

def visit_measure(tower: Tower, N: int, k: int) -> tuple[float, float]:
    """Measure of tower points entering the tall part within k steps.

    Returns ``(measured, bound)`` where measured is the exact measure, in
    the piecewise-constant-density model, of the set of points whose first k
    tower iterates (including the starting point) meet a column of height
    >= N, and bound is the closed-form estimate
    (1/rbar) { sum_{n>N} mu_Y(r>=n) + (N+k) mu_Y(r>=N) }.
    """
    if k < 0 or N < 1:
        raise ValueError("need k >= 0 and N >= 1")
    ind = tower.ind
    r = ind.r
    tall = r >= N
    P = tower.kernel
    # v[b][j] = P(enter tall part within b steps | just landed on base in Y_j)
    v = np.zeros((k + 1, ind.J))
    v[:, tall] = 1.0
    for b in range(1, k + 1):
        nxt = np.zeros(ind.J)
        can = (~tall) & (r <= b)
        if np.any(can):
            nxt[can] = (P[can] * v[b - r[can]]).sum(axis=1)
        v[b] = np.where(tall, 1.0, nxt)
    measured = 0.0
    for j in range(ind.J):
        if tall[j]:
            measured += r[j] * tower.column_mass[j]
            continue
        # start at level l: the drop lands on a fresh base cell after
        # r(j) - l steps, leaving budget k - (r(j) - l)
        budgets = [k - (int(r[j]) - level) for level in range(int(r[j]))]
        budgets = [b for b in budgets if b >= 0]
        if budgets:
            acc = float(P[j] @ v[budgets].sum(axis=0))
            measured += acc * tower.column_mass[j]
    tail_ge, s = ind.tail_sums(N)
    bound = (s + (N + k) * tail_ge) / tower.rbar
    return measured, bound
