"""Discrete suspension towers over induced maps.

A tower stacks each first-return cell Y_j into a column of height r(j); the
tower map climbs columns and drops to the base through the return map.  The
truncated variant caps column heights at a level N, splitting the tower into
a short-column part and a tall-column part, with exact identities tying the
truncated mean height to the return-time tail.
"""

from __future__ import annotations

import math

import numpy as np

from towerlab.maps import InducedMap, climb_order

__all__ = [
    "Tower",
    "TruncatedTower",
    "build_tower",
    "truncate",
    "visit_measure",
]


class Tower:
    """Tower over an induced map.

    Cell (j, l), 0 <= l < r(j), carries invariant measure mu_Y(Y_j)/rbar,
    where rbar is the mean return time over represented cells.  Tail mass
    beyond the branch cutoff is excluded from the normalisation.
    """

    def __init__(self, ind: InducedMap) -> None:
        self.ind = ind
        self.heights = ind.r.copy()
        self.rbar = float(np.sum(ind.r * ind.muY))
        self.column_mass = ind.muY / self.rbar  # per level of each column
        self.n_cells = int(self.heights.sum())

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.heights * self.column_mass))

    def column_positions(self, y_nodes: np.ndarray, reduce=None) -> np.ndarray:
        """Positions T^l(y_nodes[j]) of every cell (j, l), y_nodes of shape
        (J, m), as rows in flat cell order (row heights[:j].sum() + l).

        All columns climb together, T applied once per level to the columns
        still taller.  ``reduce``, if given, maps each level's positions to
        one row per column; its rows are returned instead."""
        order, active = climb_order(self.heights)
        start = np.cumsum(self.heights) - self.heights
        cur = np.asarray(y_nodes, dtype=float)[order]
        out = None
        for ell, n in enumerate(active):
            if ell:
                cur = self.ind.model.apply(cur[:n])
            vals = cur if reduce is None else reduce(cur)
            if out is None:
                out = np.empty((self.n_cells,) + vals.shape[1:])
            out[start[order[:n]] + ell] = vals
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


class TruncatedTower(Tower):
    """Tower with column heights capped at N; the return map is unchanged."""

    def __init__(self, parent: Tower, N: int) -> None:
        if N < 1:
            raise ValueError("truncation level must be >= 1")
        ind = parent.ind
        self.parent = parent
        self.N = int(N)
        self.ind = ind
        self.heights = np.minimum(ind.r, N)
        self.rbar = float(np.sum(self.heights * ind.muY))
        self.column_mass = ind.muY / self.rbar
        self.n_cells = int(self.heights.sum())
        self.tall = ind.r >= N        # columns forming the tall part of Delta

    def tall_part_mass(self) -> float:
        """mu_Delta of the tall-column part of the untruncated tower."""
        return float(np.sum(self.ind.r[self.tall] * self.parent.column_mass[self.tall]))

    # -- exact truncation identities (represented mass) ----------------------

    def identity_mean_defect(self) -> tuple[float, float]:
        """(rbar - rbar', sum_{n>N} mu_Y(r >= n)); equal up to roundoff."""
        lhs = math.fsum((self.ind.r - self.heights) * self.ind.muY)
        return lhs, self.ind.tail_sums(self.N)[1]

    def identity_tall_mass(self) -> tuple[float, float]:
        """mu_Delta(tall part) against (N mu_Y(r>=N) + sum_{n>N} mu_Y(r>=n))/rbar."""
        lhs = self.tall_part_mass()
        tail_ge_N, s = self.ind.tail_sums(self.N)
        rhs = (self.N * tail_ge_N + s) / self.parent.rbar
        return lhs, rhs


def build_tower(ind: InducedMap) -> Tower:
    return Tower(ind)


def truncate(tower: Tower, N: int) -> TruncatedTower:
    parent = tower.parent if isinstance(tower, TruncatedTower) else tower
    if isinstance(tower, TruncatedTower):
        N = min(N, tower.N)
    return TruncatedTower(parent, N)


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
    P = ind.transition_kernel()
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
