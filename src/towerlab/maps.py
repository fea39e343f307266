"""Interval maps and first-return induction.

Concrete full-branch interval maps (doubling, intermittent) together with
the machinery that induces them on a reference base interval Y: first-return
cells, return times, inverse branches of the return map, Gibbs weights and
the invariant density of the induced map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "Branch",
    "MapModel",
    "suffix_starts",
    "PomeauManneville",
    "pomeau_manneville",
    "doubling_map",
    "InducedMap",
    "TailValue",
    "TailFit",
    "induce",
    "return_time_tail",
    "fit_tail_exponent",
]


# ---------------------------------------------------------------------------
# Map models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Branch:
    """One monotone increasing branch of an interval map.

    ``fwd``/``inv``/``deriv`` accept and return numpy arrays as well as
    scalars.  ``inv`` must invert ``fwd`` on [lo, hi) to ~1e-12 or better.
    ``fwd_deriv``, where given, returns the floats (fwd(x), deriv(x)) of one
    float x, bit for bit, from one evaluation of what they share; the
    scalar Newton solves of ``_invert_warm`` use it.
    """

    lo: float
    hi: float
    fwd: Callable[[np.ndarray], np.ndarray]
    inv: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    fwd_deriv: Callable[[float], tuple[float, float]] | None = None


def suffix_starts(h: np.ndarray) -> np.ndarray:
    """For non-falling counts h, where the suffix of entries above l starts,
    for each l below max h: the entries that still climb at step l."""
    return np.searchsorted(h, np.arange(h.max(initial=0)), side="right")


@dataclass(frozen=True)
class MapModel:
    """A full-branch interval map with regularity metadata.

    Branch domains partition [0, 1) up to endpoints; a point on a shared
    endpoint belongs to the branch on its right (half-open cells).
    ``dist_const`` is the declared distortion constant, ``expansion`` the
    declared expansion of the induced return map, ``eta`` the Hoelder
    exponent of the log weights; the last two fix the symbolic metric
    parameter ``theta``.
    """

    name: str
    branches: tuple[Branch, ...]
    eta: float = 1.0
    dist_const: float = 24.0
    expansion: float = 2.0

    def __post_init__(self) -> None:
        if not (0.0 < self.eta <= 1.0):
            raise ValueError("eta must lie in (0, 1]")
        if self.dist_const < 1.0:
            raise ValueError("distortion constant must be >= 1")
        if not (0.0 < self.theta < 1.0):
            raise ValueError("theta = expansion^-eta must lie in (0, 1)")
        lo = 0.0
        for b in self.branches:
            if abs(b.lo - lo) > 1e-12:
                raise ValueError("branch domains must partition [0,1)")
            lo = b.hi
        if abs(lo - 1.0) > 1e-12:
            raise ValueError("branch domains must partition [0,1)")

    @property
    def theta(self) -> float:
        """theta = expansion^-eta of the tower metric d_theta = theta^s."""
        return self.expansion ** -self.eta

    @cached_property
    def branch_edges(self) -> np.ndarray:
        return np.array([b.lo for b in self.branches] + [1.0])

    def branch_index(self, x) -> np.ndarray:
        """Index of the branch containing x; ties resolve to the right branch."""
        idx = np.searchsorted(self.branch_edges, np.asarray(x, dtype=float),
                              side="right") - 1
        return np.minimum(np.maximum(idx, 0), len(self.branches) - 1)

    def apply(self, x) -> np.ndarray:
        """Vectorised forward map."""
        x = np.asarray(x, dtype=float)
        idx = self.branch_index(x)
        out = np.empty_like(x)
        for j, b in enumerate(self.branches):
            m = idx == j
            if m.all():     # one branch: no gather or scatter
                return np.asarray(b.fwd(x), dtype=float)
            if np.any(m):
                out[m] = b.fwd(x[m])
        return out

    def apply_deriv(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        idx = self.branch_index(x)
        out = np.empty_like(x)
        for j, b in enumerate(self.branches):
            m = idx == j
            if np.any(m):
                out[m] = b.deriv(x[m])
        return out

    def advance(self, x, steps) -> np.ndarray:
        """T^steps(x), point by point."""
        return _iterate(self.apply, np.array(x, dtype=float), steps)[0]

    def orbit_sum(self, x, steps, f) -> np.ndarray:
        """sum_{l < steps} f(T^l x), point by point, added in order of l."""
        return _iterate(self.apply, np.array(x, dtype=float), steps, f)[1]


def _iterate(fwd, end: np.ndarray, steps, f=None):
    """(fwd^steps end, sum_{l < steps} f(fwd^l end)) point by point, the
    sum added in order of l (None without f); ``end`` is a float array
    that the climb may overwrite.  One count for all points steps the
    whole array; per-point counts sort the points that move by count once,
    and each application of fwd acts on the suffix still climbing."""
    tot = None if f is None else np.zeros_like(end)
    if np.ndim(steps) == 0:
        for _ in range(steps):
            if f is not None:
                tot += f(end)
            end = fwd(end)
        return end, tot
    counts = np.broadcast_to(steps, end.shape).reshape(-1)
    order = np.flatnonzero(counts)
    order = order[np.argsort(counts[order], kind="stable")]
    cur = end.reshape(-1)[order]
    acc = None if f is None else np.zeros_like(cur)
    for a in suffix_starts(counts[order]):
        if f is not None:
            acc[a:] += f(cur[a:])
        cur[a:] = fwd(cur[a:])
    end.reshape(-1)[order] = cur
    if f is not None:
        tot.reshape(-1)[order] = acc
    return end, tot


@dataclass(frozen=True)
class PomeauManneville(MapModel):
    """Intermittent map x -> x(1 + 2^a x^a) on [0,1/2), 2x-1 on [1/2,1).

    The left branch has an indifferent fixed point at 0.  The polynomial
    correlation-decay exponent is beta = 1/alpha - 1; the first-return tail
    on [1/2, 1] decays with exponent beta + 1 = 1/alpha.
    """

    alpha: float = 0.5


def _solve_increasing(f, df, y, lo: float, hi: float) -> np.ndarray:
    """Invert an increasing C^1 function on [lo, hi], bit for bit as 46
    bisection steps followed by 3 clipped Newton steps would.

    The bisection is not run: its bracket is found directly.  This needs
    every grid point lo + k h, h = (hi - lo) 2^-46, to be an exact double
    (so every bisection midpoint is exact; true for the only caller's
    [0, 1/2]), and the computed f to be strictly increasing on that grid.
    Then 46 halvings always end on the unique adjacent pair a = lo + k h,
    b = a + h with (k = 0 or f(a) < y) and (b = hi or not f(b) < y).
    Newton from clip(y) locates k (for a convex f with f(x) >= x, as the
    Pomeau-Manneville left branch, the iterates fall monotonically); the
    bracket test is exact and moves k by one where Newton's x sat within
    rounding of a grid point.
    """
    y = np.asarray(y, dtype=float)
    h = (hi - lo) / 2.0 ** 46
    top = 2.0 ** 46 - 1
    x = np.clip(y, lo, hi)
    for _ in range(100):
        nx = np.clip(x - (f(x) - y) / df(x), lo, hi)
        far = np.abs(nx - x) > h  # NaN y: never far
        x = nx
        if not far.any():
            break
    else:
        raise ArithmeticError("inverse branch: Newton did not settle")
    # fmin/fmax send a NaN x to lo; its polish below still returns NaN
    k = np.clip(np.floor((np.fmin(np.fmax(x, lo), hi) - lo) / h), 0.0, top)
    for _ in range(4):
        a = lo + k * h
        b = a + h
        down = (k > 0) & ~(f(a) < y)
        up = (k < top) & (f(b) < y)
        if not (down.any() or up.any()):
            break
        k = k - down + up
    else:
        raise ArithmeticError("inverse branch: no bisection bracket")
    x = 0.5 * (a + b)
    for _ in range(3):  # Newton polish to ~1e-15
        x = np.clip(x - (f(x) - y) / df(x), lo, hi)
    return x


def _invert_warm(br: Branch, y: float, x0: float) -> float:
    """Scalar inverse of a branch with a warm start; falls back to br.inv."""
    fwd_deriv = br.fwd_deriv or (
        lambda x: (float(br.fwd(x)), float(br.deriv(x))))
    x = min(max(x0, br.lo), br.hi)
    for _ in range(40):
        fx, dfx = fwd_deriv(x)
        err = fx - y
        if abs(err) < 1e-16 * max(1.0, abs(y)):
            return x
        nx = x - err / dfx
        if not (br.lo <= nx <= br.hi):
            break
        if abs(nx - x) < 1e-17:
            return nx
        x = nx
    return float(br.inv(np.array([y]))[0])


def pomeau_manneville(alpha: float, dist_const: float = 24.0) -> PomeauManneville:
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie strictly in (0, 1)")
    c = 2.0 ** alpha

    def left(x):
        x = np.asarray(x, dtype=float)
        return x * (1.0 + c * x ** alpha)

    def dleft(x):
        x = np.asarray(x, dtype=float)
        return 1.0 + c * (1.0 + alpha) * x ** alpha

    def ileft(y):
        return _solve_increasing(left, dleft, y, 0.0, 0.5)

    def left_dleft(x):
        # x ** alpha once, through numpy's array power as in left and dleft
        # (the scalar powers round differently at some x for alpha != 1/2);
        # the rest in floats, which round as numpy's float64 does
        p = float(np.asarray(x, dtype=float) ** alpha)
        return x * (1.0 + c * p), 1.0 + c * (1.0 + alpha) * p

    branches = (
        Branch(0.0, 0.5, left, ileft, dleft, left_dleft),
        Branch(0.5, 1.0, lambda x: 2.0 * np.asarray(x, dtype=float) - 1.0,
               lambda y: 0.5 * (np.asarray(y, dtype=float) + 1.0),
               lambda x: np.full_like(np.asarray(x, dtype=float), 2.0)),
    )
    return PomeauManneville(name=f"pm(alpha={alpha:g})", branches=branches,
                            eta=1.0, dist_const=dist_const, expansion=2.0,
                            alpha=alpha)


def doubling_map() -> MapModel:
    branches = (
        Branch(0.0, 0.5, lambda x: 2.0 * np.asarray(x, dtype=float),
               lambda y: 0.5 * np.asarray(y, dtype=float),
               lambda x: np.full_like(np.asarray(x, dtype=float), 2.0)),
        Branch(0.5, 1.0, lambda x: 2.0 * np.asarray(x, dtype=float) - 1.0,
               lambda y: 0.5 * (np.asarray(y, dtype=float) + 1.0),
               lambda x: np.full_like(np.asarray(x, dtype=float), 2.0)),
    )
    return MapModel(name="doubling", branches=branches, eta=1.0,
                    dist_const=2.0, expansion=2.0)


# ---------------------------------------------------------------------------
# First-return induction
# ---------------------------------------------------------------------------

class InducedMap:
    """First-return map F = T^r on a base interval Y.

    The first-return structure is one orbit o of the escape inverse e^-1
    (see ``induce``): the cell of depth d is inv_j of the points between
    o[d-1] and o[d].  ``escape`` is the branch e, None when Y is all of
    [0, 1).  Cells are stored up to a cutoff; beyond it the invariant
    return-time tail is the density at the accumulation edge times the
    exact Lebesgue widths of {r = n}, which the orbit gives out to
    ``tail_horizon`` (``ladder_tail``, ``tail_columns``).  The invariant
    density of F is represented by one value per cell.
    Cell j is kept as four array entries: its entry branch ``entry[j]``,
    return time ``r[j]`` and ends ``lo[j]``, ``hi[j]``; its word under the
    base map is (entry[j], e, ..., e), of length r[j].  Cells come in
    order of return time r, which ``inverse_chain`` and the tower levels
    rely on; cells whose r falls are a ValueError.
    """

    def __init__(self, model: MapModel, Y: tuple[float, float],
                 entry: np.ndarray, r: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray, mu0_r_width: np.ndarray, orbit: np.ndarray,
                 escape: Branch | None) -> None:
        self.model = model
        self.Y = (float(Y[0]), float(Y[1]))
        self.orbit = orbit
        self.escape = escape
        self.entry = np.asarray(entry, dtype=int)
        self.r = np.asarray(r, dtype=int)
        self.J = len(self.r)
        if np.any(np.diff(self.r) < 0):
            raise ValueError("cells must come in order of return time r")
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        self.widths = self.hi - self.lo
        self._mu0_r_width = mu0_r_width  # Lebesgue width of {r = n}, index n-1
        # mass conservation pins the width not swept out by the horizon
        self._mu0_remainder = max(0.0, (self.Y[1] - self.Y[0])
                                  - float(mu0_r_width.sum()))
        ylen = self.Y[1] - self.Y[0]
        self.mu0 = self.widths / ylen  # mu_0|Y normalised to a probability
        order = np.argsort(self.lo, kind="stable")
        self._sorted_lo = self.lo[order]
        self._sorted_idx = order
        self._compute_invariant_density()

    # -- construction of mu_Y ------------------------------------------------

    def _compute_invariant_density(self) -> None:
        P = self.transition_kernel()
        mu = self.mu0.copy()
        for it in range(1, 4001):
            new = mu @ P
            new /= new.sum()
            if np.max(np.abs(new - mu)) < 1e-16:
                mu = new
                break
            mu = new
        self.fixed_point_iterations = it
        self.fixed_point_residual = float(np.max(np.abs(mu @ P - mu)))
        if self.fixed_point_residual > 1e-12:
            raise ArithmeticError(
                "invariant measure iteration did not converge: residual "
                f"{self.fixed_point_residual:.3e}")
        # tail mass: density at the accumulation edge times exact width tail
        tail_width = self.mu0_tail(int(self.r.max()))
        edge = int(np.argmax(self.r))
        edge_rho = mu[edge] / self.mu0[edge]
        tail_raw = edge_rho * tail_width
        total = 1.0 + tail_raw
        self.muY = mu / total
        self.rho = self.muY / self.mu0  # density wrt mu_0|Y, one value per cell
        self.tail_mass = tail_raw / total
        self._edge_rho = edge_rho / total

    def transition_kernel(self) -> np.ndarray:
        """Row-stochastic cell kernel P[j, i] ~ mu(Y_j n F^{-1} Y_i)/mu(Y_j).

        Within-cell densities are constant in this model; the transition
        weight is the inverse-Jacobian of F at the target midpoint times the
        target width, renormalised over the represented range (pull-backs of
        the unresolved tail region are discarded).
        """
        x = self.midpoints()
        P = np.empty((self.J, self.J))
        for j, _, deriv in self.inverse_chain(x):
            P[j] = self.widths / deriv
        P /= P.sum(axis=1, keepdims=True)
        return P

    # -- geometry and dynamics -----------------------------------------------

    def midpoints(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def cell_of(self, y) -> np.ndarray:
        """Cell index containing each base point, -1 for the unresolved tail."""
        y = np.asarray(y, dtype=float)
        pos = np.searchsorted(self._sorted_lo, y, side="right") - 1
        safe = np.clip(pos, 0, None)
        idx = self._sorted_idx[safe]
        ok = (pos >= 0) & (y < self.hi[idx])
        return np.where(ok, idx, -1)

    def F(self, j, y) -> np.ndarray:
        """Forward return map on cell(s) j, by iterating the base map."""
        return self.model.advance(y, self.r[np.asarray(j, dtype=int)])

    def climb(self, pos, level, steps) -> np.ndarray:
        """T^steps(pos) for points pos = T^level(y), y in a cell, along the
        cell word (j0, e, ..., e): the entry branch j0 steps from level 0
        and the escape branch e from every level above, so no step looks
        its branch up.  ``steps`` is one count for all points or one per
        point, and a climb ends at the return (level + steps <= r).  With no
        escape branch (Y = [0, 1]) this is ``model.advance``."""
        if self.escape is None:
            return self.model.advance(pos, steps)
        entry = self.model.branches[self.entry[0]].fwd
        x = np.array(pos, dtype=float)
        if np.ndim(steps) == 0:
            if steps < 1:
                return x
            up = np.asarray(level) > 0
            x[~up] = entry(x[~up])
            x[up] = self.escape.fwd(x[up])
            steps = steps - 1
        else:
            steps = np.asarray(steps)
            first = (np.asarray(level) == 0) & (steps > 0)
            x[first] = entry(x[first])
            steps = steps - first
        return _iterate(self.escape.fwd, x, steps)[0]

    def land(self, j, level, pos):
        """Complete the returns of points at ``pos`` = T^level(y), y in Y_j:
        (cell, F(y), parked).  Landings past the represented cells are
        parked in the deepest cell; ``parked`` marks them, point by point.
        Points at the top of an uncut column have no step left to climb."""
        steps = self.r[j] - level
        y = self.climb(pos, level, steps) if np.any(steps) \
            else np.array(pos, dtype=float)
        cell = self.cell_of(y)
        bad = cell < 0
        if np.any(bad):
            deep = int(np.argmax(self.r))
            y[bad] = np.clip(y[bad], self.lo[deep],
                             self.hi[deep] - 1e-12 * self.hi[deep])
            cell[bad] = deep
        return cell, y, bad

    def F_inverse(self, j: int, x) -> np.ndarray:
        """Inverse branch of F on cell j, applied to base points x."""
        x = np.asarray(x, dtype=float)
        for _ in range(self.r[j] - 1):
            x = self.escape.inv(x)
        return self.model.branches[self.entry[j]].inv(x)

    def inverse_chain(self, x):
        """Yield (j, F_j^{-1}(x), F'(F_j^{-1}x)) for every cell, in order of r.

        The word of cell j is (j_0, e, ..., e), so the points are pulled
        back through e^-1 once per depth, then through the entry branch j_0
        once per cell.
        """
        z = np.asarray(x, dtype=float)
        p, depth = np.ones_like(z), 1
        for j, (e, r) in enumerate(zip(self.entry.tolist(), self.r.tolist())):
            for _ in range(r - depth):
                z = self.escape.inv(z)
                p = p * self.escape.deriv(z)
            depth = r
            b0 = self.model.branches[e]
            y = b0.inv(z)
            yield j, y, p * b0.deriv(y)

    # -- tails ----------------------------------------------------------------

    @property
    def tail_horizon(self) -> int:
        return len(self._mu0_r_width)

    def mu0_tail(self, n: int) -> float:
        """Exact mu_0|Y(r > n) from the stored endpoint recursion."""
        if n < 0:
            return 1.0
        w = self._mu0_r_width
        s = float(w[min(n, len(w)):].sum()) + self._mu0_remainder
        return s / (self.Y[1] - self.Y[0])

    @cached_property
    def tail_ge(self) -> np.ndarray:
        """tail_ge[n] = mu_Y(r >= n) over represented cells, n = 0 .. max r + 1
        (the last entry is 0)."""
        return np.array([self.muY[self.r >= n].sum()
                         for n in range(int(self.r.max()) + 2)])

    def tail_sums(self, N: int) -> tuple[float, float]:
        """(mu_Y(r >= N), sum_{n>N} mu_Y(r >= n)) from ``tail_ge``."""
        tail = self.tail_ge
        return float(tail[min(N, len(tail) - 1)]), math.fsum(tail[N + 1:])

    @property
    def mean_return(self) -> float:
        """Mean return time over represented cells (tail excluded)."""
        return float(np.sum(self.r * self.muY))

    def ladder_tail(self, n: int) -> float:
        """mu_Y(r > n) past the cell cutoff: the edge density times the
        exact mu_0 widths of the columns r > max(n, rmax) out to the
        horizon, plus the unswept remainder past it.  At n < rmax this is
        ``tail_mass`` (to rounding); ``tail_columns`` holds its terms."""
        return self._edge_rho * self.mu0_tail(max(n, int(self.r.max())))

    def tail_columns(self):
        """Aggregate account of the columns past the cell cutoff.

        Returns (r, muY, base_mid, ladder_mid) where r runs from rmax+1 to
        the tail horizon, muY are the ladder's invariant column masses (the
        terms of ``ladder_tail``), and the positions are collocation
        midpoints: base_mid[i] for level 0 of column r[i], ladder_mid[d] for
        any level l >= 1 with r - l = d.  Level l of column r lies between
        o[d] and o[d+1] of the escape orbit, in either orientation of the
        base.  None when Y has no escape region.
        """
        if self.escape is None:
            return None
        o = self.orbit
        horizon = len(o) - 1
        rs = np.arange(int(self.r.max()) + 1, horizon + 1)
        ylen = self.Y[1] - self.Y[0]
        muY = self._edge_rho * self._mu0_r_width[rs - 1] / ylen
        ladder_mid = np.empty(horizon)
        ladder_mid[0] = np.nan  # depth 0 is the base itself
        ladder_mid[1:] = 0.5 * (o[2:] + o[1:-1])
        br = self.model.branches[self.entry[0]]
        base_mid = br.inv(ladder_mid[rs - 1])
        return rs, muY, np.asarray(base_mid), ladder_mid

    # -- structural checks -------------------------------------------------------

    def check_bijectivity(self, tol: float = 1e-9) -> float:
        """Max endpoint defect of F: Y_j -> Y over represented cells.

        Endpoints are compared through the inverse branch, which contracts
        and is therefore well conditioned; the forward direction is also
        checked on cells short enough that expansion does not amplify the
        endpoint rounding past the tolerance.
        """
        worst = 0.0
        a, b = self.Y
        for j, ends, _ in self.inverse_chain(np.array([a, b])):
            worst = max(worst, abs(ends[0] - self.lo[j]), abs(ends[1] - self.hi[j]))
            if self.r[j] <= 25:
                w = self.hi[j] - self.lo[j]
                eps = max(1e-13 * w, 5e-16 * self.hi[j])
                slack = 4.0 * eps * (b - a) / w  # endpoint rounding amplified
                flo = float(self.F(j, np.array([self.lo[j]]))[0])
                fhi = float(self.F(j, np.array([self.hi[j] - eps]))[0])
                worst = max(worst, abs(flo - a), max(0.0, b - fhi - slack))
        if worst > tol:
            raise AssertionError(f"return map endpoint defect {worst:.2e}")
        return worst

    def _cell_pairs(self, pairs_per_cell: int, rng) -> tuple[np.ndarray, np.ndarray]:
        """Uniform pairs (x, y) of shape (J, pairs_per_cell) within each
        cell, drawn cell by cell: x of a cell, then its y."""
        u = rng.uniform(self.lo[:, None, None], self.hi[:, None, None],
                        (self.J, 2, pairs_per_cell))
        return u[:, 0], u[:, 1]

    def check_expansion(self, pairs_per_cell: int = 20, rng=None) -> float:
        """Smallest sampled expansion ratio d(Fx,Fy)/d(x,y) over the cells."""
        x, y = self._cell_pairs(pairs_per_cell, rng or np.random.default_rng(0))
        keep = np.abs(x - y) > 1e-13
        steps = np.broadcast_to(self.r[:, None], x.shape)[keep]
        ratio = np.abs(self.model.advance(x[keep], steps)
                       - self.model.advance(y[keep], steps)) \
            / np.abs(x[keep] - y[keep])
        return float(ratio.min(initial=np.inf))

    def check_backward_lipschitz(self, pairs_per_cell: int = 10, rng=None) -> float:
        """Max of d(T^l x, T^l y)/d(Fx, Fy) over sampled pairs and 0 <= l < r."""
        x, y = self._cell_pairs(pairs_per_cell, rng or np.random.default_rng(1))
        # the pairs come cell by cell, so in order of r
        cur = np.stack([x.ravel(), y.ravel()], axis=1)
        spread = np.zeros(len(cur))  # max over l < r of d(T^l x, T^l y)
        for a in suffix_starts(np.repeat(self.r, pairs_per_cell)):
            spread[a:] = np.maximum(spread[a:], np.abs(cur[a:, 0] - cur[a:, 1]))
            cur[a:] = self.model.apply(cur[a:])
        d_end = np.abs(cur[:, 0] - cur[:, 1])
        keep = d_end > 1e-13
        # division by d > 0 is monotone, so max_l (a_l / d) = (max_l a_l) / d
        return float(np.max(spread[keep] / d_end[keep], initial=0.0))

    def check_distortion(self, pairs_per_cell: int = 100, rng=None) -> float:
        """Fitted log-Hoelder constant of the Gibbs weights across cells."""
        rng = rng or np.random.default_rng(2)
        a, b = self.Y
        x = rng.uniform(a, b, pairs_per_cell)
        y = rng.uniform(a, b, pairs_per_cell)
        keep = np.abs(x - y) > 1e-12
        x, y = x[keep], y[keep]
        dist = np.abs(x - y) ** self.model.eta
        fitted = 0.0
        gx = np.empty_like(x)
        gy = np.empty_like(y)
        for j, _, dx in self.inverse_chain(np.concatenate([x, y])):
            g = 1.0 / dx
            gx, gy = g[: len(x)], g[len(x):]
            fitted = max(fitted, float(
                (np.abs(np.log(gx) - np.log(gy)) / dist).max()))
        return fitted


def induce(model: MapModel, Y: tuple[float, float], branch_cutoff: int = 400,
           tail_horizon: int = 12000) -> InducedMap:
    """Build the first-return map of ``model`` on the interval Y.

    Y must be a union of branch-domain closures, and the region outside Y
    one branch e or empty: every cell of depth d then has the word
    (j, e, ..., e), and its ends are inv_j of two consecutive points
    o[d-1], o[d] of one orbit of e^-1, where o[0], o[1] are the ends of Y
    (e^-1 must take o[0] to o[1] bit for bit).  The orbit runs on past the
    cell cutoff, so exact Lebesgue tail widths are available out to
    ``tail_horizon``.
    """
    a, b = float(Y[0]), float(Y[1])
    if not (0.0 <= a < b <= 1.0):
        raise ValueError("base interval must be a nondegenerate subinterval")
    if branch_cutoff < 1:
        raise ValueError(f"branch cutoff {branch_cutoff}: below 1")
    if tail_horizon < 1:
        raise ValueError(f"tail horizon {tail_horizon}: below 1")
    edges = model.branch_edges
    if not any(abs(a - e) < 1e-12 for e in edges) or \
       not any(abs(b - e) < 1e-12 for e in edges):
        raise ValueError("base must be a union of branch-domain closures")
    mid = 0.5 * (edges[:-1] + edges[1:])
    entry = np.flatnonzero((a < mid) & (mid < b))
    esc = np.flatnonzero((mid < a) | (b < mid))
    if esc.size and (esc.size > 1 or entry.size > 1):
        raise ValueError("induction needs Y to be one branch and the region "
                         "outside it another, or Y = [0, 1]")

    orbit, escape = np.array([a, b]), None
    if esc.size:
        escape = model.branches[esc[0]]
        o0, x = (b, a) if escape.lo < a else (a, b)
        if _invert_warm(escape, o0, o0) != x:
            raise ValueError("the escape inverse does not take one end of Y "
                             "to the other")
        orbit = np.empty(tail_horizon + 1)
        orbit[:2] = o0, x
        for d in range(2, tail_horizon + 1):
            orbit[d] = x = _invert_warm(escape, x, x)

    # cell ends by depth: inv_j(min(o[d-1], o[d])), inv_j(max(o[d-1], o[d]))
    rise = orbit[:-1] <= orbit[1:]
    # per entry branch, (entry, r, lo, hi) of the resolvable depths
    parts = []
    width = np.zeros(tail_horizon)
    for j in entry:
        pre = model.branches[j].inv(orbit)
        clo = np.where(rise, pre[:-1], pre[1:])
        chi = np.where(rise, pre[1:], pre[:-1])
        w = chi - clo
        width[:w.size] += w
        resolvable = w > np.maximum(4e-16 * np.abs(chi), 1e-300)
        d = np.flatnonzero(resolvable[:branch_cutoff])
        parts.append((np.full(d.size, j), d + 1, clo[d], chi[d]))
    parts = [np.concatenate(p)[:branch_cutoff] for p in zip(*parts)]
    if not parts[1].size:
        raise ValueError("no first-return cells found below the cutoff")
    return InducedMap(model, (a, b), *parts, width, orbit, escape)


# ---------------------------------------------------------------------------
# Return-time tails
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailValue:
    total: float
    raw: float            # partial sum over represented cells
    extrapolated: float   # past the cell cutoff, on the escape ladder


@dataclass(frozen=True)
class TailFit:
    exponent: float           # fitted beta + 1
    residual: float
    exponential_flag: bool


def return_time_tail(ind: InducedMap, n: int) -> TailValue:
    """Invariant tail mu_Y(r > n): the represented cells' sum plus the
    part past the cell cutoff that the escape ladder measures."""
    if n < 1:
        raise ValueError("n must be >= 1")
    tail = ind.tail_ge
    raw = float(tail[min(n + 1, len(tail) - 1)])
    extra = ind.ladder_tail(n)
    return TailValue(total=raw + extra, raw=raw, extrapolated=extra)


def fit_tail_exponent(ind: InducedMap, n_min: int, n_max: int) -> TailFit:
    """Least-squares fit of log tail against log n on [n_min, n_max].

    The fit runs on the exact Lebesgue tail from the endpoint recursion,
    which is available far beyond the cell cutoff.
    """
    if n_min < 1 or n_max < 4 * n_min:
        raise ValueError("window must satisfy n_max >= 4*n_min >= 4")
    ns = np.unique(np.round(np.geomspace(n_min, n_max, 80)).astype(int))
    vals = np.array([ind.mu0_tail(int(n)) for n in ns])
    if np.any(vals <= 0.0):
        return TailFit(math.inf, 0.0, exponential_flag=True)
    L = np.log(ns.astype(float))
    A = np.column_stack([np.ones_like(L), -L])
    coef, res, *_ = np.linalg.lstsq(A, np.log(vals), rcond=None)
    resid = float(np.sqrt(res[0] / len(L))) if len(res) else 0.0
    return TailFit(exponent=float(coef[1]), residual=resid,
                   exponential_flag=False)
