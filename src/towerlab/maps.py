"""Interval maps and first-return induction.

Concrete full-branch interval maps (doubling, intermittent) together with
the machinery that induces them on a reference base interval Y: first-return
cells, return times, inverse branches of the return map, Gibbs weights and
the invariant density of the induced map.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "Branch",
    "MapModel",
    "climb_order",
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
    """

    lo: float
    hi: float
    fwd: Callable[[np.ndarray], np.ndarray]
    inv: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    indifferent_left: bool = False  # neutral fixed point at the left endpoint


def climb_order(steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Order putting the largest step counts first, and for each l below
    the largest count the number of entries with more than l steps: the
    prefix of that order that still climbs at step l."""
    order = np.argsort(-steps, kind="stable")
    top = int(steps.max(initial=0))
    return order, np.searchsorted(-steps[order], -np.arange(top), side="left")


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
        return self._climb(x, steps)[0]

    def orbit_sum(self, x, steps, f) -> np.ndarray:
        """sum_{l < steps} f(T^l x), point by point, added in order of l."""
        return self._climb(x, steps, f)[1]

    def _climb(self, x, steps, f=None) -> np.ndarray:
        """(T^steps x, sum_{l < steps} f(T^l x)).  The points are sorted by
        step count once; each application of T acts on the prefix still
        climbing."""
        x = np.asarray(x, dtype=float)
        steps = np.broadcast_to(np.asarray(steps, dtype=int), x.shape).ravel()
        order, active = climb_order(steps)
        cur = x.ravel()[order]
        rows = [cur] if f is None else [cur, np.zeros_like(cur)]
        for n in active:
            if f is not None:
                rows[1][:n] += f(cur[:n])
            cur[:n] = self.apply(cur[:n])
        out = np.empty((len(rows), cur.size))
        for o, row in zip(out, rows):
            o[order] = row
        return out.reshape((len(rows),) + x.shape)


@dataclass(frozen=True)
class PomeauManneville(MapModel):
    """Intermittent map x -> x(1 + 2^a x^a) on [0,1/2), 2x-1 on [1/2,1).

    The left branch has an indifferent fixed point at 0.  ``beta`` is the
    polynomial correlation-decay exponent 1/alpha - 1; the first-return tail
    on [1/2, 1] decays with exponent beta + 1 = 1/alpha.
    """

    alpha: float = 0.5

    @property
    def beta(self) -> float:
        return 1.0 / self.alpha - 1.0


def _solve_increasing(f, df, y, lo: float, hi: float) -> np.ndarray:
    """Invert an increasing C^1 function on [lo, hi] by bisection + Newton."""
    y = np.asarray(y, dtype=float)
    a = np.full_like(y, lo)
    b = np.full_like(y, hi)
    for _ in range(46):
        mid = 0.5 * (a + b)
        take_hi = f(mid) < y
        a = np.where(take_hi, mid, a)
        b = np.where(take_hi, b, mid)
    x = 0.5 * (a + b)
    for _ in range(3):  # Newton polish to ~1e-15
        x = np.clip(x - (f(x) - y) / df(x), lo, hi)
    return x


def _invert_warm(br: Branch, y: float, x0: float) -> float:
    """Scalar inverse of a branch with a warm start; falls back to br.inv."""
    x = min(max(x0, br.lo), br.hi)
    for _ in range(40):
        fx = float(br.fwd(x))
        err = fx - y
        if abs(err) < 1e-16 * max(1.0, abs(y)):
            return x
        step = err / float(br.deriv(x))
        nx = x - step
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

    branches = (
        Branch(0.0, 0.5, left, ileft, dleft, indifferent_left=True),
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

@dataclass(frozen=True)
class InducedCell:
    """One first-return cell Y_j with its symbolic word under the base map."""

    word: tuple[int, ...]
    r: int
    lo: float
    hi: float


class InducedMap:
    """First-return map F = T^r on a base interval Y.

    Cells are stored up to a cutoff; beyond it the return-time tail is kept
    two ways: exact Lebesgue widths of {r = n} out to ``tail_horizon`` from
    the endpoint recursion, and an aggregate invariant tail mass obtained by
    scaling those widths with the density at the accumulation edge.  The
    invariant density of F is represented by one value per cell.
    """

    def __init__(self, model: MapModel, Y: tuple[float, float],
                 cells: list[InducedCell], mu0_r_width: np.ndarray,
                 beta_declared: float | None = None,
                 gamma_declared: float = 0.0) -> None:
        self.model = model
        self.Y = (float(Y[0]), float(Y[1]))
        self.cells = cells
        self.J = len(cells)
        self.r = np.array([c.r for c in cells], dtype=int)
        self.lo = np.array([c.lo for c in cells])
        self.hi = np.array([c.hi for c in cells])
        self.widths = self.hi - self.lo
        self.beta_declared = beta_declared
        self.gamma_declared = gamma_declared
        self._mu0_r_width = mu0_r_width  # Lebesgue width of {r = n}, index n-1
        # mass conservation pins the width not swept out by the horizon
        self._mu0_remainder = max(0.0, (self.Y[1] - self.Y[0])
                                  - float(mu0_r_width.sum()))
        ylen = self.Y[1] - self.Y[0]
        self.mu0 = self.widths / ylen  # mu_0|Y normalised to a probability
        order = np.argsort(self.lo, kind="stable")
        self._sorted_lo = self.lo[order]
        self._sorted_idx = order
        self._ladder: np.ndarray | None = None
        self._ladder_branch = 0
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
        ylen = self.Y[1] - self.Y[0]
        rmax = int(self.r.max())
        tail_width = (float(self._mu0_r_width[rmax:].sum())
                      + self._mu0_remainder) / ylen
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

    def land(self, j, level, pos):
        """Complete the returns of points at ``pos`` = T^level(y), y in Y_j:
        (cell, F(y), parked).  Landings past the represented cells are
        parked in the deepest cell; ``parked`` marks them, point by point."""
        y = self.model.advance(pos, self.r[np.asarray(j, dtype=int)] - level)
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
        for sym in reversed(self.cells[j].word):
            x = self.model.branches[sym].inv(x)
        return x

    def inverse_chain(self, x):
        """Yield (j, F_j^{-1}(x), F'(F_j^{-1}x)) for every cell, sharing work.

        Inner-word suffixes are cached so that the usual first-return
        structure (a fixed escape branch repeated up the word) costs one
        inverse-branch application per cell.
        """
        x = np.asarray(x, dtype=float)
        cache: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {
            (): (x, np.ones_like(x))}
        for j in sorted(range(self.J), key=lambda i: len(self.cells[i].word)):
            word = self.cells[j].word
            suffix = word[1:]
            if suffix not in cache:
                k = len(suffix)
                while k > 0 and suffix[-k:] not in cache:
                    k -= 1
                z, p = cache[suffix[-k:] if k else ()]
                for i in range(len(suffix) - k - 1, -1, -1):
                    br = self.model.branches[suffix[i]]
                    z = br.inv(z)
                    p = p * br.deriv(z)
                    cache[suffix[i:]] = (z, p)
            z, p = cache[suffix]
            b0 = self.model.branches[word[0]]
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

    def muY_tail_represented(self, n: int) -> float:
        """Sum of invariant cell masses with r > n, represented cells only."""
        tail = self.tail_ge
        return float(tail[min(max(n + 1, 0), len(tail) - 1)])

    @property
    def mean_return(self) -> float:
        """Mean return time over represented cells (tail excluded)."""
        return float(np.sum(self.r * self.muY))

    @property
    def mean_return_tail(self) -> float:
        """Extrapolated tail contribution to the mean return time."""
        rmax = int(self.r.max())
        edge_rho = self.rho[int(np.argmax(self.r))]
        ylen = self.Y[1] - self.Y[0]
        w = self._mu0_r_width
        # sum_{n >= rmax} mu_0(r > n): widths weighted by their excess over
        # rmax, plus the unswept remainder (a lower estimate beyond horizon)
        tail = float(np.sum(w[rmax:] * (np.arange(rmax + 1, len(w) + 1) - rmax)))
        tail += self._mu0_remainder * (len(w) - rmax)
        return edge_rho * tail / ylen

    def tail_columns(self):
        """Aggregate account of the columns past the cell cutoff.

        Returns (r, muY, base_mid, ladder_mid) where r runs from rmax+1 to
        the tail horizon, muY are extrapolated invariant cell masses, and
        the positions are collocation midpoints: base_mid[i] for level 0 of
        column r[i], ladder_mid[d] for any level l >= 1 with r - l = d.
        None when the escape sweep branched (no single ladder exists).
        """
        if self._ladder is None or len(self._ladder) < 3:
            return None
        rmax = int(self.r.max())
        lad = self._ladder
        horizon = min(len(self._mu0_r_width), len(lad))
        rs = np.arange(rmax + 1, horizon + 1)
        ylen = self.Y[1] - self.Y[0]
        muY = self._edge_rho * self._mu0_r_width[rs - 1] / ylen
        ladder_mid = np.empty(horizon)
        ladder_mid[0] = np.nan  # depth 0 is the base itself
        ladder_mid[1:] = 0.5 * (lad[1:horizon] + lad[:horizon - 1])
        br = self.model.branches[self._ladder_branch]
        base_mid = br.inv(ladder_mid[rs - 1])
        return rs, muY, np.asarray(base_mid), ladder_mid

    # -- serialisation ----------------------------------------------------------

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("j,r,lo,hi,muY\n")
            for j, c in enumerate(self.cells):
                fh.write(f"{j},{c.r},{c.lo:.17g},{c.hi:.17g},{self.muY[j]:.17g}\n")

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
        order, active = climb_order(
            np.broadcast_to(self.r[:, None], x.shape).ravel())
        cur = np.stack([x.ravel(), y.ravel()], axis=1)[order]
        spread = np.zeros(len(cur))  # max over l < r of d(T^l x, T^l y)
        for n in active:
            spread[:n] = np.maximum(spread[:n], np.abs(cur[:n, 0] - cur[:n, 1]))
            cur[:n] = self.model.apply(cur[:n])
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
           tail_horizon: int = 12000, beta_declared: float | None = None,
           gamma_declared: float = 0.0) -> InducedMap:
    """Build the first-return map of ``model`` on the interval Y.

    Y must be a union of branch-domain closures, and the escape region must
    be swept through single branches (true for the maps provided here).  The
    sweep continues past the cell cutoff so that exact Lebesgue tail widths
    are available out to ``tail_horizon``.
    """
    a, b = float(Y[0]), float(Y[1])
    if not (0.0 <= a < b <= 1.0):
        raise ValueError("base interval must be a nondegenerate subinterval")
    edges = [bb.lo for bb in model.branches] + [1.0]
    if not any(abs(a - e) < 1e-12 for e in edges) or \
       not any(abs(b - e) < 1e-12 for e in edges):
        raise ValueError("base must be a union of branch-domain closures")

    cells: list[InducedCell] = []
    width_by_r = np.zeros(tail_horizon + 2)

    # pieces: (word, img_lo, img_hi, pa, pb) where (pa, pb) is the pullback
    # of the base endpoints (a, b) through the word's inner chain, so that a
    # return at the next step has base endpoints inv_{w0}(pa, pb).  Words
    # grow only up to the cutoff: deeper returns are never stored as cells,
    # so they carry their first symbol and take r from the depth.
    pieces: list[tuple[tuple[int, ...], float, float, float, float]] = []

    def record(word: tuple[int, ...], r: int, pa: float, pb: float) -> None:
        clo, chi = map(float, model.branches[word[0]].inv(np.array([pa, pb])))
        width_by_r[min(r, tail_horizon + 1)] += chi - clo
        resolvable = chi - clo > max(4e-16 * abs(chi), 1e-300)
        if r <= branch_cutoff and len(cells) < branch_cutoff and resolvable:
            cells.append(InducedCell(word=word, r=r, lo=clo, hi=chi))

    # depth 1: branches intersecting Y directly
    for j, br in enumerate(model.branches):
        s_lo, s_hi = max(a, br.lo), min(b, br.hi)
        if s_hi - s_lo <= 0.0:
            continue
        t_lo = float(br.fwd(np.array([s_lo]))[0])
        t_hi = float(br.fwd(np.array([s_hi]))[0])
        if t_hi <= a + 1e-12 or t_lo >= b - 1e-12:
            pieces.append(((j,), t_lo, t_hi, a, b))
            continue
        if t_lo > a + 1e-12 or t_hi < b - 1e-12:
            raise ValueError("non-Markov base: a branch image straddles Y")
        record((j,), 1, a, b)
        if t_lo < a - 1e-12:
            pieces.append(((j,), t_lo, a, a, b))
        if t_hi > b + 1e-12:
            pieces.append(((j,), b, t_hi, a, b))

    # ladder of escape-region images: ladder[d] is the pullback of the base
    # lower endpoint through d escape steps, so T^l(Y_r) = [ladder[r-l],
    # ladder[r-l-1]) for single-chain sweeps; None if the sweep branches
    ladder: list[float] | None = [a] if len(pieces) == 1 else None
    ladder_branch = pieces[0][0][0] if pieces else 0

    # inversions of the previous depth, keyed (branch, y): on a single-chain
    # sweep the upper endpoint pb is the previous depth's lower endpoint pa,
    # so each depth solves once.  _invert_warm depends on (branch, y) only.
    solved: dict[tuple[int, float], float] = {}

    # deeper sweeps: each escape piece must sit inside one branch domain
    depth = 1
    while pieces and depth < tail_horizon:
        depth += 1
        if len(pieces) != 1:
            ladder = None
        last, solved = solved, {}
        nxt = []
        for word, ilo, ihi, pa, pb in pieces:
            if ihi - ilo <= 1e-300:
                continue
            # branch of ilo, ties to the right (MapModel.branch_index)
            js = min(max(bisect.bisect_right(edges, ilo) - 1, 0),
                     len(model.branches) - 1)
            br = model.branches[js]
            if ihi > br.hi + 1e-12:
                raise ValueError(
                    "escape piece spans several branches; induction for this "
                    "base is not supported")
            t_lo = float(br.fwd(ilo))
            t_hi = float(br.fwd(min(ihi, br.hi)))
            pa2, pb2 = (last[js, y] if (js, y) in last
                        else _invert_warm(br, y, y) for y in (pa, pb))
            solved[js, pa], solved[js, pb] = pa2, pb2
            new_word = word + (js,) if depth <= branch_cutoff else word
            if t_hi <= a + 1e-12 or t_lo >= b - 1e-12:
                nxt.append((new_word, t_lo, t_hi, pa2, pb2))
                continue
            if t_lo > a + 1e-12 or t_hi < b - 1e-12:
                raise ValueError("non-Markov base: an image straddles Y")
            record(new_word, depth, pa2, pb2)
            if ladder is not None:
                ladder.append(pa2)
            if t_lo < a - 1e-12:
                nxt.append((new_word, t_lo, a, pa2, pb2))
            if t_hi > b + 1e-12:
                nxt.append((new_word, b, t_hi, pa2, pb2))
        pieces = nxt

    if not cells:
        raise ValueError("no first-return cells found below the cutoff")
    cells.sort(key=lambda c: (c.r, c.lo))
    if beta_declared is None and isinstance(model, PomeauManneville):
        beta_declared = model.beta
    out = InducedMap(model, (a, b), cells, width_by_r[1: tail_horizon + 1],
                     beta_declared=beta_declared, gamma_declared=gamma_declared)
    out._ladder = np.array(ladder) if ladder is not None else None
    out._ladder_branch = ladder_branch
    return out


# ---------------------------------------------------------------------------
# Return-time tails
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailValue:
    total: float
    raw: float            # partial sum over represented cells
    extrapolated: float   # extension beyond the cell cutoff


@dataclass(frozen=True)
class TailFit:
    exponent: float           # fitted beta + 1
    log_power: float          # fitted gamma, 0.0 unless requested
    residual: float
    exponential_flag: bool


def return_time_tail(ind: InducedMap, n: int) -> TailValue:
    """Invariant tail mu_Y(r > n), split into raw sum and extrapolation."""
    if n < 1:
        raise ValueError("n must be >= 1")
    raw = ind.muY_tail_represented(n)
    rmax = int(ind.r.max())
    if n < rmax:
        extra = float(ind.tail_mass)
    elif ind.tail_mass == 0.0:
        extra = 0.0
    else:
        bp1 = (ind.beta_declared + 1.0) if ind.beta_declared is not None else 2.0
        g = ind.gamma_declared
        ratio = (n / rmax) ** (-bp1)
        logs = (math.log(max(n, 2)) / math.log(max(rmax, 2))) ** g
        extra = float(ind.tail_mass) * ratio * logs
    return TailValue(total=raw + extra, raw=raw, extrapolated=extra)


def fit_tail_exponent(ind: InducedMap, n_min: int, n_max: int,
                      fit_log_power: bool = False,
                      use_exact_widths: bool = True) -> TailFit:
    """Least-squares fit of log tail against log n on [n_min, n_max].

    With ``use_exact_widths`` the fit runs on the exact Lebesgue tail from
    the endpoint recursion (available far beyond the cell cutoff); otherwise
    on the represented invariant-mass tail.
    """
    if n_min < 1 or n_max < 4 * n_min:
        raise ValueError("window must satisfy n_max >= 4*n_min >= 4")
    ns = np.unique(np.round(np.geomspace(n_min, n_max, 80)).astype(int))
    if use_exact_widths:
        vals = np.array([ind.mu0_tail(int(n)) for n in ns])
    else:
        vals = np.array([ind.muY_tail_represented(int(n)) for n in ns])
    if np.any(vals <= 0.0):
        return TailFit(math.inf, 0.0, 0.0, exponential_flag=True)
    L = np.log(ns.astype(float))
    V = np.log(vals)
    cols = [np.ones_like(L), -L]
    if fit_log_power:
        cols.append(np.log(L))
    A = np.column_stack(cols)
    coef, res, *_ = np.linalg.lstsq(A, V, rcond=None)
    resid = float(np.sqrt(res[0] / len(L))) if len(res) else 0.0
    gamma = float(coef[2]) if fit_log_power else 0.0
    return TailFit(exponent=float(coef[1]), log_power=gamma,
                   residual=resid, exponential_flag=False)

