"""Periodic orbits of finite subsystems and the period-alignment tests.

A finite subsystem restricts the return map to finitely many cells; its
periodic points are indexed by primitive necklaces of cell symbols and
located by contraction of composed inverse branches.  Each orbit carries
the triple (tau, d, q): flow period, base-map period, return-map period.
Two detectors look for the degeneracies that obstruct mixing estimates:
an alignment scan of b n tau + w n d + q phi near 2 pi Z, and the residual
of approximate eigenfunctions of the weighted composition operator, exact
in the unimodular eigenfunction and with the same scan over phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from towerlab.maps import InducedMap
from towerlab.suspension import RoofFunction

__all__ = [
    "FiniteSubsystem",
    "PeriodicTriple",
    "enumerate_periodic",
    "diophantine_check",
    "approx_eigenfunction_search",
    "primitive_necklace_count",
]

TWO_PI = 2.0 * math.pi
PHI_GRID = 1024   # phase grid of the alignment scan


@dataclass(frozen=True)
class FiniteSubsystem:
    """Restriction of the induced map to finitely many cells; the maximal
    invariant set is a full shift on the chosen symbols."""

    ind: InducedMap
    symbols: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.symbols) < 1:
            raise ValueError("need at least one cell")
        for j in self.symbols:
            if not (0 <= j < self.ind.J):
                raise ValueError(f"cell {j} not represented")


@dataclass(frozen=True)
class PeriodicTriple:
    word: tuple[int, ...]
    point: float
    q: int          # period under the return map
    d: int          # period under the base map
    tau: float      # period under the semiflow

    def key(self) -> tuple:
        return (self.q, self.d, round(self.tau, 12))


def primitive_necklace_count(k: int, q: int) -> int:
    """Number of primitive necklaces of length q over k symbols (Moebius)."""
    def mobius(n: int) -> int:
        if n == 1:
            return 1
        out, m, p = 1, n, 2
        while p * p <= m:
            if m % p == 0:
                m //= p
                if m % p == 0:
                    return 0
                out = -out
            p += 1
        if m > 1:
            out = -out
        return out

    return sum(mobius(q // dd) * k ** dd for dd in range(1, q + 1)
               if q % dd == 0) // q


def _necklace_representatives(symbols, q: int):
    """Primitive words of length q, one per rotation class."""
    seen = set()
    for w in product(symbols, repeat=q):
        rots = [w[i:] + w[:i] for i in range(q)]
        rep = min(rots)
        if rep in seen:
            continue
        seen.add(rep)
        # primitive: no smaller rotation period
        if any(rep == rep[d:] + rep[:d] for d in range(1, q)):
            continue
        yield rep


def _cycle_point(ind: InducedMap, word: tuple[int, ...]) -> float:
    """The point of Y that the return map takes through ``word`` back to
    itself: the fixed point of the composed inverse branches, found by
    contraction from the middle of Y to within 1e-13 in 200 rounds, or an
    ArithmeticError."""
    x = np.array([0.5 * (ind.Y[0] + ind.Y[1])])
    for _ in range(200):
        prev = x.copy()
        for sym in reversed(word):
            x = ind.F_inverse(sym, x)
        if abs(float(x[0] - prev[0])) < 1e-13:
            return float(x[0])
    raise ArithmeticError(f"inverse-branch contraction failed for word {word}")


def enumerate_periodic(sub: FiniteSubsystem, q_max: int,
                       roof: RoofFunction | None = None
                       ) -> list[PeriodicTriple]:
    """All primitive periodic orbits of word length <= q_max.

    The periodic point of a word is the fixed point of the composed inverse
    branches, found by contraction to within 1e-13; tau sums the roof along
    the full base orbit (tau = d when no roof is given, i.e. roof 1).
    """
    if len(sub.symbols) ** q_max > 1_000_000:
        raise ValueError("word space too large")
    ind = sub.ind
    words = [w for q in range(1, q_max + 1)
             for w in _necklace_representatives(sub.symbols, q)]
    points = [_cycle_point(ind, w) for w in words]
    ds = np.array([int(ind.r[list(w)].sum()) for w in words], dtype=int)
    taus = ds.astype(float) if roof is None else \
        ind.model.orbit_sum(np.array(points), ds, roof)
    return [PeriodicTriple(word=w, point=p, q=len(w), d=int(d), tau=float(tau))
            for w, p, d, tau in zip(words, points, ds, taus)]


def verify_triple(sub: FiniteSubsystem, t: PeriodicTriple,
                  roof: RoofFunction | None = None) -> tuple[float, float]:
    """Independent recomputation defects: |sum r - d| and the tau defect
    from summing the roof over return blocks."""
    ind = sub.ind
    d2 = 0
    tau2 = 0.0
    y = t.point
    for _ in range(len(t.word)):
        j = int(ind.cell_of(np.array([y]))[0])
        d2 += int(ind.r[j])
        cur = y
        for _ in range(int(ind.r[j])):
            tau2 += float(roof(np.array([cur]))[0]) if roof is not None else 1.0
            cur = float(ind.model.apply(np.array([cur]))[0])
        y = cur
    return abs(d2 - t.d), abs(tau2 - t.tau)


# ---------------------------------------------------------------------------
# Period-alignment (Diophantine) scan
# ---------------------------------------------------------------------------

@dataclass
class AlignmentRow:
    b: float
    omega: float
    phi: float
    worst: float          # max over triples of dist/(C q |b|^-alpha)
    passes: bool


@dataclass
class AlignmentReport:
    rows: list[AlignmentRow]
    alpha: float
    C: float
    degenerate: bool      # fewer than two independent triples

    @property
    def passing(self) -> list[AlignmentRow]:
        return [r for r in self.rows if r.passes]

    def evidence(self) -> str:
        """Finite scans cannot certify the all-frequencies alternative;
        the verdict is labelled evidence over the scanned range only."""
        bs = [r.b for r in self.rows]
        lo, hi = (min(bs), max(bs)) if bs else (0.0, 0.0)
        rng = f"b in [{lo:g}, {hi:g}], alpha={self.alpha:g}, C={self.C:g}"
        if self.degenerate:
            return f"DEGENERATE (fewer than two orbits; {rng})"
        if self.passing:
            return f"EVIDENCE-FOR alignment at {len(self.passing)} of " \
                   f"{len(self.rows)} points ({rng})"
        return f"EVIDENCE-AGAINST alignment ({rng})"


def _dist_mod_2pi(x: np.ndarray) -> np.ndarray:
    y = np.mod(x, TWO_PI)
    return np.minimum(y, TWO_PI - y)


def _phase_scan(c, m, cost) -> tuple[float, float]:
    """Minimise max_k cost(dist(c_k + m_k phi, 2 pi Z)) over phi.

    ``cost`` maps the (k, phi) array of distances row by row.  phi is taken
    on a grid of PHI_GRID points and refined by golden section within one
    grid step of the best; returns (phi, value), phi not reduced mod 2 pi.
    """
    c = np.asarray(c, dtype=float)[:, None]
    m = np.asarray(m, dtype=float)[:, None]

    def worst(phis) -> np.ndarray:
        return np.max(cost(_dist_mod_2pi(c + m * np.atleast_1d(phis))),
                      axis=0)

    phis = np.linspace(0.0, TWO_PI, PHI_GRID, endpoint=False)
    i0 = int(np.argmin(worst(phis)))
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    a_ = phis[i0] - TWO_PI / PHI_GRID
    b_ = phis[i0] + TWO_PI / PHI_GRID
    for _ in range(60):
        c_ = b_ - gr * (b_ - a_)
        d_ = a_ + gr * (b_ - a_)
        if worst(c_)[0] < worst(d_)[0]:
            b_ = d_
        else:
            a_ = c_
    phi = 0.5 * (a_ + b_)
    return float(phi), float(worst(phi)[0])


def diophantine_check(triples, b_grid, omega_grid, alpha: float = 2.0,
                      C: float = 1.0) -> AlignmentReport:
    """Scan for frequencies aligning every orbit's phases near 2 pi Z.

    For each (b, omega) the phase offset phi is optimised by
    ``_phase_scan``; the pair passes when
    dist(b n tau + omega n d + q phi, 2 pi Z) <= C q |b|^-alpha holds for
    every triple, with n = [ln |b|].  A nonempty passing set at large
    |b| is evidence toward the degenerate alternative; with fewer than two
    distinct triples the test is vacuous and flagged.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    triples = list(triples)
    if not triples:
        raise ValueError("no triples supplied")
    taus = np.array([t.tau for t in triples])
    ds = np.array([t.d for t in triples], dtype=float)
    qs = np.array([t.q for t in triples], dtype=float)
    degenerate = len({t.key() for t in triples}) < 2
    rows = []
    for b in np.atleast_1d(b_grid):
        n = max(1, int(math.log(max(abs(b), math.e))))
        tolv = C * qs[:, None] * abs(b) ** (-alpha)
        for om in np.atleast_1d(omega_grid):
            phi, w = _phase_scan(b * n * taus + om * n * ds, qs,
                                 lambda dist: dist / tolv)
            rows.append(AlignmentRow(b=float(b), omega=float(om), phi=phi,
                                     worst=w, passes=w <= 1.0))
    return AlignmentReport(rows=rows, alpha=alpha, C=C,
                           degenerate=degenerate)


# ---------------------------------------------------------------------------
# Approximate eigenfunctions of the weighted composition operator
# ---------------------------------------------------------------------------

@dataclass
class EigenfunctionRow:
    b: float
    omega: float
    phi: float
    residual: float        # min over unimodular u of sup |M^n u - e^{i phi} u|
    scaled: float          # residual * |b|^alpha


def _cycle_residual(delta, L):
    """The least sup of |e^{i e_k} - 1| over link errors e_k on a cycle of L
    links that add up to a defect at distance delta from 2 pi Z: delta
    spread evenly, 2 sin(delta / 2L)."""
    return 2.0 * np.sin(delta / (2.0 * L))


def approx_eigenfunction_search(sub: FiniteSubsystem, roof: RoofFunction,
                                b_grid, omega_grid, alpha: float = 2.0,
                                depth: int = 3) -> list[EigenfunctionRow]:
    """Minimise sup |M^n u - e^{i phi} u| over phi and unimodular u.

    M is the composition operator weighted by e^{-i b H} e^{-i omega r}; u
    ranges over unimodular functions constant on depth-``depth`` cylinder
    words of the subsystem, collocated at periodic points so that M^n is a
    permutation of the words (shift^n) with unimodular weights.  On a cycle
    of L words whose weight phases sum to c, the link errors of any u add up
    to c - L phi mod 2 pi, so the minimum over u is exact: the largest
    ``_cycle_residual`` over the cycles.  phi is scanned by ``_phase_scan``.
    Small residual * |b|^alpha flags an approximate-eigenfunction candidate.
    """
    ind = sub.ind
    words = list(product(sub.symbols, repeat=depth))
    # periodic collocation: the word's cycle point, so F permutes the set
    pts = np.array([_cycle_point(ind, w) for w in words])
    shift = np.array([words.index(w[1:] + w[:1]) for w in words])
    # weights along one return block from each collocation point
    rr = ind.r[[w[0] for w in words]]
    H = ind.model.orbit_sum(pts, rr, roof)
    rows = []
    for b in np.atleast_1d(b_grid):
        n = max(1, int(math.log(max(abs(b), math.e))))
        steps = [np.arange(len(words))]    # each word after 0 .. n shifts
        for _ in range(n):
            steps.append(shift[steps[-1]])
        sigma = steps.pop()                # shift^n
        cycles, seen = [], set()
        for k in range(len(words)):
            cycle = []
            while k not in seen:
                seen.add(k)
                cycle.append(k)
                k = sigma[k]
            if cycle:
                cycles.append(cycle)
        L = np.array([len(cycle) for cycle in cycles])
        for om in np.atleast_1d(omega_grid):
            # the phase of M^n's weight at each word, summed around a cycle
            theta = (-(b * H + om * rr))[np.array(steps)].sum(axis=0)
            phi, res = _phase_scan([theta[c].sum() for c in cycles], -L,
                                   lambda d: _cycle_residual(d, L[:, None]))
            rows.append(EigenfunctionRow(
                b=float(b), omega=float(om), phi=phi % TWO_PI,
                residual=res, scaled=res * abs(b) ** alpha))
    return rows
