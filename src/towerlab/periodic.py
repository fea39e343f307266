"""Periodic orbits of finite subsystems and the period-alignment tests.

A finite subsystem restricts the return map to finitely many cells; its
periodic points are indexed by primitive necklaces of cell symbols and
located by contraction of composed inverse branches.  Each orbit carries
the triple (tau, d, q): flow period, base-map period, return-map period.
Two detectors look for the degeneracies that obstruct mixing estimates:
an alignment scan of b n tau + w n d + q phi near 2 pi Z, and a direct
search for approximate eigenfunctions of the weighted composition
operator.
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


def diophantine_check(triples, b_grid, omega_grid, alpha: float = 2.0,
                      C: float = 1.0) -> AlignmentReport:
    """Scan for frequencies aligning every orbit's phases near 2 pi Z.

    For each (b, omega) the phase offset phi is optimised on a grid of
    PHI_GRID points with golden-section refinement; the pair passes when
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
        tolv = C * qs * abs(b) ** (-alpha)
        for om in np.atleast_1d(omega_grid):
            base = b * n * taus + om * n * ds

            def worst_at(phi: float) -> float:
                return float(np.max(_dist_mod_2pi(base + qs * phi) / tolv))

            phis = np.linspace(0.0, TWO_PI, PHI_GRID, endpoint=False)
            vals = np.max(_dist_mod_2pi(base[:, None]
                                        + qs[:, None] * phis[None, :])
                          / tolv[:, None], axis=0)
            i0 = int(np.argmin(vals))
            lo = phis[i0] - TWO_PI / PHI_GRID
            hi = phis[i0] + TWO_PI / PHI_GRID
            gr = (math.sqrt(5.0) - 1.0) / 2.0
            a_, b_ = lo, hi
            c_ = b_ - gr * (b_ - a_)
            d_ = a_ + gr * (b_ - a_)
            for _ in range(60):
                if worst_at(c_) < worst_at(d_):
                    b_ = d_
                else:
                    a_ = c_
                c_ = b_ - gr * (b_ - a_)
                d_ = a_ + gr * (b_ - a_)
            phi = 0.5 * (a_ + b_)
            w = worst_at(phi)
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
    residual: float        # sup |M^n u - e^{i phi} u| at the optimum found
    scaled: float          # residual * |b|^alpha
    converged: bool


@dataclass
class EigenfunctionReport:
    rows: list[EigenfunctionRow]
    alpha: float
    depth: int


def approx_eigenfunction_search(sub: FiniteSubsystem, roof: RoofFunction,
                                b_grid, omega_grid, alpha: float = 2.0,
                                depth: int = 3,
                                iters: int = 400) -> EigenfunctionReport:
    """Minimise sup |M^n u - e^{i phi} u| over unimodular cylinder functions.

    M is the composition operator weighted by e^{-i b H} e^{-i omega r}; u
    ranges over unimodular functions constant on depth-``depth`` cylinder
    words of the subsystem, collocated at periodic points so that the
    shift action is exact.  Minimisation is by unimodular-projected power
    iteration with phase extraction; small residual * |b|^alpha flags an
    approximate-eigenfunction candidate.
    """
    ind = sub.ind
    syms = sub.symbols
    words = list(product(syms, repeat=depth))
    n_states = len(words)
    # periodic collocation: the word's cycle point, so F permutes the set
    pts = np.array([_cycle_point(ind, w) for w in words])
    shift = np.array([words.index(w[1:] + w[:1]) for w in words])
    # weights along one return block from each collocation point
    rr = ind.r[ind.cell_of(pts)]
    H = ind.model.orbit_sum(pts, rr, roof)
    rows = []
    rng = np.random.default_rng(11)
    for b in np.atleast_1d(b_grid):
        n = max(1, int(math.log(max(abs(b), math.e))))
        for om in np.atleast_1d(omega_grid):
            w1 = np.exp(-1j * (b * H + om * rr))
            # M^n u = W_n * u o F^n with the accumulated weight along n steps
            Wn = np.ones(n_states, dtype=complex)
            sh = np.arange(n_states)
            for _ in range(n):
                Wn = Wn * w1[sh]
                sh = shift[sh]
            best = (math.inf, 0.0, False)
            for start in range(3):
                if start == 0:
                    u = np.ones(n_states, dtype=complex)
                else:
                    u = np.exp(2j * np.pi * rng.random(n_states))
                stopped = False
                for _ in range(iters):
                    v = Wn * u[sh]
                    phi = np.angle(np.sum(v * np.conj(u)))
                    u2 = v * np.exp(-1j * phi)
                    u2 /= np.abs(u2)
                    stopped = np.max(np.abs(u2 - u)) < 1e-14
                    u = u2
                    if stopped:
                        break
                v = Wn * u[sh]
                phi = np.angle(np.sum(v * np.conj(u)))
                res = float(np.max(np.abs(v - np.exp(1j * phi) * u)))
                if res < best[0]:
                    best = (res, phi, stopped)
            res, phi, stopped = best
            rows.append(EigenfunctionRow(
                b=float(b), omega=float(om), phi=float(phi % TWO_PI),
                residual=res, scaled=res * abs(b) ** alpha,
                converged=bool(stopped)))
    return EigenfunctionReport(rows=rows, alpha=alpha, depth=depth)
