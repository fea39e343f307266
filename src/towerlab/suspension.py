"""Suspension semiflows over towers.

Roof functions (bounded and unbounded), observables smooth along the flow,
stationary sampling, Monte-Carlo correlation estimation, and the coupled
truncation-error experiments.  Sampling restricted to a truncated tower (or
to the region under a truncated roof) is exactly stationary for the
truncated flow, so truncation effects are measured pathwise on a common
sample.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from towerlab.maps import InducedMap
from towerlab.tower import Tower

__all__ = [
    "RoofFunction",
    "constant_roof",
    "cosine_roof",
    "power_singularity_roof",
    "Observable",
    "coordinate_observable",
    "trig_flow_observable",
    "flow_periodic_observable",
    "smoothed_indicator_observable",
    "SuspensionModel",
    "FlowState",
    "EnvelopeError",
    "CorrelationSeries",
    "sample_stationary",
    "flow",
    "correlation_mc",
    "truncation_error_experiment",
    "roof_truncation_experiment",
]


# ---------------------------------------------------------------------------
# Roof functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RoofFunction:
    """Positive roof over the ambient interval, evaluated through the
    tower projection.  ``tail_exponent`` declares the decay exponent of
    mu(h > n) for unbounded roofs (beta + 1)."""

    name: str
    func: Callable[[np.ndarray], np.ndarray]
    bounded: bool = True
    inf_floor: float = 1.0           # declared essential infimum
    holder_const: float = 10.0
    eta: float = 1.0
    tail_exponent: float | None = None
    cap: float | None = None         # truncation level, None if untruncated

    def __call__(self, x) -> np.ndarray:
        v = self.func(np.asarray(x, dtype=float))
        if self.cap is not None:
            v = np.minimum(v, self.cap)
        return v

    def truncated(self, N: float) -> "RoofFunction":
        cap = N if self.cap is None else min(self.cap, N)
        return RoofFunction(name=f"{self.name}|min({N:g})", func=self.func,
                            bounded=True, inf_floor=min(self.inf_floor, N),
                            holder_const=self.holder_const, eta=self.eta,
                            tail_exponent=self.tail_exponent, cap=cap)


def constant_roof(c: float = 1.0) -> RoofFunction:
    return RoofFunction(name=f"const({c:g})", func=lambda x: np.full_like(x, c),
                        inf_floor=c, holder_const=0.0)


def cosine_roof(mean: float = 2.0, amp: float = 1.0) -> RoofFunction:
    if mean - abs(amp) <= 0:
        raise ValueError("roof must stay positive")
    return RoofFunction(name=f"cos({mean:g},{amp:g})",
                        func=lambda x: mean + amp * np.cos(2.0 * np.pi * x),
                        inf_floor=mean - abs(amp),
                        holder_const=2.0 * np.pi * abs(amp))


def power_singularity_roof(beta: float = 1.0) -> RoofFunction:
    """Unbounded roof 1 + x^(-1/(beta+1)); mu_Leb(h > n) ~ n^-(beta+1)."""
    p = 1.0 / (beta + 1.0)
    return RoofFunction(name=f"singular(beta={beta:g})",
                        func=lambda x: 1.0 + np.maximum(x, 1e-300) ** (-p),
                        bounded=False, inf_floor=1.0,
                        holder_const=math.inf, tail_exponent=beta + 1.0)


# ---------------------------------------------------------------------------
# Observables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Observable:
    """Observable v(x, u) on the suspension; ``func`` receives the ambient
    position, the flow height u, and the roof value at the position."""

    name: str
    func: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]

    def __call__(self, pos, u, h) -> np.ndarray:
        return self.func(np.asarray(pos, dtype=float),
                         np.asarray(u, dtype=float),
                         np.asarray(h, dtype=float))

    def eval_state(self, model: "SuspensionModel", st: "FlowState") -> np.ndarray:
        h = model.roof(st.pos) if st.h is None else st.h
        return self(st.pos, st.u, h)


def coordinate_observable() -> Observable:
    """x - 1/2: the centred position, constant along each flight."""
    return Observable(name="coordinate", func=lambda x, u, h: x - 0.5)


def trig_flow_observable() -> Observable:
    """sin(2*pi*u/h(x)): smooth along each flight, aligned with the roof."""
    return Observable(name="trig_flow",
                      func=lambda x, u, h: np.sin(2.0 * np.pi * u / h))


def flow_periodic_observable() -> Observable:
    """cos(2*pi*u): period-1 in flow time; rigid under a constant roof 1."""
    return Observable(name="flow_periodic",
                      func=lambda x, u, h: np.cos(2.0 * np.pi * u))


def smoothed_indicator_observable() -> Observable:
    """Indicator of [1/4, 3/4] with smoothstep edges of width 0.1."""
    def smooth01(t):
        t = np.clip(t, 0.0, 1.0)
        return t * t * (3.0 - 2.0 * t)

    def f(x, u, h):
        return smooth01((x - 0.25) / 0.1) * smooth01((0.75 - x) / 0.1)

    return Observable(name="indicator_smoothed", func=f)


OBSERVABLES = {
    "coordinate": coordinate_observable,
    "trig_flow": trig_flow_observable,
    "flow_periodic": flow_periodic_observable,
    "indicator_smoothed": smoothed_indicator_observable,
}

ROOFS = {
    "constant": constant_roof,
    "cosine": cosine_roof,
    "power_singularity": power_singularity_roof,
}


# ---------------------------------------------------------------------------
# Suspension model: tower + roof with per-cell tables
# ---------------------------------------------------------------------------

_GAUSS_NODES, _GAUSS_WEIGHTS = leggauss(8)


class SuspensionModel:
    """Suspension of a tower under a roof, with per-cell quadrature tables.

    Per cell, in the tower's flat order, we store the cell measure and, on
    first read, the quadrature mean of the roof over the projected cell and
    a rejection envelope.
    """

    def __init__(self, tower: Tower, roof: RoofFunction) -> None:
        self.tower = tower
        self.roof = roof
        self.cell_mass = tower.column_mass[tower.cell_col]

    @cached_property
    def _cell_tables(self) -> np.ndarray:
        """Rows hbar_cell and hmax_cell, built on first read: a cut model
        that is only flowed never reads them."""
        ind = self.ind
        # per column: the 8 Gauss nodes, then both cell ends
        nodes = np.column_stack([
            ind.lo[:, None] + (0.5 + 0.5 * _GAUSS_NODES) * ind.widths[:, None],
            ind.lo, ind.hi - 1e-15 * ind.hi])

        def mean_and_envelope(pos):
            # summed term by term, so a cell's mean is the same in any batch
            hv = self.roof(pos)
            mean = 0.5 * sum(wk * hv[:, k]
                             for k, wk in enumerate(_GAUSS_WEIGHTS))
            return np.column_stack([mean, hv.max(axis=1) * 1.05])

        return self.tower.column_positions(nodes, mean_and_envelope).T.copy()

    @property
    def hbar_cell(self) -> np.ndarray:
        return self._cell_tables[0]

    @property
    def hmax_cell(self) -> np.ndarray:
        return self._cell_tables[1]

    @cached_property
    def hbar(self) -> float:
        return float(np.sum(self.cell_mass * self.hbar_cell))

    @cached_property
    def flow_cdf(self) -> np.ndarray:
        w = self.cell_mass * self.hbar_cell
        return np.cumsum(w / w.sum())

    @property
    def ind(self) -> InducedMap:
        return self.tower.ind


@dataclass
class FlowState:
    """Point ensemble on the suspension: tower column, level, ambient
    position T^level(y) of a base point y, and flow height u.

    From its first flow on, a state also records per point the roof at
    ``pos`` (``h``), which each crossing updates, the highest level
    reached (``top``), the largest roof value met (``hmax``) and the
    number of landings parked past the represented cells (``parked``).
    The flow and the observables read ``h`` instead of evaluating the
    roof again, so a state is flowed under one model.  A flow truncated
    at level N, or under the roof min(h, N), goes through the same
    operations as the full flow until the point first reaches level N or
    meets h > N; the records tell which points a cut diverts."""

    col: np.ndarray
    level: np.ndarray
    pos: np.ndarray
    u: np.ndarray
    top: np.ndarray | None = None
    hmax: np.ndarray | None = None
    parked: np.ndarray | None = None
    h: np.ndarray | None = None

    @property
    def oob(self) -> int:
        """Landings parked past the represented cells, in total."""
        return 0 if self.parked is None else int(self.parked.sum())

    def copy(self) -> "FlowState":
        arrays = (getattr(self, f.name) for f in fields(self))
        return FlowState(*[None if a is None else a.copy() for a in arrays])

    def __len__(self) -> int:
        return len(self.col)


# A cell whose rejection envelope accepts a smaller share of its draws per
# round is refused: a point is still unaccepted after the 200 rounds with
# chance (7/8)^200, about 2.6e-12, at this rate.
MIN_ACCEPTANCE = 0.125


class EnvelopeError(ValueError):
    """The roof cannot be sampled over a cell of the tower: its rejection
    envelope accepts too few draws, as over a singularity of the roof."""


def sample_stationary(model: SuspensionModel, n: int, seed: int) -> FlowState:
    """Draw n points from the stationary flow measure.

    Cells are drawn with probability proportional to measure times mean
    roof; within a cell the base coordinate is drawn with density
    proportional to the roof (rejection against the cell envelope), and u
    uniformly under the roof at the drawn position.  A model with a cell
    that accepts fewer than ``MIN_ACCEPTANCE`` of its draws per round is
    refused before any draw.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    accept = model.hbar_cell / model.hmax_cell
    if not np.all(accept >= MIN_ACCEPTANCE):
        raise EnvelopeError(
            f"roof {model.roof.name} over base Y = {list(model.ind.Y)}: "
            f"rejection sampling accepts {np.nanmin(accept):.3g} of the "
            f"draws per round on some cell, below {MIN_ACCEPTANCE}")
    rng = np.random.default_rng(np.random.Philox(key=seed))
    ind = model.ind
    cells = np.searchsorted(model.flow_cdf, rng.random(n), side="right")
    cells = np.minimum(cells, len(model.flow_cdf) - 1)
    col = model.tower.cell_col[cells]
    level = model.tower.cell_level[cells]
    lo, wid = ind.lo[col], ind.widths[col]
    env = model.hmax_cell[cells]
    pos = np.empty(n)
    todo = np.arange(n)
    for _ in range(200):
        cand = lo[todo] + rng.random(len(todo)) * wid[todo]
        cpos = ind.climb(cand, 0, level[todo])
        ok = rng.random(len(todo)) * env[todo] <= model.roof(cpos)
        pos[todo[ok]] = cpos[ok]
        todo = todo[~ok]
        if len(todo) == 0:
            break
    else:
        raise ArithmeticError("rejection sampling failed to terminate")
    u = rng.random(n) * model.roof(pos)
    return FlowState(col=col, level=level, pos=pos, u=u)


# Flows of fewer points per thread than this run on the calling thread: a
# smaller chunk loses more to GIL hand-offs between its array operations
# than it gains from the second core.
MIN_CHUNK = 20_000


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity, so that
    ``taskset -c 0`` runs every flow and every tower step serially."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def flow(model: SuspensionModel, st: FlowState, t: float,
         inplace: bool = False) -> FlowState:
    """Advance the ensemble by flow time t >= 0 under the identifications.
    The roof is evaluated once per crossing, at the cell the point enters,
    and kept in ``st.h``; a state's first flow also evaluates it at the
    start.

    No point reads another, so the state is cut into k contiguous chunks,
    k = min(the process's CPUs, len(st) // MIN_CHUNK), and each chunk is
    flowed in place in its own thread (on the calling thread when k = 1);
    numpy releases the GIL inside its array loops.  Every point goes
    through the same operations in any chunk, so the result does not
    depend on k, bit for bit."""
    if t < 0:
        raise ValueError("flow time must be nonnegative")
    if not inplace:
        st = st.copy()
    if st.h is None:
        st.h = model.roof(st.pos)
    if np.any((st.u < 0) | (st.u >= st.h)):
        raise ValueError("flow height u outside [0, h(x))")
    if st.top is None:
        st.top, st.hmax = st.level.astype(np.int32), st.h.copy()
        st.parked = np.zeros(len(st), dtype=np.int32)
    k = min(usable_cpus(), len(st) // MIN_CHUNK)
    if k <= 1:
        _flow_chunk(model, st, t)
    else:
        edges = np.linspace(0, len(st), k + 1).astype(int)
        chunks = [FlowState(*(getattr(st, f.name)[a:b] for f in fields(st)))
                  for a, b in zip(edges[:-1], edges[1:])]
        with ThreadPoolExecutor(k) as pool:
            list(pool.map(lambda c: _flow_chunk(model, c, t), chunks))
    np.maximum(st.top, st.level, out=st.top)
    return st


def _flow_chunk(model: SuspensionModel, st: FlowState, t: float) -> None:
    """Flow a prepared state (or a chunk of views of one) by t, in place."""
    rem = np.full(len(st), float(t))
    h = st.h
    for _ in range(10_000_000):
        fits = st.u + rem < h
        st.u[fits] += rem[fits]
        rem[fits] = 0.0
        cross = np.nonzero(~fits)[0]
        if len(cross) == 0:
            break
        rem[cross] -= h[cross] - st.u[cross]
        st.u[cross] = 0.0
        landed, left, parked = _cross(model.tower, st.col, st.level, st.pos,
                                      cross)
        st.top[landed] = np.maximum(st.top[landed], left)
        st.parked[landed] += parked
        h[cross] = model.roof(st.pos[cross])
        st.hmax[cross] = np.maximum(st.hmax[cross], h[cross])
    else:
        raise ArithmeticError("flow did not terminate")


def _cross(tower: Tower, col: np.ndarray, level: np.ndarray, pos: np.ndarray,
           idx: np.ndarray):
    """Move the points ``idx`` to their next tower cell, in place, by one
    step of the map along their cell words: up their column, or from its
    top to a base cell, where ``InducedMap.land`` finishes the return that
    a cut column leaves unfinished.  Returns the points that landed, the
    levels they left and their parked flags."""
    c, lv = col[idx], level[idx]
    p = tower.ind.climb(pos[idx], lv, 1)
    up = lv + 1 < tower.heights[c]
    drop = ~up
    climbed, landed, left = idx[up], idx[drop], lv[drop]
    level[climbed] += 1
    pos[climbed] = p[up]
    parked = np.zeros(0, dtype=bool)
    if len(landed):
        col[landed], pos[landed], parked = tower.ind.land(c[drop], left + 1,
                                                          p[drop])
        level[landed] = 0
    return landed, left, parked


# ---------------------------------------------------------------------------
# Correlation estimation
# ---------------------------------------------------------------------------

@dataclass
class CorrelationSeries:
    t: np.ndarray
    rho: np.ndarray
    stderr: np.ndarray
    n_samples: int
    seed: int
    meta: dict = field(default_factory=dict)

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("t,rho,stderr,n_samples,seed\n")
            for t, r, s in zip(self.t, self.rho, self.stderr):
                fh.write(f"{t:.17g},{r:.17g},{s:.17g},"
                         f"{self.n_samples},{self.seed}\n")


N_BATCHES = 32


def _batched_cov(v: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    """Covariance estimate with a batch-means standard error."""
    n = len(v)
    nb = min(N_BATCHES, n)
    edges = np.linspace(0, n, nb + 1).astype(int)
    est = np.empty(nb)
    for b in range(nb):
        sl = slice(edges[b], edges[b + 1])
        est[b] = np.mean(v[sl] * w[sl]) - np.mean(v[sl]) * np.mean(w[sl])
    total = float(np.mean(v * w) - np.mean(v) * np.mean(w))
    return total, float(np.std(est, ddof=1) / math.sqrt(nb))


def correlation_mc(model: SuspensionModel, v: Observable, w: Observable,
                   t_grid, n_samples: int, seed: int) -> CorrelationSeries:
    """Ensemble correlation estimator over stationary samples.

    rho(t) = mean(v * w o flow_t) - mean(v) mean(w o flow_t), with standard
    errors from batch means.  Deterministic for a fixed seed.
    """
    if n_samples < 100:
        raise ValueError("fewer than 100 samples makes the estimator "
                         "meaningless; refuse")
    t_grid = np.sort(np.asarray(t_grid, dtype=float))
    st = sample_stationary(model, n_samples, seed)
    v0 = v.eval_state(model, st)
    series = [_batched_cov(v0, wt)
              for wt in _flow_series(model, st, w, t_grid)]
    rho, err = np.array(series).reshape(-1, 2).T
    return CorrelationSeries(t=t_grid, rho=rho, stderr=err,
                             n_samples=n_samples, seed=seed,
                             meta={"roof": model.roof.name, "oob": st.oob})


def _flow_series(model: SuspensionModel, st: FlowState, w: Observable,
                 ts: np.ndarray):
    """Yield w along the flow of st (in place) at each time of the sorted
    ``ts``."""
    prev = 0.0
    for t in ts:
        flow(model, st, t - prev, inplace=True)
        prev = t
        yield w.eval_state(model, st)


# ---------------------------------------------------------------------------
# Truncation experiments
# ---------------------------------------------------------------------------

def _restrict(st: FlowState, keep: np.ndarray) -> FlowState:
    return FlowState(st.col[keep], st.level[keep], st.pos[keep], st.u[keep])


def _diverted(cut: SuspensionModel, top: np.ndarray,
              hmax: np.ndarray) -> np.ndarray:
    """Points whose full flow reached what the cut removes: a level at or
    past the tower's cut, or a roof value above the roof's cap.  Below
    both, min(h, cap) == h bit for bit and the columns climb alike."""
    out = np.zeros(len(top), dtype=bool)
    if cut.tower.N is not None:
        out |= top >= cut.tower.N
    if cut.roof.cap is not None:
        out |= hmax > cut.roof.cap
    return out


class _Coupled:
    """A stationary sample st0 of the uncut flow, flowed once, and what the
    cuts of one experiment share: the sorted times, v on st0, w at each time
    along the full flow, that flow's records (see FlowState) and the full
    (rho, stderr) series."""

    def __init__(self, ind: InducedMap, roof: RoofFunction, v: Observable,
                 w: Observable, t_grid, n_samples: int, seed: int) -> None:
        self.tower = Tower(ind)
        self.w = w
        model = SuspensionModel(self.tower, roof)
        self.st0 = sample_stationary(model, n_samples, seed)
        self.ts = np.sort(np.asarray(t_grid, dtype=float))
        st = self.st0.copy()
        self.ws = list(_flow_series(model, st, w, self.ts))
        self.top, self.hmax, self.parked = st.top, st.hmax, st.parked
        self.v0 = v.eval_state(model, self.st0)
        self.full = [_batched_cov(self.v0, wt) for wt in self.ws]

    def cut_series(self, cut: SuspensionModel, keep: np.ndarray
                   ) -> tuple[list[tuple[float, float]], int, int]:
        """(rho, stderr) of v against w at each time along the cut flow of
        the kept points of st0, its parked landings, and the number of
        points flowed again.

        A kept point the cut does not divert follows the full flow through
        the same operations: its w-values and parked landings are those of
        the full flow.  Only the diverted points are flowed under the cut."""
        diverted = _diverted(cut, self.top, self.hmax)
        redo = keep & diverted
        sub = _restrict(self.st0, redo)
        at = redo[keep]
        vk = self.v0[keep]
        series = []
        for w_full, w_cut in zip(self.ws,
                                 _flow_series(cut, sub, self.w, self.ts)):
            wt = w_full[keep]
            wt[at] = w_cut
            series.append(_batched_cov(vk, wt))
        oob = int(self.parked[keep & ~diverted].sum()) + sub.oob
        return series, oob, len(sub)


@dataclass
class TruncationRow:
    N: int
    t: float
    measured: float
    stderr: float
    bound: float

    @property
    def ratio(self) -> float:
        return self.measured / self.bound if self.bound > 0 else math.inf


def _rows(N: int, ts: np.ndarray, ref, cut, bound) -> list[TruncationRow]:
    """One row per time t of ``ts``: |rho_ref - rho_cut|, its standard
    error, and bound(t)."""
    return [TruncationRow(int(N), float(t), abs(rho_r - rho_c),
                          math.hypot(e_r, e_c), bound(t))
            for t, (rho_r, e_r), (rho_c, e_c) in zip(ts, ref, cut)]


@dataclass
class TruncationTable:
    rows: list[TruncationRow]
    fitted_C: float
    stable_within: float
    kept_fraction: float
    oob: dict[str, int]   # parked landings: "full" flow, "truncated" flows
    reflowed: dict[int, int]   # per N, the kept points the cut diverted

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("N,t,measured,stderr,bound,ratio\n")
            for r in self.rows:
                fh.write(f"{r.N},{r.t:.17g},{r.measured:.17g},"
                         f"{r.stderr:.17g},{r.bound:.17g},{r.ratio:.17g}\n")


def _ratio_stability(rows: list[TruncationRow]) -> tuple[float, float]:
    """Fitted constant and spread over noise-significant grid points."""
    sig = [r.ratio for r in rows if r.measured > 2.0 * r.stderr and r.bound > 0]
    if not sig:
        return 0.0, 1.0
    fitted = float(np.exp(np.mean(np.log(sig))))
    return fitted, max(sig) / min(sig)


def truncation_error_experiment(ind: InducedMap, roof: RoofFunction,
                                v: Observable, w: Observable,
                                N_list, t_grid, n_samples: int,
                                seed: int) -> TruncationTable:
    """Pathwise |rho - rho'| for tower truncation at each N, against the
    tail bound sum_{n>N} mu_Y(r>=n) + (N+t) mu_Y(r>=N).

    One stationary sample of the full flow is drawn; the sub-ensemble on
    levels below the cut is exactly stationary for the truncated flow, so
    the difference isolates the truncation effect.  The full flow is run
    once; each cut flows again only the kept points whose full path
    reached level N.
    """
    if not roof.bounded:
        raise ValueError("roof is unbounded: use roof_truncation_experiment")
    c = _Coupled(ind, roof, v, w, t_grid, n_samples, seed)
    rows: list[TruncationRow] = []
    kept_min = 1.0
    oob = {"full": int(c.parked.sum()), "truncated": 0}
    reflowed = {}
    for N in sorted(N_list):
        tt = Tower(ind, int(N))
        keep = c.st0.level < tt.heights[c.st0.col]
        kept_min = min(kept_min, float(keep.mean()))
        cut, parked, reflowed[int(N)] = c.cut_series(
            SuspensionModel(tt, roof), keep)
        oob["truncated"] += parked
        tail_ge, tail_gt = ind.tail_sums(int(N))
        rows += _rows(N, c.ts, c.full, cut,
                      lambda t: tail_gt + (N + t) * tail_ge)
    fitted, spread = _ratio_stability(rows)
    return TruncationTable(rows=rows, fitted_C=fitted, stable_within=spread,
                           kept_fraction=kept_min, oob=oob, reflowed=reflowed)


def roof_truncation_experiment(ind: InducedMap, roof: RoofFunction,
                               v: Observable, w: Observable,
                               N_list, t_grid, n_samples: int, seed: int,
                               q_log_trunc: float) -> dict:
    """Pathwise |rho - rho'| for the roof truncation h' = min(h, N) against
    the bound N^-beta + t N^-(beta+1); also applies the second truncation
    r' = min(r, [q ln N]) with q = ``q_log_trunc`` and reports its extra
    error against t N^-(c q - 1), c the exponential tail rate.

    Requires an unbounded roof with a declared tail exponent and an induced
    map with exponential return tails.  As in truncation_error_experiment,
    each cut flows again only the kept points its cut diverts: those whose
    full path met h > N (or, for the second cut, reached level [q ln N]).
    """
    if roof.bounded:
        raise ValueError("roof is bounded: use truncation_error_experiment")
    if roof.tail_exponent is None:
        raise ValueError("unbounded roof needs a declared tail exponent")
    beta = roof.tail_exponent - 1.0
    c = _Coupled(ind, roof, v, w, t_grid, n_samples, seed)
    rows: list[TruncationRow] = []
    second: list[TruncationRow] = []
    oob = {"full": int(c.parked.sum()), "truncated": 0, "second": 0}
    reflowed, second_reflowed = {}, {}
    second_exp = -(_exp_rate(ind) * q_log_trunc - 1.0)
    for N in sorted(N_list):
        roof_t = roof.truncated(float(N))
        # u < h(pos) on every sampled point, so u < min(h(pos), N) iff u < N
        keep = c.st0.u < N
        cut, parked, reflowed[int(N)] = c.cut_series(
            SuspensionModel(c.tower, roof_t), keep)
        oob["truncated"] += parked
        rows += _rows(N, c.ts, c.full, cut,
                      lambda t: N ** (-beta) + t * N ** (-(beta + 1.0)))
        # second truncation: also cap tower columns at q ln N
        tt2 = Tower(ind, max(1, int(q_log_trunc * math.log(N))))
        keep2 = keep & (c.st0.level < tt2.heights[c.st0.col])
        cut2, parked, second_reflowed[int(N)] = c.cut_series(
            SuspensionModel(tt2, roof_t), keep2)
        oob["second"] += parked
        second += _rows(N, c.ts, cut, cut2,
                        lambda t: t * float(N) ** second_exp)
    fitted, spread = _ratio_stability(rows)
    f2, s2 = _ratio_stability(second)
    return {"rows": rows, "fitted_C": fitted, "stable_within": spread,
            "oob": oob, "reflowed": reflowed, "second_rows": second,
            "second_reflowed": second_reflowed, "second_fitted_C": f2,
            "second_stable_within": s2}


def _exp_rate(ind: InducedMap) -> float:
    """Exponential decay rate c of mu_Y(r > n), fitted on exact widths."""
    ns = np.arange(2, min(20, int(ind.r.max())))
    vals = np.array([ind.mu0_tail(int(n)) for n in ns])
    keep = vals > 0
    c, _ = np.polyfit(ns[keep], np.log(vals[keep]), 1)
    return -float(c)


def flow_visit_measure(model: SuspensionModel, N: float, k: float
                       ) -> tuple[float, float, int]:
    """Measure of suspension points reaching the region {h > N} within
    flow time k, with the explicit excursion bound.

    Returns (measured, bound, parked): measured integrates, per cell and
    position (12 Gauss-Legendre nodes per cell), the exact u-interval that
    enters within time k (points starting inside the region count at time
    0); the bound is
    (1/hbar) { int h 1_{h>N} dmu + k mu(h > N) };
    parked counts the node landings parked past the represented cells.
    """
    if k < 0 or N <= 0:
        raise ValueError("need k >= 0 and N > 0")
    tower = model.tower
    ind = model.ind
    qn, qw = leggauss(12)
    wts = 0.5 * qw  # weights of the normalised within-cell average
    # flat ensemble: every tower cell carries its quadrature nodes
    x = ind.lo[:, None] + (0.5 + 0.5 * qn) * ind.widths[:, None]
    pos = tower.column_positions(x).reshape(-1)
    col = np.repeat(tower.cell_col, len(qn))
    level = np.repeat(tower.cell_level, len(qn))
    every = np.arange(len(pos))
    w = (model.cell_mass[:, None] * wts).reshape(-1)
    h0 = np.asarray(model.roof(pos), dtype=float)
    hcur = h0.copy()
    entry = np.where(h0 > N, 0.0, np.inf)
    acc = np.zeros_like(pos)
    parked = 0
    max_steps = int(k / max(model.roof.inf_floor, 1e-9)) + 3
    for _ in range(max_steps):
        acc = acc + hcur
        parked += int(_cross(tower, col, level, pos, every)[2].sum())
        hcur = np.asarray(model.roof(pos), dtype=float)
        hit = (hcur > N) & (acc < entry)
        entry[hit] = acc[hit]
        if np.all(acc > k + 1e-12):
            break
    # u-interval entering by time k: u >= entry - k, u < h0
    length = np.where(np.isinf(entry), 0.0,
                      np.clip(h0 - np.maximum(entry - k, 0.0), 0.0, h0))
    measured = float(np.sum(w * length))
    big = h0 > N
    bound = float(np.sum(w * h0 * big)) + k * float(np.sum(w * big))
    return measured / model.hbar, bound / model.hbar, parked
