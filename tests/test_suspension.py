import dataclasses
import math
import os
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hs
from numpy.polynomial.legendre import leggauss
from scipy import stats

from towerlab import maps, systems, suspension as sp, tower as tw


@pytest.fixture(scope="module")
def pm_model():
    return sp.SuspensionModel(tw.Tower(systems.pm_induced(0.5)),
                              sp.cosine_roof())


@pytest.fixture(scope="module")
def doubling_const():
    return sp.SuspensionModel(tw.Tower(systems.doubling_full()),
                              sp.constant_roof(1.0))


def test_roof_positive():
    with pytest.raises(ValueError):
        sp.cosine_roof(1.0, 2.0)


def test_roof_truncation_caps():
    roof = sp.power_singularity_roof(1.0)
    r5 = roof.truncated(5.0)
    assert roof.name == "singular(beta=1)"
    assert r5.name == "singular(beta=1)|min(5)"
    x = np.array([1e-6, 0.2, 0.9])
    assert np.all(r5(x) <= 5.0)
    assert np.all(r5(x) <= roof(x))


def test_roof_hoelder_within_declared(pm_model):
    roof = pm_model.roof
    rng = np.random.default_rng(0)
    x, y = rng.random(500), rng.random(500)
    num = np.abs(roof(x) - roof(y))
    den = np.abs(x - y) ** roof.eta
    keep = den > 1e-12
    assert np.max(num[keep] / den[keep]) <= roof.holder_const + 1e-9


def test_roof_floor(pm_model):
    st = sp.sample_stationary(pm_model, 2000, seed=0)
    assert np.min(pm_model.roof(st.pos)) >= pm_model.roof.inf_floor - 1e-12


def test_induced_roof_sum_floor(pm_model):
    # H(y) >= r(y) * inf h on sampled base points
    ind = pm_model.ind
    rng = np.random.default_rng(1)
    for j in (0, 5, 25):
        y = ind.lo[j] + rng.random(8) * ind.widths[j]
        tot = np.zeros_like(y)
        cur = y.copy()
        for _ in range(int(ind.r[j])):
            tot += pm_model.roof(cur)
            cur = ind.model.apply(cur)
        assert np.all(tot >= ind.r[j] * pm_model.roof.inf_floor - 1e-12)


def test_flow_identity_at_zero(doubling_const):
    st = sp.sample_stationary(doubling_const, 500, seed=1)
    adv = sp.flow(doubling_const, st, 0.0)
    assert np.array_equal(adv.u, st.u) and np.array_equal(adv.pos, st.pos)


def test_flow_constant_roof_arithmetic(doubling_const):
    one = sp.FlowState(col=np.array([1]), level=np.array([0]),
                       pos=np.array([0.8]), u=np.array([0.0]))
    # pick the actual cell of 0.8
    one.col = doubling_const.ind.cell_of(np.array([0.8]))
    adv = sp.flow(doubling_const, one, 2.5)
    # T^2(0.8) = 0.2 under doubling
    assert adv.pos[0] == pytest.approx(0.2, abs=1e-12)
    assert adv.u[0] == pytest.approx(0.5, abs=1e-12)


def test_flow_crossing_count(doubling_const):
    st = sp.sample_stationary(doubling_const, 1, seed=3)
    st.u[:] = 0.0
    adv = sp.flow(doubling_const, st, 10.0)
    assert adv.u[0] == pytest.approx(0.0, abs=1e-9)  # exactly 10 crossings


def test_flow_rejects_bad_height(doubling_const):
    st = sp.sample_stationary(doubling_const, 10, seed=4)
    st.u[0] = 2.0
    with pytest.raises(ValueError):
        sp.flow(doubling_const, st, 1.0)


@settings(max_examples=25, deadline=None)
@given(seed=hs.integers(0, 2 ** 32 - 1), t=hs.floats(0.0, 20.0),
       frac=hs.floats(0.0, 1.0))
def test_flow_semigroup(seed, t, frac):
    # the few-cell pm tower parks landings, so the parked counts take part
    model = sp.SuspensionModel(tw.Tower(_small_pm()), sp.cosine_roof())
    st = sp.sample_stationary(model, 2000, seed=seed)
    a = frac * t
    two = sp.flow(model, sp.flow(model, st, a), t - a)
    one = sp.flow(model, st, t)
    assert np.array_equal(two.col, one.col)
    assert np.array_equal(two.level, one.level)
    assert np.array_equal(two.pos, one.pos)
    # the two routes subtract the remaining time differently
    assert np.max(np.abs(two.u - one.u)) <= 1e-12
    for rec in ("h", "top", "hmax", "parked"):
        assert np.array_equal(getattr(two, rec), getattr(one, rec))
    assert np.array_equal(one.h, model.roof(one.pos))
    assert np.all(one.top >= np.maximum(st.level, one.level))
    assert np.all(one.hmax >= model.roof(one.pos))


def _counting(roof):
    """The roof with its func wrapped: the list records the number of
    points of every evaluation."""
    seen = []

    def func(x):
        seen.append(np.size(x))
        return roof.func(x)

    return dataclasses.replace(roof, func=func), seen


def test_flow_evaluates_the_roof_once_per_crossing(monkeypatch):
    roof, seen = _counting(sp.cosine_roof())
    model = sp.SuspensionModel(tw.Tower(_small_pm()), roof)
    st = sp.sample_stationary(model, 3000, seed=5)
    assert st.h is None
    crossed = []
    cross = sp._cross
    monkeypatch.setattr(sp, "_cross", lambda tower, col, level, pos, idx:
                        crossed.append(len(idx)) or
                        cross(tower, col, level, pos, idx))
    seen.clear()
    st = sp.flow(model, st, 3.0)
    # the first flow evaluates the roof at the start, then at each crossing
    assert sum(seen) == len(st) + sum(crossed)
    for t in (0.5, 4.0):
        seen.clear()
        crossed.clear()
        sp.flow(model, st, t, inplace=True)
        assert sum(seen) == sum(crossed) > 0
        assert np.array_equal(st.h, roof(st.pos))
    v = sp.trig_flow_observable()
    seen.clear()
    vals = v.eval_state(model, st)
    assert seen == []
    assert np.array_equal(vals, v(st.pos, st.u, roof(st.pos)))


@pytest.mark.parametrize("Y", [(0.0, 1.0), (0.0, 0.5)])
def test_sampler_refuses_singular_roof_over_zero(Y):
    # the cell at 0 has the envelope 1.05e150 and accepts almost no draw
    ind = maps.induce(maps.doubling_map(), Y, branch_cutoff=30,
                      tail_horizon=600)
    roof, seen = _counting(sp.power_singularity_roof(1.0))
    model = sp.SuspensionModel(tw.Tower(ind), roof)
    model.hmax_cell  # the tables, built on first read, are not draws
    seen.clear()
    with pytest.raises(sp.EnvelopeError, match="accepts"):
        sp.sample_stationary(model, 1000, seed=1)
    assert seen == []


def test_sampler_uniform_under_constant_roof(doubling_const):
    st = sp.sample_stationary(doubling_const, 100_000, seed=6)
    assert stats.kstest(st.u, "uniform").pvalue > 0.01
    assert stats.kstest(st.pos, "uniform").pvalue > 0.01


def test_sampler_mean_roof(pm_model):
    st = sp.sample_stationary(pm_model, 100_000, seed=7)
    # mean of h over base-marginal samples: weighted by 1/h under the flow
    # measure, E[h * (1/h)] / E[1/h] recovers the tower mean of h
    w = 1.0 / pm_model.roof(st.pos)
    est = np.sum(pm_model.roof(st.pos) * w) / np.sum(w)
    se = np.std(pm_model.roof(st.pos)) / math.sqrt(len(w))
    assert abs(est - pm_model.hbar) <= 4 * se + 1e-3


def test_stationarity_under_flow(pm_model):
    # 4e4 samples: strong enough to catch estimator errors while staying
    # below the KS sensitivity for the ~1e-3 bias of the cell-constant
    # density model (which a 1e5-sample test starts to resolve)
    st = sp.sample_stationary(pm_model, 40_000, seed=8)
    fresh = sp.sample_stationary(pm_model, 40_000, seed=9)
    for s in (0.7, 1.3):
        adv = sp.flow(pm_model, st, s)
        p1 = stats.ks_2samp(adv.pos, fresh.pos).pvalue
        p2 = stats.ks_2samp(adv.u / pm_model.roof(adv.pos),
                            fresh.u / pm_model.roof(fresh.pos)).pvalue
        assert p1 > 0.01 and p2 > 0.01


def test_correlation_refuses_tiny_samples(pm_model):
    v = sp.coordinate_observable()
    with pytest.raises(ValueError):
        sp.correlation_mc(pm_model, v, v, [0, 1], 50, seed=0)


def test_correlation_constant_observable(pm_model):
    one = sp.Observable("one", lambda x, u, h: np.ones_like(x))
    cs = sp.correlation_mc(pm_model, one, one, [0, 2, 5], 10_000, seed=10)
    assert np.all(np.abs(cs.rho) <= 2 * np.maximum(cs.stderr, 1e-12))


def test_correlation_zero_lag_is_variance(pm_model):
    v = sp.coordinate_observable()
    cs = sp.correlation_mc(pm_model, v, v, [0.0], 50_000, seed=11)
    assert cs.rho[0] > 0
    st = sp.sample_stationary(pm_model, 50_000, seed=11)
    var = float(np.var(v.eval_state(pm_model, st)))
    assert cs.rho[0] == pytest.approx(var, abs=4 * cs.stderr[0] + 1e-12)


def test_determinism_same_seed(pm_model):
    v = sp.coordinate_observable()
    a = sp.correlation_mc(pm_model, v, v, [0, 3], 20_000, seed=12)
    b = sp.correlation_mc(pm_model, v, v, [0, 3], 20_000, seed=12)
    assert np.array_equal(a.rho, b.rho) and np.array_equal(a.stderr, b.stderr)


def test_truncation_experiment_noop_above_support():
    ind = systems.doubling_induced()
    v = sp.coordinate_observable()
    N = int(ind.r.max()) + 10
    tab = sp.truncation_error_experiment(ind, sp.cosine_roof(), v, v,
                                         [N], [3.0], 50_000, seed=13)
    for row in tab.rows:
        assert row.measured <= 3 * row.stderr + 1e-12
    assert tab.reflowed == {N: 0}


def test_truncation_experiment_bound_monotone_in_N():
    ind = systems.pm_induced(0.5)
    v = sp.coordinate_observable()
    tab = sp.truncation_error_experiment(ind, sp.cosine_roof(), v, v,
                                         [10, 20, 40], [10.0], 20_000,
                                         seed=14)
    bounds = [r.bound for r in tab.rows]
    assert bounds[0] >= bounds[1] >= bounds[2]


def test_truncation_experiment_rejects_unbounded_roof():
    ind = systems.doubling_induced()
    v = sp.coordinate_observable()
    with pytest.raises(ValueError):
        sp.truncation_error_experiment(ind, sp.power_singularity_roof(1.0),
                                       v, v, [10], [5.0], 1000, seed=0)


def test_roof_truncation_rejects_bounded_roof():
    ind = systems.doubling_induced()
    v = sp.coordinate_observable()
    with pytest.raises(ValueError):
        sp.roof_truncation_experiment(ind, sp.cosine_roof(), v, v,
                                      [10], [5.0], 1000, seed=0,
                                      q_log_trunc=5.0)


def test_unbounded_roof_tail_exponent():
    ind = systems.doubling_induced()
    model = sp.SuspensionModel(tw.Tower(ind),
                               sp.power_singularity_roof(1.0))
    ns = np.unique(np.geomspace(8, 500, 25))
    # mu_Delta of the cells whose sup of h exceeds n, per n
    sup_cell = model.hmax_cell / 1.05
    prof = np.array([model.cell_mass[sup_cell >= n].sum() for n in ns])
    keep = prof > 0
    slope = np.polyfit(np.log(ns[keep]), np.log(prof[keep]), 1)[0]
    assert abs(-slope - 2.0) <= 0.2


def test_flow_visit_measure_bound():
    ind = systems.doubling_induced()
    model = sp.SuspensionModel(tw.Tower(ind),
                               sp.power_singularity_roof(1.0))
    prev = -1.0
    for k in (1, 3, 6):
        m, b, parked = sp.flow_visit_measure(model, 10.0, k)
        assert m <= b + 1e-12
        assert m >= prev - 1e-12
        assert parked == 0
        prev = m


# -- the level-wise table build and the truncation experiments ---------------

def _small_pm():
    """pm(0.5) with few cells: flows park landings past the last cell."""
    return systems.pm_induced(0.5, branch_cutoff=60, tail_horizon=2000)


def _tables_by_column(tower, roof):
    """hbar_cell and hmax_cell built one column at a time."""
    ind = tower.ind
    gn, gw = leggauss(8)
    hbar, hmax = [], []
    for j in range(ind.J):
        cur = ind.lo[j] + (0.5 + 0.5 * gn) * (ind.hi[j] - ind.lo[j])
        cur = np.append(cur, [ind.lo[j], ind.hi[j] - 1e-15 * ind.hi[j]])
        for _ in range(int(tower.heights[j])):
            hv = roof(cur)
            hbar.append(0.5 * sum(wk * hv[k] for k, wk in enumerate(gw)))
            hmax.append(hv.max() * 1.05)
            cur = ind.model.apply(cur)
    return np.array(hbar), np.array(hmax)


@pytest.mark.parametrize("system", ["pm", "doubling"])
@pytest.mark.parametrize("cut", ["none", "tower", "roof"])
def test_model_tables_match_column_climb(system, cut):
    if system == "pm":
        ind, roof = _small_pm(), sp.cosine_roof()
    else:
        ind, roof = systems.doubling_induced(), sp.power_singularity_roof(1.0)
    tower = tw.Tower(ind, 7 if cut == "tower" else None)
    if cut == "roof":
        roof = roof.truncated(2.5)
    model = sp.SuspensionModel(tower, roof)
    hbar, hmax = _tables_by_column(tower, roof)
    assert np.array_equal(model.hbar_cell, hbar)
    assert np.array_equal(model.hmax_cell, hmax)
    assert np.array_equal(model.tower.cell_level,
                          np.concatenate([np.arange(h) for h in tower.heights]))


def _reflow_experiment(ind, roof, N_list, ts, n, seed, q_log=None):
    """Rows and parked counts of a truncation experiment in which the full
    ensemble is flowed again from time 0 for every N.  A bounded roof cuts
    the tower at N; an unbounded one cuts the roof at N and, with q_log,
    the tower at q ln N as well."""
    v = sp.coordinate_observable()
    base = tw.Tower(ind)
    model = sp.SuspensionModel(base, roof)
    st0 = sp.sample_stationary(model, n, seed)
    v0 = v.eval_state(model, st0)
    rmax = int(ind.r.max())
    rows, second = [], []
    oob = {"full": 0, "truncated": 0, "second": 0}

    def run(m, keep):
        return m, sp._restrict(st0, keep), v0[keep]

    for N in N_list:
        if roof.bounded:
            cut = sp.SuspensionModel(tw.Tower(ind, N), roof)
            flows = [run(cut, st0.level < cut.tower.heights[st0.col])]
        else:
            cut = sp.SuspensionModel(base, roof.truncated(float(N)))
            keep = st0.u < cut.roof(st0.pos)
            flows = [run(cut, keep)]
            if q_log is not None:
                tt = tw.Tower(ind, max(1, int(q_log * math.log(N))))
                flows.append(run(sp.SuspensionModel(tt, cut.roof),
                                 keep & (st0.level < tt.heights[st0.col])))
        full = st0.copy()
        prev = 0.0
        for t in ts:
            full = sp.flow(model, full, t - prev, inplace=True)
            covs = [sp._batched_cov(v0, v.eval_state(model, full))]
            for i, (m, st, vk) in enumerate(flows):
                flows[i] = (m, sp.flow(m, st, t - prev, inplace=True), vk)
                covs.append(sp._batched_cov(vk, v.eval_state(m, flows[i][1])))
            prev = t
            (rf, ef), (rt, et) = covs[:2]
            if roof.bounded:
                tail = math.fsum(ind.muY[ind.r >= k].sum()
                                 for k in range(N + 1, rmax + 1))
                bound = tail + (N + t) * float(ind.muY[ind.r >= N].sum())
            else:
                beta = roof.tail_exponent - 1.0
                bound = N ** (-beta) + t * N ** (-(beta + 1.0))
            rows.append((N, t, abs(rf - rt), math.hypot(ef, et), bound))
            if len(covs) == 3:
                r2, e2 = covs[2]
                rate = sp._exp_rate(ind)
                second.append((N, t, abs(rt - r2), math.hypot(et, e2),
                               t * float(N) ** (-(rate * q_log - 1.0))))
        oob["full"] = full.oob
        oob["truncated"] += flows[0][1].oob
        oob["second"] += sum(st.oob for _, st, _ in flows[1:])
    return rows, second, oob


def _as_tuples(rows):
    return [(r.N, r.t, r.measured, r.stderr, r.bound) for r in rows]


def test_truncation_experiment_matches_reflow():
    ind = _small_pm()
    v = sp.coordinate_observable()
    tab = sp.truncation_error_experiment(ind, sp.cosine_roof(), v, v,
                                         [20, 10], [20.0, 5.0], 5000, seed=3)
    rows, _, oob = _reflow_experiment(ind, sp.cosine_roof(), [10, 20],
                                      [5.0, 20.0], 5000, seed=3)
    assert _as_tuples(tab.rows) == rows
    # this few-cell tower parks landings in both the full and the cut flows
    assert tab.oob == {"full": oob["full"], "truncated": oob["truncated"]}
    assert tab.oob["full"] > 0 and tab.oob["truncated"] > 0


def test_roof_truncation_experiment_matches_reflow():
    ind = systems.doubling_induced()
    roof = sp.power_singularity_roof(1.0)
    v = sp.coordinate_observable()
    out = sp.roof_truncation_experiment(ind, roof, v, v, [10, 20],
                                        [5.0, 10.0], 3000, seed=5,
                                        q_log_trunc=5.0)
    rows, second, oob = _reflow_experiment(ind, roof, [10, 20], [5.0, 10.0],
                                           3000, seed=5, q_log=5.0)
    assert _as_tuples(out["rows"]) == rows
    assert _as_tuples(out["second_rows"]) == second
    assert out["oob"] == oob
    assert out["second_stable_within"] == \
        sp._ratio_stability(out["second_rows"])[1]


@pytest.mark.filterwarnings("error")
@pytest.mark.filterwarnings("error")
def test_ratio_over_underflowed_bound_is_inf_without_warning():
    # a bound that has underflowed towards 0 (numpy's 1e-320, a subnormal)
    # makes the row's ratio inf; numpy would warn on the scalar overflow.
    # With every ratio inf, the spread was inf / inf = nan
    rows = sp._rows(10, np.array([5.0]), [(1e-3, 1e-4)], [(0.0, 1e-4)],
                    lambda t: np.float64(1e-320))
    assert rows[0].ratio == math.inf
    assert type(rows[0].bound) is float and rows[0].bound == 1e-320
    assert sp._ratio_stability(rows) == (math.inf, math.inf)


def _coupled_matches_reflow(kind, seed, N_list, ts, q_log, n=1000):
    """Whether a truncation experiment (tower cut on the few-cell pm tower,
    or roof and second cut at q_log ln N on the doubling tower) equals the
    reflow oracle exactly: rows, second rows and parked counts."""
    v = sp.coordinate_observable()
    if kind == "tower":
        ind, roof, q_log = _small_pm(), sp.cosine_roof(), None
        tab = sp.truncation_error_experiment(ind, roof, v, v, N_list, ts, n,
                                             seed=seed)
        got = (_as_tuples(tab.rows), [], tab.oob)
    else:
        ind, roof = systems.doubling_induced(), sp.power_singularity_roof(1.0)
        out = sp.roof_truncation_experiment(ind, roof, v, v, N_list, ts, n,
                                            seed=seed, q_log_trunc=q_log)
        got = (_as_tuples(out["rows"]), _as_tuples(out["second_rows"]),
               out["oob"])
    rows, second, oob = _reflow_experiment(ind, roof, sorted(N_list),
                                           sorted(ts), n, seed, q_log=q_log)
    if kind == "tower":
        del oob["second"]
    return got == (rows, second, oob)


@pytest.mark.parametrize("kind", ["tower", "roof"])
@settings(max_examples=12, deadline=None)
@given(seed=hs.integers(0, 2 ** 32 - 1),
       N_list=hs.lists(hs.integers(1, 100), min_size=1, max_size=3,
                       unique=True),
       ts=hs.lists(hs.floats(0.0, 12.0), min_size=1, max_size=3),
       q_log=hs.floats(0.5, 6.0))
# almost every kept point diverges at N = 1 and 2; none above the support
@example(seed=7, N_list=[1, 2, 10 ** 6], ts=[0.5, 6.0], q_log=5.0)
def test_coupled_cuts_match_reflow(kind, seed, N_list, ts, q_log):
    assert _coupled_matches_reflow(kind, seed, N_list, ts, q_log)


def _counts_level_n_undiverted(diverted):
    """Defect: a point that reached the cut level but no higher is taken
    as following the full flow (top > N in place of top >= N)."""
    return lambda cut, top, hmax: diverted(cut, top - 1, hmax)


def _drops_level_under_roof_cap(diverted):
    """Defect: under a capped roof only the roof test runs, so the second
    cut misses the points that reached level [q ln N]."""
    def defect(cut, top, hmax):
        if cut.roof.cap is not None:
            top = np.zeros_like(top)
        return diverted(cut, top, hmax)
    return defect


@pytest.mark.parametrize("kind, defect", [
    ("tower", _counts_level_n_undiverted),
    ("roof", _drops_level_under_roof_cap)])
def test_divergence_defect_fails_reflow_property(monkeypatch, kind, defect):
    # at q ln N = 2 and 3 under roof caps 10 and 20, many points reach the
    # second cut's level without meeting h > N
    args = (kind, 3, [10, 20], [5.0, 12.0], 1.0)
    assert _coupled_matches_reflow(*args)
    monkeypatch.setattr(sp, "_diverted", defect(sp._diverted))
    assert not _coupled_matches_reflow(*args)


def test_reflowed_counts_the_diverted_kept_points():
    ind = _small_pm()
    v = sp.coordinate_observable()
    model = sp.SuspensionModel(tw.Tower(ind), sp.cosine_roof())
    st0 = sp.sample_stationary(model, 3000, seed=4)
    top = sp.flow(model, st0, 8.0).top
    tab = sp.truncation_error_experiment(ind, sp.cosine_roof(), v, v,
                                         [1, 5, 200], [2.0, 8.0], 3000,
                                         seed=4)
    for N, count in tab.reflowed.items():
        keep = st0.level < np.minimum(ind.r, N)[st0.col]
        assert count == int(np.sum(keep & (top >= N)))
    assert tab.reflowed[200] == 0 < tab.reflowed[5] < tab.reflowed[1]


def test_flow_visit_measure_counts_parked_landings(monkeypatch):
    # a 10-cell pm tower: some node landings fall past the represented cells
    ind = systems.pm_induced(0.5, branch_cutoff=10, tail_horizon=2000)
    model = sp.SuspensionModel(tw.Tower(ind), sp.cosine_roof())
    land, seen = maps.InducedMap.land, []

    def counting_land(self, j, level, pos):
        out = land(self, j, level, pos)
        seen.append(int(out[2].sum()))
        return out

    monkeypatch.setattr(maps.InducedMap, "land", counting_land)
    parked = [sp.flow_visit_measure(model, 1.0, k)[2] for k in (1, 5)]
    assert sum(parked) == sum(seen)
    assert 0 < parked[0] < parked[1]


def test_flow_visit_measure_unchanged():
    # values recorded while the flat ensemble was still built column by column
    model = sp.SuspensionModel(tw.Tower(systems.doubling_induced()),
                               sp.power_singularity_roof(1.0))
    m, b, parked = sp.flow_visit_measure(model, 10.0, 1)
    assert (m, b) == pytest.approx(
        (0.08145519611924441, 0.08357052851783225), rel=1e-14)
    assert parked == 0


# -- lazy model tables, the roof-cut keep mask and the chunked flow ----------

def test_model_builds_its_tables_on_first_read(monkeypatch):
    calls = []
    positions = tw.Tower.column_positions
    monkeypatch.setattr(tw.Tower, "column_positions",
                        lambda self, *a: calls.append(1) or
                        positions(self, *a))
    roof, seen = _counting(sp.cosine_roof())
    tower = tw.Tower(_small_pm(), 7)
    model = sp.SuspensionModel(tower, roof)
    assert seen == [] and calls == []
    hbar, hmax = _tables_by_column(tower, sp.cosine_roof())
    assert np.array_equal(model.hbar_cell, hbar)
    assert np.array_equal(model.hmax_cell, hmax)
    w = model.cell_mass * hbar
    assert model.hbar == float(np.sum(w))
    assert np.array_equal(model.flow_cdf, np.cumsum(w / w.sum()))
    assert len(calls) == 1
    seen.clear()
    model.hbar_cell, model.hmax_cell, model.hbar, model.flow_cdf
    assert seen == [] and len(calls) == 1


def test_roof_cut_keeps_points_without_a_roof_evaluation():
    # every sampled u lies below h(pos), so u < min(h(pos), N) iff u < N:
    # roof_truncation_experiment evaluates the roof on no point itself
    callers = []

    def func(x):
        callers.append(sys._getframe(2).f_code.co_name)
        return sp.power_singularity_roof(1.0).func(x)

    roof = dataclasses.replace(sp.power_singularity_roof(1.0), func=func)
    v = sp.coordinate_observable()
    out = sp.roof_truncation_experiment(systems.doubling_induced(), roof, v,
                                        v, [10, 20], [5.0], 2000, seed=6,
                                        q_log_trunc=5.0)
    assert len(out["rows"]) == 2
    assert "roof_truncation_experiment" not in callers
    assert {"sample_stationary", "_flow_chunk"} <= set(callers)


def _chunked(monkeypatch, model, st, ts, k, cpus):
    """The flows of st by the times ts, in place, with the minimum chunk
    size set for k chunks and the process's affinity mocked to ``cpus``
    CPUs; also the lengths of the chunks flowed by the first flow."""
    monkeypatch.setattr(sp, "MIN_CHUNK", len(st) // k)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    lengths, chunk = [], sp._flow_chunk
    monkeypatch.setattr(sp, "_flow_chunk", lambda m, c, t:
                        lengths.append(len(c)) or chunk(m, c, t))
    out = [sp.flow(model, st, ts[0])]
    first = list(lengths)
    for t in ts[1:]:
        out.append(sp.flow(model, out[-1].copy(), t, inplace=True))
    return out, first


def _chunking_cases():
    pm, doubling = _small_pm(), systems.doubling_induced()
    singular = sp.power_singularity_roof(1.0)
    return {
        "pm-cosine-uncut": (tw.Tower(pm), sp.cosine_roof()),
        "pm-cosine-parked": (tw.Tower(systems.pm_induced(0.5, 10, 2000)),
                             sp.cosine_roof()),
        "pm-cosine-cut": (tw.Tower(pm, 5), sp.cosine_roof()),
        "pm-capped-cut": (tw.Tower(pm, 3), sp.cosine_roof().truncated(2.2)),
        "doubling-singular-uncut": (tw.Tower(doubling), singular),
        "doubling-capped-cut": (tw.Tower(doubling, 2), singular.truncated(4.0)),
        "doubling-full-constant": (tw.Tower(systems.doubling_full()),
                                   sp.constant_roof(1.0)),
    }


def _chunking_matches(monkeypatch, case, k, cpus, n=3001):
    """Whether flows cut into k chunks (on ``cpus`` mocked CPUs) equal the
    one-chunk flows in every FlowState field, bit for bit."""
    tower, roof = _chunking_cases()[case]
    model = sp.SuspensionModel(tower, roof)
    st = sp.sample_stationary(model, n, seed=21)
    ts = (3.0, 0.25, 9.0)
    with monkeypatch.context() as m:
        ref, _ = _chunked(m, model, st, ts, 1, 1)
    with monkeypatch.context() as m:
        got, lengths = _chunked(m, model, st, ts, k, cpus)
    assert len(lengths) == min(k, cpus) and sum(lengths) == n
    assert max(lengths) - min(lengths) <= 1
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name))
               for a, b in zip(ref, got) for f in dataclasses.fields(a))


@pytest.mark.parametrize("case", sorted(_chunking_cases()))
@pytest.mark.parametrize("k, cpus", [(1, 3), (2, 3), (3, 3), (3, 1)])
def test_flow_does_not_depend_on_its_chunking(monkeypatch, case, k, cpus):
    # three threads on any number of cores, switching as often as they can
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert _chunking_matches(monkeypatch, case, k, cpus)
    finally:
        sys.setswitchinterval(interval)


def test_parked_landings_are_flowed_in_chunks(monkeypatch):
    # the 10-cell pm tower parks landings in every chunk
    tower, roof = _chunking_cases()["pm-cosine-parked"]
    model = sp.SuspensionModel(tower, roof)
    st = sp.sample_stationary(model, 3001, seed=21)
    out, _ = _chunked(monkeypatch, model, st, (12.0,), 3, 3)
    assert all(part.sum() > 0 for part in np.array_split(out[0].parked, 3))


def test_chunk_defect_fails_chunking_property(monkeypatch):
    # planted defect: the chunks of a split flow lose their last points
    chunk = sp._flow_chunk

    def short(model, st, t):
        if len(st) == 3001:
            chunk(model, st, t)
        else:
            chunk(model, sp.FlowState(*(getattr(st, f.name)[:-1] for f
                                        in dataclasses.fields(st))), t)

    assert _chunking_matches(monkeypatch, "pm-cosine-uncut", 3, 3)
    monkeypatch.setattr(sp, "_flow_chunk", short)
    assert not _chunking_matches(monkeypatch, "pm-cosine-uncut", 3, 3)
