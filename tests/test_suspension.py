import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hs
from numpy.polynomial.legendre import leggauss
from scipy import stats

from towerlab import systems, suspension as sp, tower as tw


@pytest.fixture(scope="module")
def pm_model():
    return sp.SuspensionModel(tw.build_tower(systems.pm_induced(0.5)),
                              sp.cosine_roof())


@pytest.fixture(scope="module")
def doubling_const():
    return sp.SuspensionModel(tw.build_tower(systems.doubling_full()),
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
                       y=np.array([0.3 + 0.5]), pos=np.array([0.8]),
                       u=np.array([0.0]))
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
    model = sp.SuspensionModel(tw.build_tower(_small_pm()), sp.cosine_roof())
    st = sp.sample_stationary(model, 2000, seed=seed)
    a = frac * t
    two = sp.flow(model, sp.flow(model, st, a), t - a)
    one = sp.flow(model, st, t)
    assert np.array_equal(two.col, one.col)
    assert np.array_equal(two.level, one.level)
    assert np.array_equal(two.pos, one.pos)
    # the two routes subtract the remaining time differently
    assert np.max(np.abs(two.u - one.u)) <= 1e-12
    for rec in ("top", "hmax", "parked"):
        assert np.array_equal(getattr(two, rec), getattr(one, rec))
    assert np.all(one.top >= np.maximum(st.level, one.level))
    assert np.all(one.hmax >= model.roof(one.pos))


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
                                      [10], [5.0], 1000, seed=0)


def test_unbounded_roof_tail_exponent():
    ind = systems.doubling_induced()
    model = sp.SuspensionModel(tw.build_tower(ind),
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
    model = sp.SuspensionModel(tw.build_tower(ind),
                               sp.power_singularity_roof(1.0))
    prev = -1.0
    for k in (1, 3, 6):
        m, b = sp.flow_visit_measure(model, 10.0, k)
        assert m <= b + 1e-12
        assert m >= prev - 1e-12
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
    tower = tw.build_tower(ind)
    if cut == "tower":
        tower = tw.truncate(tower, 7)
    if cut == "roof":
        roof = roof.truncated(2.5)
    model = sp.SuspensionModel(tower, roof)
    hbar, hmax = _tables_by_column(tower, roof)
    assert np.array_equal(model.hbar_cell, hbar)
    assert np.array_equal(model.hmax_cell, hmax)
    assert np.array_equal(model.cell_level,
                          np.concatenate([np.arange(h) for h in tower.heights]))


def _reflow_experiment(ind, roof, N_list, ts, n, seed, q_log=None):
    """Rows and parked counts of a truncation experiment in which the full
    ensemble is flowed again from time 0 for every N.  A bounded roof cuts
    the tower at N; an unbounded one cuts the roof at N and, with q_log,
    the tower at q ln N as well."""
    v = sp.coordinate_observable()
    base = tw.build_tower(ind)
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
            cut = sp.SuspensionModel(tw.truncate(base, N), roof)
            flows = [run(cut, st0.level < cut.tower.heights[st0.col])]
        else:
            cut = sp.SuspensionModel(base, roof.truncated(float(N)))
            keep = st0.u < cut.roof(st0.pos)
            flows = [run(cut, keep)]
            if q_log is not None:
                tt = tw.truncate(base, max(1, int(q_log * math.log(N))))
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
    model = sp.SuspensionModel(tw.build_tower(ind), sp.cosine_roof())
    st0 = sp.sample_stationary(model, 3000, seed=4)
    top = sp.flow(model, st0, 8.0).top
    tab = sp.truncation_error_experiment(ind, sp.cosine_roof(), v, v,
                                         [1, 5, 200], [2.0, 8.0], 3000,
                                         seed=4)
    for N, count in tab.reflowed.items():
        keep = st0.level < np.minimum(ind.r, N)[st0.col]
        assert count == int(np.sum(keep & (top >= N)))
    assert tab.reflowed[200] == 0 < tab.reflowed[5] < tab.reflowed[1]


def test_flow_visit_measure_unchanged():
    # values recorded while the flat ensemble was still built column by column
    model = sp.SuspensionModel(tw.build_tower(systems.doubling_induced()),
                               sp.power_singularity_roof(1.0))
    assert sp.flow_visit_measure(model, 10.0, 1) == pytest.approx(
        (0.08145519611924441, 0.08357052851783225), rel=1e-14)
