import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from towerlab import maps, systems, tower as tw


@pytest.fixture(scope="module")
def pm_tower():
    return tw.build_tower(systems.pm_induced(0.5))


def test_theta_default_from_expansion(pm_tower):
    # theta = expansion^-eta = 2^-1, exactly
    assert pm_tower.ind.model.theta == 0.5
    p, q = (3, 0, 0.6), (3, 0, 0.6 + 1e-9)
    s = tw.separation_time(pm_tower, p, q)
    assert 0 < s < tw.SEPARATION_CAP
    assert tw.d_theta(pm_tower, p, q) == 0.5 ** s


def test_theta_validation():
    # a declared expansion of at most 1 gives theta = expansion^-eta >= 1
    model = maps.pomeau_manneville(0.5)
    for expansion, eta in ((1.0, 1.0), (0.5, 1.0), (0.8, 0.5)):
        with pytest.raises(ValueError, match="theta"):
            dataclasses.replace(model, expansion=expansion, eta=eta)


def test_total_mass_one(pm_tower):
    assert pm_tower.total_mass == pytest.approx(1.0, abs=1e-10)


def test_tower_mass_oracle(pm_tower):
    # direct summation sum_j r(j) mu_Y(Y_j) / rbar
    ind = pm_tower.ind
    direct = float(np.sum(ind.r * ind.muY)) / pm_tower.rbar
    assert pm_tower.total_mass == pytest.approx(direct, abs=1e-14)


def test_doubling_single_level_tower():
    t = tw.build_tower(systems.doubling_full())
    assert t.n_cells == 2
    assert t.rbar == pytest.approx(1.0)
    assert np.allclose(t.column_mass, t.ind.muY)


def test_projection_semiconjugacy(pm_tower):
    # T(pi(y, l)) = pi(f(y, l)) on sample points
    ind = pm_tower.ind
    rng = np.random.default_rng(3)
    j = np.array([5, 17, 40])
    y = ind.lo[j] + rng.random(3) * ind.widths[j]
    lv = np.array([2, 6, 12])
    left = ind.model.apply(ind.model.advance(y, lv))
    j2, lv2, y2 = pm_tower.step(j, lv, y)
    right = ind.model.advance(y2, lv2)
    assert np.allclose(left, right, atol=1e-9)


@pytest.mark.parametrize("N", [10, 20, 50, 100])
def test_truncation_identities(pm_tower, N):
    tt = tw.truncate(pm_tower, N)
    l1, r1 = tt.identity_mean_defect()
    l2, r2 = tt.identity_tall_mass()
    assert abs(l1 - r1) <= 1e-12
    assert abs(l2 - r2) <= 1e-12


def test_truncate_above_support_is_identity(pm_tower):
    N = int(pm_tower.ind.r.max()) + 5
    tt = tw.truncate(pm_tower, N)
    assert tt.rbar == pytest.approx(pm_tower.rbar, abs=1e-14)
    assert np.all(tt.heights == pm_tower.heights)


def test_truncate_to_base(pm_tower):
    tt = tw.truncate(pm_tower, 1)
    assert np.all(tt.heights == 1)
    assert tt.rbar == pytest.approx(float(pm_tower.ind.muY.sum()))


@settings(max_examples=25, deadline=None)
@given(n1=st.integers(1, 120), n2=st.integers(0, 120))
def test_truncation_idempotent(n1, n2):
    t = tw.build_tower(systems.pm_induced(0.5))
    a = tw.truncate(tw.truncate(t, n1), n1 + n2)
    b = tw.truncate(t, n1)
    assert a.N == b.N
    assert np.all(a.heights == b.heights)
    assert a.rbar == b.rbar


def test_visit_measure_zero_for_doubling():
    t = tw.build_tower(systems.doubling_full())
    for N in (2, 5):
        m, b = tw.visit_measure(t, N, 5)
        assert m == 0.0


def test_visit_measure_k0_is_tall_mass(pm_tower):
    m, _ = tw.visit_measure(pm_tower, 20, 0)
    assert m == pytest.approx(tw.truncate(pm_tower, 20).tall_part_mass(),
                              abs=1e-12)


def test_visit_measure_monotone_and_bounded(pm_tower):
    prev = -1.0
    for k in range(0, 8):
        m, b = tw.visit_measure(pm_tower, 20, k)
        assert m >= prev - 1e-15
        assert m <= b + 1e-12
        prev = m


def test_visit_measure_against_path_enumeration():
    """Brute-force path enumeration oracle on the doubling-induced map."""
    ind = systems.doubling_induced()
    t = tw.build_tower(ind)
    N, k = 3, 4
    P = ind.transition_kernel()
    # enumerate paths (column, level) -> ... up to k steps
    def enters(j, level, budget):
        if ind.r[j] >= N:
            return 1.0
        steps = ind.r[j] - level
        if steps > budget:
            return 0.0
        return sum(P[j, i] * enters(i, 0, budget - steps)
                   for i in range(ind.J))
    oracle = sum(t.column_mass[j] * enters(j, lv, k)
                 for j in range(ind.J) for lv in range(int(ind.r[j])))
    m, b = tw.visit_measure(t, N, k)
    assert m == pytest.approx(oracle, abs=1e-12)
    assert m <= b


def test_separation_time_cases(pm_tower):
    same_cell = ((1, 0, 0.70), (1, 0, 0.71))
    assert tw.separation_time(pm_tower, *same_cell) >= 1
    assert tw.separation_time(pm_tower, (0, 0, 0.8), (1, 0, 0.7)) == 0
    assert tw.d_theta(pm_tower, (0, 0, 0.8), (1, 0, 0.7)) == 1.0
    p = (2, 1, 0.68)
    assert math.isinf(tw.separation_time(pm_tower, p, p))
    assert tw.d_theta(pm_tower, p, p) == 0.0


def test_separation_oracle_direct_iteration(pm_tower):
    # separation by explicit iteration of F with cell lookup
    ind = pm_tower.ind
    y1, y2 = 0.71, 0.712
    s = 0
    a, b = np.array([y1]), np.array([y2])
    while True:
        c1, c2 = ind.cell_of(a)[0], ind.cell_of(b)[0]
        if c1 != c2:
            break
        a, b = ind.F(int(c1), a), ind.F(int(c2), b)
        s += 1
    assert tw.separation_time(pm_tower, (1, 0, y1), (1, 0, y2)) == s


def test_d_theta_ultrametric_within_column(pm_tower):
    rng = np.random.default_rng(7)
    ind = pm_tower.ind
    for _ in range(40):
        j = int(rng.integers(0, 30))
        ys = ind.lo[j] + rng.random(3) * ind.widths[j]
        p, q, r = ((j, 0, float(y)) for y in ys)
        dpr = tw.d_theta(pm_tower, p, r)
        assert dpr <= max(tw.d_theta(pm_tower, p, q),
                          tw.d_theta(pm_tower, q, r)) + 1e-15


def test_tower_csv(tmp_path):
    t = tw.build_tower(systems.doubling_induced())
    path = tmp_path / "tower.csv"
    t.to_csv(path)
    header = path.read_text().split("\n")[0]
    assert header == "j,level,measure,r,r_trunc,lo_proj,hi_proj"


def _project_by_mask(tower, level, y):
    """T^level(y) with T applied, level by level, to every point still
    climbing, each time selected by a mask over all points."""
    out = np.asarray(y, dtype=float).copy()
    steps = np.asarray(level, dtype=int).copy()
    while steps.max(initial=0) > 0:
        act = steps > 0
        out[act] = tower.ind.model.apply(out[act])
        steps[act] -= 1
    return out


def test_project_and_return_map_match_masked_climb(pm_tower):
    ind = pm_tower.ind
    rng = np.random.default_rng(4)
    j = rng.integers(0, ind.J, 2000)
    lv = rng.integers(0, pm_tower.heights[j])
    y = ind.lo[j] + rng.random(2000) * ind.widths[j]
    assert np.array_equal(ind.model.advance(y, lv),
                          _project_by_mask(pm_tower, lv, y))
    assert np.array_equal(ind.model.advance(y, 0), y)
    # the return map climbs the same way, r(j) steps per point
    assert np.array_equal(ind.F(j, y), _project_by_mask(pm_tower, ind.r[j], y))
    one = ind.model.advance(y[0], lv[0])
    assert one.shape == () and one == _project_by_mask(pm_tower, lv[:1],
                                                        y[:1])[0]


@pytest.mark.parametrize("N", [None, 1, 7, 10_000])
def test_column_positions_match_column_climb(N):
    ind = systems.doubling_induced()
    tower = tw.build_tower(ind)
    if N is not None:
        tower = tw.truncate(tower, N)
    nodes = ind.lo[:, None] + np.array([0.1, 0.5, 0.9]) * ind.widths[:, None]
    stacks = []
    for j in range(ind.J):
        cur = nodes[j]
        for _ in range(int(tower.heights[j])):
            stacks.append(cur)
            cur = ind.model.apply(cur)
    assert np.array_equal(tower.column_positions(nodes), np.array(stacks))
    rows = tower.column_positions(nodes, lambda pos: pos.sum(axis=1)[:, None])
    assert np.array_equal(rows[:, 0], np.array(stacks).sum(axis=1))


def test_tail_table_matches_masked_sums(pm_tower):
    ind = pm_tower.ind
    rmax = int(ind.r.max())
    for N in (1, 10, rmax - 1, rmax, rmax + 1, rmax + 50):
        ge, gt = ind.tail_sums(N)
        assert ge == float(ind.muY[ind.r >= N].sum())
        assert gt == math.fsum(ind.muY[ind.r >= n].sum()
                               for n in range(N + 1, rmax + 1))
    for n in range(-2, rmax + 3):
        assert ind.muY_tail_represented(n) == float(ind.muY[ind.r > n].sum())


def test_land_parks_tail_landings(pm_tower):
    ind = pm_tower.ind
    x = np.array([0.5 + 1e-12])       # past the deepest represented cell
    assert ind.cell_of(x)[0] == -1
    j = np.array([2])
    y = ind.F_inverse(2, x)
    deep = int(np.argmax(ind.r))
    cell, p, parked = ind.land(j, 0, y)
    assert cell[0] == deep and parked.tolist() == [True]
    assert ind.lo[deep] <= p[0] < ind.hi[deep]
    # the tower map lands through the same policy, never in column -1
    j2, lv2, y2 = pm_tower.step(j, ind.r[j] - 1, y)
    assert j2[0] == deep and lv2[0] == 0 and y2[0] == p[0]


def test_land_from_any_level_matches_return_map(pm_tower):
    ind = pm_tower.ind
    rng = np.random.default_rng(5)
    j = rng.integers(0, ind.J, 500)
    y = ind.lo[j] + rng.random(500) * ind.widths[j]
    lv = rng.integers(0, ind.r[j])
    cell, p, parked = ind.land(j, lv, ind.model.advance(y, lv))
    assert np.array_equal(p, ind.F(j, y))
    assert parked.tolist() == [False] * 500
    assert np.array_equal(cell, ind.cell_of(p))
