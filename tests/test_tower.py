import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as hs
from numpy.polynomial.legendre import leggauss

from towerlab import cli, maps, systems, suspension as sp, tower as tw


@pytest.fixture(scope="module")
def pm_tower():
    return tw.Tower(systems.pm_induced(0.5))


def test_theta_default_from_expansion(pm_tower):
    # theta = expansion^-eta = 2^-1, exactly
    assert pm_tower.ind.model.theta == 0.5


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
    t = tw.Tower(systems.doubling_full())
    assert t.n_cells == 2
    assert t.rbar == pytest.approx(1.0)
    assert np.allclose(t.column_mass, t.ind.muY)


@pytest.mark.parametrize("N", [10, 20, 50, 100])
def test_truncation_identities(pm_tower, N):
    tt = tw.Tower(pm_tower.ind, N)
    l1, r1 = tt.identity_mean_defect()
    l2, r2 = tt.identity_tall_mass()
    assert abs(l1 - r1) <= 1e-12
    assert abs(l2 - r2) <= 1e-12


def test_truncate_above_support_is_identity(pm_tower):
    rmax = int(pm_tower.ind.r.max())
    for N in (rmax, rmax + 5):
        tt = tw.Tower(pm_tower.ind, N)
        assert tt.rbar == pm_tower.rbar
        assert np.array_equal(tt.heights, pm_tower.heights)
        assert np.array_equal(tt.column_mass, pm_tower.column_mass)


def test_uncut_rbar_is_mean_return(pm_tower):
    for ind in (pm_tower.ind, systems.doubling_induced()):
        assert tw.Tower(ind).rbar == ind.mean_return


@pytest.mark.parametrize("N", [0, -3])
def test_cut_below_one_refused(pm_tower, N):
    with pytest.raises(ValueError, match="truncation level"):
        tw.Tower(pm_tower.ind, N)


def test_truncate_to_base(pm_tower):
    tt = tw.Tower(pm_tower.ind, 1)
    assert np.all(tt.heights == 1)
    assert tt.rbar == pytest.approx(float(pm_tower.ind.muY.sum()))


def test_visit_measure_zero_for_doubling():
    t = tw.Tower(systems.doubling_full())
    for N in (2, 5):
        m, b = tw.visit_measure(t, N, 5)
        assert m == 0.0


def test_visit_measure_k0_is_tall_mass(pm_tower):
    m, _ = tw.visit_measure(pm_tower, 20, 0)
    assert m == pytest.approx(tw.Tower(pm_tower.ind, 20).tall_part_mass(),
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
    t = tw.Tower(ind)
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


def test_visit_measure_builds_the_kernel_once(monkeypatch):
    # criterion 3's nine calls on one tower rebuilt the J x J kernel on
    # every call; the tower now builds it once, and every pair is
    # bit-identical to a call on a fresh tower with a fresh kernel
    ind = systems.pm_induced(0.5)
    grid = [(N, k) for N in (10, 20, 50) for k in (1, 5, 10)]
    fresh = [tw.visit_measure(tw.Tower(ind), N, k) for N, k in grid]
    calls = []
    build = maps.InducedMap.transition_kernel
    monkeypatch.setattr(maps.InducedMap, "transition_kernel",
                        lambda self: calls.append(1) or build(self))
    t = tw.Tower(ind)
    assert [tw.visit_measure(t, N, k) for N, k in grid] == fresh
    assert len(calls) == 1


def test_tower_csv(tmp_path):
    t = tw.Tower(systems.doubling_induced())
    cfg = tmp_path / "db.ini"
    cfg.write_text("[map]\nkind = doubling\nY = 0.5,1.0\nJ = 40\n"
                   "tail_horizon = 1200\n")
    assert cli.main(["tower", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "tower.csv").read_text().split("\n")
    header = lines[0]
    assert header == "j,level,measure,r,r_trunc,lo_proj,hi_proj"
    # one row per cell (j, l), column by column and level by level
    cells = [line.split(",")[:2] for line in lines[1:-1]]
    assert cells == [[str(j), str(ell)] for j in range(t.ind.J)
                     for ell in range(int(t.heights[j]))]


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
    tower = tw.Tower(ind, N)
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
    assert len(ind.tail_ge) == rmax + 2
    for n in range(rmax + 2):
        assert ind.tail_ge[n] == float(ind.muY[ind.r >= n].sum())


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


def test_land_from_the_top_climbs_nothing(pm_tower, monkeypatch):
    # a point at level r has no step left: the landing is its position
    ind = pm_tower.ind
    rng = np.random.default_rng(6)
    j = rng.integers(0, ind.J, 500)
    y = ind.lo[j] + rng.random(500) * ind.widths[j]
    top = ind.model.advance(y, ind.r[j])
    climbs, climb = [], type(ind).climb
    monkeypatch.setattr(type(ind), "climb", lambda self, *a:
                        climbs.append(1) or climb(self, *a))
    cell, p, parked = ind.land(j, ind.r[j], top)
    assert climbs == [] and p is not top
    assert np.array_equal(p, ind.F(j, y))
    assert np.array_equal(cell, ind.cell_of(p)) and not parked.any()
    lv = ind.r[j] - (np.arange(500) == 7)
    cell, p, parked = ind.land(j, lv, ind.model.advance(y, lv))
    assert climbs == [1] and np.array_equal(p, ind.F(j, y))


def _word_climb_mismatches(ind, seed, n=1500):
    """Points at which the word climb ``ind.climb`` differs, bit for bit,
    from the branch-lookup climb ``model.advance``, over every step count
    up to the landing.  The points are stationary samples (column, level,
    position) and the 8 Gauss nodes of every cell at level 0; the counts
    come one per point and, over the points that climb that far, as one
    count for all."""
    st = sp.sample_stationary(
        sp.SuspensionModel(tw.Tower(ind), sp.cosine_roof()), n, seed)
    gn = leggauss(8)[0]
    nodes = ind.lo[:, None] + (0.5 + 0.5 * gn) * ind.widths[:, None]
    col = np.concatenate([st.col, np.repeat(np.arange(ind.J), 8)])
    level = np.concatenate([st.level, np.zeros(8 * ind.J, dtype=int)])
    pos = np.concatenate([st.pos, nodes.ravel()])
    left = ind.r[col] - level
    bad = np.zeros(len(pos), dtype=bool)
    for k in range(int(left.max()) + 1):
        steps = np.minimum(left, k)
        bad |= ind.climb(pos, level, steps) != ind.model.advance(pos, steps)
        far = left >= k
        bad[far] |= ind.climb(pos[far], level[far], k) \
            != ind.model.advance(pos[far], k)
    return int(bad.sum())


def _small_induced(kind, alpha):
    if kind == "doubling":
        return maps.induce(maps.doubling_map(), (0.5, 1.0), branch_cutoff=30,
                           tail_horizon=600)
    if kind == "full":
        return maps.induce(maps.doubling_map(), (0.0, 1.0), branch_cutoff=4,
                           tail_horizon=16)
    Y = (0.5, 1.0) if kind == "pm-right" else (0.0, 0.5)
    return maps.induce(maps.pomeau_manneville(alpha), Y, branch_cutoff=40,
                       tail_horizon=800)


@settings(max_examples=25, deadline=None)
@given(kind=hs.sampled_from(["pm-right", "pm-left", "doubling", "full"]),
       alpha=hs.floats(0.2, 0.9), seed=hs.integers(0, 2 ** 32 - 1))
@example(kind="pm-right", alpha=0.5, seed=0)
@example(kind="pm-left", alpha=0.6, seed=1)
@example(kind="full", alpha=0.5, seed=2)
def test_word_climb_is_the_lookup_climb(kind, alpha, seed):
    # on Y = [0, 1] (kind "full") there is no escape branch, and the climb
    # is model.advance itself
    assert _word_climb_mismatches(_small_induced(kind, alpha), seed) == 0


def test_swapped_branches_fail_the_word_climb_property(monkeypatch):
    ind = _small_induced("pm-right", 0.5)
    assert _word_climb_mismatches(ind, 3) == 0
    entry = int(ind.entry[0])
    esc = ind.model.branches.index(ind.escape)
    monkeypatch.setattr(ind, "escape", ind.model.branches[entry])
    monkeypatch.setattr(ind, "entry", np.full_like(ind.entry, esc))
    assert _word_climb_mismatches(ind, 3) > 0
