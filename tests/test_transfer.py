import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from towerlab import systems, suspension as sp
from towerlab.transfer.basis import BIG, CylinderBasis
from towerlab.transfer.towerop import TowerGrid, laplace_series, \
    map_correlation_operator
from towerlab.transfer.operators import (assemble_R, assemble_twisted,
                                         lasota_yorke_check, resolvent_scan)


@pytest.fixture(scope="module")
def bd():
    return CylinderBasis(systems.doubling_full(), depth=8, refine_symbols=2)


@pytest.fixture(scope="module")
def bp():
    return CylinderBasis(systems.pm_induced(0.5), depth=2, refine_symbols=24)


# -- basis ---------------------------------------------------------------------

def test_nesting(bd, bp):
    assert bd.check_nesting() <= 1e-10
    assert bp.check_nesting() <= 1e-10


def test_measure_consistency(bp):
    # leaf masses (collocation Perron pair) aggregate to the cell masses
    # (interval-kernel fixed point) at discretisation accuracy
    agg = np.zeros(bp.ind.J)
    np.add.at(agg, bp.col, bp.mu)
    assert np.max(np.abs(agg - bp.ind.muY / bp.ind.muY.sum())) <= 1.5e-2


def test_seminorm_constant_vanishes(bp):
    assert bp.theta_seminorm(np.ones(bp.n), 0.5) == 0.0


def test_seminorm_scales(bd):
    v = bd.mid.copy()
    a = bd.theta_seminorm(v, 0.5)
    assert bd.theta_seminorm(3.0 * v, 0.5) == pytest.approx(3.0 * a)


def test_seminorm_complex_close_to_real(bd):
    v = bd.mid.copy()
    a = bd.theta_seminorm(v, 0.5)
    b = bd.theta_seminorm(v * np.exp(0.3j), 0.5)
    assert b == pytest.approx(a, rel=1e-12)


def test_perron_diagnostics_kept(bd, bp):
    for b in (bd, bp):
        assert b.perron_residual <= 1e-12
        assert 1 <= b.perron_iterations <= 1500


def _leaf_by_walk(basis, word):
    """Leaf holding a cylinder word, by walking the leaf words: symbols
    past the refined range, and missing ones, follow the aggregate."""
    leaf_of = {w: i for i, w in enumerate(basis.words)}
    key = word[:1]
    for sym in list(word[1:]) + [BIG] * basis.depth:
        if key in leaf_of:
            return leaf_of[key]
        key += (sym if sym in range(basis.refine) else BIG,)
    raise AssertionError(f"no leaf for {word}")


@pytest.mark.parametrize("ind,depth,refine", [
    ("pm60", 1, 8), ("pm60", 2, 8), ("pm60", 3, 5), ("doubling", 3, 2)])
def test_colmap_and_ends_match_tree_walk(ind, depth, refine):
    ind = {"pm60": lambda: systems.pm_induced(0.5, 60, 3000),
           "doubling": systems.doubling_full}[ind]()
    basis = CylinderBasis(ind, depth=depth, refine_symbols=refine)
    want = np.array([[_leaf_by_walk(basis, (j,) + w[:depth - 1])
                      for j in range(ind.J)] for w in basis.words])
    assert np.array_equal(basis._colmap, want)
    # leaf ends: the child cell's ends pulled back through each symbol of
    # the parent word, one F_inverse at a time
    agg = (ind.Y[0], float(ind.hi[basis.refine:].max(initial=ind.Y[0])))
    for w, lo, hi in zip(basis.words, basis.lo, basis.hi):
        ends = agg if w[-1] == BIG else (ind.lo[w[-1]], ind.hi[w[-1]])
        pts = np.array(ends)
        for sym in reversed(w[:-1]):
            pts = ind.F_inverse(sym, pts)
        assert (lo, hi) == tuple(pts)


# -- base operator ----------------------------------------------------------------

def test_R_fixes_constants(bd, bp):
    for b in (bd, bp):
        op = assemble_R(b)
        assert np.max(np.abs(op.apply(np.ones(b.n)) - 1.0)) <= 1e-10


def test_R_nonnegative(bp):
    assert np.min(assemble_R(bp).mat) >= 0.0


def test_measure_stationary(bd, bp):
    for b in (bd, bp):
        assert np.max(np.abs(b.mu @ b.Mhat - b.mu)) <= 1e-12


@pytest.mark.parametrize("width", [None, 1, 6, 16])
def test_basis_apply_matches_matmul(bp, width):
    # real operands are multiplied as Mhat @ u, bit for bit; complex ones
    # as one real product of their (re, im) pairs, within rounding of the
    # complex product; contiguous or not (a column slice, a transpose)
    rng = np.random.default_rng(11)
    w = 1 if width is None else width
    wide = rng.standard_normal((bp.n, 3 * w)) \
        + 1j * rng.standard_normal((bp.n, 3 * w))
    tall = rng.standard_normal((w, bp.n)) + 1j * rng.standard_normal((w, bp.n))
    if width is None:
        cplx = [wide[:, 0].copy(), wide[:, 1]]
    else:
        cplx = [wide[:, :w].copy(), wide[:, 1:1 + w], wide[:, ::3], tall.T]
    eps = np.finfo(float).eps
    for u in cplx:
        for x in (u.real, u):
            got, want = bp.apply(x), bp.Mhat @ x
            assert got.shape == want.shape and got.dtype == want.dtype
            if x is u:
                bound = 8 * eps * (np.abs(bp.Mhat) @ np.abs(u))
                assert np.all(np.abs(got - want) <= bound)
            else:
                assert np.array_equal(got, want)


def test_untwisted_operator_is_the_shared_Mhat(bp):
    grid = TowerGrid(bp, sp.cosine_roof(), 30)
    for op in (assemble_R(bp), assemble_twisted(grid, 0.0, 0.0)):
        assert op.mat is bp.Mhat
    assert not bp.Mhat.flags.writeable
    v = np.exp(2j * np.pi * bp.mid)
    assert np.array_equal(assemble_R(bp).apply(v), bp.apply(v))


def test_doubling_closed_form_pointwise(bd):
    # (Rv)(x) = (v(x/2) + v((x+1)/2))/2, exact for the doubling map
    op = assemble_R(bd)
    x = np.linspace(0.05, 0.95, 7)
    got = op.pointwise_apply(lambda y: y, x)
    want = ((x / 2) + (x + 1) / 2) / 2
    assert np.max(np.abs(got - want)) <= 1e-12


def test_pointwise_apply_refuses_twist(bd):
    # only the untwisted R is evaluated pointwise; a twist is an error
    op = assemble_twisted(TowerGrid(bd, sp.cosine_roof()), 0.3 + 2j)
    with pytest.raises(ValueError):
        op.pointwise_apply(lambda y: y, np.array([0.3]))


def test_duality_adjoint_pairing(bd, bp):
    for b in (bd, bp):
        assert assemble_R(b).duality_defect(n_pairs=20) <= 1e-8


def test_spectral_gap_pm():
    basis = CylinderBasis(systems.pm_induced(0.5, branch_cutoff=200),
                          depth=2, refine_symbols=16)
    eigs = np.sort(np.abs(np.linalg.eigvals(basis.Mhat)))[::-1]
    assert eigs[0] == pytest.approx(1.0, abs=1e-10)
    assert eigs[1] < 1.0 - 1e-3


def test_twisted_reduces_to_R(bp):
    grid = TowerGrid(bp, sp.cosine_roof(), 30)
    op = assemble_twisted(grid, 0.0, 0.0)
    assert np.array_equal(op.mat, bp.Mhat)


def test_constant_twist_factors_out(bd):
    # doubling, h = 1, r = 1: R_{s,z} = e^{s+z} R entrywise
    grid = TowerGrid(bd, sp.constant_roof(1.0), 1)
    s, z = 0.3 + 1.1j, -0.2 + 0.4j
    op = assemble_twisted(grid, s, z)
    want = np.exp(s + z) * bd.Mhat
    assert np.max(np.abs(op.mat - want)) <= 1e-13


def test_induced_roof_seminorm_sum(bp):
    # sum_j |H' restricted to Y_j|_theta mu(Y_j) <= |h|_theta rbar
    grid = TowerGrid(bp, sp.cosine_roof(), 30)
    theta = 0.5
    ind = bp.ind
    lhs = 0.0
    for j in range(ind.J):
        sel = bp.col == j
        if sel.sum() < 2:
            continue
        Hj = grid.H_col[sel]
        lhs += float(Hj.max() - Hj.min()) / theta * float(ind.muY[j])
    # |h|_theta on the tower: within-cell variation over tower cells
    hsem = grid.theta_seminorm(grid.h_at, theta)
    assert lhs <= hsem * grid.rbar + 1e-9


def test_lasota_yorke_constant_function(bp):
    grid = TowerGrid(bp, sp.cosine_roof(), 20)
    theta = 0.5
    op = assemble_twisted(grid, 2j, 0.0)
    v = np.ones(bp.n, dtype=complex)
    out = op.apply(v)
    # |R^1 v|_theta <= C(|b| |v|_inf + theta |v|_theta) is satisfiable with
    # |v|_theta = 0: the twisted image has finite seminorm
    assert np.isfinite(bp.theta_seminorm(out, theta))


def test_lasota_yorke_uniformity_small():
    basis = CylinderBasis(systems.pm_induced(0.5, branch_cutoff=200),
                          depth=2, refine_symbols=16)
    rep = lasota_yorke_check(basis, sp.cosine_roof(), b_list=[2, 10],
                             omega_list=[0.0], n_max=8, N_list=[20, 50],
                             n_probes=4)
    assert rep.stability <= 2.0
    # contraction visible: iterate seminorms plateau below C |b| |v|_inf
    assert rep.C < 10.0


def test_resolvent_constant_roof_flags(bd):
    bgrid = [2 * np.pi, 4 * np.pi, 5.0, 11.0]
    sc = resolvent_scan(bd, sp.constant_roof(1.0), bgrid, [0.0], C6=2.0,
                        n_random=40)
    assert list(sc.resonance) == [True, True, False, False]
    assert np.all(np.isfinite(sc.norm_estimate[~sc.resonance]))


def _resolvent_reference(basis, roof, b_grid, C6, n_random, n_adversarial,
                         seed, resonance_tol=1e-10):
    """resolvent_scan as a loop over single probes: each probe is drawn,
    scaled, solved and measured on its own.  lu_solve of one vector takes
    LAPACK's triangular-vector path, which threaded OpenBLAS may round
    differently from the matrix path; each probe is therefore solved beside
    a copy of itself, through the matrix path, like the scan's block."""
    from scipy.linalg import lu_factor, lu_solve
    theta = basis.ind.model.theta
    rng = np.random.default_rng(seed)
    grid = TowerGrid(basis, roof, None)
    n = basis.n
    norms, flags, resids = [], [], []
    for b in b_grid:
        A = np.eye(n, dtype=complex) - assemble_twisted(grid, 1j * b, 0.0).mat
        lu = lu_factor(A)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x /= np.linalg.norm(x)
        for _ in range(8):
            x = lu_solve(lu, x)
            x = lu_solve(lu, x.conj(), trans=2).conj()
            nx = np.linalg.norm(x)
            if not np.isfinite(nx) or nx == 0:
                break
            x /= nx
        smin = np.linalg.norm(A @ x)
        resids.append(float(smin))
        if not np.isfinite(smin) or smin < resonance_tol * n:
            flags.append(True)
            norms.append(math.inf)
            continue
        flags.append(False)
        probes = []
        for k in (1, 2, 3, 5, 8, 13):
            for c in (1.0, b / (2.0 * np.pi)):
                probes.append(np.exp(2j * np.pi * k * c * basis.mid))
        for _ in range(n_random):
            probes.append(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        e = np.zeros(n, dtype=complex)
        e[int(np.argmax(np.abs(x)))] = 1.0
        probes.append(e)
        y = x.copy()
        for _ in range(n_adversarial):
            probes.append(y)
            y = A.conj().T @ y
            y = y / np.linalg.norm(y)
        best = 0.0
        for p in probes:
            p = p / basis.norm_b(p, b, C6, theta)
            sol = lu_solve(lu, np.column_stack([p, p]))[:, 0]
            best = max(best, basis.norm_b(sol, b, C6, theta))
        norms.append(best)
    return np.array(norms), np.array(flags), np.array(resids)


@pytest.mark.parametrize("roof", [sp.constant_roof(1.0), sp.cosine_roof()],
                         ids=["constant", "cosine"])
def test_resolvent_scan_equals_probe_loop(roof):
    basis = CylinderBasis(systems.doubling_full(), depth=5, refine_symbols=2)
    b_grid = [0.5, 2.0 * np.pi, 7.0, 13.0, 4.0 * np.pi, 29.0]
    sc = resolvent_scan(basis, roof, b_grid, [0.0], C6=2.0, n_random=9,
                        n_adversarial=3, seed=5)
    norms, flags, resids = _resolvent_reference(basis, roof, b_grid, 2.0, 9,
                                                3, seed=5)
    assert np.array_equal(sc.resonance, flags)
    assert np.array_equal(sc.residuals, resids)
    assert np.array_equal(sc.norm_estimate, norms)
    ok = ~flags & (np.array(b_grid) > 1.0)
    coef = np.linalg.lstsq(np.column_stack([np.ones(ok.sum()),
                                            np.log(np.array(b_grid)[ok])]),
                           np.log(norms[ok]), rcond=None)[0]
    assert sc.alpha_fit == float(coef[1])
    assert flags.any() == roof.name.startswith("const")


def test_resolvent_coboundary_invariance(bd):
    # shifting the roof by a small coboundary moves norms by < 5 percent
    eps = 1e-3

    def u(x):
        return eps * np.sin(2 * np.pi * x)

    base = sp.cosine_roof()

    def shifted(x):
        Tx = np.where(x < 0.5, 2 * x, 2 * x - 1)
        return base(x) + u(Tx) - u(x)

    roof2 = sp.RoofFunction("shifted", shifted, inf_floor=0.9)
    b_grid = [3.0, 8.0]
    s1 = resolvent_scan(bd, base, b_grid, [0.0], C6=2.0, n_random=80, seed=3)
    s2 = resolvent_scan(bd, roof2, b_grid, [0.0], C6=2.0, n_random=80, seed=3)
    assert np.all(np.abs(s1.norm_estimate / s2.norm_estimate - 1.0) < 0.05)


# -- tower operator -----------------------------------------------------------------

def test_tower_integral_conserved(bp):
    grid = TowerGrid(bp, None, None)
    V = grid.state_from_function(lambda x: np.cos(3 * x) + 2)
    i0 = grid.integrate(V)
    i1 = grid.integrate(grid.step(V))
    assert i1 == pytest.approx(i0, abs=1e-13)


def test_doubling_map_correlation_geometric(bd):
    c = map_correlation_operator(bd, lambda x: x - 0.5, lambda x: x - 0.5, 6)
    ratios = c[1:5] / c[0:4]
    assert np.allclose(ratios, 0.5, atol=2e-3)


def test_map_correlation_zero_for_constants(bd):
    c = map_correlation_operator(bd, lambda x: np.ones_like(x),
                                 lambda x: x, 5)
    assert np.max(np.abs(c)) <= 1e-12


def test_pm06_map_decay_window():
    ind = systems.pm_induced(0.6)
    basis = CylinderBasis(ind, depth=2, refine_symbols=50)
    c = map_correlation_operator(basis, lambda x: x - 0.5,
                                 lambda x: x - 0.5, 500)
    ns = np.unique(np.round(np.geomspace(10, 500, 40)).astype(int))
    slope = -np.polyfit(np.log(ns), np.log(np.abs(c[ns])), 1)[0]
    assert abs(slope - 2.0 / 3.0) <= 0.25


def test_laplace_constant_roof_closed_form(bd):
    grid = TowerGrid(bd, sp.constant_roof(1.0), None)
    v = sp.coordinate_observable()
    s = 0.5
    lv = laplace_series(grid, v, v, s)
    assert lv.converged
    # discretisation-exact closed form: the grid correlation of the
    # coordinate vector is 2^-n (1 - 4^{n-k})/12 at depth k
    k = 8
    var_terms = sum(math.exp(-s * n) * 2.0 ** -n * (1 - 4.0 ** (n - k)) / 12
                    for n in range(1, k + 1))
    vs = (math.e ** s - 1) / s
    ws = (1 - math.e ** (-s)) / s
    g = (math.exp(-s) - 1 + s) / s ** 2
    term0 = (1 - 4.0 ** (-k)) / 12 * g
    closed = term0 + var_terms * vs * ws
    assert abs(lv.value - closed) <= 1e-6


def test_laplace_constant_observable_small(bd):
    grid = TowerGrid(bd, sp.constant_roof(1.0), None)
    one = sp.Observable("one", lambda x, u, h: np.ones_like(x))
    w = sp.coordinate_observable()
    lv = laplace_series(grid, one, w, 0.4)
    # mean-zero projection: the series contributes nothing beyond the
    # same-flight term minus the pole part; the total stays small
    assert abs(lv.value) <= 1e-6


def test_laplace_divergence_detected(bp):
    grid = TowerGrid(bp, sp.cosine_roof(), 30)
    v = sp.coordinate_observable()
    lv = laplace_series(grid, v, v, -0.4)
    assert not lv.converged
    assert lv.abscissa_estimate is not None


def test_laplace_matches_mc_transform():
    ind = systems.pm_induced(0.5)
    basis = CylinderBasis(ind, depth=2, refine_symbols=24)
    N = 30
    grid = TowerGrid(basis, sp.cosine_roof(), N)
    v = sp.coordinate_observable()
    s = 0.3 + 2.0j
    lv = laplace_series(grid, v, v, s)
    assert lv.converged
    # MC side: quadrature Laplace transform of the truncated-flow
    # correlation function; the correlation has seam kinks, so a Richardson
    # difference of two trapezoid resolutions enters the error budget
    import towerlab.tower as tw
    model = sp.SuspensionModel(tw.truncate(tw.build_tower(ind), N),
                               sp.cosine_roof())
    t_grid = np.arange(0.0, 20.0001, 0.05)
    cs = sp.correlation_mc(model, v, v, t_grid, 200_000, seed=77)

    def transform(tt, rho):
        w = np.gradient(tt)
        return np.sum(np.exp(-s * tt) * rho * w)

    val = transform(t_grid, cs.rho)
    coarse = transform(t_grid[::5], cs.rho[::5])
    quad_err = abs(val - coarse)
    err = np.sqrt(np.sum((np.abs(np.exp(-s * t_grid)) * cs.stderr
                          * np.gradient(t_grid)) ** 2))
    tail = abs(np.exp(-s.real * t_grid[-1])) * abs(cs.rho[-1]) / s.real
    assert abs(lv.value - val) <= 3 * err + tail + quad_err + 1e-3


def test_renewal_geometric_doubling(bd):
    from towerlab.transfer.renewal import renewal_build
    grid = TowerGrid(bd, sp.constant_roof(1.0), 1)
    rd = renewal_build(grid, 0.2j, horizon=48, n_probes=4, grow=False)
    assert rd.max_residual <= 1e-10
    assert rd.recursion_residual <= 1e-10


def test_renewal_pm(bp):
    from towerlab.transfer.renewal import renewal_build
    grid = TowerGrid(bp, sp.cosine_roof(), 30)
    for s in (0.0, 0.1j, 0.3 + 2j):
        rd = renewal_build(grid, complex(s), horizon=96, n_probes=6,
                           grow=False)
        assert rd.max_residual <= 1e-8
        assert rd.recursion_residual <= 1e-8


def test_decomposition_single_level(bd):
    from towerlab.transfer.renewal import tower_operator_decomposition
    grid = TowerGrid(bd, sp.constant_roof(1.0), 1)
    rep = tower_operator_decomposition(grid, 0.1j, 1, n_probes=4)
    assert rep.residual <= 1e-12
    assert np.all(rep.e_norms == 0.0)  # no interior levels at all


def test_decomposition_pm(bp):
    from towerlab.transfer.renewal import tower_operator_decomposition
    grid = TowerGrid(bp, sp.cosine_roof(), 20)
    for n in (1, 5, 15, 21):
        rep = tower_operator_decomposition(grid, 0.1j, n, n_probes=4)
        assert rep.residual <= 1e-8
        assert rep.vanish_beyond
    # block norms decay along the return-time tail
    rep = tower_operator_decomposition(grid, 0.1j, 5, n_probes=4)
    assert rep.a_norms[0] > rep.a_norms[10] > rep.a_norms[18]


@pytest.fixture(scope="module")
def small_pm_grid():
    basis = CylinderBasis(systems.pm_induced(0.5, 60, 3000), depth=2,
                          refine_symbols=8)
    return TowerGrid(basis, sp.cosine_roof(), 6)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 12),
       a=st.floats(-0.5, 0.5), b=st.floats(-30.0, 30.0),
       seed=st.integers(0, 2**32 - 1))
def test_decomposition_any_n_and_s(small_pm_grid, n, a, b, seed):
    # L_s^n = sum A_i T_j B_k + E_n at any n in [1, 2N] and any s; the
    # climb and interior blocks vanish past the cut N = 6
    from towerlab.transfer.renewal import tower_operator_decomposition
    rep = tower_operator_decomposition(small_pm_grid, complex(a, b), n,
                                       n_probes=3, seed=seed)
    assert rep.residual <= 1e-8
    assert rep.vanish_beyond


@settings(max_examples=25, deadline=None)
@given(a=st.floats(-1.0, 0.0), b=st.floats(-30.0, 30.0),
       seed=st.integers(0, 2**32 - 1))
def test_renewal_any_admissible_s(small_pm_grid, a, b, seed):
    # T_s(z) (I - R_s(z)) = I with the horizon tail carried, at Re s <= 0
    from towerlab.transfer.renewal import renewal_build
    rd = renewal_build(small_pm_grid, complex(a, b), horizon=48,
                       n_probes=4, seed=seed, grow=False)
    assert rd.max_residual <= 1e-8
    assert rd.recursion_residual <= 1e-8


def test_descent_tables_match_level_loop(small_pm_grid):
    # B_{s,k} from the per-k tables equals a level-by-level loop over the
    # columns that start their descent at level r' - k >= 1
    from towerlab.transfer.renewal import _cum_roof, _descent
    grid, s = small_pm_grid, 0.3 + 2j
    cum = _cum_roof(grid)
    B_apply = _descent(grid, cum, s)
    rng = np.random.default_rng(3)
    V = [rng.standard_normal((len(a), 2)) + 1j for a in grid.active]
    flat = np.concatenate(V)
    assert np.array_equal(B_apply(flat, 0), grid.base_values(V))
    for k in range(1, grid.max_h + 2):
        u = np.zeros((grid.basis.n, 2), dtype=complex)
        for ell in range(1, grid.max_h):
            idx = np.nonzero(grid.heights[grid.active[ell]] == ell + k)[0]
            leaves = grid.active[ell][idx]
            u[leaves] = np.exp(s * (grid.H_col[leaves] - cum[ell][idx])
                               )[:, None] * V[ell][idx]
        assert np.array_equal(B_apply(flat, k), grid.basis.apply(u))


def test_step_twists_follow_s(small_pm_grid, monkeypatch):
    # the level twists are kept per s: one grid stepped at s1, s2, s1
    # gives what a fresh grid gives at each s
    rng = np.random.default_rng(5)
    V = [rng.standard_normal((len(a), 3)) + 1j * rng.standard_normal(
        (len(a), 3)) for a in small_pm_grid.active]

    def matches_fresh():
        grid = TowerGrid(small_pm_grid.basis, sp.cosine_roof(), 6)
        out = []
        for s in (0.3 + 2j, -0.2 + 5j, 0.3 + 2j):
            fresh = TowerGrid(grid.basis, grid.roof, grid.N)
            out.append(all(np.array_equal(a, b) for a, b
                           in zip(grid.step(V, s), fresh.step(V, s))))
        return out

    assert matches_fresh() == [True, True, True]

    def ignores_s(self, s):
        if self._twist is None:
            self._twist = [np.exp(s * h) for h in self.h_at]
        return self._twist

    monkeypatch.setattr(TowerGrid, "_twists", ignores_s)
    assert matches_fresh() == [True, False, True]


def test_vanish_beyond_fails_past_the_cut(small_pm_grid):
    # a grid built at N = 6 but declared at N = 5 has a level past its cut
    from towerlab.transfer.renewal import tower_operator_decomposition
    grid = TowerGrid(small_pm_grid.basis, sp.cosine_roof(), 6)
    grid.N = 5
    rep = tower_operator_decomposition(grid, 0.1j, 3, n_probes=2)
    assert rep.residual <= 1e-8
    assert rep.a_norms[4] > 0.0      # A_5 climbs to level 5
    assert not rep.vanish_beyond


def test_base_side_defect_fails_both_identities(small_pm_grid, monkeypatch):
    # the base side (twists, R_s(z), descent phases) reads H_col, the
    # tower side only h_at: a defect in one column's induced roof must show
    # in both residuals.  B never reads a column of height 1, so the
    # column is the heaviest of height >= 2.
    from towerlab.transfer.renewal import renewal_build, \
        tower_operator_decomposition
    grid = small_pm_grid
    tall = np.nonzero(grid.heights >= 2)[0]
    col = tall[np.argmax(grid.basis.mu[tall])]
    H = grid.H_col.copy()
    H[col] += 1e-6
    monkeypatch.setattr(grid, "H_col", H)
    s = 0.3 + 2j
    rd = renewal_build(grid, s, horizon=48, n_probes=4, grow=False)
    rep = tower_operator_decomposition(grid, s, 5, n_probes=3)
    assert rd.max_residual > 1e-8
    assert rep.residual > 1e-8


def test_rate_budget_cases():
    from towerlab.transfer import rates
    b = rates.rate_budget(beta=1.0, gamma=2.0)
    assert b.predicted_rate == "(ln t)^2 t^-1"
    assert rates.budget_matches_rate(b) < 0.05
    for beta, want in ((0.5, "N^0.5"), (1.0, "(ln N)^1"), (2.0, "bounded")):
        assert want in rates.rate_budget(beta=beta).dN_class
    with pytest.raises(ValueError):
        rates.rate_budget(beta=1.0, p=0.5)


def test_roof_sum_tail_gap():
    from towerlab.transfer import rates
    ex = rates.roof_sum_tail_example(1.0)
    assert ex.respects_bound
    assert abs(ex.log_factor_fit - 2.0) <= 0.25
    assert ex.log_factor_fit <= 2.5    # clear of the bound's exponent 3


def test_resolvent_refinement_stability():
    # doubling the cylinder depth moves resolvent norms by < 10 percent
    b_grid = [3.0, 9.0]
    norms = {}
    for depth in (6, 12):
        basis = CylinderBasis(systems.doubling_full(), depth=depth,
                              refine_symbols=2)
        sc = resolvent_scan(basis, sp.cosine_roof(), b_grid, [0.0],
                            C6=2.0, n_random=30, seed=5)
        norms[depth] = sc.norm_estimate
    assert np.all(np.abs(norms[12] / norms[6] - 1.0) < 0.10)
