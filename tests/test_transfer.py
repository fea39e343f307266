import math
import multiprocessing
import os
import sys
import threading
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.sparse import csc_matrix

from towerlab import systems, suspension as sp
from towerlab.transfer import operators, towerop
from towerlab.transfer.basis import BIG, CylinderBasis
from towerlab.transfer.towerop import _QN, _QW, TowerGrid, \
    map_correlation_operator
from towerlab.transfer.operators import (FLIGHT_PHASE_MAX, assemble_R,
                                         assemble_twisted,
                                         laplace_transform,
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
    # the product through the dense view and the blocks sums in another
    # order than Mhat @ u: real and complex operands (complex ones as one
    # real product of their (re, im) pairs) agree with it within rounding,
    # contiguous or not (a column slice, a transpose)
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
            bound = 8 * eps * (np.abs(bp.Mhat) @ np.abs(x))
            assert np.all(np.abs(got - want) <= bound)


@pytest.mark.parametrize("ind,depth,refine", [
    ("pm50", 1, 24), ("pm50", 2, 24), ("pm50", 3, 5), ("pm50-J30", 2, 40),
    ("pm60", 2, 50), ("doubling", 8, 2)])
def test_blocks_rebuild_Mhat(ind, depth, refine):
    # the dense column view and the blocks hold Mhat bit for bit: every
    # stored entry is the Mhat entry at its place, every non-zero of Mhat
    # is stored exactly once, and the dense columns are a view of Mhat;
    # the product through them is within rounding of the exactly summed
    # rows (math.fsum)
    ind = {"pm50": lambda: systems.pm_induced(0.5),
           "pm50-J30": lambda: systems.pm_induced(0.5, 30, 3000),
           "pm60": lambda: systems.pm_induced(0.6),
           "doubling": systems.doubling_full}[ind]()
    basis = CylinderBasis(ind, depth=depth, refine_symbols=refine)
    Mhat, dense = basis.Mhat, basis._mhat_dense
    assert dense.base is Mhat
    got = np.zeros_like(Mhat)
    hits = np.zeros(Mhat.shape, dtype=np.int8)
    got[:, basis.n - dense.shape[1]:] = dense
    hits[:, basis.n - dense.shape[1]:] = 1
    for rows, cols, vals in basis._mhat_blocks:
        at = (np.broadcast_to(rows[:, :, None], vals.shape),
              np.broadcast_to(cols[:, None, :], vals.shape))
        got[at] = vals
        np.add.at(hits, at, 1)
    assert np.array_equal(got.view(np.uint64), Mhat.view(np.uint64))
    assert hits.max() == 1 and np.all(hits[Mhat != 0] == 1)
    u = np.random.default_rng(7).standard_normal((basis.n, 2))
    exact = np.array([[math.fsum(row * c) for c in u.T] for row in Mhat])
    bound = 8 * np.finfo(float).eps * (np.abs(Mhat) @ np.abs(u))
    assert np.all(np.abs(basis.apply(u) - exact) <= bound)


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


def test_twisted_apply_matches_its_matrix(bp):
    # a twisted operator applies as basis.apply(tw * v), within rounding of
    # its dense matrix Mhat diag(tw), which is built only when asked for
    op = assemble_twisted(TowerGrid(bp, sp.cosine_roof(), 30), 2j, 0.5j)
    rng = np.random.default_rng(4)
    vs = [rng.standard_normal(bp.n) + 1j * rng.standard_normal(bp.n),
          rng.standard_normal((bp.n, 3)) + 1j * rng.standard_normal((bp.n, 3))]
    got = [op.apply(v) for v in vs]
    assert "mat" not in vars(op)
    eps = np.finfo(float).eps
    for v, g in zip(vs, got):
        bound = 8 * eps * (np.abs(op.mat) @ np.abs(v))
        assert np.all(np.abs(g - op.mat @ v) <= bound)


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


@pytest.fixture(scope="module")
def pm_cli_basis():
    """The pm(0.5) basis of the CLI tests' config (n = 264), whose mu is
    not uniform."""
    return CylinderBasis(systems.pm_induced(0.5, 120, 3000), depth=2,
                         refine_symbols=12)


@pytest.mark.parametrize("basis,roof", [
    ("pm_cli_basis", sp.constant_roof(1.0)),
    ("pm_cli_basis", sp.cosine_roof()),
    ("bd", sp.cosine_roof()),
], ids=["pm-constant", "pm-cosine", "doubling-cosine"])
def test_resolvent_residual_is_smallest_singular_value(request, basis, roof):
    # the near-kernel residual |(I - R) x| of the scan is the smallest
    # singular value of I - R_{ib} off resonance (b = 9)
    basis = request.getfixturevalue(basis)
    sc = resolvent_scan(basis, roof, [9.0], [0.0], C6=2.0, n_random=2)
    A = np.eye(basis.n) - assemble_twisted(TowerGrid(basis, roof, None),
                                           9.0j).mat
    smin = np.linalg.svd(A, compute_uv=False)[-1]
    assert not sc.resonance[0]
    assert smin <= sc.residuals[0] <= (1 + 1e-3) * smin


def test_resolvent_flags_singular_non_uniform_measure(pm_cli_basis):
    # I - R_{2 pi i} is singular under the constant roof on pm, where the
    # left and right null vectors differ
    sc = resolvent_scan(pm_cli_basis, sp.constant_roof(1.0), [2 * np.pi],
                        [0.0], C6=2.0, n_random=2)
    assert sc.resonance[0] and sc.norm_estimate[0] == math.inf
    assert sc.residuals[0] < 1e-10 * pm_cli_basis.n


@pytest.mark.parametrize("twist", ["none", "b=9", "b=2pi", "real",
                                   "zero column"])
@pytest.mark.parametrize("basis", ["bd", "pm_cli_basis"])
def test_sparse_i_minus_is_the_dense_one(request, basis, twist):
    # I - R built on the basis's CSC pattern of I - Mhat: its pattern and
    # every bit of its data are those of the sparse copy of the dense
    # I - mat, with no stored zeros.  The dense I - mat is -mat with 1
    # added on its diagonal: np.eye - mat differs from it in the sign of a
    # zero imaginary part.  The "zero column" twist, 1 + 0j but 0 on column
    # 3, has such parts, and column 3 keeps only its diagonal.
    basis = request.getfixturevalue(basis)
    grid = TowerGrid(basis, sp.cosine_roof(), None)
    op = {"none": lambda: assemble_R(basis),
          "b=9": lambda: assemble_twisted(grid, 9j),
          "b=2pi": lambda: assemble_twisted(grid, 2j * np.pi, 0.5j),
          "real": lambda: assemble_twisted(grid, -0.3),
          "zero column": lambda: operators.OperatorMatrix(
              basis, tw=(np.arange(basis.n) != 3).astype(complex))}[twist]()
    want = -op.mat
    want[np.diag_indices_from(want)] += 1.0
    want = csc_matrix(want, dtype=complex)
    for A in (op.i_minus(), op.i_minus()):
        assert A.dtype == complex and A.has_sorted_indices
        assert np.array_equal(A.indptr, want.indptr)
        assert np.array_equal(A.indices, want.indices)
        assert np.array_equal(A.data.view(np.uint64),
                              want.data.view(np.uint64))
        assert np.all(A.data != 0)
    if twist == "zero column":
        assert A.indptr[4] - A.indptr[3] == 1 < A.nnz / basis.n


def test_scan_and_transform_build_no_dense_matrix(monkeypatch, bd,
                                                  small_pm_grid):
    # the scan and the Laplace transform run on the sparse I - R alone
    def refuse(self):
        raise AssertionError("the dense operator matrix was built")

    monkeypatch.setattr(operators.OperatorMatrix, "mat", property(refuse))
    sc = resolvent_scan(bd, sp.cosine_roof(), [3.0, 9.0], [0.0], C6=2.0,
                        n_random=2)
    assert np.all(np.isfinite(sc.norm_estimate)) and not sc.resonance.any()
    v = sp.coordinate_observable()
    assert np.isfinite(laplace_transform(small_pm_grid, v, v, 0.3 + 2j))
    with pytest.raises(AssertionError, match="dense"):
        assemble_R(bd).mat


def _resolvent_reference(basis, roof, b_grid, C6, n_random, n_adversarial,
                         seed, resonance_tol=1e-10):
    """resolvent_scan as a loop over single probes: each probe is drawn,
    scaled, solved and measured on its own, with the scan's sparse LU
    (``operators.lu_factor``/``lu_solve``) of the sparse I - R that the
    scan builds (``OperatorMatrix.i_minus``).  SuperLU solves its supernodes
    with BLAS, whose vector path threaded OpenBLAS may round differently
    from its matrix path; each probe is therefore solved beside a copy of
    itself, through the matrix path, like the scan's block."""
    from towerlab.transfer.operators import lu_factor, lu_solve
    theta = basis.ind.model.theta
    rng = np.random.default_rng(seed)
    grid = TowerGrid(basis, roof, None)
    n = basis.n
    norms, flags, resids = [], [], []
    for b in b_grid:
        A = assemble_twisted(grid, 1j * b, 0.0).i_minus()
        lu = lu_factor(A)
        start = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        start /= np.linalg.norm(start)
        # the smallest singular value: inverse iteration on A^H A
        x = start
        for _ in range(8):
            x = lu_solve(lu, x, trans=2)
            x = lu_solve(lu, x)
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
        # the adversarial start: x <- A^{-T} A^{-1} x from the same start
        x = start
        for _ in range(8):
            x = lu_solve(lu, x)
            x = lu_solve(lu, x.conj(), trans=2).conj()
            nx = np.linalg.norm(x)
            if not np.isfinite(nx) or nx == 0:
                break
            x /= nx
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
    value = laplace_transform(grid, v, v, s)
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
    assert abs(value - closed) <= 1e-6


def test_laplace_constant_observable_small(bd):
    grid = TowerGrid(bd, sp.constant_roof(1.0), None)
    one = sp.Observable("one", lambda x, u, h: np.ones_like(x))
    w = sp.coordinate_observable()
    value = laplace_transform(grid, one, w, 0.4)
    # mean-zero projection: the series contributes nothing beyond the
    # same-flight term minus the pole part; the total stays small
    assert abs(value) <= 1e-6


def test_laplace_divergence_detected(bp):
    grid = TowerGrid(bp, sp.cosine_roof(), 30)
    v = sp.coordinate_observable()
    with pytest.raises(ArithmeticError, match="abscissa 0"):
        laplace_transform(grid, v, v, -0.4)


def test_laplace_matches_mc_transform():
    ind = systems.pm_induced(0.5)
    basis = CylinderBasis(ind, depth=2, refine_symbols=24)
    N = 30
    grid = TowerGrid(basis, sp.cosine_roof(), N)
    v = sp.coordinate_observable()
    s = 0.3 + 2.0j
    value = laplace_transform(grid, v, v, s)
    # MC side: quadrature Laplace transform of the truncated-flow
    # correlation function; the correlation has seam kinks, so a Richardson
    # difference of two trapezoid resolutions enters the error budget
    import towerlab.tower as tw
    model = sp.SuspensionModel(tw.Tower(ind, N),
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
    assert abs(value - val) <= 3 * err + tail + quad_err + 1e-3


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


@settings(max_examples=40, deadline=None)
@given(a=st.floats(-1.0, 0.0), b=st.floats(-30.0, 30.0),
       seed=st.integers(0, 2**32 - 1), n_z=st.integers(1, 20),
       horizon=st.integers(14, 60), grow=st.booleans())
@example(a=0.0, b=0.1, seed=0, n_z=16, horizon=47, grow=False)
@example(a=-0.2, b=5.0, seed=1, n_z=7, horizon=50, grow=True)
def test_renewal_any_admissible_s(small_pm_grid, a, b, seed, n_z, horizon,
                                  grow):
    # T_s(z) (I - R_s(z)) = I with the horizon tail carried, at Re s <= 0,
    # on any grid z_m = 2 pi i (m + 1/2) / n_z and any horizon from N + 8
    # on, whole periods of n_z steps or not: the folded frequency sum
    # holds on each
    from towerlab.transfer.renewal import renewal_build
    assert small_pm_grid.max_h + 8 == 14
    rd = renewal_build(small_pm_grid, complex(a, b), horizon=horizon,
                       n_probes=4, n_z=n_z, seed=seed, grow=grow)
    assert len(rd.residuals) == n_z
    assert rd.max_residual <= 1e-8
    assert rd.recursion_residual <= 1e-8


def test_renewal_grow_steps_on(small_pm_grid, monkeypatch):
    # a doubled horizon steps on from H to 2H: the result is that of a
    # grow=False run at 2H, bit for bit, in 2H tower steps
    from dataclasses import fields
    from towerlab.transfer.renewal import RenewalData, renewal_build
    calls = []
    step = TowerGrid.step

    def counted(self, V, s=None):
        calls.append(s)
        return step(self, V, s)

    monkeypatch.setattr(TowerGrid, "step", counted)
    grown = renewal_build(small_pm_grid, 0.1j, horizon=20, n_probes=3,
                          n_z=7, seed=4)
    assert grown.horizon == 40 and len(calls) == 40
    direct = renewal_build(small_pm_grid, 0.1j, horizon=40, n_probes=3,
                           n_z=7, seed=4, grow=False)
    for f in fields(RenewalData):
        assert np.array_equal(getattr(grown, f.name),
                              getattr(direct, f.name)), f.name


@pytest.fixture(scope="module")
def small_pm_uncut(small_pm_grid):
    return TowerGrid(small_pm_grid.basis, sp.cosine_roof(), None)


_SERIES_TOL = 1e-10   # closed form against the summed series, per scale


def _laplace_by_series(grid, v, w, s):
    """The transform with its operator series summed one tower step at a
    time, until a term falls below 1e-13 of the running total, and the
    same-flight term by the 16-point Gauss rule on every cell at once.
    Returns the value and the sum of the moduli of its parts."""
    v_s = grid.state_from_observable(v, weight=lambda u: np.exp(s * u))
    w_s = grid.state_from_observable(w, weight=lambda u: np.exp(-s * u))
    term0 = 0j
    for p, h, m in zip(grid.pos_at, grid.h_at, grid.mu_at):
        a = 0.5 * h[:, None] * (_QN + 1.0)            # outer nodes u
        seg = (h[:, None] - a)[..., None]
        t = a[..., None] + 0.5 * seg * (_QN + 1.0)   # inner nodes in (u, h)
        wt = w(p[:, None, None], t, h[:, None, None])
        inner = (0.5 * seg * np.exp(-s * (t - a[..., None])) * wt) @ _QW
        term0 += m @ (0.5 * h * ((v(p[:, None], a, h[:, None]) * inner)
                                 @ _QW))
    term0 /= grid.rbar
    V = [np.asarray(x, dtype=complex) for x in v_s]
    total, size = 0j, 0.0
    for _ in range(100_000):
        V = grid.step(V, -s)
        term = sum(m @ (a * b) for m, a, b in zip(grid.mu_at, V, w_s)) \
            / grid.rbar
        total += term
        size += abs(term)
        if abs(term) < 1e-13 * abs(total):
            break
    else:
        raise AssertionError("series did not converge")
    vbar = grid.integrate(grid.state_from_observable(v)) / grid.hbar
    wbar = grid.integrate(grid.state_from_observable(w)) / grid.hbar
    pole = vbar * wbar / s
    return ((term0 + total) / grid.hbar - pole,
            (abs(term0) + size) / grid.hbar + abs(pole))


def _max_roof(grid):
    return max(float(np.max(h)) for h in grid.h_at)


@settings(max_examples=20, deadline=None)
@given(cut=st.booleans(), a=st.floats(0.2, 1.0), b=st.floats(-1.0, 1.0),
       v=st.sampled_from(sorted(sp.OBSERVABLES)),
       w=st.sampled_from(sorted(sp.OBSERVABLES)))
def test_laplace_closed_form_is_the_series(small_pm_grid, small_pm_uncut,
                                           cut, a, b, v, w):
    # one solve of I - R_{-s} sums the operator series exactly, on the
    # cut and on the uncut tower, at every Im s the flight rule resolves
    # (b is the fraction of that range)
    grid = small_pm_grid if cut else small_pm_uncut
    b *= FLIGHT_PHASE_MAX / _max_roof(grid)
    v, w, s = sp.OBSERVABLES[v](), sp.OBSERVABLES[w](), complex(a, b)
    ref, scale = _laplace_by_series(grid, v, w, s)
    assert abs(laplace_transform(grid, v, w, s) - ref) <= _SERIES_TOL * scale


@pytest.mark.parametrize("cut", [True, False])
def test_laplace_refuses_unresolved_abscissa(small_pm_grid, small_pm_uncut,
                                             cut):
    # past |Im s| max h = FLIGHT_PHASE_MAX the 16-node flight rule moves
    # the value by more than 1e-10 relative against 64 nodes
    grid = small_pm_grid if cut else small_pm_uncut
    v = sp.trig_flow_observable()
    limit = FLIGHT_PHASE_MAX / _max_roof(grid)
    for b in (limit, -limit):
        assert np.isfinite(laplace_transform(grid, v, v, complex(0.3, b)))
    for b in (1.001 * limit, -1.001 * limit, 10 * limit):
        s = complex(0.3, b)
        with pytest.raises(ArithmeticError, match="not resolved") as err:
            laplace_transform(grid, v, v, s)
        assert f"s={s}" in str(err.value)


def test_laplace_series_check_catches_dropped_climb(small_pm_grid,
                                                    monkeypatch):
    # planted defect: the base system without Mhat (tops of the twisted
    # climb G), the mass that V's upper levels bring back to the base;
    # Mhat g is the one product of laplace_transform through basis.apply
    grid, v, s = small_pm_grid, sp.coordinate_observable(), 0.5 + 3j
    ref, scale = _laplace_by_series(grid, v, v, s)
    assert abs(laplace_transform(grid, v, v, s) - ref) <= _SERIES_TOL * scale
    monkeypatch.setattr(grid.basis, "apply", lambda u: np.zeros_like(u))
    assert abs(laplace_transform(grid, v, v, s) - ref) > _SERIES_TOL * scale


def test_laplace_poles_raise(small_pm_grid, bd):
    # s = 0 is a pole (Mhat 1 = 1), and so is s = 2 pi i under the constant
    # roof 1, even where the coordinate's weighted state v_s vanishes
    v = sp.coordinate_observable()
    with pytest.raises(ArithmeticError, match="pole at s=0"):
        laplace_transform(small_pm_grid, v, v, 0j)
    with pytest.raises(ArithmeticError, match="pole"):
        laplace_transform(TowerGrid(bd, sp.constant_roof(1.0), None), v, v,
                          2j * np.pi)


def test_lu_solves_complex_right_sides_of_a_real_system(bd):
    # I - R is real at b = omega = 0 in the scan and at real s in the
    # transform, and the near-kernel iteration starts from a complex vector
    A = operators.OperatorMatrix(bd, tw=np.full(bd.n, 0.5)).i_minus()
    lu = operators.lu_factor(A)
    A = A.toarray()
    assert np.array_equal(A, np.eye(bd.n) - 0.5 * bd.Mhat)
    rng = np.random.default_rng(3)
    b = rng.standard_normal(bd.n) + 1j * rng.standard_normal(bd.n)
    for trans, M in enumerate((A, A.T, A.conj().T)):
        x = operators.lu_solve(lu, b, trans=trans)
        assert np.max(np.abs(M @ x - b)) <= 1e-13


def test_exactly_singular_system_is_flagged(monkeypatch, bd):
    # I - (cyclic permutation) has an exactly zero pivot, which the sparse
    # LU refuses to factor: the scan flags the point, and the transform
    # reports a pole
    A = csc_matrix(np.eye(bd.n) - np.roll(np.eye(bd.n), 1, axis=0),
                   dtype=complex)
    monkeypatch.setattr(operators, "assemble_twisted",
                        lambda grid, s, z=0.0: SimpleNamespace(
                            i_minus=lambda: A))
    sc = resolvent_scan(bd, sp.cosine_roof(), [9.0], [0.0], C6=2.0,
                        n_random=2)
    assert sc.resonance[0] and sc.norm_estimate[0] == math.inf
    assert math.isnan(sc.residuals[0])
    v = sp.coordinate_observable()
    with pytest.raises(ArithmeticError, match="pole at s=0.5"):
        laplace_transform(TowerGrid(bd, sp.cosine_roof(), None), v, v, 0.5)


def test_b_norms_share_one_probe_set(small_pm_grid):
    # one descent norm per k = 1..min(N, 12); a descent from k >= max_h
    # levels up starts at no cell, so its norm is exactly 0
    from towerlab.transfer.renewal import tower_operator_decomposition
    grid = small_pm_grid
    assert grid.N == grid.max_h == 6
    reps = [tower_operator_decomposition(grid, 0.3 + 2j, 4, n_probes=2,
                                         seed=8) for _ in range(2)]
    b = reps[0].b_norms
    k = np.arange(1, len(b) + 1)
    assert len(b) == min(grid.N, 12)
    assert np.all(b[k >= grid.max_h] == 0.0) and np.any(k >= grid.max_h)
    assert np.all(b[k < grid.max_h] > 0.0)
    assert np.array_equal(b, reps[1].b_norms)


def test_descent_tables_match_level_loop(small_pm_grid):
    # B_{s,k} from the per-k tables equals a level-by-level loop over the
    # columns that start their descent at level r' - k >= 1
    from towerlab.transfer.renewal import _cum_roof, _descent
    grid, s = small_pm_grid, 0.3 + 2j
    cum = _cum_roof(grid)
    B_apply = _descent(grid, cum, s)
    rng = np.random.default_rng(3)
    V = [rng.standard_normal((len(m), 2)) + 1j for m in grid.mu_at]
    flat = np.concatenate(V)
    assert np.array_equal(B_apply(flat, 0), V[0])
    for k in range(1, grid.max_h + 2):
        u = np.zeros((grid.basis.n, 2), dtype=complex)
        for ell in range(1, grid.max_h):
            active = np.nonzero(grid.heights > ell)[0]
            idx = np.nonzero(grid.heights[active] == ell + k)[0]
            leaves = active[idx]
            u[leaves] = np.exp(s * (grid.H_col[leaves] - cum[ell][idx])
                               )[:, None] * V[ell][idx]
        assert np.array_equal(B_apply(flat, k), grid.basis.apply(u))


def test_step_twists_follow_s(small_pm_grid, monkeypatch):
    # the level twists are kept per s: one grid stepped at s1, s2, s1
    # gives what a fresh grid gives at each s
    rng = np.random.default_rng(5)
    V = [rng.standard_normal((len(m), 3)) + 1j * rng.standard_normal(
        (len(m), 3)) for m in small_pm_grid.mu_at]

    def matches_fresh():
        grid = TowerGrid(small_pm_grid.basis, sp.cosine_roof(), 6)
        out = []
        for s in (0.3 + 2j, -0.2 + 5j, 0.3 + 2j):
            fresh = TowerGrid(grid.basis, grid.roof, grid.N)
            out.append(all(np.array_equal(a, b) for a, b
                           in zip(grid.step(V, s), fresh.step(V, s))))
        return out

    assert matches_fresh() == [True, True, True]

    twists = TowerGrid._twists

    def ignores_s(self, s):
        if self._twist is None:
            twists(self, s)
        return self._twist

    monkeypatch.setattr(TowerGrid, "_twists", ignores_s)
    assert matches_fresh() == [True, False, True]


def _step_by_cells(grid, V, s):
    """L_s on explicit (leaf, level) pairs: the cells of level l are the
    leaves of height > l in leaf order.  Each level is twisted whole, then
    every cell moves one level up, or from its column top to the base."""
    n = grid.basis.n
    levels = [[j for j in range(n) if grid.heights[j] > ell]
              for ell in range(grid.max_h)]
    if s is not None and s != 0:
        col = (slice(None),) + (None,) * (V[0].ndim - 1)
        V = [np.exp(s * h)[col] * v for h, v in zip(grid.h_at, V)]
    u = np.zeros((n,) + V[0].shape[1:], dtype=V[0].dtype)
    out = [None] + [np.zeros((len(cells),) + V[0].shape[1:], V[0].dtype)
                    for cells in levels[1:]]
    for ell, cells in enumerate(levels):
        for i, j in enumerate(cells):
            if ell + 1 < grid.heights[j]:
                out[ell + 1][levels[ell + 1].index(j)] = V[ell][i]
            else:
                u[j] = V[ell][i]
    out[0] = grid.basis.apply(u)
    return out


@pytest.mark.parametrize("N", [None, 1, 6, 99])
@pytest.mark.parametrize("s", [None, 0, 0.3, -0.2 + 5j])
def test_step_matches_cell_by_cell(small_pm_grid, N, s):
    # bit for bit, on real and complex states of one and of two columns;
    # the untwisted levels the step returns are views of its input, which
    # it leaves unchanged
    grid = TowerGrid(small_pm_grid.basis, sp.cosine_roof(), N)
    assert N != 99 or grid.max_h == grid.basis.r_col.max() < N
    rng = np.random.default_rng(11)
    for shape in ((), (3,)):
        for cplx in (False, True):
            V = [rng.standard_normal((len(m),) + shape) for m in grid.mu_at]
            if cplx:
                V = [v + 1j * rng.standard_normal(v.shape) for v in V]
            before = [v.copy() for v in V]
            got = grid.step(grid.step(V, s), s)
            want = _step_by_cells(grid, _step_by_cells(grid, before, s), s)
            assert len(got) == len(want) == grid.max_h
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            assert all(np.array_equal(a, b) for a, b in zip(V, before))


class _Handoffs:
    """The module's worker, counting the base products handed to it and
    the threads that ran them; ``tamper`` may change the tops on the way."""

    def __init__(self, tamper=None):
        self.worker, self.tamper = towerop._base_worker(), tamper
        self.count, self.threads = 0, set()

    def submit(self, apply, tops):
        self.count += 1

        def run():
            self.threads.add(threading.get_ident())
            return apply(tops if self.tamper is None else self.tamper(tops))

        return self.worker.submit(run)


def _forced_overlap(monkeypatch, cpus=2, tamper=None) -> _Handoffs:
    """Every twisted step hands off, on ``cpus`` mocked CPUs."""
    monkeypatch.setattr(towerop, "MIN_OVERLAP", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    handoffs = _Handoffs(tamper)
    monkeypatch.setattr(towerop, "_base_worker", lambda: handoffs)
    return handoffs


def _overlap_matches(grid, handoffs, s) -> bool:
    """Whether two overlapped steps equal two cell-by-cell steps bit for
    bit, on real and complex states of one and of three columns, leave
    their input unchanged, and each hand off once, to another thread."""
    rng = np.random.default_rng(17)
    ok = True
    for shape in ((), (1,), (3,)):
        for cplx in (False, True):
            V = [rng.standard_normal((len(m),) + shape) for m in grid.mu_at]
            if cplx:
                V = [v + 1j * rng.standard_normal(v.shape) for v in V]
            before = [v.copy() for v in V]
            count = handoffs.count
            got = grid.step(grid.step(V, s), s)
            want = _step_by_cells(grid, _step_by_cells(grid, before, s), s)
            assert handoffs.count == count + 2
            assert all(np.array_equal(a, b) for a, b in zip(V, before))
            ok &= all(a.dtype == b.dtype and np.array_equal(a, b)
                      for a, b in zip(got, want))
    assert handoffs.threads and threading.get_ident() not in handoffs.threads
    return ok


@pytest.mark.parametrize("s", [0.3, -0.2 + 5j])
def test_overlapped_step_matches_cell_by_cell(small_pm_grid, monkeypatch, s):
    # the base product on the worker thread, the tails on this one, with
    # a 1 us switch interval
    handoffs = _forced_overlap(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert _overlap_matches(small_pm_grid, handoffs, s)
    finally:
        sys.setswitchinterval(interval)
    assert handoffs.count == 12


def test_overlap_defect_fails_the_step_property(small_pm_grid, monkeypatch):
    # planted defect: the handed-off tops lose the last level's head
    last = small_pm_grid.n_top[-1]

    def lose_last_head(tops):
        tops = tops.copy()
        tops[-last:] = 0.0
        return tops

    handoffs = _forced_overlap(monkeypatch, tamper=lose_last_head)
    assert not _overlap_matches(small_pm_grid, handoffs, 0.3)


@pytest.mark.parametrize("cpus, s, min_overlap", [
    (1, 0.3, 0), (1, -0.2 + 5j, 0), (2, None, 0), (2, 0, 0),
    (2, 0.3, 3 * 486)])
def test_step_stays_serial(small_pm_grid, monkeypatch, cpus, s, min_overlap):
    # one CPU, an untwisted step or tail work (485 cells x 3 columns)
    # below MIN_OVERLAP: the product runs on the calling thread
    handoffs = _forced_overlap(monkeypatch, cpus)
    monkeypatch.setattr(towerop, "MIN_OVERLAP", min_overlap)
    grid = small_pm_grid
    assert sum(len(m) for m in grid.mu_at[1:]) == 485
    V = [np.ones((len(m), 3)) for m in grid.mu_at]
    got = grid.step(grid.step(V, s), s)
    want = _step_by_cells(grid, _step_by_cells(grid, V, s), s)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert handoffs.count == 0


def test_concurrent_steps_share_one_worker(small_pm_grid, monkeypatch):
    # three threads on two cores step through the one worker, started
    # lazily by whichever asks first, with a 1 us switch interval
    monkeypatch.setattr(towerop, "MIN_OVERLAP", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(towerop, "_worker", None)
    started = []
    executor = towerop.ThreadPoolExecutor
    monkeypatch.setattr(towerop, "ThreadPoolExecutor",
                        lambda *a, **k: started.append(1) or executor(*a, **k))
    grid = small_pm_grid
    rng = np.random.default_rng(9)
    states = [[rng.standard_normal((len(m), 2)) + 1j for m in grid.mu_at]
              for _ in range(3)]
    want, got = [], [None] * 3
    for V in states:
        for s in (0.3, -0.2 + 5j) * 5:
            V = _step_by_cells(grid, V, s)
        want.append(V)

    def run(i):
        V = states[i]
        for s in (0.3, -0.2 + 5j) * 5:
            V = grid.step(V, s)
        got[i] = V

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert started == [1]
    towerop._worker.shutdown()
    for a, b in zip(got, want):
        assert a is not None
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_forked_child_starts_its_own_worker(small_pm_grid, monkeypatch):
    # a child forked after a step used the worker has no worker thread of
    # its own: its first overlapped step starts one and completes
    monkeypatch.setattr(towerop, "MIN_OVERLAP", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    grid, s = small_pm_grid, -0.2 + 5j
    rng = np.random.default_rng(4)
    V = [rng.standard_normal((len(m), 3)) + 1j for m in grid.mu_at]
    want = grid.step(V, s)
    assert towerop._worker is not None
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)

    def child():
        send.send([towerop._worker is None] + grid.step(V, s))

    proc = ctx.Process(target=child)
    proc.start()
    try:
        assert recv.poll(60), "the forked child's step did not complete"
        fresh, *got = recv.recv()
    finally:
        proc.join(10)
        if proc.is_alive():
            proc.kill()
    assert not proc.is_alive() and proc.exitcode == 0
    assert fresh
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_decomposition_norms_once_per_probe_draw(small_pm_grid, monkeypatch):
    # the norms do not depend on n: one call over several n computes them
    # once, and equals one call per n bit for bit
    from towerlab.transfer import renewal
    calls = []
    b_norms = renewal._b_norms
    monkeypatch.setattr(renewal, "_b_norms",
                        lambda *a: calls.append(1) or b_norms(*a))
    grid, s = small_pm_grid, 0.3 + 2j
    rep = renewal.tower_operator_decomposition(grid, s, (1, 4, 9),
                                               n_probes=2, seed=3)
    assert len(calls) == 1
    for n, res in zip((1, 4, 9), rep.residuals):
        one = renewal.tower_operator_decomposition(grid, s, n, n_probes=2,
                                                   seed=3)
        assert one.residuals.tolist() == [res] and one.n == (n,)
        for field in ("a_norms", "e_norms", "b_norms"):
            assert np.array_equal(getattr(rep, field), getattr(one, field))
    assert len(calls) == 4


@pytest.fixture(scope="module")
def small_doubling_grid():
    basis = CylinderBasis(systems.doubling_induced(), depth=3,
                          refine_symbols=8)
    return TowerGrid(basis, sp.power_singularity_roof(1.0), 8)


@pytest.mark.parametrize("grid", ["small_pm_grid", "small_doubling_grid"])
def test_decomposition_scan_equals_single_calls(grid, request):
    # one pass to the largest n gives each n what a call at that n alone
    # gives, bit for bit, in the order given and with repeats kept
    from towerlab.transfer.renewal import tower_operator_decomposition
    grid = request.getfixturevalue(grid)
    singles = {n: tower_operator_decomposition(grid, 0.1j, n, n_probes=3,
                                               seed=5) for n in (1, 4, 9)}
    for ns in ((1, 4, 9), (9, 1, 9, 4)):
        rep = tower_operator_decomposition(grid, 0.1j, list(ns), n_probes=3,
                                           seed=5)
        assert rep.n == ns
        assert rep.residuals.tolist() == [singles[n].residual for n in ns]
        assert rep.residual == max(rep.residuals)
        for one in singles.values():
            for field in ("a_norms", "e_norms", "b_norms"):
                assert np.array_equal(getattr(rep, field),
                                      getattr(one, field))
            assert rep.vanish_beyond == one.vanish_beyond


def test_decomposition_refuses_negative_n(small_pm_grid):
    from towerlab.transfer.renewal import tower_operator_decomposition
    with pytest.raises(ValueError, match="n = -2"):
        tower_operator_decomposition(small_pm_grid, 0.1j, (3, -2))


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
    # p, eps and q are derived from beta, which must be positive; as beta
    # falls to 0, p grows past what the contour term can hold
    with pytest.raises(ValueError):
        rates.rate_budget(beta=0.0)
    # refused as not finite, with no numpy warning on the way
    with pytest.raises(ArithmeticError), warnings.catch_warnings():
        warnings.simplefilter("error")
        rates.rate_budget(beta=1e-4)


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
