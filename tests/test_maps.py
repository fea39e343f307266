import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from towerlab import maps, systems


@pytest.fixture(scope="module")
def pm05():
    return systems.pm_induced(0.5)


def test_pm_alpha_validation():
    with pytest.raises(ValueError):
        maps.pomeau_manneville(1.0)


def test_branch_tie_goes_right():
    pm = maps.pomeau_manneville(0.5)
    assert pm.branch_index(np.array([0.5]))[0] == 1


def test_doubling_induces_trivially():
    ind = systems.doubling_full()
    assert ind.J == 2
    assert np.all(ind.r == 1)
    assert np.allclose(ind.muY, 0.5)       # Lebesgue
    assert ind.mean_return == pytest.approx(1.0)  # Kac, exact
    assert ind.tail_mass == 0.0


def _preimage_recursion_oracle(alpha, n):
    """xi_n by 200-step bisection of the closed-form left branch."""
    c = 2.0 ** alpha
    xi = [0.5]
    for _ in range(n):
        lo, hi = 0.0, 0.5
        for _ in range(200):
            m = 0.5 * (lo + hi)
            if m * (1 + c * m ** alpha) < xi[-1]:
                lo = m
            else:
                hi = m
        xi.append(0.5 * (lo + hi))
    return xi


def test_pm_cells_follow_preimage_recursion(pm05):
    # forward identity: the left endpoint of the return cell with r = n+1
    # maps under 2x-1 to xi_n, and T_left(xi_{n+1}) = xi_n
    xi = _preimage_recursion_oracle(0.5, 12)
    for n in range(1, 10):
        cell = pm05.cells[n]          # r = n + 1
        assert cell.r == n + 1
        img = 2 * cell.lo - 1
        assert img == pytest.approx(xi[n], abs=1e-12)
    pm = pm05.model
    for n in range(10):
        back = float(pm.branches[0].fwd(np.array([xi[n + 1]]))[0])
        assert back == pytest.approx(xi[n], abs=1e-12)


def test_pm_mu0_tail_matches_oracle(pm05):
    xi = _preimage_recursion_oracle(0.5, 12)
    for n in (2, 5, 10):
        assert pm05.mu0_tail(n) == pytest.approx(xi[n - 1], rel=1e-6)


def test_pm_tail_power_law(pm05):
    fit = maps.fit_tail_exponent(pm05, 100, 10_000)
    assert not fit.exponential_flag
    assert 1.85 <= fit.exponent <= 2.15


@pytest.mark.parametrize("alpha,lo,hi", [(0.6, 1.517, 1.817),
                                         (0.8, 1.15, 1.35)])
def test_tail_exponent_other_alphas(alpha, lo, hi):
    ind = systems.pm_induced(alpha)
    fit = maps.fit_tail_exponent(ind, 100, 10_000)
    assert lo <= fit.exponent <= hi


def test_doubling_exponential_tail_flag():
    fit = maps.fit_tail_exponent(systems.doubling_full(), 2, 8)
    assert fit.exponential_flag


def test_return_time_tail_monotone(pm05):
    vals = [maps.return_time_tail(pm05, n).total for n in range(1, 60)]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def test_return_time_tail_split(pm05):
    tv = maps.return_time_tail(pm05, 10)
    assert tv.total == pytest.approx(tv.raw + tv.extrapolated)
    assert tv.raw == pytest.approx(float(pm05.muY[pm05.r > 10].sum()))


def test_mass_normalisation(pm05):
    assert pm05.muY.sum() + pm05.tail_mass == pytest.approx(1.0, abs=1e-10)


def test_bijectivity_endpoints(pm05):
    assert pm05.check_bijectivity() <= 1e-9


def test_expansion_condition(pm05):
    assert pm05.check_expansion() >= pm05.model.expansion - 1e-9


def test_backward_lipschitz(pm05):
    assert pm05.check_backward_lipschitz() <= pm05.model.dist_const


def _per_cell_checks(ind, rng_e, rng_b):
    """check_expansion and check_backward_lipschitz, one cell at a time."""
    expansion = np.inf
    for j in range(ind.J):
        x = rng_e.uniform(ind.lo[j], ind.hi[j], 20)
        y = rng_e.uniform(ind.lo[j], ind.hi[j], 20)
        keep = np.abs(x - y) > 1e-13
        if np.any(keep):
            ratio = np.abs(ind.F(j, x[keep]) - ind.F(j, y[keep])) \
                / np.abs(x[keep] - y[keep])
            expansion = min(expansion, float(ratio.min()))
    lipschitz = 0.0
    for j in range(ind.J):
        x = rng_b.uniform(ind.lo[j], ind.hi[j], 10)
        y = rng_b.uniform(ind.lo[j], ind.hi[j], 10)
        d_end = np.abs(ind.F(j, x) - ind.F(j, y))
        keep = d_end > 1e-13
        cx, cy, d_end = x[keep], y[keep], d_end[keep]
        for _ in range(int(ind.r[j])):
            if len(cx):
                lipschitz = max(lipschitz, float((np.abs(cx - cy) / d_end).max()))
            cx, cy = ind.model.apply(cx), ind.model.apply(cy)
    return expansion, lipschitz


@pytest.mark.parametrize("which", ["pm0.5-J60", "pm0.6-J60", "doubling"])
def test_cell_checks_match_per_cell_loop(which):
    ind = {"pm0.5-J60": lambda: systems.pm_induced(0.5, 60, 3000),
           "pm0.6-J60": lambda: systems.pm_induced(0.6, 60, 3000),
           "doubling": systems.doubling_induced}[which]()
    for seed in (0, 5):
        want = _per_cell_checks(ind, np.random.default_rng(seed),
                                np.random.default_rng(seed + 1))
        got = (ind.check_expansion(rng=np.random.default_rng(seed)),
               ind.check_backward_lipschitz(rng=np.random.default_rng(seed + 1)))
        assert got == want


def test_distortion_fitted_below_declared(pm05):
    assert pm05.check_distortion() <= pm05.model.dist_const


def test_invariant_measure_stationary(pm05):
    P = pm05.transition_kernel()
    assert np.max(np.abs(pm05.muY @ P - pm05.muY)) <= 1e-13


def test_gibbs_weight_is_inverse_jacobian(pm05):
    x = np.array([0.6, 0.8, 0.95])
    for j in (0, 3, 7):
        y = pm05.F_inverse(j, x)
        assert np.allclose(pm05.F(j, y), x, atol=1e-10)
    # F' of the inverse chain (1/g_j, used by transition_kernel and
    # check_distortion) against the product of T' along each forward orbit
    js, y, deriv = (np.array(a) for a in zip(*pm05.inverse_chain(x)))
    assert sorted(js) == list(range(pm05.J))
    steps = np.broadcast_to(pm05.r[js][:, None], y.shape)
    fwd, cur = np.ones_like(y), y.copy()
    for ell in range(int(steps.max())):
        act = steps > ell
        fwd[act] *= pm05.model.apply_deriv(cur[act])
        cur[act] = pm05.model.apply(cur[act])
    assert np.allclose(deriv, fwd, rtol=1e-8, atol=0.0)


def _roof_like(p):
    return 2.0 + np.cos(2.0 * np.pi * p)


@settings(max_examples=60, deadline=None)
@given(alpha=st.none() | st.floats(0.05, 0.95),
       seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 25),
       top=st.integers(0, 40))
@example(alpha=0.5, seed=0, n=1, top=0)
@example(alpha=None, seed=1, n=1, top=40)
def test_advance_and_orbit_sum_match_pointwise_loop(alpha, seed, n, top):
    model = maps.doubling_map() if alpha is None \
        else maps.pomeau_manneville(alpha)
    rng = np.random.default_rng(seed)
    x = rng.random(n)
    steps = rng.integers(0, top + 1, n)
    ends, sums = np.empty(n), np.empty(n)
    for i in range(n):
        cur, tot = x[i:i + 1], 0.0
        for _ in range(int(steps[i])):
            tot += _roof_like(cur)[0]
            cur = model.apply(cur)
        ends[i], sums[i] = cur[0], tot
    assert np.array_equal(model.advance(x, steps), ends)
    assert np.array_equal(model.orbit_sum(x, steps, _roof_like), sums)
    zeros = np.zeros(n, dtype=int)
    assert np.array_equal(model.advance(x, zeros), x)
    assert np.array_equal(model.orbit_sum(x, zeros, _roof_like), np.zeros(n))


def test_doubling_induced_exact_dyadics():
    ind = systems.doubling_induced()
    assert np.allclose(ind.muY[:5], [2.0 ** -(k + 1) for k in range(5)],
                       atol=1e-12)
    assert ind.mean_return + ind.mean_return_tail == pytest.approx(2.0,
                                                                   abs=1e-9)
    assert ind.mu0_tail(3) == pytest.approx(0.125, abs=1e-12)


def _reference_sweep(model, Y, branch_cutoff, tail_horizon):
    """The first-return sweep written plainly: full words at every depth,
    the branch by searchsorted, both endpoints inverted at every depth."""
    a, b = Y
    cells, width = [], np.zeros(tail_horizon + 2)

    def record(word, pa, pb):
        w0 = model.branches[word[0]]
        clo = float(w0.inv(np.array([pa]))[0])
        chi = float(w0.inv(np.array([pb]))[0])
        width[min(len(word), tail_horizon + 1)] += chi - clo
        if len(word) <= branch_cutoff and len(cells) < branch_cutoff \
                and chi - clo > max(4e-16 * abs(chi), 1e-300):
            cells.append((word, len(word), clo, chi))

    pieces = []
    for j, br in enumerate(model.branches):
        s_lo, s_hi = max(a, br.lo), min(b, br.hi)
        if s_hi <= s_lo:
            continue
        t_lo = float(br.fwd(np.array([s_lo]))[0])
        t_hi = float(br.fwd(np.array([s_hi]))[0])
        if t_hi <= a + 1e-12 or t_lo >= b - 1e-12:
            pieces.append(((j,), t_lo, t_hi, a, b))
            continue
        record((j,), a, b)
        if t_lo < a - 1e-12:
            pieces.append(((j,), t_lo, a, a, b))
        if t_hi > b + 1e-12:
            pieces.append(((j,), b, t_hi, a, b))
    ladder = [a] if len(pieces) == 1 else None
    depth = 1
    while pieces and depth < tail_horizon:
        depth += 1
        if len(pieces) != 1:
            ladder = None
        nxt = []
        for word, ilo, ihi, pa, pb in pieces:
            if ihi - ilo <= 1e-300:
                continue
            js = int(model.branch_index(np.array([ilo]))[0])
            br = model.branches[js]
            t_lo, t_hi = float(br.fwd(ilo)), float(br.fwd(min(ihi, br.hi)))
            pa2 = maps._invert_warm(br, pa, pa)
            pb2 = maps._invert_warm(br, pb, pb)
            word = word + (js,)
            if t_hi <= a + 1e-12 or t_lo >= b - 1e-12:
                nxt.append((word, t_lo, t_hi, pa2, pb2))
                continue
            record(word, pa2, pb2)
            if ladder is not None:
                ladder.append(pa2)
            if t_lo < a - 1e-12:
                nxt.append((word, t_lo, a, pa2, pb2))
            if t_hi > b + 1e-12:
                nxt.append((word, b, t_hi, pa2, pb2))
        pieces = nxt
    cells.sort(key=lambda c: (c[1], c[2]))
    return cells, width[1:tail_horizon + 1], ladder


# every (map, Y, cutoff, horizon) that the suite and the CLI tests induce
SWEEPS = [
    ("pm", 0.5, (0.5, 1.0), 400, 12000),
    ("pm", 0.5, (0.5, 1.0), 200, 12000),
    ("pm", 0.5, (0.5, 1.0), 120, 3000),
    ("pm", 0.5, (0.5, 1.0), 60, 3000),
    ("pm", 0.5, (0.5, 1.0), 60, 2000),
    ("pm", 0.6, (0.5, 1.0), 400, 12000),
    ("pm", 0.8, (0.5, 1.0), 400, 12000),
    ("doubling", None, (0.0, 1.0), 4, 16),
    ("doubling", None, (0.5, 1.0), 40, 1200),
    ("doubling", None, (0.5, 1.0), 30, 600),
]


def _induced(kind, alpha, Y, J, H):
    if kind == "pm" and Y == (0.5, 1.0):
        return systems.pm_induced(alpha, J, H)      # shared with the suite
    if (kind, Y, J, H) == ("doubling", (0.0, 1.0), 4, 16):
        return systems.doubling_full()
    if (kind, Y) == ("doubling", (0.5, 1.0)):
        return systems.doubling_induced(J, H)
    raise AssertionError("unlisted sweep")


@pytest.mark.parametrize("kind,alpha,Y,J,H", SWEEPS, ids=[
    f"{k}{'' if al is None else al}-Y{y[0]}-J{j}-H{h}"
    for k, al, y, j, h in SWEEPS])
def test_induce_matches_reference_sweep(kind, alpha, Y, J, H):
    ind = _induced(kind, alpha, Y, J, H)
    cells, width, ladder = _reference_sweep(ind.model, Y, J, H)
    assert [(c.word, c.r, c.lo, c.hi) for c in ind.cells] == cells
    assert ind._mu0_r_width.tobytes() == width.tobytes()
    if ladder is None:
        assert ind._ladder is None
    else:
        assert ind._ladder.tobytes() == np.array(ladder).tobytes()


def test_induce_solves_once_per_depth(monkeypatch):
    # the memo of the previous depth's inversions keeps the sweep linear:
    # only the first depth solves both endpoints
    calls = []
    solve = maps._invert_warm

    def counted(br, y, x0):
        calls.append(y)
        return solve(br, y, x0)

    monkeypatch.setattr(maps, "_invert_warm", counted)
    H = 2000
    maps.induce(maps.pomeau_manneville(0.5), (0.5, 1.0), 400, H)
    assert len(calls) <= (H - 1) + 1


def test_fixed_point_iterations_kept(pm05):
    for ind in (pm05, systems.doubling_induced(), systems.doubling_full()):
        assert 1 <= ind.fixed_point_iterations <= 4000
        assert ind.fixed_point_residual <= 1e-12


def test_induce_rejects_bad_base():
    with pytest.raises(ValueError):
        maps.induce(maps.doubling_map(), (0.3, 0.9))


def test_induced_csv_roundtrip(tmp_path, pm05):
    path = tmp_path / "cells.csv"
    pm05.to_csv(path)
    rows = path.read_text().strip().split("\n")
    assert rows[0] == "j,r,lo,hi,muY"
    assert len(rows) == pm05.J + 1
