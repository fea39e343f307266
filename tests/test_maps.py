import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from towerlab import cli, maps, systems


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


def _bisection_inverse(f, df, y, lo, hi):
    """The inverse branch by 46 bisection steps and 3 Newton steps, as
    maps._solve_increasing must reproduce it bit for bit."""
    y = np.asarray(y, dtype=float)
    a = np.full_like(y, lo)
    b = np.full_like(y, hi)
    for _ in range(46):
        mid = 0.5 * (a + b)
        take_hi = f(mid) < y
        a = np.where(take_hi, mid, a)
        b = np.where(take_hi, b, mid)
    x = 0.5 * (a + b)
    for _ in range(3):
        x = np.clip(x - (f(x) - y) / df(x), lo, hi)
    return x


INVERSE_EDGES = [0.0, 5e-324, 1.0, 1.0 + 1e-12, math.nan]  # 1.0 = L(1/2)


def _inverse_mismatches(solve, alpha, seed):
    """Points where ``solve`` differs from the bisection on the left branch
    of pm(alpha): y uniform on [0, 1], log-uniform down to 1e-300, images
    of bisection grid points (where the bracket is decided by f(a) < y
    alone) and the edges."""
    br = maps.pomeau_manneville(alpha).branches[0]
    rng = np.random.default_rng(seed)
    grid = rng.integers(0, 2 ** 46, 500) * 2.0 ** -47
    y = np.concatenate([rng.random(500), 10.0 ** rng.uniform(-300, 0, 500),
                        br.fwd(grid), INVERSE_EDGES])
    want = _bisection_inverse(br.fwd, br.deriv, y, 0.0, 0.5)
    got = solve(br.fwd, br.deriv, y, 0.0, 0.5)
    return int(((got != want) & ~(np.isnan(got) & np.isnan(want))).sum())


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(0.05, 0.99), seed=st.integers(0, 2 ** 32 - 1))
@example(alpha=0.05, seed=0)
@example(alpha=0.99, seed=0)
def test_inverse_branch_is_the_bisection(alpha, seed):
    assert _inverse_mismatches(maps._solve_increasing, alpha, seed) == 0
    br = maps.pomeau_manneville(alpha).branches[0]
    y = np.array(INVERSE_EDGES)
    assert np.array_equal(
        br.inv(y), _bisection_inverse(br.fwd, br.deriv, y, 0.0, 0.5),
        equal_nan=True)


@pytest.mark.parametrize("alpha", [0.05, 0.5, 0.99])
def test_inverse_chain_is_the_bisection(alpha):
    # 400 pullbacks through the left branch, as InducedMap.inverse_chain
    # takes base midpoints up the escape ladder
    br = maps.pomeau_manneville(alpha).branches[0]
    want = got = 0.5 + (np.arange(200) + 0.5) / 400
    for _ in range(400):
        want = _bisection_inverse(br.fwd, br.deriv, want, 0.0, 0.5)
        got = br.inv(got)
        assert np.array_equal(got, want)


def _planted_solver(old, new):
    src = inspect.getsource(maps._solve_increasing)
    assert src.count(old) == 1
    scope = dict(vars(maps))
    exec(src.replace(old, new), scope)
    return scope["_solve_increasing"]


@pytest.mark.parametrize("old,new", [
    # k off by one: the polish starts in the next bracket up
    ("x = 0.5 * (a + b)\n", "x = 0.5 * (a + b) + h\n"),
    # the bracket check skipped: Newton's k is taken as it is
    ("if not (down.any() or up.any()):", "if True:"),
], ids=["k-off-by-one", "bracket-check-skipped"])
def test_inverse_property_catches_planted_defects(old, new):
    solve = _planted_solver(old, new)
    for alpha in (0.05, 0.5, 0.99):
        assert _inverse_mismatches(solve, alpha, seed=0) > 0


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


def _ladder_account(ind, n):
    """mu_Y(r > n) term by term: the represented cells, the ladder columns
    of ``tail_columns`` and the remainder past the tail horizon."""
    tail = ind.tail_ge
    rs, col_mu, _, _ = ind.tail_columns()
    rest = ind._edge_rho * ind._mu0_remainder / (ind.Y[1] - ind.Y[0])
    return float(tail[min(n + 1, len(tail) - 1)]) + math.fsum(col_mu[rs > n]) \
        + rest


@pytest.mark.parametrize("build", [
    lambda: systems.pm_induced(0.5),
    lambda: systems.pm_induced(0.6),
    lambda: systems.doubling_induced(),
    lambda: maps.induce(maps.doubling_map(), (0.5, 1.0), 30, 600),
], ids=["pm0.5", "pm0.6", "doubling-J40-H1200", "doubling-J30-H600"])
def test_return_time_tail_is_the_ladder_account(build):
    # past the cell cutoff the tail is measured on the escape ladder, not
    # extrapolated by a declared power: on the doubling map the declared
    # beta = 1 read 5.2e-10 at n = 40 (J 30) against the exact 2^-40
    ind = build()
    rmax, H = int(ind.r.max()), ind.tail_horizon
    for n in (rmax, rmax + 1, 2 * rmax, H // 2, H - 1):
        tv = maps.return_time_tail(ind, n)
        want = _ladder_account(ind, n)
        assert tv.total == pytest.approx(want, rel=1e-12, abs=0.0)
        assert (tv.raw, tv.extrapolated) == (0.0, tv.total)
    # below the cutoff the ladder's part is the whole tail mass
    assert maps.return_time_tail(ind, rmax - 1).extrapolated == \
        pytest.approx(ind.tail_mass, rel=1e-15)


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

    def pointwise(steps):
        ends, sums = np.empty(n), np.empty(n)
        for i in range(n):
            cur, tot = x[i:i + 1], 0.0
            for _ in range(int(steps[i])):
                tot += _roof_like(cur)[0]
                cur = model.apply(cur)
            ends[i], sums[i] = cur[0], tot
        return ends, sums

    steps = rng.integers(0, top + 1, n)
    ends, sums = pointwise(steps)
    assert np.array_equal(model.advance(x, steps), ends)
    assert np.array_equal(model.orbit_sum(x, steps, _roof_like), sums)
    # one count for all points
    ends, sums = pointwise(np.full(n, top))
    assert np.array_equal(model.advance(x, top), ends)
    assert np.array_equal(model.orbit_sum(x, top, _roof_like), sums)
    zeros = np.zeros(n, dtype=int)
    assert np.array_equal(model.advance(x, zeros), x)
    assert np.array_equal(model.orbit_sum(x, zeros, _roof_like), np.zeros(n))


def test_doubling_induced_exact_dyadics():
    ind = systems.doubling_induced()
    assert np.allclose(ind.muY[:5], [2.0 ** -(k + 1) for k in range(5)],
                       atol=1e-12)
    # Kac: 1 + sum_{n < H} mu_Y(r > n) = E[min(r, H)] = 1/mu(Y) = 2, the
    # tail past the cell cutoff read from the escape ladder
    kac = 1.0 + math.fsum(maps.return_time_tail(ind, n).total
                          for n in range(1, ind.tail_horizon))
    assert kac == pytest.approx(2.0, abs=1e-12)
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
    ("pm", 0.5, (0.0, 0.5), 120, 3000),
    ("doubling", None, (0.0, 0.5), 30, 600),
    ("pm", 0.5, (0.0, 1.0), 120, 3000),
]


def _induced(kind, alpha, Y, J, H):
    if kind == "pm" and Y == (0.5, 1.0):
        return systems.pm_induced(alpha, J, H)      # shared with the suite
    if (kind, Y, J, H) == ("doubling", (0.0, 1.0), 4, 16):
        return systems.doubling_full()
    if (kind, Y) == ("doubling", (0.5, 1.0)):
        return systems.doubling_induced(J, H)
    model = maps.doubling_map() if kind == "doubling" \
        else maps.pomeau_manneville(alpha)
    return maps.induce(model, Y, J, H)


def _sweep_id(sweep):
    k, al, y, j, h = sweep
    return f"{k}{'' if al is None else al}-Y{y[0]}-J{j}-H{h}"


@pytest.mark.parametrize("kind,alpha,Y,J,H", SWEEPS,
                         ids=[_sweep_id(s) for s in SWEEPS])
def test_induce_matches_reference_sweep(kind, alpha, Y, J, H):
    ind = _induced(kind, alpha, Y, J, H)
    cells, width, ladder = _reference_sweep(ind.model, Y, J, H)
    assert [(c.word, c.r, c.lo, c.hi) for c in ind.cells] == cells
    assert ind._mu0_r_width.tobytes() == width.tobytes()
    # the reference ladder holds the lower end of each depth's interval:
    # min(o[d], o[d+1]) along the escape orbit o
    o = ind.orbit
    if ladder is None:
        assert ind.escape is None and o.tolist() == list(Y)
    else:
        assert np.minimum(o[:-1], o[1:]).tobytes() == \
            np.array(ladder).tobytes()


def _entry_time(model, Y, x, top):
    """Smallest k <= top with T^k x in [Y[0], Y[1]), point by point (-1 if
    there is none)."""
    out = np.full(x.shape, -1)
    for k in range(top + 1):
        out[(out < 0) & (Y[0] <= x) & (x < Y[1])] = k
        x = model.apply(x)
    return out


ESCAPES = [s for s in SWEEPS if s[2] != (0.0, 1.0)]


@pytest.mark.parametrize("kind,alpha,Y,J,H", ESCAPES,
                         ids=[_sweep_id(s) for s in ESCAPES])
def test_tail_ladder_in_both_orientations(kind, alpha, Y, J, H):
    # T^l of the midpoint of Y_r lies in the depth r - l interval, which
    # is where tail_columns puts ladder_mid[r - l]: both enter Y after
    # exactly r - l steps.  Tail column r's base point returns at r,
    # checked where the cutoff J, not the double-precision resolution of
    # the cells (pm on [0, 1/2] stops at r = 50), ends the cells.
    ind = _induced(kind, alpha, Y, J, H)
    rs, _, base_mid, ladder_mid = ind.tail_columns()
    depth = np.arange(1, 13)
    assert np.array_equal(
        _entry_time(ind.model, Y, ladder_mid[depth], 12), depth)
    for j in range(1, 8):
        r = int(ind.r[j])
        steps = np.arange(1, r)
        pts = ind.model.advance(np.full(r - 1, ind.midpoints()[j]), steps)
        assert np.array_equal(_entry_time(ind.model, Y, pts, r), r - steps)
    if ind.r.max() == J:
        top, back = rs[:6], ind.model.apply(base_mid[:6])
        assert np.array_equal(
            1 + _entry_time(ind.model, Y, back, int(top.max())), top)


def test_induce_refuses_an_escape_region_of_two_branches():
    # x -> 3x mod 1 on [1/3, 2/3]: the region outside Y is two branches
    model = maps.MapModel("tripling", tuple(
        maps.Branch(k / 3, (k + 1) / 3,
                    lambda x, k=k: 3.0 * np.asarray(x, dtype=float) - k,
                    lambda y, k=k: (np.asarray(y, dtype=float) + k) / 3.0,
                    lambda x: np.full_like(np.asarray(x, dtype=float), 3.0))
        for k in range(3)), dist_const=1.0, expansion=3.0)
    assert maps.induce(model, (0.0, 1.0), 4, 16).J == 3
    with pytest.raises(ValueError, match="one branch"):
        maps.induce(model, (1 / 3, 2 / 3), 4, 16)


def test_induced_map_refuses_cells_out_of_order_of_r(pm05):
    # inverse_chain pulls back along the orbit and the tower levels are
    # suffixes of the cell order: both need r to never fall
    with pytest.raises(ValueError, match="order of return time"):
        maps.InducedMap(pm05.model, pm05.Y, pm05.cells[::-1],
                        pm05._mu0_r_width, pm05.orbit, pm05.escape)


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
    with pytest.raises(ValueError, match="tail horizon 0"):
        maps.induce(maps.doubling_map(), (0.5, 1.0), 30, 0)


def test_induced_csv_roundtrip(tmp_path, pm05):
    # the CLI's defaults for [map] kind = pm are pm05's parameters
    cfg = tmp_path / "pm.ini"
    cfg.write_text("[map]\nkind = pm\n")
    assert cli.main(["induce", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "cells.csv").read_text().strip().split("\n")
    assert rows[0] == "j,r,lo,hi,muY"
    assert len(rows) == pm05.J + 1
