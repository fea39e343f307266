import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st, target

from towerlab import maps, systems, suspension as sp, periodic as per


@pytest.fixture(scope="module")
def doubling_sub():
    return per.FiniteSubsystem(systems.doubling_full(), (0, 1))


@pytest.fixture(scope="module")
def pm_sub():
    return per.FiniteSubsystem(systems.pm_induced(0.5), (0, 1))


def test_doubling_fixed_points(doubling_sub):
    ts = per.enumerate_periodic(doubling_sub, 2)
    by_word = {t.word: t for t in ts}
    assert by_word[(0,)].point == pytest.approx(0.0, abs=1e-12)
    assert by_word[(1,)].point == pytest.approx(1.0, abs=1e-12)
    two = by_word[(0, 1)]
    assert two.q == 2 and two.d == 2
    assert two.point == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_constant_roof_periods(doubling_sub):
    ts = per.enumerate_periodic(doubling_sub, 3, roof=sp.constant_roof(2.5))
    assert all(t.tau == pytest.approx(2.5 * t.d, abs=1e-9) for t in ts)


def test_necklace_count_matches_burnside(pm_sub):
    ts = per.enumerate_periodic(pm_sub, 3)
    want = sum(per.primitive_necklace_count(2, q) for q in (1, 2, 3))
    assert len(ts) == want == 5


def test_triple_identities(pm_sub):
    roof = sp.cosine_roof()
    for t in per.enumerate_periodic(pm_sub, 3, roof=roof):
        d_defect, tau_defect = per.verify_triple(pm_sub, t, roof)
        assert d_defect == 0
        assert tau_defect <= 1e-9
        ind = pm_sub.ind
        assert t.d == int(sum(ind.r[list(t.word)]))
        assert t.tau >= t.d * roof.inf_floor - 1e-9


def test_rotated_words_same_triple(pm_sub):
    roof = sp.cosine_roof()
    ts = per.enumerate_periodic(pm_sub, 3, roof=roof)
    words = {t.word for t in ts}
    for t in ts:
        for i in range(1, t.q):
            rot = t.word[i:] + t.word[:i]
            assert rot not in words or rot == t.word


def test_enumeration_size_guard(pm_sub):
    with pytest.raises(ValueError):
        per.enumerate_periodic(per.FiniteSubsystem(pm_sub.ind,
                                                   tuple(range(10))), 7)


def test_eigenfunction_search_refuses_unsettled_cycle_points():
    # pm on Y = (0, 1) holds the indifferent point, so the composed inverse
    # branches need not contract: the search ran a fixed 120 rounds and
    # reported residual 1.66 from points that never settled
    sub = per.FiniteSubsystem(
        maps.induce(maps.pomeau_manneville(0.5), (0.0, 1.0), 120, 3000), (0, 1))
    with pytest.raises(ArithmeticError, match="contraction failed"):
        per.approx_eigenfunction_search(sub, sp.cosine_roof(), [2.0], [0.0])


def test_alignment_constant_roof_passes(doubling_sub):
    ts = per.enumerate_periodic(doubling_sub, 3, roof=sp.constant_roof(1.0))
    rep = per.diophantine_check(ts, [2 * math.pi], [0.0], alpha=4.0, C=1.0)
    assert rep.rows[0].passes
    assert rep.rows[0].worst <= 1e-6


def test_alignment_generic_roof_fails(doubling_sub):
    rng = np.random.default_rng(5)
    rows_passing = 0
    for trial in range(10):
        taus = 1.0 + rng.random(4) * 3.0
        trip = [per.PeriodicTriple(word=(i,), point=0.0, q=1, d=1,
                                   tau=float(taus[i])) for i in range(4)]
        rep = per.diophantine_check(trip, np.linspace(10, 1000, 12), [0.0],
                                    alpha=2.0, C=1.0)
        rows_passing += len(rep.passing)
    assert rows_passing == 0


def test_alignment_single_orbit_degenerate(doubling_sub):
    one = [per.PeriodicTriple(word=(0,), point=0.0, q=1, d=1, tau=1.37)]
    rep = per.diophantine_check(one, [25.0], [0.0], alpha=2.0, C=1.0)
    assert rep.degenerate
    assert rep.rows[0].passes  # one phase equation is always solvable


def test_alignment_monotone_in_C_and_alpha(doubling_sub):
    ts = per.enumerate_periodic(doubling_sub, 3, roof=sp.cosine_roof())
    grid = np.linspace(5, 60, 14)
    sizes = []
    for C, alpha in ((10.0, 1.0), (1.0, 1.0), (1.0, 2.0)):
        rep = per.diophantine_check(ts, grid, [0.0], alpha=alpha, C=C)
        sizes.append(len(rep.passing))
    assert sizes[0] >= sizes[1] >= sizes[2]


def test_eigenfunction_constant_roof_unimodular(doubling_sub):
    lattice = [2 * math.pi, 6 * math.pi]
    rep = per.approx_eigenfunction_search(doubling_sub,
                                          sp.constant_roof(1.0),
                                          lattice, [0.0])
    for r in rep:
        assert r.residual <= 1e-9
        assert min(abs(r.phi), abs(r.phi - 2 * math.pi)) <= 1e-6


def test_eigenfunction_constant_roof_all_b_degenerate(doubling_sub):
    # constant roof: tau proportional to d makes every frequency align
    rep = per.approx_eigenfunction_search(doubling_sub,
                                          sp.constant_roof(1.0),
                                          [7.3, 19.1], [0.0])
    assert all(r.residual <= 1e-9 for r in rep)


def test_eigenfunction_cosine_roof_bounded_away(doubling_sub):
    rep = per.approx_eigenfunction_search(doubling_sub, sp.cosine_roof(),
                                          np.arange(10.0, 201.0, 20.0),
                                          [0.0], alpha=2.0)
    assert min(r.scaled for r in rep) > 1.0


def test_eigenfunction_oracle_small_depth(doubling_sub):
    """Exhaustive minimisation oracle at depth 1 on the cycle structure."""
    roof = sp.cosine_roof()
    b, om = 17.0, 0.0
    rep = per.approx_eigenfunction_search(doubling_sub, roof, [b], [om],
                                          depth=1)
    got = rep[0].residual
    # oracle: depth-1 states are the two fixed-point symbols; M^n is a
    # diagonal map u_i -> W_i u_i, so the optimum balances the two phase
    # defects: residual = max_i |e^{i theta_i} - e^{i phi}| minimised in phi
    ind = doubling_sub.ind
    n = max(1, int(math.log(b)))
    thetas = []
    for i in (0, 1):
        x = 0.0 if i == 0 else 1.0
        tot = 0.0
        cur = x
        for _ in range(n):
            tot += float(roof(np.array([cur]))[0])
            cur = float(ind.model.apply(np.array([cur]))[0])
        thetas.append(-b * tot)
    phis = np.linspace(0, 2 * np.pi, 200_001)
    best = np.min(np.max(np.abs(np.exp(1j * np.asarray(thetas))[:, None]
                                - np.exp(1j * phis)[None, :]), axis=0))
    assert got == pytest.approx(best, abs=1e-4)


def test_alignment_implies_small_residual(doubling_sub):
    """Consistency: aligned frequencies have small eigenfunction residual."""
    roof = sp.constant_roof(1.0)
    ts = per.enumerate_periodic(doubling_sub, 3, roof=roof)
    grid = [2 * math.pi, 4 * math.pi, 9.0]
    dio = per.diophantine_check(ts, grid, [0.0], alpha=2.0, C=1.0)
    eig = per.approx_eigenfunction_search(doubling_sub, roof, grid, [0.0],
                                          alpha=2.0)
    for drow, erow in zip(dio.rows, eig):
        if drow.passes:
            assert erow.residual <= 1e-6


def test_eigenfunction_reads_return_times_from_the_words(monkeypatch,
                                                        pm_sub):
    # a cycle point exactly at Y's right end, here the exact fixed point 1 of
    # the word (0,) on pm, lies in no cell (cell_of gives -1); its return
    # time is that of the word's first symbol, r[0] = 1, not r[-1]
    ind, roof = pm_sub.ind, sp.cosine_roof()
    assert ind.cell_of(np.array([1.0]))[0] == -1 and ind.r[0] != ind.r[-1]
    inner = per._cycle_point
    monkeypatch.setattr(per, "_cycle_point", lambda ind, w: 1.0
                        if set(w) == {0} else inner(ind, w))
    fixed = per.enumerate_periodic(pm_sub, 1, roof)    # the words (0,), (1,)
    assert [(t.word, t.d) for t in fixed] == [((0,), 1), ((1,), ind.r[1])]
    for b, om in ((3.0, 0.5), (9.0, 0.0), (40.0, 0.5)):
        n = max(1, int(math.log(b)))
        c = [-n * (b * t.tau + om * t.d) for t in fixed]
        # two fixed words: phi halves the distance between their phases
        want = 2.0 * math.sin(per._dist_mod_2pi(c[0] - c[1]) / 4.0)
        row, = per.approx_eigenfunction_search(pm_sub, roof, [b], [om],
                                               depth=1)
        assert row.residual == pytest.approx(want, abs=1e-12)


# -- the eigenfunction residual is the exact minimum over u -------------------

SYSTEMS = ("doubling", "pm05")


@functools.lru_cache(maxsize=None)
def _subsystem(system):
    ind = systems.doubling_full() if system == "doubling" \
        else systems.pm_induced(0.5)
    return per.FiniteSubsystem(ind, (0, 1))


@functools.lru_cache(maxsize=None)
def _weighted_shift(system, depth, b):
    """M^n on the depth-``depth`` words of a subsystem with the cosine roof
    (omega 0), built by walking each word's cycle point through n return
    blocks of the base map, one point at a time: M^n u = W * u[image]."""
    sub = _subsystem(system)
    ind, roof = sub.ind, sp.cosine_roof()
    words = list(itertools.product(sub.symbols, repeat=depth))
    n = max(1, int(math.log(b)))
    phase = np.zeros(len(words))
    for i, w in enumerate(words):
        for k in range(n):
            rot = w[k % depth:] + w[:k % depth]
            x = per._cycle_point(ind, rot)
            for _ in range(int(ind.r[rot[0]])):
                phase[i] += b * float(roof(np.array([x]))[0])
                x = float(ind.model.apply(np.array([x]))[0])
    image = [words.index(w[n % depth:] + w[:n % depth]) for w in words]
    return np.exp(-1j * phase), np.array(image)


def _sup_residual(W, image, u, phi):
    """sup_k |M^n u - e^{i phi} u|."""
    return float(np.max(np.abs(W * u[image] - np.exp(1j * phi) * u)))


def _brute_force_residual(W, image, grid):
    """min of sup |M^n u - e^{i phi} u| over u with u_0 = 1 (the residual
    ignores a common phase) and every other phase on a ``grid``-point grid,
    each u at its best phi: the middle of the shortest arc that holds every
    (M^n u)_k / u_k, whose half-length a gives the sup 2 sin(a / 2)."""
    S = len(W)
    grid_u = np.exp(2j * np.pi * np.arange(grid) / grid)
    u = np.ones((grid ** (S - 1), S), dtype=complex)
    u[:, 1:] = np.array(list(itertools.product(grid_u, repeat=S - 1)))
    ang = np.sort(np.angle(W * u[:, image] * np.conj(u)), axis=1)
    gaps = np.diff(np.concatenate([ang, ang[:, :1] + 2 * np.pi], axis=1),
                   axis=1)
    return float(np.min(2 * np.sin((2 * np.pi - gaps.max(axis=1)) / 4)))


def _residual(system, depth, b):
    return per.approx_eigenfunction_search(
        _subsystem(system), sp.cosine_roof(), [b], [0.0], depth=depth)[0]


BRUTE_GRID = 64
BRUTE_B = (3.0, 5.0, 9.0, 17.0, 25.0, 40.0)   # n = 1, 1, 2, 2, 3, 3


def _check_against_brute_force(system, depth):
    for b in BRUTE_B:
        got = _residual(system, depth, b).residual
        brute = _brute_force_residual(*_weighted_shift(system, depth, b),
                                      BRUTE_GRID)
        # no u on the grid beats the exact minimum, and rounding the
        # optimal u's phases to the grid moves each link by <= 2 pi / grid
        assert got <= brute + 1e-9, (b, got, brute)
        assert brute <= got + 2 * np.pi / BRUTE_GRID, (b, got, brute)


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("depth", [1, 2])
def test_eigenfunction_residual_is_the_brute_force_minimum(system, depth):
    _check_against_brute_force(system, depth)


def _one_link(delta, L):
    # the cycle's phase defect put on one link, the others left exact
    return 2.0 * np.sin(delta / 2.0)


def test_one_link_defect_fails_the_brute_force(monkeypatch):
    monkeypatch.setattr(per, "_cycle_residual", _one_link)
    for system in SYSTEMS:
        with pytest.raises(AssertionError):
            _check_against_brute_force(system, 2)


def _no_u_beats_the_residual(system, depth, b):
    W, image = _weighted_shift(system, depth, b)
    res = _residual(system, depth, b).residual

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(a=st.lists(st.floats(0.0, 2 * math.pi), min_size=len(W),
                      max_size=len(W)),
           phi=st.floats(0.0, 2 * math.pi))
    def prop(a, phi):
        sup = _sup_residual(W, image, np.exp(1j * np.array(a)), phi)
        target(res - sup)   # steer the search towards a u below res
        assert sup >= res - 1e-12

    prop()


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("b", [3.0, 25.0, 40.0])
def test_no_unimodular_u_beats_the_residual(system, depth, b):
    _no_u_beats_the_residual(system, depth, b)


def test_one_link_defect_fails_the_lower_bound(monkeypatch):
    monkeypatch.setattr(per, "_cycle_residual", _one_link)
    with pytest.raises(AssertionError):
        _no_u_beats_the_residual("pm05", 2, 40.0)


@settings(max_examples=10, deadline=None)
@given(q=st.integers(1, 5), k=st.integers(2, 4))
def test_necklace_count_formula(q, k):
    words = set()
    from itertools import product
    for w in product(range(k), repeat=q):
        if any(w == w[d:] + w[:d] for d in range(1, q)):
            continue
        words.add(min(w[i:] + w[:i] for i in range(q)))
    assert len(words) == per.primitive_necklace_count(k, q)


def test_alignment_evidence_labels(doubling_sub):
    ts = per.enumerate_periodic(doubling_sub, 3, roof=sp.constant_roof(1.0))
    rep = per.diophantine_check(ts, [2 * math.pi, 9.0], [0.0], alpha=2.0)
    assert rep.evidence().startswith("EVIDENCE-FOR")
    ts2 = per.enumerate_periodic(doubling_sub, 3, roof=sp.cosine_roof())
    rep2 = per.diophantine_check(ts2, np.linspace(20, 200, 10), [0.0],
                                 alpha=2.0)
    assert rep2.evidence().startswith("EVIDENCE-AGAINST")
    one = [per.PeriodicTriple(word=(0,), point=0.0, q=1, d=1, tau=1.3)]
    rep3 = per.diophantine_check(one, [11.0], [0.0], alpha=2.0)
    assert rep3.evidence().startswith("DEGENERATE")
