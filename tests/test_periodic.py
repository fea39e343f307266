import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    for r in rep.rows:
        assert r.residual <= 1e-9
        assert min(abs(r.phi), abs(r.phi - 2 * math.pi)) <= 1e-6


def test_eigenfunction_reports_convergence(doubling_sub):
    # an exact eigenfunction stops at once; one power step on a generic
    # roof cannot reach the 1e-14 stop
    exact = per.approx_eigenfunction_search(
        doubling_sub, sp.constant_roof(1.0), [2 * math.pi], [0.0])
    assert all(r.converged for r in exact.rows)
    short = per.approx_eigenfunction_search(
        doubling_sub, sp.cosine_roof(), [17.0, 37.0], [0.0], iters=1)
    assert not any(r.converged for r in short.rows)


def test_eigenfunction_constant_roof_all_b_degenerate(doubling_sub):
    # constant roof: tau proportional to d makes every frequency align
    rep = per.approx_eigenfunction_search(doubling_sub,
                                          sp.constant_roof(1.0),
                                          [7.3, 19.1], [0.0])
    assert all(r.residual <= 1e-9 for r in rep.rows)


def test_eigenfunction_cosine_roof_bounded_away(doubling_sub):
    rep = per.approx_eigenfunction_search(doubling_sub, sp.cosine_roof(),
                                          np.arange(10.0, 201.0, 20.0),
                                          [0.0], alpha=2.0)
    assert min(r.scaled for r in rep.rows) > 1.0


def test_eigenfunction_oracle_small_depth(doubling_sub):
    """Exhaustive minimisation oracle at depth 1 on the cycle structure."""
    roof = sp.cosine_roof()
    b, om = 17.0, 0.0
    rep = per.approx_eigenfunction_search(doubling_sub, roof, [b], [om],
                                          depth=1, iters=2000)
    got = rep.rows[0].residual
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
    for drow, erow in zip(dio.rows, eig.rows):
        if drow.passes:
            assert erow.residual <= 1e-6


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
