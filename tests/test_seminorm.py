"""Exactness of the complex theta-seminorm against all-pairs brute force.

The seminorm is the largest prefix-group diameter max |v_i - v_j|,
weighted by theta^-depth.  The references below compute it from every pair
of every group, and the former 256-direction sweep, which is a lower bound
within a factor cos(pi/512).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from towerlab import systems, suspension as sp
from towerlab.transfer.basis import CylinderBasis
from towerlab.transfer.diameters import GroupDiameters
from towerlab.transfer.towerop import TowerGrid

THETA = 0.5
SWEEP = np.exp(-1j * np.linspace(0.0, np.pi, 256, endpoint=False))


@pytest.fixture(scope="module")
def bases():
    # doubling: groups of 128 (octagon filter) down to pairs; pm: one
    # group of 456 (octagon filter) and columns of 17
    return [CylinderBasis(systems.doubling_full(), depth=7, refine_symbols=2),
            CylinderBasis(systems.pm_induced(0.5, branch_cutoff=200),
                          depth=2, refine_symbols=16)]


@pytest.fixture(scope="module")
def grid():
    # depth-1 groups are whole columns of 73 leaves (octagon filter),
    # depth-2 groups have up to 9
    basis = CylinderBasis(systems.pm_induced(0.5, branch_cutoff=60),
                          depth=3, refine_symbols=8)
    return TowerGrid(basis, sp.cosine_roof(), 8)


def _groups(labels):
    return [np.flatnonzero(labels == g) for g in np.unique(labels)]


def brute_basis(basis, v):
    best = 0.0
    for d in range(basis.depth):
        for g in _groups(basis._groups[d]):
            z = v[g]
            best = max(best, np.abs(z[:, None] - z[None, :]).max() / THETA ** d)
    return float(best)


def sweep_basis(basis, v):
    proj = np.real(np.outer(v, SWEEP))
    best = 0.0
    for d in range(basis.depth):
        for g in _groups(basis._groups[d]):
            width = np.ptp(proj[g], axis=0).max()
            best = max(best, width / THETA ** d)
    return float(best)


def brute_tower(grid, V):
    best = 0.0
    for ell, v in enumerate(V):
        act = np.nonzero(grid.heights > ell)[0]
        for d in range(1, grid.basis.depth):
            for g in _groups(grid.basis._groups[d][act]):
                z = v[g]
                best = max(best,
                           np.abs(z[:, None] - z[None, :]).max() / THETA ** d)
    return float(best)


def vector(kind, n, mid, rng):
    """Test vectors, including the degenerate point sets of the complex
    seminorm: coincident, collinear, one-hot and on-a-circle groups."""
    if kind == "gauss":
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if kind == "real":
        return rng.standard_normal(n)
    if kind == "circle":
        k = rng.uniform(0.5, 40.0)
        return rng.uniform(0.1, 10.0) * np.exp(2j * np.pi * k * mid
                                               + 1j * rng.uniform(0, 7))
    if kind == "collinear":
        return (rng.standard_normal() + 1j * rng.standard_normal()
                + np.exp(1j * rng.uniform(0, 7)) * rng.standard_normal(n))
    if kind == "real_as_complex":
        return mid.astype(complex)
    if kind == "one_hot":
        e = np.zeros(n, dtype=complex)
        e[rng.integers(n)] = np.exp(1j * rng.uniform(0, 7))
        return e
    if kind == "coincident":      # constant on blocks of 4 neighbours
        blocks = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return blocks[np.arange(n) // 4]
    if kind == "repeated_circle":  # hull vertices that occur twice or more
        ring = np.exp(2j * np.pi * rng.random(n // 2 + 1))
        return ring[rng.integers(0, len(ring), n)]
    if kind == "lattice":         # many exact ties in angle and distance
        return (rng.integers(-3, 4, n) + 1j * rng.integers(-3, 4, n)) * 1.0
    if kind == "clustered":
        return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 1e-3 \
            + rng.integers(0, 3, n) * (1 + 2j)
    if kind == "annulus":         # most points near the hull, not on it
        return np.exp(2j * np.pi * rng.random(n)) * rng.uniform(0.99, 1, n)
    if kind == "heavy_tailed":
        return rng.standard_cauchy(n) + 1j * rng.standard_cauchy(n)
    if kind == "thin":            # nearly a segment
        return (rng.standard_normal(n)
                + 1j * 10.0 ** rng.uniform(-12, -4) * rng.standard_normal(n))
    raise ValueError(kind)


KINDS = ["gauss", "real", "circle", "collinear", "real_as_complex",
         "one_hot", "coincident", "repeated_circle", "lattice", "clustered",
         "annulus", "heavy_tailed", "thin"]


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(KINDS), seed=st.integers(0, 2 ** 32 - 1),
       which=st.integers(0, 1))
def test_basis_seminorm_is_exact(bases, kind, seed, which):
    basis = bases[which]
    v = vector(kind, basis.n, basis.mid, np.random.default_rng(seed))
    got = basis.theta_seminorm(v, THETA)
    want = brute_basis(basis, v)
    assert abs(got - want) <= 1e-12 * want
    if np.iscomplexobj(v):
        old = sweep_basis(basis, v)
        assert old * (1 - 1e-12) <= got
        assert got <= old / math.cos(math.pi / 512) * (1 + 1e-12)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(KINDS), seed=st.integers(0, 2 ** 32 - 1))
def test_tower_seminorm_is_exact(grid, kind, seed):
    rng = np.random.default_rng(seed)
    V = [vector(kind, len(p), p, rng) for p in grid.pos_at]
    got = grid.theta_seminorm(V, THETA)
    want = brute_tower(grid, V)
    assert abs(got - want) <= 1e-12 * want


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(KINDS), seed=st.integers(0, 2 ** 32 - 1),
       m=st.integers(2, 1000))
def test_single_group_diameter_is_exact(kind, seed, m):
    # one group of m points: all pairs up to 64, octagon filter above
    z = vector(kind, m, np.linspace(0.0, 1.0, m), np.random.default_rng(seed))
    got = GroupDiameters({0: np.zeros(m)}).value(z, THETA)
    want = float(np.abs(z[:, None] - z[None, :]).max())
    assert abs(got - want) <= 1e-12 * want


def test_singletons_and_constants_vanish(bases, grid):
    assert GroupDiameters({0: np.arange(5)}).value(np.arange(5) * 1j,
                                                   THETA) == 0.0
    for basis in bases:
        assert basis.theta_seminorm(np.full(basis.n, 2 - 1j), THETA) == 0.0
    V = [np.full(len(m), 3.0 + 0j) for m in grid.mu_at]
    assert grid.theta_seminorm(V, THETA) == 0.0


def test_circle_group_hits_the_antipodal_pair(bases):
    # no point of the depth-0 group (n even) is inside the octagon, and
    # opposite points are exactly antipodal; with theta = 1 no deeper
    # group can exceed the diameter 2
    basis = bases[1]
    v = np.exp(2j * np.pi * np.arange(basis.n) / basis.n)
    assert basis.n % 2 == 0
    assert basis.theta_seminorm(v, 1.0) == pytest.approx(2.0, rel=1e-12)


def nested_labels(rng, n, n_depths):
    """Labels of nested contiguous groups over n entries: each deeper depth
    cuts every group of the one above further.  Few first cuts leave
    groups of more than 64 entries; the deepest depth has singletons."""
    cuts = set()
    labels = {}
    keys = np.sort(rng.choice(8, n_depths, replace=False))
    for i, d in enumerate(keys):
        extra = 2 if i == 0 else int(rng.integers(1, max(2, n // 3)))
        cuts |= set(rng.integers(1, n, extra).tolist()) if n > 1 else set()
        if i == n_depths - 1:
            cuts |= set(range(1, n, 7))
        mark = np.zeros(n, dtype=int)
        mark[sorted(cuts)] = 1
        labels[int(d)] = np.cumsum(mark)
    return labels


def column_stack(rng, n, P, real):
    """Columns of several kinds, including constant and zero ones."""
    cols = []
    for k in range(P):
        kind = rng.integers(6)
        if kind == 0:
            c = np.zeros(n)
        elif kind == 1:
            c = np.full(n, rng.standard_normal())
        elif kind == 2:
            c = rng.standard_normal(n)
        elif kind == 3:
            c = np.exp(2j * np.pi * rng.uniform(0.5, 9) * np.linspace(0, 1, n))
        elif kind == 4:
            c = (rng.integers(-2, 3, n) + 1j * rng.integers(-2, 3, n)) * 1.0
        else:
            c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        cols.append(c.real if real else c)
    return np.stack(cols, axis=1)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 300),
       n_depths=st.integers(1, 4), P=st.integers(1, 7), real=st.booleans())
def test_column_stack_is_exact_per_column(seed, n, n_depths, P, real):
    rng = np.random.default_rng(seed)
    gd = GroupDiameters(nested_labels(rng, n, n_depths))
    V = column_stack(rng, n, P, real)
    for theta in (0.5, 1.0):
        got = gd.value(V, theta)
        assert got.shape == (P,)
        assert np.array_equal(got, [gd.value(V[:, k], theta)
                                    for k in range(P)])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(4, 300),
       n_depths=st.integers(2, 4))
def test_groups_that_do_not_nest_are_refused(seed, n, n_depths):
    rng = np.random.default_rng(seed)
    labels = nested_labels(rng, n, n_depths)
    keys = sorted(labels)
    coarse, fine = labels[keys[0]], labels[keys[-1]]
    # move one boundary of the shallowest groups inside the deepest ones
    cut = int(rng.choice(np.flatnonzero(np.diff(coarse)) + 1)) \
        if np.any(np.diff(coarse)) else None
    if cut is None:                  # one shallow group: split it instead
        cut = int(rng.integers(1, n))
        labels[keys[0]] = np.r_[np.zeros(cut), np.ones(n - cut)]
        if np.diff(fine)[cut - 1]:
            return                   # the split is one of the deep cuts
    else:
        merged = fine.copy()
        merged[cut:] -= int(fine[cut] - fine[cut - 1])
        labels[keys[-1]] = merged
    with pytest.raises(ValueError, match="nest"):
        GroupDiameters(labels)
