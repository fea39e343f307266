"""Operator renewal sequences and the first/last passage decomposition.

The base-return sequence T_{s,n} = 1_Y L_s^n 1_Y is built by iterating the
tower operator on base-supported probes; the first-return sequence R_{s,n}
acts through the base matrix with a level-set twist and vanishes for
n > N.  The generating-function identity T_s(z) = (I - R_s(z))^{-1} is
checked on a unit-circle grid with the finite-horizon tail carried
explicitly, so the comparison is meaningful even where the raw coefficient
series does not converge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from towerlab.transfer.towerop import TowerGrid

__all__ = ["RenewalData", "renewal_build", "tower_operator_decomposition"]


def _cum_roof(grid: TowerGrid) -> list[np.ndarray]:
    """cum[l], aligned with level l: roof summed over levels below l."""
    cum = [np.zeros(grid.basis.n)]
    for ell in range(grid.max_h - 1):
        k = grid.n_top[ell]
        cum.append(cum[ell][k:] + grid.h_at[ell][k:])
    return cum


@dataclass
class RenewalData:
    s: complex
    horizon: int
    z_points: np.ndarray
    residuals: np.ndarray          # tail-completed identity residual per z
    raw_residuals: np.ndarray      # plain truncated-sum residual per z
    raw_tail: float                # size of the last recorded coefficient
    recursion_residual: float      # coefficient-form renewal residual

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals))


def renewal_build(grid: TowerGrid, s: complex, horizon: int = 96,
                  n_probes: int = 16, n_z: int = 16, seed: int = 0,
                  grow: bool = True) -> RenewalData:
    """Build and cross-check the renewal family at twist parameter s.

    The tower side iterates L_s on base-supported probes and sums
    S(z) = sum_{n<=H} e^{zn} t_n with t_n = 1_Y L_s^n 1_Y; the base side is
    R_s(z) = sum_k e^{zk} R_{s,k}, R_{s,k} = Mhat diag(e^{sH'} 1_{r'=k}).
    The identity (I - R_s(z)) S(z) + Q(z) = 1 is evaluated at the n_z
    points z_m = 2 pi i (m + 1/2) / n_z of an offset unit-circle grid
    (avoiding the pole of (I - R_s(z))^{-1} at z = 0 when s = 0).  On that
    grid e^{z_m n} = (-1)^q e^{z_m p} for n = q n_z + p, so the frequency
    sum folds into n_z signed partial sums A_p = sum_q (-1)^q t_{q n_z + p},
    one add per step, and S(z_m) = sum_p e^{z_m p} A_p is one product
    after the last step.  Q(z) is the horizon tail, the terms of
    R_s(z) S(z) that fall past H; since Mhat is linear,
    Q(z) = Mhat sum_k e^{zk} twist_k * suffix_k(z) with
    suffix_k(z) = sum_{n=H-k+1..H} e^{zn} t_n, and (I - R_s(z)) S(z) =
    S(z) - Mhat diag(e^{sH' + zr'}) S(z); both come from one product per
    z.  The coefficient form t_n = sum_k R_{s,k} t_{n-k} is spot-checked
    with one product per step in the same way.  R_{s,k} reads only the
    columns of height k, leaves ``first[k-1]`` on (``n_top[k-1]`` of
    them), so both sums over k slice those leaves.  If the raw coefficient
    tail has not decayed below 1e-10 at Re s <= 0 and ``grow`` is set, the
    steps go on to twice the horizon.
    """
    if grid.N is None:
        raise ValueError("renewal sequences need a truncated tower")
    basis = grid.basis
    N = int(grid.max_h)
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((basis.n, n_probes)) \
        + 1j * rng.standard_normal((basis.n, n_probes))
    U /= np.abs(U).max(axis=0, keepdims=True)
    omegas = 2.0 * np.pi * (np.arange(n_z) + 0.5) / n_z
    zs = 1j * omegas
    # R_{s,k} = Mhat @ diag(e^{s H'}) on the columns of height k
    tw = np.exp(s * grid.H_col)[:, None]
    height = [slice(f, f + m) for f, m in zip(grid.first, grid.n_top)]

    H = max(horizon, N + 8)
    A = np.zeros((n_z, basis.n, n_probes), dtype=complex)
    V = grid.state_from_base(U.astype(complex))
    t_n = V[0]
    rec_resid = 0.0
    hist = [t_n]
    n = 0
    while True:
        q, p = divmod(n, n_z)
        if q % 2:
            A[p] -= t_n
        else:
            A[p] += t_n
        if len(hist) > N + 1:
            hist[n - N - 1] = None  # release early history
        if n == H:
            raw_tail = float(np.abs(t_n).max())
            if not (grow and raw_tail > 1e-10 and s.real <= 0):
                break
            # double the horizon once, stepping on from H
            grow = False
            H *= 2
        n += 1
        V = grid.step(V, s)
        t_n = V[0]
        hist.append(t_n)
        if n in (1, 2, N, N + 1, 2 * N + 1):
            # coefficient-form renewal identity at spot checks
            u = np.zeros_like(t_n)
            for k in range(1, min(n, N) + 1):
                c = height[k - 1]
                u[c] = tw[c] * hist[n - k][c]
            acc = basis.apply(u)
            scale = max(np.abs(t_n).max(), 1e-30)
            rec_resid = max(rec_resid,
                            float(np.abs(acc - t_n).max() / scale))
    E = np.exp(np.outer(zs, np.arange(n_z)))
    S = (E @ A.reshape(n_z, -1)).reshape(A.shape)
    ring = [hist[H - k] for k in range(0, N + 1)]

    residuals = np.empty(n_z)
    raw_residuals = np.empty(n_z)
    for m, z in enumerate(zs):
        diag = np.exp(s * grid.H_col + z * grid.heights)
        # horizon tail, w = e^z: Q = sum_k R_{s,k} w^k sum_{n=H-k+1..H} w^n t_n
        tail = np.zeros((basis.n, n_probes), dtype=complex)
        suffix = np.zeros((basis.n, n_probes), dtype=complex)
        for k in range(1, N + 1):
            suffix = suffix + np.exp(z * (H - k + 1)) * ring[k - 1]
            c = height[k - 1]
            tail[c] = np.exp(z * k) * (tw[c] * suffix[c])
        # R_s(z) S = Mhat (diag S) and Q in one product
        RS_Q = basis.apply(np.hstack([diag[:, None] * S[m], tail]))
        AS = S[m] - RS_Q[:, :n_probes]
        Q = RS_Q[:, n_probes:]
        lhs = AS + Q
        scale = max(np.abs(lhs).max(), np.abs(Q).max(), 1.0)
        residuals[m] = float(np.abs(lhs - U).max() / scale)
        raw_residuals[m] = float(np.abs(AS - U).max()
                                 / max(np.abs(AS).max(), 1.0))
    return RenewalData(s=s, horizon=H, z_points=zs, residuals=residuals,
                       raw_residuals=raw_residuals, raw_tail=raw_tail,
                       recursion_residual=rec_resid)


# ---------------------------------------------------------------------------
# First/last base-passage decomposition of L_s^n
# ---------------------------------------------------------------------------

@dataclass
class DecompositionReport:
    n: tuple[int, ...]       # the n checked, as given
    residuals: np.ndarray    # one per n
    a_norms: np.ndarray      # L^inf(Y) -> L^1 norms of A_{s,i}, i = 1..2N
    b_norms: np.ndarray      # probe ||.||_b -> ||.||_b norms of the descents
    e_norms: np.ndarray      # L^1 norms of E_{s,i}, i = 1..2N
    vanish_beyond: bool      # A, E identically zero from i = N on

    @property
    def residual(self) -> float:
        return float(np.max(self.residuals))


def tower_operator_decomposition(grid: TowerGrid, s: complex, n,
                                 n_probes: int = 12, seed: int = 0
                                 ) -> DecompositionReport:
    """Verify L_s^n = sum_{i+j+k=n} A_i T_j B_k + E_n on probe vectors, at
    one n or at each n of a sequence.

    A climbs from the base without returning, T runs base to base, B
    descends to its first base hit, and E never touches the base.  The
    probes are the columns of one tower state, so every step is one
    matrix product.  The left side is m direct steps of L_s.  The right
    side assembles B and E from their path tables and gets the T-part from
    U_m = L_s U_{m-1} + lift(B_m), U_{-1} = 0, whose base values are
    sum_{k+j=m} T_j B_k; so it is sum_m A_{n-m} base(U_m) + E_n.  Both
    sides step together to the largest n, each n's right side takes
    base(U_m) at level n - m, and its residual is taken at m = n.  The
    block norms of A and E run to i = 2N over the levels the grid has;
    ``vanish_beyond`` reports whether they are zero from the declared cut
    N on.  The norms do not depend on n; the b-norm probes follow the
    decomposition's in one stream.
    """
    if grid.N is None:
        raise ValueError("the decomposition needs a truncated tower")
    ns = np.atleast_1d(n).tolist()
    if min(ns) < 0:
        raise ValueError(f"n = {min(ns)}: not >= 0")
    N = int(grid.N)
    cum = _cum_roof(grid)
    rng = np.random.default_rng(seed)
    probes = [
        [rng.standard_normal(len(m)) + 1j * rng.standard_normal(len(m))
         for m in grid.mu_at] for _ in range(n_probes)]
    V0 = [np.stack(cols, axis=1) for cols in zip(*probes)]
    B_apply = _descent(grid, cum, s)
    climb = [np.exp(s * c) for c in cum]   # A's twist up to each level

    rhs = {}   # each n's right side, from E_n V0 (never reaches the base)
    for k in set(ns):
        rhs[k] = grid.zero_state(dtype=complex, width=n_probes)
        for ell, off, climbed in _interior(grid, cum, k):
            rhs[k][ell + k] = np.exp(s * climbed)[:, None] * V0[ell][off:]
    residuals = {}
    flat0 = np.concatenate(V0)
    lhs = V0
    U = grid.zero_state(dtype=complex, width=n_probes)
    for m in range(max(ns) + 1):
        if m > 0:
            lhs = grid.step(lhs, s)
            U = grid.step(U, s)
        U[0] = U[0] + B_apply(flat0, m)   # B_m = 0 from m = max_h on
        for k, side in rhs.items():
            i = k - m
            if 0 <= i < grid.max_h:
                side[i] = side[i] + climb[i][:, None] * U[0][grid.first[i]:]
        if m in rhs:
            diff, scale = np.zeros(n_probes), np.full(n_probes, 1e-30)
            for a, b in zip(lhs, rhs.pop(m)):
                if len(a):
                    diff = np.maximum(diff, np.abs(a - b).max(axis=0))
                    scale = np.maximum(scale, np.abs(a).max(axis=0))
            residuals[m] = float(np.max(diff / scale))

    a_norms = np.zeros(2 * N)
    for i, (tw, mu) in enumerate(zip(climb[1:2 * N + 1], grid.mu_at[1:])):
        a_norms[i] = np.sum(np.abs(tw) * mu) / grid.rbar
    e_norms = np.array([_interior_norm(grid, cum, s, i)
                        for i in range(1, 2 * N + 1)])
    b_norms = _b_norms(grid, B_apply, rng, min(N, 12))
    vanish = bool(np.all(a_norms[N - 1:] == 0.0)
                  and np.all(e_norms[N - 1:] == 0.0))
    return DecompositionReport(
        n=tuple(ns), residuals=np.array([residuals[k] for k in ns]),
        a_norms=a_norms, b_norms=b_norms, e_norms=e_norms,
        vanish_beyond=vanish)


def _descent(grid: TowerGrid, cum, s: complex):
    """First-passage descent B_{s,k} as a function of a flat tower vector.

    B_0 reads the base level.  For k >= 1, B_k starts at level r' - k >= 1
    of each column and twists by the roof left to climb; its leaves, flat
    positions and phases are tabulated once per k.
    """
    basis = grid.basis
    leaf, level = grid.flat_cells
    start = grid.heights[leaf] - level        # k of a start at this cell
    phase = np.exp(s * (grid.H_col[leaf] - np.concatenate(cum)))
    tables = {}
    for k in range(1, grid.max_h):
        pos = np.nonzero((start == k) & (level >= 1))[0]
        tables[k] = (leaf[pos], pos, phase[pos])

    def B_apply(flat: np.ndarray, k: int) -> np.ndarray:
        if k == 0:
            return flat[:basis.n].astype(complex)
        u = np.zeros((basis.n,) + flat.shape[1:], dtype=complex)
        if k not in tables:
            return u
        cells, pos, ph = tables[k]
        u[cells] = ph[(slice(None),) + (None,) * (flat.ndim - 1)] * flat[pos]
        return basis.apply(u)

    return B_apply


def _interior(grid: TowerGrid, cum, nn: int):
    """Paths of the interior block E_{s,nn}: per start level ell >= 1, the
    offset in level ell of the columns taller than ell + nn (they are its
    suffix, and all of level ell + nn), and the roof they climb on the way."""
    for ell in range(1, grid.max_h - nn):
        off = grid.first[ell + nn] - grid.first[ell]
        yield ell, off, cum[ell + nn] - cum[ell][off:]


def _interior_norm(grid: TowerGrid, cum, s: complex, nn: int) -> float:
    """Exact sup-functional L^1 norm of the interior block E_{s,nn}."""
    tot = 0.0
    for ell, _, climbed in _interior(grid, cum, nn):
        tw = np.abs(np.exp(s * climbed))
        tot += float(np.sum(tw * grid.mu_at[ell + nn]))
    return tot / grid.rbar


def _b_norms(grid: TowerGrid, B_apply, rng, k_max: int) -> np.ndarray:
    """Largest ||B_k V||_b / ||V||_b, k = 1..k_max, over eight random tower
    probes V.  The probes are drawn once, one after another and level by
    level, and their norms ||V||_b are taken once; each descent takes all
    eight as the columns of one product, and each norm is taken of all
    columns at once."""
    basis = grid.basis
    theta = basis.ind.model.theta
    flat = np.stack([np.concatenate(
        [rng.standard_normal(len(m)) + 1j * rng.standard_normal(len(m))
         for m in grid.mu_at]) for _ in range(8)], axis=1)
    denom = np.maximum(np.max(np.abs(flat), axis=0),
                       grid.theta_seminorm([flat], theta))
    out = np.empty(k_max)
    for k in range(1, k_max + 1):
        U = B_apply(flat, k)
        num = np.maximum(basis.sup_norm(U), basis.theta_seminorm(U, theta))
        out[k - 1] = np.max(num / denom)
    return out
