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

from dataclasses import dataclass, field

import numpy as np

from towerlab.transfer.towerop import TowerGrid

__all__ = ["RenewalData", "renewal_build", "tower_operator_decomposition"]


def _cum_roof(grid: TowerGrid) -> list[np.ndarray]:
    """cum[l], aligned with active[l]: roof summed over levels below l."""
    cum = [np.zeros(len(grid.active[0]))]
    for ell in range(grid.max_h - 1):
        cum.append((cum[ell] + grid.h_at[ell])[grid.sel_next[ell]])
    return cum


@dataclass
class RenewalData:
    grid: TowerGrid
    s: complex
    horizon: int
    z_points: np.ndarray
    residuals: np.ndarray          # tail-completed identity residual per z
    raw_residuals: np.ndarray      # plain truncated-sum residual per z
    raw_tail: float                # size of the last recorded coefficient
    recursion_residual: float      # coefficient-form renewal residual
    level_twists: list = field(default_factory=list)  # diag of R_{s,n}

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals))


def renewal_build(grid: TowerGrid, s: complex, horizon: int = 96,
                  n_probes: int = 16, n_z: int = 16, seed: int = 0,
                  grow: bool = True) -> RenewalData:
    """Build and cross-check the renewal family at twist parameter s.

    The identity is evaluated at n_z points z = i omega on an offset
    unit-circle grid (avoiding the pole of (I - R_s(z))^{-1} at z = 0 when
    s = 0).  If the raw coefficient tail has not decayed below 1e-10 the
    horizon is doubled once when ``grow`` is set.
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
    # level-set twists: R_{s,n} = Mhat @ diag(e^{s H'} 1_{r' = n})
    tw = np.exp(s * grid.H_col)
    level_twists = [np.where(grid.heights == n, tw, 0.0) for n in
                    range(1, N + 1)]

    def run(H: int):
        S = np.zeros((n_z, basis.n, n_probes), dtype=complex)
        ring: list[np.ndarray] = []
        V = grid.state_from_base(U.astype(complex))
        t_n = grid.base_values(V)
        rec_resid = 0.0
        ez = np.exp(np.outer(zs, np.arange(H + 1)))
        hist = [t_n]
        for n in range(0, H + 1):
            if n > 0:
                V = grid.step(V, s)
                t_n = grid.base_values(V)
                hist.append(t_n)
                if n in (1, 2, N, N + 1, 2 * N + 1):
                    # coefficient-form renewal identity at spot checks
                    acc = np.zeros_like(t_n)
                    for k in range(1, min(n, N) + 1):
                        acc += basis.Mhat @ (level_twists[k - 1][:, None]
                                             * hist[n - k])
                    scale = max(np.abs(t_n).max(), 1e-30)
                    rec_resid = max(rec_resid,
                                    float(np.abs(acc - t_n).max() / scale))
            S += ez[:, n][:, None, None] * t_n[None, :, :]
            if len(hist) > N + 1:
                hist[n - N - 1] = None  # release early history
        ring = [hist[H - k] for k in range(0, N + 1)]
        return S, ring, float(np.abs(t_n).max()), rec_resid

    H = max(horizon, N + 8)
    S, ring, raw_tail, rec_resid = run(H)
    if grow and raw_tail > 1e-10 and s.real <= 0:
        H *= 2
        S, ring, raw_tail, rec_resid = run(H)

    residuals = np.empty(n_z)
    raw_residuals = np.empty(n_z)
    eye = np.eye(basis.n, dtype=complex)
    for m, z in enumerate(zs):
        diag = np.exp(s * grid.H_col + z * grid.heights)
        A = eye - basis.Mhat * diag[None, :]
        # horizon tail, w = e^z: Q = sum_k R_{s,k} w^k sum_{n=H-k+1..H} w^n t_n
        Q = np.zeros((basis.n, n_probes), dtype=complex)
        suffix = np.zeros((basis.n, n_probes), dtype=complex)
        for k in range(1, N + 1):
            suffix = suffix + np.exp(z * (H - k + 1)) * ring[k - 1]
            Q += np.exp(z * k) * (basis.Mhat @ (level_twists[k - 1][:, None]
                                                * suffix))
        lhs = A @ S[m] + Q
        scale = max(np.abs(lhs).max(), np.abs(Q).max(), 1.0)
        residuals[m] = float(np.abs(lhs - U).max() / scale)
        raw_residuals[m] = float(np.abs(A @ S[m] - U).max()
                                 / max(np.abs(A @ S[m]).max(), 1.0))
    return RenewalData(grid=grid, s=s, horizon=H, z_points=zs,
                       residuals=residuals, raw_residuals=raw_residuals,
                       raw_tail=raw_tail, recursion_residual=rec_resid,
                       level_twists=level_twists)


# ---------------------------------------------------------------------------
# First/last base-passage decomposition of L_s^n
# ---------------------------------------------------------------------------

@dataclass
class DecompositionReport:
    n: int
    residual: float
    a_norms: np.ndarray      # L^inf(Y) -> L^1 norms of the climb operators
    b_norms: np.ndarray      # probe ||.||_b -> ||.||_b norms of the descents
    e_norms: np.ndarray      # interior-block L^1 norms
    vanish_beyond: bool      # A, B, E identically zero past the cut


def tower_operator_decomposition(grid: TowerGrid, s: complex, n: int,
                                 n_probes: int = 12, seed: int = 0
                                 ) -> DecompositionReport:
    """Verify L_s^n = sum_{i+j+k=n} A_i T_j B_k + E_n on probe vectors.

    A climbs from the base without returning, T runs base to base, B
    descends to its first base hit, and E never touches the base; all four
    are assembled from their path characterisations and compared against
    direct iteration of the tower operator.
    """
    if grid.N is None:
        raise ValueError("the decomposition needs a truncated tower")
    basis = grid.basis
    N = int(grid.max_h)
    cum = _cum_roof(grid)
    rng = np.random.default_rng(seed)
    probes = [
        [rng.standard_normal(len(a)) + 1j * rng.standard_normal(len(a))
         for a in grid.active] for _ in range(n_probes)]

    def B_apply(V: list, k: int) -> np.ndarray:
        """First-passage descent: k >= 1 starts at level r' - k >= 1."""
        if k == 0:
            return grid.base_values(V)
        u = np.zeros(basis.n, dtype=complex)
        for ell in range(max(1, 0), grid.max_h):
            # leaves whose column height is ell + k (so level ell = r' - k)
            if ell < 1 or ell + k > N:
                continue
            act = grid.active[ell]
            at_start = grid.heights[act] == ell + k
            if not np.any(at_start):
                continue
            idx = np.nonzero(at_start)[0]
            leaves = act[idx]
            S = grid.H_col[leaves] - cum[ell][idx]
            u[leaves] = np.exp(s * S) * V[ell][idx]
        return basis.Mhat @ u

    def A_apply(u: np.ndarray, i: int) -> list:
        """No-return climb to level i."""
        V = grid.zero_state(dtype=complex)
        if i == 0:
            V[0] = u[grid.active[0]].astype(complex)
            return V
        if i < grid.max_h:
            act = grid.active[i]
            V[i] = np.exp(s * cum[i]) * u[act]
        return V

    def E_apply(V: list, nn: int) -> list:
        """Interior block: start at level >= 1, never reach the base."""
        out = grid.zero_state(dtype=complex)
        for ell in range(1, grid.max_h - nn):
            surv = _survivors(grid, ell, nn)
            if len(surv) == 0:
                continue
            pos_t = _positions(grid, ell, nn, surv)
            out[ell + nn][pos_t] = np.exp(
                s * (cum[ell + nn][pos_t] - cum[ell][surv])) * V[ell][surv]
        return out

    # direct LHS and T-family from tower iteration of all B outputs
    residual = 0.0
    for V0 in probes:
        lhs = [x.copy() for x in V0]
        for _ in range(n):
            lhs = grid.step(lhs, s)
        Bs = [B_apply(V0, k) for k in range(0, min(n, N) + 1)]
        rhs = grid.zero_state(dtype=complex)
        for k, bvec in enumerate(Bs):
            W = grid.state_from_base(bvec)
            for j in range(0, n - k + 1):
                i = n - k - j
                if i <= N:
                    contrib = A_apply(grid.base_values(W), i)
                    for ell in range(grid.max_h):
                        rhs[ell] = rhs[ell] + contrib[ell]
                if j < n - k:
                    W = grid.step(W, s)
        EV = E_apply(V0, n)
        for ell in range(grid.max_h):
            rhs[ell] = rhs[ell] + EV[ell]
        scale = max(grid.sup_norm(lhs), 1e-30)
        residual = max(residual,
                       max(float(np.abs(a - b).max()) if len(a) else 0.0
                           for a, b in zip(lhs, rhs)) / scale)

    a_norms = np.array([_a_norm(grid, cum, s, i) for i in range(1, N + 2)])
    e_norms = np.array([_e_norm(grid, cum, s, i) for i in range(1, N + 2)])
    b_norms = np.array([_b_norm_probe(grid, k, B_apply, rng)
                        for k in range(1, min(N, 12) + 1)])
    vanish = bool(np.all(a_norms[N:] == 0.0) and np.all(e_norms[N:] == 0.0))
    return DecompositionReport(n=n, residual=residual, a_norms=a_norms,
                               b_norms=b_norms, e_norms=e_norms,
                               vanish_beyond=vanish)


def _survivors(grid: TowerGrid, ell: int, nn: int) -> np.ndarray:
    """Indices within active[ell] of leaves with height > ell + nn."""
    act = grid.active[ell]
    return np.nonzero(grid.heights[act] > ell + nn)[0]


def _positions(grid: TowerGrid, ell: int, nn: int,
               surv: np.ndarray) -> np.ndarray:
    """Positions of those survivors within active[ell + nn]."""
    act = grid.active[ell][surv]
    tgt = grid.active[ell + nn]
    return np.searchsorted(tgt, act)


def _a_norm(grid: TowerGrid, cum, s: complex, i: int) -> float:
    """Exact L^inf(Y) -> L^1 norm of the no-return climb A_{s,i}."""
    if i >= grid.max_h:
        return 0.0
    act = grid.active[i]
    return float(np.sum(np.abs(np.exp(s * cum[i])) * grid.basis.mu[act])
                 / grid.rbar)


def _e_norm(grid: TowerGrid, cum, s: complex, nn: int) -> float:
    """Exact sup-functional L^1 norm of the interior block E_{s,nn}."""
    tot = 0.0
    for ell in range(1, grid.max_h - nn):
        surv = _survivors(grid, ell, nn)
        if len(surv) == 0:
            continue
        pos_t = _positions(grid, ell, nn, surv)
        tw = np.abs(np.exp(s * (cum[ell + nn][pos_t] - cum[ell][surv])))
        tot += float(np.sum(tw * grid.basis.mu[grid.active[ell][surv]]))
    return tot / grid.rbar


def _b_norm_probe(grid: TowerGrid, k: int, B_apply, rng,
                  n_probes: int = 8) -> float:
    basis = grid.basis
    theta = basis.ind.model.theta
    best = 0.0
    for _ in range(n_probes):
        V = [rng.standard_normal(len(a)) + 1j * rng.standard_normal(len(a))
             for a in grid.active]
        denom = max(grid.sup_norm(V), grid.theta_seminorm(V, theta))
        u = B_apply(V, k)
        num = max(basis.sup_norm(u), basis.theta_seminorm(u, theta))
        best = max(best, num / denom)
    return best
