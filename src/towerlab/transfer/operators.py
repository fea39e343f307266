"""Twisted base transfer operators, norms and scans.

The base operator R acts on cylinder collocation vectors; its twisted
variants weight each inverse branch by exp(s H' + z r') with H' the
truncated induced roof summed along the branch column.  Estimates of the
mixed sup/Lipschitz operator norm are probe maxima: basis vectors, random
unit-norm probes, and singular-vector refinements.  The Laplace transform
of a flow correlation is one solve with the same I - R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from towerlab.suspension import Observable
from towerlab.transfer.basis import CylinderBasis
from towerlab.transfer.renewal import _cum_roof
from towerlab.transfer.towerop import _QN, _QW, TowerGrid

__all__ = [
    "OperatorMatrix",
    "assemble_R",
    "assemble_twisted",
    "lasota_yorke_check",
    "laplace_transform",
    "resolvent_scan",
]

RESONANCE_TOL = 1e-10   # flag threshold of the resolvent scan, per dimension


@dataclass
class OperatorMatrix:
    """Operator v -> Mhat (tw v) on cylinder collocation values; the twist
    tw is None for the untwisted R."""

    basis: CylinderBasis
    s: complex = 0.0
    z: complex = 0.0
    tw: np.ndarray | None = None

    def i_minus(self) -> csc_matrix:
        """I - Mhat diag(tw) as a complex CSC matrix, on the basis's
        pattern of I - Mhat, with no dense matrix.  Entry by entry it makes
        the operations of a dense path, -(Mhat tw) and then 1 added on the
        diagonal, and drops the entries that are exactly 0: so it equals
        the sparse copy of the dense I - Mhat diag(tw) bit for bit."""
        indptr, indices, cols, entry, diag = self.basis.csc_pattern
        tw = 1.0 if self.tw is None else self.tw[cols]
        vals = np.r_[self.basis._mhat_table.ravel(), np.zeros(self.basis.n)]
        data = np.asarray(-(vals[entry] * tw), dtype=complex)
        data[diag] += 1.0
        # eliminate_zeros compacts the index arrays in place, and the
        # basis shares its pattern with every operator
        A = csc_matrix((data, indices.copy(), indptr.copy()),
                       shape=(self.basis.n, self.basis.n))
        A.eliminate_zeros()
        return A

    def apply(self, v: np.ndarray) -> np.ndarray:
        if self.tw is None:
            return self.basis.apply(v)
        return self.basis.apply(
            self.tw[(slice(None),) + (None,) * (v.ndim - 1)] * v)

    def duality_defect(self, n_pairs: int = 20, seed: int = 0) -> float:
        """max |<Rv, w>_mu - <v, w o F>_mu| over random pairs, where the
        composition acts through the measure-consistent adjoint."""
        rng = np.random.default_rng(seed)
        n = self.basis.n
        mu = self.basis.mu
        # <v, adj w>_mu = sum v P^H (mu w) for P = Mhat diag(tw), and
        # P^H = I - A^H for the sparse A = I - P
        AH = self.i_minus().conj().T
        worst = 0.0
        for _ in range(n_pairs):
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            lhs = np.sum(mu * self.apply(v) * w)
            rhs = np.sum(v * (mu * w - AH @ (mu * w)))
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-30))
        return worst

    def pointwise_apply(self, func, x: np.ndarray) -> np.ndarray:
        """(R v)(x) by direct summation over inverse branches; untwisted
        operators only."""
        if self.s != 0 or self.z != 0:
            raise ValueError("pointwise_apply evaluates the untwisted R only")
        basis = self.basis
        x = np.asarray(x, dtype=float)
        rho_at = basis.rho[basis.leaf_of_point(x)]
        out = np.zeros_like(x, dtype=complex)
        for _, y, deriv in basis.ind.inverse_chain(x):
            rho_y = basis.rho[basis.leaf_of_point(y)]
            g = rho_y / (deriv * basis.lam * rho_at)
            out += g * np.asarray(func(y), dtype=complex)
        return out


def assemble_R(basis: CylinderBasis) -> OperatorMatrix:
    """The untwisted base transfer operator, normalised so R1 = 1."""
    return OperatorMatrix(basis=basis)


def assemble_twisted(grid: TowerGrid, s: complex, z: complex = 0.0
                     ) -> OperatorMatrix:
    """Twisted operator R_{s,z} v = R(e^{s H'} e^{z r'} v) on the grid's
    truncation level."""
    basis = grid.basis
    if s == 0 and z == 0:
        return OperatorMatrix(basis=basis, s=s, z=z)
    return OperatorMatrix(basis=basis, s=s, z=z,
                          tw=np.exp(s * grid.H_col + z * grid.heights))


# ---------------------------------------------------------------------------
# Twisted-iterate (Lasota-Yorke type) inequality
# ---------------------------------------------------------------------------

@dataclass
class IterateInequalityReport:
    """Fit of |R_{ib,iw}^n v|_theta <= C (|b| |v|_inf + theta^n |v|_theta)."""

    constants: dict            # (N) -> fitted C over the (b, w, n, probe) grid
    C: float                   # overall fitted constant
    stability: float           # max/min of the per-N constants


def lasota_yorke_check(basis: CylinderBasis, roof, b_list, omega_list,
                       n_max: int, N_list=(None,), n_probes: int = 8
                       ) -> IterateInequalityReport:
    """Empirical uniformity of the twisted-iterate inequality across
    truncation levels, frequencies and iterates, on probes drawn from
    seed 0."""
    theta = basis.ind.model.theta
    rng = np.random.default_rng(0)
    probes = [rng.standard_normal(basis.n) + 1j * rng.standard_normal(basis.n)
              for _ in range(n_probes - 2)]
    probes.append(np.exp(2j * np.pi * basis.mid))
    probes.append(basis.mid.astype(complex))
    P0 = np.stack(probes, axis=1)        # the probes, stepped as columns
    sup0 = basis.sup_norm(P0)
    sem0 = basis.theta_seminorm(P0, theta)
    constants = {}
    for N in N_list:
        grid = TowerGrid(basis, roof, N)
        worst = 0.0
        for b in b_list:
            if abs(b) <= 1:
                raise ValueError("the inequality regime needs |b| > 1")
            for om in omega_list:
                op = assemble_twisted(grid, 1j * b, 1j * om)
                V = P0
                ratio = np.empty((n_max, len(probes)))
                for n in range(1, n_max + 1):
                    V = op.apply(V)
                    sem = basis.theta_seminorm(V, theta)
                    ratio[n - 1] = sem / (abs(b) * sup0 + theta ** n * sem0)
                worst = max(worst, float(np.max(ratio)))
        constants[N] = worst
    vals = list(constants.values())
    return IterateInequalityReport(
        constants=constants, C=max(vals),
        stability=max(vals) / max(min(vals), 1e-300))


# ---------------------------------------------------------------------------
# Resolvent norm scans
# ---------------------------------------------------------------------------

@dataclass
class ResolventScan:
    b: np.ndarray
    omega: np.ndarray
    norm_estimate: np.ndarray
    resonance: np.ndarray
    alpha_fit: float
    residuals: np.ndarray


def _b_probes(basis: CylinderBasis, b: float, n_random: int,
              rng) -> np.ndarray:
    """Probe columns: a smooth oscillatory family (depth-stable, carries
    the resonance physics) plus random rough ones."""
    smooth = [np.exp(2j * np.pi * k * c * basis.mid)
              for k in (1, 2, 3, 5, 8, 13) for c in (1.0, b / (2.0 * np.pi))]
    rough = rng.standard_normal((n_random, 2, basis.n))
    return np.column_stack(smooth + list(rough[:, 0] + 1j * rough[:, 1]))


def lu_factor(A: csc_matrix):
    """Sparse LU factors (SuperLU) of the complex CSC matrix A that
    ``OperatorMatrix.i_minus`` builds, taken as it is: complex, so that any
    right-hand side solves; RuntimeError if a pivot is exactly zero."""
    return splu(A)


def lu_solve(lu, b: np.ndarray, trans: int = 0) -> np.ndarray:
    """Solve A x = b (trans 0), A^T x = b (1) or A^H x = b (2) with the
    factors of ``lu_factor``; b is a vector or a block of columns."""
    return lu.solve(b, trans="NTH"[trans])


def _near_kernel(op: OperatorMatrix, x: np.ndarray):
    """A = I - op as a sparse matrix (``OperatorMatrix.i_minus``), its LU
    factors, its smallest singular value |A x| and whether A is
    near-singular (|A x| not finite or below RESONANCE_TOL times the
    dimension).  x is the right singular vector, from eight steps of
    inverse iteration on A^H A, x <- A^{-1} A^{-H} x, from the unit x.
    An exactly singular A has no factors: None, with |A x| taken as nan."""
    A = op.i_minus()
    try:
        lu = lu_factor(A)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        if "singular" not in str(exc):
            raise
        return A, None, math.nan, True
    for _ in range(8):
        x = lu_solve(lu, lu_solve(lu, x, trans=2))
        nx = np.linalg.norm(x)
        if not np.isfinite(nx) or nx == 0:
            break
        x /= nx
    smin = float(np.linalg.norm(A @ x))
    return A, lu, smin, \
        not np.isfinite(smin) or smin < RESONANCE_TOL * A.shape[0]


def _unit_start(rng, n: int) -> np.ndarray:
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return x / np.linalg.norm(x)


def resolvent_scan(basis: CylinderBasis, roof, b_grid, omega_grid,
                   N: int | None = None, C6: float = 1.0,
                   n_random: int = 200, n_adversarial: int = 5,
                   seed: int = 0) -> ResolventScan:
    """Probe estimates of ||(I - R_{ib,iw})^{-1}||_b over a frequency grid.

    Near-singular systems (smallest singular value of I - R below
    RESONANCE_TOL times the dimension n) are flagged as
    approximate-eigenvalue candidates and skipped; the growth exponent
    alpha is fitted on the unflagged points.
    """
    if not C6 > 0:
        raise ValueError(f"C6 = {C6}: not > 0")
    theta = basis.ind.model.theta
    rng = np.random.default_rng(seed)
    grid = TowerGrid(basis, roof, N)
    bs, oms, norms, flags, resids = [], [], [], [], []
    for b in np.atleast_1d(b_grid):
        for om in np.atleast_1d(omega_grid):
            x = _unit_start(rng, basis.n)
            A = lu = None  # free the last point's factors before this one's
            A, lu, smin, singular = _near_kernel(
                assemble_twisted(grid, 1j * b, 1j * om), x)
            bs.append(b)
            oms.append(om)
            resids.append(smin)
            if singular:
                flags.append(True)
                norms.append(math.inf)
                continue
            flags.append(False)
            # the adversarial start: x <- A^{-T} A^{-1} x from the same start.
            # A singular vector of A is a stronger probe, but on the doubling
            # basis at b = 3 it gives 2.66 at depth 6 against 1.59 at 12.
            for _ in range(8):
                x = lu_solve(lu, x)
                x = lu_solve(lu, x.conj(), trans=2).conj()
                nx = np.linalg.norm(x)
                if not np.isfinite(nx) or nx == 0:
                    break
                x /= nx
            # the probes as the columns of one block: the smooth and random
            # families, the one-hot at the start's peak and the adversarial
            # chain from it; each is scaled to unit b-norm
            e = np.zeros(basis.n, dtype=complex)
            e[int(np.argmax(np.abs(x)))] = 1.0
            chain = [x]
            for _ in range(n_adversarial - 1):
                y = (A.T @ chain[-1].conj()).conj()   # A^H chain[-1]
                chain.append(y / np.linalg.norm(y))
            block = np.column_stack([_b_probes(basis, b, n_random, rng), e]
                                    + chain[:n_adversarial])
            block /= basis.norm_b(block, b, C6, theta)
            sol = lu_solve(lu, block)
            norms.append(float(np.max(basis.norm_b(sol, b, C6, theta))))
    bs = np.array(bs)
    norms = np.array(norms)
    flags = np.array(flags)
    ok = ~flags & (bs > 1.0)
    if ok.sum() >= 2:
        A_ = np.column_stack([np.ones(ok.sum()), np.log(bs[ok])])
        coef, *_ = np.linalg.lstsq(A_, np.log(norms[ok]), rcond=None)
        alpha = float(coef[1])
    else:
        alpha = math.nan
    return ResolventScan(b=bs, omega=np.array(oms), norm_estimate=norms,
                         resonance=flags, alpha_fit=alpha,
                         residuals=np.array(resids))


# ---------------------------------------------------------------------------
# Laplace transform of the flow correlation
# ---------------------------------------------------------------------------

# The flight integrals of e^{+-s u} use the 16-node Gauss rule of
# ``towerop``.  Up to this phase |Im s| max h along a flight, the transform
# of observables that are constant along a flight or run through one period
# of it moves by at most 1e-10 relative on going to 64 nodes (pm(0.5), J 60,
# refine 8, cosine roof, cut and uncut towers, Re s = 0.05, 0.3 and 1).
FLIGHT_PHASE_MAX = 15.0


def laplace_transform(grid: TowerGrid, v: Observable, w: Observable,
                      s: complex) -> complex:
    """Laplace transform of the flow correlation of v, w, at Re s >= 0.

    The same-flight term, plus the operator series sum_{n>=1} <L^n v_s, w_s>
    (L one tower step twisted by e^{-s h}), minus the mean-product pole 1/s.
    X = sum_{n>=0} L^n V solves X = V + L X; level by level
    X_l = G_l + e^{-s cum_l} X_0, with G the climb of V that never re-enters
    the base, and the column tops give (I - R_{-s}) X_0 = V_0 + Mhat g, with
    g the tops of the twisted G.  Mhat 1 = 1 and h > 0 put the abscissa of
    absolute convergence at 0, so Re s < 0 raises ArithmeticError.  So does
    a pole: an I - R_{-s} that the near-kernel test of ``resolvent_scan``
    finds singular, as at s = 0.  At Re s = 0 the value is the boundary
    value from the right.  A weighted state that is not finite (e^{s u}
    overflowing under an unbounded roof) raises ArithmeticError, and so
    does an s that the flight rule does not resolve: |Im s| times the
    largest roof value above ``FLIGHT_PHASE_MAX``.
    """
    if grid.roof is None:
        raise ValueError("grid carries no roof")
    if s.real < 0:
        raise ArithmeticError(f"Laplace transform diverges at s={s}: "
                              f"Re s is left of the abscissa 0")
    phase = abs(s.imag) * max(float(np.max(h)) for h in grid.h_at)
    if phase > FLIGHT_PHASE_MAX:
        raise ArithmeticError(f"Laplace transform at s={s} is not resolved: "
                              f"|Im s| max h = {phase:.4g} is above "
                              f"{FLIGHT_PHASE_MAX}, the flight rule's limit")
    # an overflowing weight is refused just below, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        v_s = grid.state_from_observable(v, weight=lambda u: np.exp(s * u))
        w_s = grid.state_from_observable(w, weight=lambda u: np.exp(-s * u))
    if not all(np.isfinite(x).all() for x in v_s + w_s):
        raise ArithmeticError(f"e^(+-s u)-weighted state not finite at s={s}")
    vbar = complex(grid.integrate(grid.state_from_observable(v))) / grid.hbar
    wbar = complex(grid.integrate(grid.state_from_observable(w))) / grid.hbar
    # same-flight term: int_0^h v(x,u) int_u^h e^{-s(t-u)} w(x,t) dt du, by
    # the Gauss rule in u and in t, on all the cells of a level at once
    term0 = 0j
    for p, h, m in zip(grid.pos_at, grid.h_at, grid.mu_at):
        u = 0.5 * h[:, None] * (_QN + 1.0)
        seg = (h[:, None] - u)[..., None]
        t = u[..., None] + 0.5 * seg * (_QN + 1.0)
        inner = (0.5 * seg * np.exp(-s * (t - u[..., None]))
                 * w(p[:, None, None], t, h[:, None, None])) @ _QW
        term0 += m @ (0.5 * h * ((v(p[:, None], u, h[:, None]) * inner)
                                 @ _QW))
    term0 /= grid.rbar
    _, lu, smin, singular = _near_kernel(
        assemble_twisted(grid, -s), _unit_start(np.random.default_rng(0),
                                                grid.basis.n))
    if singular:
        raise ArithmeticError(f"Laplace transform has a pole at s={s}: "
                              f"I - R_-s is near-singular (smallest "
                              f"singular value {smin:.3g})")
    # the climb G of V that never re-enters the base, level by level; the
    # tops of the twisted G, in leaf order, are what G sends to the base
    G, tops = [np.zeros(grid.basis.n, dtype=complex)], []
    for ell, (t, k) in enumerate(zip(grid._twists(-s), grid.n_top)):
        tG = t * G[-1]
        tops.append(tG[:k])
        if ell + 1 < grid.max_h:
            G.append(v_s[ell + 1] + tG[k:])
    X0 = lu_solve(lu, v_s[0] + grid.basis.apply(np.concatenate(tops)))
    X = [g + np.exp(-s * c) * X0[f:]
         for g, c, f in zip(G, _cum_roof(grid), grid.first)]
    series = sum(m @ ((x - a) * b) for m, x, a, b
                 in zip(grid.mu_at, X, v_s, w_s)) / grid.rbar
    return (term0 + series) / grid.hbar - vbar * wbar / s
