"""Twisted base transfer operators, norms and scans.

The base operator R acts on cylinder collocation vectors; its twisted
variants weight each inverse branch by exp(s H' + z r') with H' the
truncated induced roof summed along the branch column.  Estimates of the
mixed sup/Lipschitz operator norm are probe maxima: basis vectors, random
unit-norm probes, and singular-vector refinements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from towerlab.transfer.basis import CylinderBasis
from towerlab.transfer.towerop import TowerGrid

__all__ = [
    "OperatorMatrix",
    "assemble_R",
    "assemble_twisted",
    "lasota_yorke_check",
    "resolvent_scan",
]


@dataclass
class OperatorMatrix:
    """Dense operator on cylinder collocation values."""

    mat: np.ndarray
    basis: CylinderBasis
    s: complex = 0.0
    z: complex = 0.0

    def apply(self, v: np.ndarray) -> np.ndarray:
        if self.mat is self.basis.Mhat:
            return self.basis.apply(v)
        return self.mat @ v

    def duality_defect(self, n_pairs: int = 20, seed: int = 0) -> float:
        """max |<Rv, w>_mu - <v, w o F>_mu| over random pairs, where the
        composition acts through the measure-consistent adjoint."""
        rng = np.random.default_rng(seed)
        n = self.basis.n
        mu = self.basis.mu
        adj = (self.mat.conj().T * mu[None, :]) / mu[:, None]
        worst = 0.0
        for _ in range(n_pairs):
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            lhs = np.sum(mu * self.apply(v) * w)
            rhs = np.sum(mu * v * (adj @ w))
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
    return OperatorMatrix(mat=basis.Mhat, basis=basis)


def assemble_twisted(grid: TowerGrid, s: complex, z: complex = 0.0
                     ) -> OperatorMatrix:
    """Twisted operator R_{s,z} v = R(e^{s H'} e^{z r'} v) on the grid's
    truncation level."""
    basis = grid.basis
    if s == 0 and z == 0:
        return OperatorMatrix(mat=basis.Mhat, basis=basis, s=s, z=z)
    tw = np.exp(s * grid.H_col + z * grid.heights)
    return OperatorMatrix(mat=basis.Mhat * tw[None, :], basis=basis, s=s, z=z)


# ---------------------------------------------------------------------------
# Twisted-iterate (Lasota-Yorke type) inequality
# ---------------------------------------------------------------------------

@dataclass
class IterateInequalityReport:
    """Fit of |R_{ib,iw}^n v|_theta <= C (|b| |v|_inf + theta^n |v|_theta)."""

    constants: dict            # (N) -> fitted C over the (b, w, n, probe) grid
    C: float                   # overall fitted constant
    stability: float           # max/min of the per-N constants
    rows: list = field(default_factory=list)


def lasota_yorke_check(basis: CylinderBasis, roof, b_list, omega_list,
                       n_max: int, N_list=(None,), n_probes: int = 8,
                       seed: int = 0) -> IterateInequalityReport:
    """Empirical uniformity of the twisted-iterate inequality across
    truncation levels, frequencies and iterates."""
    theta = basis.ind.model.theta
    rng = np.random.default_rng(seed)
    probes = [rng.standard_normal(basis.n) + 1j * rng.standard_normal(basis.n)
              for _ in range(n_probes - 2)]
    probes.append(np.exp(2j * np.pi * basis.mid))
    probes.append(basis.mid.astype(complex))
    P0 = np.stack(probes, axis=1)        # the probes, stepped as columns
    sup0 = basis.sup_norm(P0)
    sem0 = basis.theta_seminorm(P0, theta)
    constants = {}
    rows = []
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
                rows += [(N, b, om, n, float(r))
                         for col in ratio.T
                         for n, r in enumerate(col, start=1)]
        constants[N] = worst
    vals = list(constants.values())
    return IterateInequalityReport(constants=constants, C=max(vals),
                                   stability=max(vals) / max(min(vals), 1e-300),
                                   rows=rows)


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

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("b,omega,norm_estimate,resonance_flag,alpha_fit\n")
            for b, om, ne, rf in zip(self.b, self.omega,
                                     self.norm_estimate, self.resonance):
                fh.write(f"{b:.17g},{om:.17g},{ne:.17g},{int(rf)},"
                         f"{self.alpha_fit:.17g}\n")


def _b_probes(basis: CylinderBasis, b: float, n_random: int,
              rng) -> np.ndarray:
    """Probe columns: a smooth oscillatory family (depth-stable, carries
    the resonance physics) plus random rough ones."""
    smooth = [np.exp(2j * np.pi * k * c * basis.mid)
              for k in (1, 2, 3, 5, 8, 13) for c in (1.0, b / (2.0 * np.pi))]
    rough = rng.standard_normal((n_random, 2, basis.n))
    return np.column_stack(smooth + list(rough[:, 0] + 1j * rough[:, 1]))


def resolvent_scan(basis: CylinderBasis, roof, b_grid, omega_grid,
                   N: int | None = None, C6: float = 1.0,
                   n_random: int = 200, n_adversarial: int = 5,
                   seed: int = 0, resonance_tol: float = 1e-10
                   ) -> ResolventScan:
    """Probe estimates of ||(I - R_{ib,iw})^{-1}||_b over a frequency grid.

    Near-singular systems (eigenvalue 1 within ``resonance_tol``) are
    flagged as approximate-eigenvalue candidates and skipped; the growth
    exponent alpha is fitted on the unflagged points.
    """
    theta = basis.ind.model.theta
    rng = np.random.default_rng(seed)
    grid = TowerGrid(basis, roof, N)
    bs, oms, norms, flags, resids = [], [], [], [], []
    for b in np.atleast_1d(b_grid):
        for om in np.atleast_1d(omega_grid):
            A = -assemble_twisted(grid, 1j * b, 1j * om).mat
            A[np.diag_indices_from(A)] += 1.0
            lu = lu_factor(A)
            # smallest singular value by inverse power iteration on A^H A
            x = rng.standard_normal(basis.n) + 1j * rng.standard_normal(basis.n)
            x /= np.linalg.norm(x)
            for _ in range(8):
                x = lu_solve(lu, x)
                x = lu_solve(lu, x.conj(), trans=2).conj()
                nx = np.linalg.norm(x)
                if not np.isfinite(nx) or nx == 0:
                    break
                x /= nx
            smin = np.linalg.norm(A @ x)
            bs.append(b)
            oms.append(om)
            resids.append(float(smin))
            if not np.isfinite(smin) or smin < resonance_tol * basis.n:
                flags.append(True)
                norms.append(math.inf)
                continue
            flags.append(False)
            # the probes as the columns of one block: the smooth and random
            # families, the one-hot at the near-kernel's peak and the
            # adversarial chain from it; each is scaled to unit b-norm
            e = np.zeros(basis.n, dtype=complex)
            e[int(np.argmax(np.abs(x)))] = 1.0
            chain = [x]
            for _ in range(n_adversarial - 1):
                y = (chain[-1].conj() @ A).conj()   # A^H chain[-1]
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
