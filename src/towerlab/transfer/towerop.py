"""Transfer operators on the discretised tower.

Tower functions are stored level by level over the cylinder basis; one
application of the (twisted) tower transfer operator shifts levels up,
multiplies in the roof twist, and sends column tops through the base
transfer matrix.  This is the workhorse behind renewal sequences, operator
decompositions, map-level correlations and Laplace-transform series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial.legendre import leggauss

from towerlab.suspension import Observable, RoofFunction
from towerlab.transfer.basis import CylinderBasis
from towerlab.transfer.diameters import GroupDiameters

__all__ = ["TowerGrid", "map_correlation_operator", "laplace_series"]

_QN, _QW = leggauss(16)


class TowerGrid:
    """Level-resolved discretisation of a (possibly truncated) tower.

    Column heights are min(r, N).  Roof values are collocated along the
    forward orbit of each cylinder midpoint; their per-column sums are the
    induced-roof values used by the base-side twisted operators, so tower
    and base twists agree by construction.
    """

    def __init__(self, basis: CylinderBasis, roof: RoofFunction | None,
                 N: int | None = None) -> None:
        self.basis = basis
        self.roof = roof
        self.N = N
        r = basis.r_col
        self.heights = r if N is None else np.minimum(r, N)
        self.max_h = int(self.heights.max())
        self.rbar = float(np.sum(self.heights * basis.mu))
        # level-major tables
        self.active: list[np.ndarray] = []
        self.mu_at: list[np.ndarray] = []
        self.pos_at: list[np.ndarray] = []
        self.h_at: list[np.ndarray] = []
        self.sel_next: list[np.ndarray] = []
        self.top_mask: list[np.ndarray] = []
        pos = basis.mid.copy()
        act = np.arange(basis.n)
        for ell in range(self.max_h):
            keep = self.heights[act] > ell
            act = act[keep]
            pos = pos[keep] if ell > 0 else basis.mid[act]
            self.active.append(act)
            self.mu_at.append(basis.mu[act])
            self.pos_at.append(pos.copy())
            if roof is not None:
                self.h_at.append(np.asarray(roof(pos), dtype=float))
            else:
                self.h_at.append(np.zeros(len(act)))
            nxt = self.heights[act] > ell + 1
            self.sel_next.append(np.nonzero(nxt)[0])
            self.top_mask.append(np.nonzero(~nxt)[0])
            pos = basis.ind.model.apply(pos)
        # induced roof sums per column (over truncated heights)
        H = np.zeros(basis.n)
        for ell in range(self.max_h):
            H[self.active[ell]] += self.h_at[ell]
        self.H_col = H
        self.hbar = float(sum(m @ h for m, h in zip(self.mu_at, self.h_at))
                          / self.rbar)
        self.n_cells = int(self.heights.sum())
        self._twist_key = self._twist = None

    # -- states ----------------------------------------------------------------

    def zero_state(self, dtype=complex, width: int | None = None) -> list:
        if width is None:
            return [np.zeros(len(a), dtype=dtype) for a in self.active]
        return [np.zeros((len(a), width), dtype=dtype) for a in self.active]

    def state_from_base(self, u: np.ndarray) -> list:
        V = self.zero_state(dtype=u.dtype if np.iscomplexobj(u) else float,
                            width=u.shape[1] if u.ndim == 2 else None)
        V[0] = np.array(u[self.active[0]], copy=True)
        return V

    def state_from_function(self, func) -> list:
        """Tower vector of an ambient-position function."""
        return [np.asarray(func(p), dtype=float).copy() for p in self.pos_at]

    def state_from_observable(self, obs: Observable, weight=None) -> list:
        """Per-cell u-quadrature of an observable: int_0^h w(u) v(x, u) du."""
        out = []
        for p, h in zip(self.pos_at, self.h_at):
            nodes = 0.5 * h[:, None] * (_QN[None, :] + 1.0)
            vals = obs(np.repeat(p[:, None], len(_QN), 1), nodes,
                       np.repeat(h[:, None], len(_QN), 1))
            if weight is not None:
                vals = vals * weight(nodes)
            out.append(0.5 * h * (vals @ _QW))
        return out

    # -- dynamics ----------------------------------------------------------------

    def _twists(self, s: complex) -> list:
        """The level twists e^{s h}, computed once per s: the last s and
        its twists are kept.  A real and a complex s of equal value give
        twists of different dtype, so the key tells them apart."""
        key = (s, np.iscomplexobj(s))
        if self._twist_key != key:
            self._twist = [np.exp(s * h) for h in self.h_at]
            self._twist_key = key
        return self._twist

    def step(self, V: list, s: complex | None = None) -> list:
        """One application of L_s: twist by e^{s h}, shift, drop tops."""
        if s is None or s == 0:
            W = V
        else:
            W = [t[(slice(None),) + (None,) * (v.ndim - 1)] * v
                 for v, t in zip(V, self._twists(s))]
        shape = (self.basis.n,) + W[0].shape[1:]
        u = np.zeros(shape, dtype=W[0].dtype)
        for ell in range(self.max_h):
            tops = self.top_mask[ell]
            if len(tops):
                u[self.active[ell][tops]] = W[ell][tops]
        out = [self.basis.apply(u)]
        for ell in range(self.max_h - 1):
            out.append(W[ell][self.sel_next[ell]])
        return out

    def integrate(self, V: list):
        """Integral against the tower measure mu_Y x counting / rbar."""
        return sum(m @ v for m, v in zip(self.mu_at, V)) / self.rbar

    def base_values(self, V: list) -> np.ndarray:
        """Values on the base level, widened to the full basis indexing."""
        out = np.zeros((self.basis.n,) + V[0].shape[1:], dtype=V[0].dtype)
        out[self.active[0]] = V[0]
        return out

    @cached_property
    def _diameters(self) -> GroupDiameters:
        """Seminorm groups of the flattened tower vector: one level and one
        depth-d column prefix, d >= 1."""
        basis = self.basis
        act = np.concatenate(self.active)
        level = np.repeat(np.arange(self.max_h),
                          [len(a) for a in self.active])
        return GroupDiameters({d: level * basis.n + basis._groups[d][act]
                               for d in range(1, basis.depth)})

    def theta_seminorm(self, V: list, theta: float):
        """Symbolic seminorm of a tower function: pairs separate unless they
        sit on the same level with a common column prefix.  Exact for real
        and complex V, all levels in one pass.  Levels of shape (len, P)
        hold P tower functions as columns and give their P seminorms."""
        return self._diameters.value(np.concatenate(V), theta)


# ---------------------------------------------------------------------------
# Map-level correlations through the untruncated tower operator
# ---------------------------------------------------------------------------

def map_correlation_operator(basis: CylinderBasis, v_func, w_func,
                             n_max: int) -> np.ndarray:
    """Deterministic correlations int v . w o T^n dnu - means, n = 0..n_max.

    v and w are functions of the ambient coordinate, lifted through the
    tower projection; the transfer operator is iterated on the untruncated
    (represented) tower.  When the induced map has an escape ladder past
    the cell cutoff (``InducedMap.tail_columns``), those columns contribute
    through it: their never-returned pairs are summed explicitly and their
    returned mass is closed with the equilibrium mean.
    """
    grid = TowerGrid(basis, None, None)
    V = grid.state_from_function(v_func)
    Wv = grid.state_from_function(w_func)
    raw = np.empty(n_max + 1)
    for n in range(n_max + 1):
        raw[n] = float(np.real(sum(m @ (a * b) for m, a, b
                                   in zip(grid.mu_at, V, Wv))))
        if n < n_max:
            V = grid.step(V, None)
    int_v = float(np.real(sum(m @ a for m, a in
                              zip(grid.mu_at, grid.state_from_function(v_func)))))
    int_w = float(np.real(sum(m @ a for m, a in zip(grid.mu_at, Wv))))
    rbar = grid.rbar
    tail = basis.ind.tail_columns()
    if tail is None:
        vbar, wbar = int_v / rbar, int_w / rbar
        return raw / rbar - vbar * wbar
    rs, mu_r, base_mid, lad_mid = tail
    lv = np.asarray(v_func(lad_mid[1:]), dtype=float)   # depth 1..H-1
    lw = np.asarray(w_func(lad_mid[1:]), dtype=float)
    bv = np.asarray(v_func(base_mid), dtype=float)
    bw = np.asarray(w_func(base_mid), dtype=float)
    H = len(lad_mid)
    mass_ge = np.zeros(H + 2)   # mass_ge[d] = sum of mu_r over r >= d
    np.add.at(mass_ge, rs, mu_r)
    mass_ge = mass_ge[::-1].cumsum()[::-1]
    rbar_tail = float(np.sum(rs * mu_r))
    rbar_ext = rbar + rbar_tail
    # extended means: ladder levels 1..r-1 plus the base level of column r
    lad_v_cum = np.concatenate([[0.0], np.cumsum(lv)])  # sum over depths 1..d
    int_v_ext = int_v + float(np.sum(mu_r * (bv + lad_v_cum[rs - 1])))
    lad_w_cum = np.concatenate([[0.0], np.cumsum(lw)])
    int_w_ext = int_w + float(np.sum(mu_r * (bw + lad_w_cum[rs - 1])))
    vbar, wbar = int_v_ext / rbar_ext, int_w_ext / rbar_ext
    out = np.empty(n_max + 1)
    for n in range(n_max + 1):
        if n == 0:
            never = float(np.sum(mu_r * (bv * bw + np.cumsum(lv * lw)[rs - 2])))
            ret = 0.0
        else:
            # never-returned pairs: level l has ladder depth d = r - l; its
            # image under f^n sits at depth d - n, so pairs live on the
            # ladder for d in [n+1, r-1], plus the level-0 cell of column r
            # pairing with depth r - n
            d = np.arange(n + 1, H)
            never = float(np.sum(lv[d - 1] * lw[d - n - 1] * mass_ge[d + 1]))
            sel = rs > n
            never += float(np.sum(mu_r[sel] * bv[sel] * lw[rs[sel] - n - 1]))
            # mass returned to the base by time n closes with the mean of w
            v_sum_returned = (rs <= n) * bv + lad_v_cum[np.minimum(n, rs - 1)]
            ret = float(np.sum(mu_r * v_sum_returned)) * wbar
        out[n] = (raw[n] + never + ret) / rbar_ext - vbar * wbar
    return out


# ---------------------------------------------------------------------------
# Laplace-transform series
# ---------------------------------------------------------------------------

@dataclass
class LaplaceValue:
    s: complex
    value: complex
    n_terms: int
    converged: bool
    abscissa_estimate: float | None = None


def laplace_series(grid: TowerGrid, v: Observable, w: Observable,
                   s: complex, tol: float = 1e-10,
                   max_terms: int = 20000) -> LaplaceValue:
    """Laplace transform of the flow correlation of v, w at Re s > 0.

    Sums the operator series over return blocks plus the same-flight
    quadrature term, minus the mean product pole 1/s.  Divergence (Re s
    outside the contraction region) is detected from the term growth and
    reported through ``abscissa_estimate``.  A weighted state or series
    term that is not finite (e.g. e^{s u} overflowing under an unbounded
    roof) raises ArithmeticError.
    """
    if grid.roof is None:
        raise ValueError("grid carries no roof")
    v_s = grid.state_from_observable(v, weight=lambda u: np.exp(s * u))
    w_s = grid.state_from_observable(w, weight=lambda u: np.exp(-s * u))
    if not all(np.isfinite(x).all() for x in v_s + w_s):
        raise ArithmeticError(f"e^(+-s u)-weighted state not finite at s={s}")
    vbar = complex(grid.integrate(grid.state_from_observable(v))) / grid.hbar
    wbar = complex(grid.integrate(grid.state_from_observable(w))) / grid.hbar
    # same-flight term: int_0^h v(x,u) int_u^h e^{-s(t-u)} w(x,t) dt du
    term0 = 0.0 + 0.0j
    for p, h, m in zip(grid.pos_at, grid.h_at, grid.mu_at):
        nodes = 0.5 * h[:, None] * (_QN[None, :] + 1.0)
        inner = np.empty_like(nodes, dtype=complex)
        for k in range(nodes.shape[1]):
            a = nodes[:, k]
            seg = h - a
            sub = a[:, None] + 0.5 * seg[:, None] * (_QN[None, :] + 1.0)
            wv = w(np.repeat(p[:, None], len(_QN), 1), sub,
                   np.repeat(h[:, None], len(_QN), 1))
            inner[:, k] = 0.5 * seg * ((np.exp(-s * (sub - a[:, None])) * wv)
                                       @ _QW)
        vv = v(np.repeat(p[:, None], len(_QN), 1), nodes,
               np.repeat(h[:, None], len(_QN), 1))
        term0 += m @ (0.5 * h * ((vv * inner) @ _QW))
    term0 /= grid.rbar
    # operator series over n >= 1
    V = [np.asarray(x, dtype=complex) for x in v_s]
    total = 0.0 + 0.0j
    scale = max(1e-30, abs(term0))
    prev_mag = None
    growth = []
    n = 0
    converged = False
    for n in range(1, max_terms + 1):
        V = grid.step(V, -s)
        term = sum(m @ (a * b) for m, a, b in zip(grid.mu_at, V, w_s)) \
            / grid.rbar
        if not np.isfinite(term):
            raise ArithmeticError(f"series term {n} not finite at s={s}")
        total += term
        mag = abs(term)
        if prev_mag is not None and prev_mag > 0:
            growth.append(mag / prev_mag)
        prev_mag = mag
        scale = max(scale, abs(total))
        if mag < tol * scale and n > 4:
            converged = True
            break
        if n > 40 and len(growth) >= 20 and \
                np.median(growth[-20:]) > 1.0 + 1e-9:
            rate = float(np.median(growth[-20:]))
            return LaplaceValue(s=s, value=np.nan + 0j, n_terms=n,
                                converged=False,
                                abscissa_estimate=s.real + math.log(rate))
    value = (term0 + total) / grid.hbar - vbar * wbar / s
    return LaplaceValue(s=s, value=value, n_terms=n, converged=converged)
