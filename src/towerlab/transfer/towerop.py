"""Transfer operators on the discretised tower.

Tower functions are stored level by level over the cylinder basis; one
application of the (twisted) tower transfer operator shifts levels up,
multiplies in the roof twist, and sends column tops through the base
transfer matrix.  This is the workhorse behind renewal sequences, operator
decompositions and map-level correlations.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import cached_property

import numpy as np
from numpy.polynomial.legendre import leggauss

from towerlab.maps import suffix_starts
from towerlab.suspension import Observable, RoofFunction, usable_cpus
from towerlab.transfer.basis import CylinderBasis
from towerlab.transfer.diameters import GroupDiameters

__all__ = ["TowerGrid", "map_correlation_operator"]

_QN, _QW = leggauss(16)

# A twisted step with at least this much tail work (tail cells times
# columns) runs its base product on the worker thread while the calling
# thread twists the tails; a smaller step loses more to the hand-off than
# it gains from the second core.  The break-even was measured at one BLAS
# thread: when BLAS itself runs on every core, the hand-off gains nothing.
MIN_OVERLAP = 1 << 16

_worker: ThreadPoolExecutor | None = None
_worker_lock = threading.Lock()


def _base_worker() -> ThreadPoolExecutor:
    """The module's one worker thread, started on first use."""
    global _worker
    with _worker_lock:
        if _worker is None:
            _worker = ThreadPoolExecutor(1, thread_name_prefix="towerop")
        return _worker


def _forget_worker() -> None:
    """A forked child has none of its parent's threads: it starts its own
    worker on first use."""
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


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
        # leaves come in order of r (InducedMap checks it), so the leaves
        # on level l are the suffix first[l]: and the column tops of level
        # l are its first n_top[l] entries (up to first[l + 1], or to n)
        self.first = suffix_starts(self.heights)
        self.n_top = np.diff(self.first, append=basis.n)
        self.mu_at = [basis.mu[f:] for f in self.first]
        self.pos_at = [basis.mid]
        for ell in range(1, self.max_h):
            self.pos_at.append(basis.ind.climb(
                self.pos_at[-1][self.n_top[ell - 1]:], ell - 1, 1))
        self.h_at = [np.zeros(len(p)) if roof is None
                     else np.asarray(roof(p), dtype=float)
                     for p in self.pos_at]
        # induced roof sums per column (over truncated heights)
        H = np.zeros(basis.n)
        for f, h in zip(self.first, self.h_at):
            H[f:] += h
        self.H_col = H
        self.hbar = float(sum(m @ h for m, h in zip(self.mu_at, self.h_at))
                          / self.rbar)
        self._twist_key = self._twist = None

    # -- states ----------------------------------------------------------------

    def zero_state(self, dtype=complex, width: int | None = None) -> list:
        shape = () if width is None else (width,)
        return [np.zeros((len(m),) + shape, dtype=dtype) for m in self.mu_at]

    def state_from_base(self, u: np.ndarray) -> list:
        V = self.zero_state(dtype=u.dtype if np.iscomplexobj(u) else float,
                            width=u.shape[1] if u.ndim == 2 else None)
        V[0] = np.array(u, copy=True)
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
        """The level twists e^{s h}, computed once per s: the last s and its
        twists are kept.  A real and a complex s of equal value give twists
        of different dtype, so the key tells them apart."""
        key = (s, np.iscomplexobj(s))
        if self._twist_key != key:
            self._twist = [np.exp(s * h) for h in self.h_at]
            self._twist_key = key
        return self._twist

    def step(self, V: list, s: complex | None = None) -> list:
        """One application of L_s: twist by e^{s h}, shift, drop tops.

        The heads of the levels, concatenated, are the column tops in leaf
        order: they go through Mhat to the new base.  The tails are the next
        levels; untwisted they are views of V, so V must not be written to
        while the result is in use.  A twisted step with at least
        ``MIN_OVERLAP`` tail work, in a process that may run on two CPUs,
        hands the product to the worker thread and twists the tails
        meanwhile; BLAS releases the GIL.  Both sides do the same
        operations on the same operands, so the result does not depend on
        the hand-off, bit for bit."""
        if s is None or s == 0:
            heads = [v[:k] for v, k in zip(V, self.n_top)]
            tails = [v[k:] for v, k in zip(V[:-1], self.n_top)]
            return [self.basis.apply(np.concatenate(heads))] + tails
        col = (slice(None),) + (None,) * (V[0].ndim - 1)
        twists = self._twists(s)
        tops = np.concatenate([t[:k][col] * v[:k]
                               for v, t, k in zip(V, twists, self.n_top)])
        columns = V[0].size // len(V[0])
        base = None
        if sum(map(len, V[1:])) * columns >= MIN_OVERLAP \
                and usable_cpus() >= 2:
            base = _base_worker().submit(self.basis.apply, tops)
        tails = [t[k:][col] * v[k:]
                 for v, t, k in zip(V[:-1], twists, self.n_top)]
        return [self.basis.apply(tops) if base is None
                else base.result()] + tails

    def integrate(self, V: list):
        """Integral against the tower measure mu_Y x counting / rbar."""
        return sum(m @ v for m, v in zip(self.mu_at, V)) / self.rbar

    @cached_property
    def flat_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """(leaf, level) of each entry of the flattened tower vector."""
        leaf = np.concatenate([np.arange(f, self.basis.n) for f in self.first])
        return leaf, np.repeat(np.arange(self.max_h), self.basis.n - self.first)

    @cached_property
    def _diameters(self) -> GroupDiameters:
        """Seminorm groups of the flattened tower vector: one level and one
        depth-d column prefix, d >= 1."""
        basis = self.basis
        leaf, level = self.flat_cells
        return GroupDiameters({d: level * basis.n + basis._groups[d][leaf]
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
    int_v = float(np.real(sum(m @ a for m, a in zip(grid.mu_at, V))))
    int_w = float(np.real(sum(m @ a for m, a in zip(grid.mu_at, Wv))))
    raw = np.empty(n_max + 1)
    for n in range(n_max + 1):
        raw[n] = float(np.real(sum(m @ (a * b) for m, a, b
                                   in zip(grid.mu_at, V, Wv))))
        if n < n_max:
            V = grid.step(V, None)
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
