"""Exact within-group diameters for the symbolic theta-seminorm.

The seminorm of a vector on the cylinder basis, or on the tower, is the
largest diameter max |v_i - v_j| over groups of entries that share a word
prefix, weighted by theta^-depth.  ``GroupDiameters`` computes it exactly for
real and complex data, for all groups and depths in one pass.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["GroupDiameters"]

# A set's diameter is at most its widest projection onto the directions
# 0, 45, 90 and 135 degrees over cos(pi/8); the margin absorbs rounding.
_WIDTH_BOUND = (1.0 + 1e-12) / math.cos(math.pi / 8.0)
_PAIRWISE_MAX = 64       # sets up to this size: all pairs, no filter
_PAIR_BLOCK = 1 << 14    # pair differences per block: bounds temporaries


def _projections(z: np.ndarray) -> np.ndarray:
    """Rows: z projected onto the directions 0, 45, 90, 135 degrees."""
    re, im = z.real, z.imag
    h = math.sqrt(0.5)
    return np.stack([re, (re + im) * h, im, (im - re) * h])


def _diameter(z: np.ndarray) -> float:
    """Exact diameter of a set of complex points.

    Points strictly inside the octagon of the extremes in four directions
    cannot end a diameter and are dropped (Akl-Toussaint); the rest are
    compared by all pairs, in blocks of bounded size.
    """
    proj = _projections(z)
    ext = z[np.r_[np.argmax(proj, axis=1), np.argmin(proj, axis=1)]]
    octo = ext[ext != np.roll(ext, 1)]  # extremes at 0, 45, ..., 315 degrees
    if len(octo) >= 3:
        # strictly inside: cross(edge, z - vertex) > 0 for every edge, by a
        # margin far above rounding, so that the octagon's vertices stay
        edge = np.roll(octo, -1) - octo
        margin = 1e-12 * np.abs(edge) * np.max(np.abs(z))
        offset = edge.real * octo.imag - edge.imag * octo.real + margin
        cross = z.imag[:, None] * edge.real - z.real[:, None] * edge.imag
        z = z[~np.all(cross > offset, axis=1)]
    best = 0.0
    step = max(1, _PAIR_BLOCK // len(z))
    for k in range(0, len(z), step):
        d = z[k:k + step, None] - z[None, k:]
        best = max(best, float(np.max(d.real ** 2 + d.imag ** 2)))
    return math.sqrt(best)


class GroupDiameters:
    """Largest weighted diameter of a vector over nested groups of entries.

    ``labels`` maps a depth d to labels of the vector's entries whose
    contiguous runs are the depth-d groups.  ``value(v, theta)`` is

        max over groups g of theta^-d(g) max_{i, j in g} |v_i - v_j|,

    exact for real and complex v.  Real data: the group's range.  Complex
    data: every group is first bounded by its widths in four directions;
    only groups whose bound can reach the best width are measured exactly,
    small ones by all pairs (vectorised over equal-sized groups), large ones
    by all pairs of the points that can end a diameter.
    """

    def __init__(self, labels: dict[int, np.ndarray]) -> None:
        lo, size, depth = [], [], []
        for d, lab in labels.items():
            cut = np.flatnonzero(np.diff(lab)) + 1
            a, n = np.r_[0, cut], np.diff(np.r_[0, cut, len(lab)])
            lo += list(a[n >= 2])               # singletons have no pairs
            size += list(n[n >= 2])
            depth += [d] * int(np.sum(n >= 2))
        self._lo = np.array(lo, dtype=np.intp)
        self._size = np.array(size, dtype=np.intp)
        self._depth = np.array(depth, dtype=float)
        self._starts = np.cumsum(self._size) - self._size
        self._members = np.arange(self._size.sum()) \
            + np.repeat(self._lo - self._starts, self._size)
        self._pairs = {s: np.triu_indices(s, 1)
                       for s in set(self._size.tolist()) if s <= _PAIRWISE_MAX}

    def value(self, v: np.ndarray, theta: float) -> float:
        if not len(self._lo):
            return 0.0
        v = np.asarray(v)
        x = v[self._members]
        complex_ = np.iscomplexobj(x) and x.imag.any()
        proj = _projections(x) if complex_ else x.real[None, :]
        weight = theta ** -self._depth
        width = weight * np.max(np.maximum.reduceat(proj, self._starts, 1)
                                - np.minimum.reduceat(proj, self._starts, 1),
                                axis=0)
        best = float(np.max(width))
        if not complex_:
            return best                         # a real range is exact
        cand = np.flatnonzero(width * _WIDTH_BOUND >= best)
        # ascending sizes: the large groups come last and are skipped when
        # their bound falls below the best diameter found so far
        for s in sorted(set(self._size[cand].tolist())):
            g = cand[self._size[cand] == s]
            if s > _PAIRWISE_MAX:
                for gi in g[width[g] * _WIDTH_BOUND >= best]:
                    z = v[self._lo[gi]:self._lo[gi] + s]
                    best = max(best, weight[gi] * _diameter(z))
                continue
            i, j = self._pairs[s]
            step = max(1, _PAIR_BLOCK // len(i))
            for k in range(0, len(g), step):
                gk = g[k:k + step]
                z = v[self._lo[gk][:, None] + np.arange(s)]
                d = z[:, i] - z[:, j]
                d2 = np.max(d.real ** 2 + d.imag ** 2, axis=1)
                best = max(best, float(np.max(np.sqrt(d2) * weight[gk])))
        return best
