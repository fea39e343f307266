"""Exact within-group diameters for the symbolic theta-seminorm.

The seminorm of a vector on the cylinder basis, or on the tower, is the
largest diameter max |v_i - v_j| over groups of entries that share a word
prefix, weighted by theta^-depth.  ``GroupDiameters`` computes it exactly for
real and complex data, for all groups and depths in one pass, and for the P
columns of an (n, P) stack at once; each column's value is bit for bit the
value of that column alone.

The groups must nest: every group of a deeper depth lies inside one group
of each shallower depth.  The constructor checks this and raises
``ValueError`` otherwise.  Nesting lets the widths that bound the diameters
come from one hierarchical reduce.  The deepest groups reduce the entries'
projections, and each shallower depth reduces the maxima of the next deeper
one, so each entry is read once and each group's maximum once: about 2n
values, where a reduce over the members of every group reads n per depth.
Minima are taken as maxima of the negated values.  Max is exact and
order-free, so the widths equal those of a direct reduce.
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
_BUFFER_SIZE = 1 << 16   # doubles in the widths' buffer per block of columns


def _projections(z: np.ndarray, out: np.ndarray | None = None
                 ) -> np.ndarray:
    """Rows: z projected onto the directions 0, 45, 90, 135 degrees."""
    re, im = z.real, z.imag
    h = math.sqrt(0.5)
    return np.stack([re, (re + im) * h, im, (im - re) * h], out=out)


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
    contiguous runs are the depth-d groups; the groups of a deeper depth
    must lie inside those of every shallower one (``ValueError``
    otherwise).  ``value(v, theta)`` is

        max over groups g of theta^-d(g) max_{i, j in g} |v_i - v_j|,

    exact for real and complex v, for each column of an (n, P) v.  Real
    data: the group's range.  Complex data: every group is first bounded by
    its widths in four directions; only the (group, column) pairs whose
    bound can reach the column's best width are measured exactly, small
    groups by all pairs (vectorised over equal-sized groups), large ones by
    all pairs of the points that can end a diameter.
    """

    def __init__(self, labels: dict[int, np.ndarray]) -> None:
        depths = sorted(labels)
        if len({len(labels[d]) for d in depths}) > 1:
            raise ValueError("labels of different lengths")
        n = len(labels[depths[0]]) if depths else 0
        starts = [np.r_[0, np.flatnonzero(np.diff(labels[d])) + 1]
                  for d in depths]
        for coarse, fine in zip(starts, starts[1:]):
            at = np.minimum(np.searchsorted(fine, coarse), len(fine) - 1)
            if not np.array_equal(fine[at], coarse):
                raise ValueError("label groups do not nest")
        sizes = [np.diff(np.r_[a, n]) for a in starts]
        pair = [m >= 2 for m in sizes]          # singletons have no pairs
        self._lo = np.concatenate(
            [a[k] for a, k in zip(starts, pair)] or [[]]).astype(np.intp)
        self._size = np.concatenate(
            [m[k] for m, k in zip(sizes, pair)] or [[]]).astype(np.intp)
        self._depth = np.concatenate(
            [np.full(k.sum(), float(d)) for d, k in zip(depths, pair)] or [[]])
        self._pairs = {s: np.triu_indices(s, 1)
                       for s in set(self._size.tolist()) if s <= _PAIRWISE_MAX}
        # The widths are reduced over the entries that lie in some group of
        # two or more, in a buffer of rows: those entries, then one row per
        # run of two or more parts, deepest depth first.  A run of one part
        # is that part's row.  The runs of a depth with equal part counts
        # form one bucket: one gather of their parts, part by part, and one
        # maximum over them.
        self._entries = np.flatnonzero(np.repeat(pair[0], sizes[0])) \
            if depths else np.zeros(0, dtype=np.intp)
        ne = len(self._entries)
        self._buckets = []                  # (first row, part rows (c, m))
        self._rows = np.zeros(0, dtype=np.intp)
        parts, part_rows, nrows = np.arange(ne + 1), np.arange(ne), ne
        for i in reversed(range(len(depths) if ne else 0)):
            run = np.repeat(np.arange(len(sizes[i])), sizes[i])[self._entries]
            first = np.searchsorted(parts, np.r_[0, np.flatnonzero(
                np.diff(run)) + 1])             # first part of each run
            count = np.diff(np.r_[first, len(part_rows)])
            rows = part_rows[first]
            for c in sorted(set(count[count >= 2].tolist())):
                runs = np.flatnonzero(count == c)
                self._buckets.append(
                    (nrows, part_rows[first[runs] + np.arange(c)[:, None]]))
                rows[runs] = nrows + np.arange(len(runs))
                nrows += len(runs)
            # the runs of two or more entries are this depth's groups
            self._rows = np.r_[rows[np.diff(np.r_[parts[first], ne]) >= 2],
                               self._rows]
            parts, part_rows = np.r_[parts[first], ne], rows
        self._nrows = nrows
        # Each entry is a part of at most one bucket.  The entries are
        # stored part by part in the order of the buckets that reduce
        # entries only, so that those buckets read views, not gathers.
        direct = [b for b in self._buckets if b[1].max() < ne]
        self._buckets = [b for b in self._buckets if b[1].max() >= ne]
        rest = np.ones(ne, dtype=bool)
        for _, idx in direct:
            rest[idx] = False
        order = np.concatenate([idx.ravel() for _, idx in direct]
                               + [np.flatnonzero(rest)])
        inv = np.empty(ne, dtype=np.intp)
        inv[order] = np.arange(ne)

        def renumber(rows):
            return np.where(rows < ne, inv[np.minimum(rows, ne - 1)], rows)

        self._entries = self._entries[order]
        self._views = []                    # (first row, first entry, c, m)
        for first, idx in direct:
            start = sum(c * m for _, _, c, m in self._views)
            self._views.append((first, start) + idx.shape)
        self._buckets = [(first, renumber(idx)) for first, idx in self._buckets]
        self._rows = renumber(self._rows)

    def _widths(self, x: np.ndarray, complex_: bool) -> np.ndarray:
        """Per group and column, the widest projection range: (G, P).

        ``x`` holds the grouped entries, (len(_entries), P).  Row k of the
        buffer's last axis holds, per projection and column, the maxima of
        the projections and of their negatives over its run; the range is
        max + max(-x), which equals max - min exactly.  Real data has one
        projection.
        """
        ne, r = len(x), 4 if complex_ else 1
        buf = np.empty((2 * r, x.shape[1], self._nrows))
        if complex_:
            _projections(x.T, out=buf[:r, :, :ne])
        else:
            buf[0, :, :ne] = x.real.T
        np.negative(buf[:r, :, :ne], out=buf[r:, :, :ne])
        for first, a, c, m in self._views:
            np.maximum.reduce(buf[:, :, a:a + c * m].reshape(2 * r, -1, c, m),
                              axis=2, out=buf[:, :, first:first + m])
        for first, idx in self._buckets:
            np.maximum.reduce(np.take(buf, idx, axis=2), axis=2,
                              out=buf[:, :, first:first + idx.shape[1]])
        top = buf[:r, :, ne:]                   # the runs' rows, in place
        np.add(top, buf[r:, :, ne:], out=top)
        return np.take(np.max(top, axis=0), self._rows - ne, axis=1).T

    def value(self, v: np.ndarray, theta: float):
        """The weighted seminorm: a float for v of shape (n,), an array of
        P values for v of shape (n, P), each equal to the value of its
        column alone."""
        v = np.asarray(v)
        V = v.reshape(len(v), -1)
        best = np.zeros(V.shape[1])
        weight = theta ** -self._depth
        # columns in blocks of bounded buffer size, at least 8 at a time
        step = max(8, _BUFFER_SIZE // max(8 * self._nrows, 1))
        for a in range(0, len(best) if len(self._lo) else 0, step):
            W, top = V[:, a:a + step], best[a:a + step]
            x = np.take(W, self._entries, axis=0)
            cplx = x.imag.any(axis=0) if np.iscomplexobj(x) \
                else np.zeros(len(top), dtype=bool)
            complex_ = bool(cplx.any())
            width = weight[:, None] * self._widths(x, complex_)
            top[:] = np.max(width, axis=0)
            if complex_:            # a real range is exact
                self._refine(W, weight, width, top, cplx)
        return float(best[0]) if v.ndim == 1 else best

    def _refine(self, V, weight, width, best, cplx) -> None:
        """Raise ``best`` to the exact diameters of the complex columns.

        A (group, column) pair is measured when its width bound reaches the
        column's best width.  Columns whose widths are all zero are exact
        already: their groups' points coincide.
        """
        cg, ck = np.nonzero((width * _WIDTH_BOUND >= best)
                            & (cplx & (best > 0)))
        size = self._size[cg]
        # ascending sizes: the large groups come last and are skipped when
        # their bound falls below the column's best diameter found so far
        for s in sorted(set(size.tolist())):
            sel = size == s
            g, k = cg[sel], ck[sel]
            if s > _PAIRWISE_MAX:
                go = width[g, k] * _WIDTH_BOUND >= best[k]
                for gi, ki in zip(g[go].tolist(), k[go].tolist()):
                    z = V[self._lo[gi]:self._lo[gi] + s, ki]
                    best[ki] = max(best[ki], weight[gi] * _diameter(z))
                continue
            i, j = self._pairs[s]
            step = max(1, _PAIR_BLOCK // len(i))
            for a in range(0, len(g), step):
                gk, kk = g[a:a + step], k[a:a + step]
                z = V[self._lo[gk][:, None] + np.arange(s), kk[:, None]]
                d = z[:, i] - z[:, j]
                d2 = np.max(d.real ** 2 + d.imag ** 2, axis=1)
                np.maximum.at(best, kk, np.sqrt(d2) * weight[gk])
