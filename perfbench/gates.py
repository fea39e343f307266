"""Correctness gates of the benchmark workloads, and the result digest.

The tolerances are the acceptance suite's (``towerlab.acceptance``),
copied unchanged.  A gate is a ``(name, passed)`` pair; every gate a
workload evaluates counts as attempted and a failed one fails the run.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

RESIDUAL_TOL = 1e-8      # criteria 5 and 6: renewal and decomposition
LATTICE_ATOL = 1e-9      # criterion 8: flags sit on the 2 pi lattice
LATTICE_DETECT = 1e-12   # criterion 8: which grid points are lattice points
STABILITY_MAX = 3.0      # criterion 4: spread of the bound ratios


def renewal_gates(s: complex, rd) -> list[tuple[str, bool]]:
    worst = max(rd.max_residual, rd.recursion_residual)
    return [(f"renewal residual at s={s}", bool(worst <= RESIDUAL_TOL))]


def decomposition_gates(n: int, rep) -> list[tuple[str, bool]]:
    return [(f"decomposition residual at n={n}",
             bool(rep.residual <= RESIDUAL_TOL)),
            (f"blocks vanish past the cut at n={n}", bool(rep.vanish_beyond))]


def resonance_gates(b_grid, scan_constant, scan_cosine
                    ) -> list[tuple[str, bool]]:
    """Constant roof: flags exactly on the 2 pi lattice, one per lattice
    point.  Cosine roof: no flags, finite norms and a finite exponent."""
    flagged = scan_constant.b[scan_constant.resonance]
    on_lattice = np.allclose(np.round(flagged / (2 * np.pi)) * 2 * np.pi,
                             flagged, atol=LATTICE_ATOL)
    n_lattice = sum(1 for b in b_grid if abs(b / (2 * np.pi)
                                             - round(b / (2 * np.pi)))
                    < LATTICE_DETECT)
    return [
        ("constant roof: flags on the 2 pi lattice", bool(on_lattice)),
        ("constant roof: one flag per lattice point",
         len(flagged) == n_lattice),
        ("cosine roof: no flags", not bool(np.any(scan_cosine.resonance))),
        ("cosine roof: finite norms",
         bool(np.all(np.isfinite(scan_cosine.norm_estimate)))),
        ("cosine roof: finite alpha",
         bool(np.isfinite(scan_cosine.alpha_fit))),
    ]


def truncation_gates(label: str, rows, stable_within: float
                     ) -> list[tuple[str, bool]]:
    out = [(f"{label}: measured <= bound at N={r.N}, t={r.t:g}",
            bool(r.measured <= r.bound)) for r in rows]
    out.append((f"{label}: stable within {STABILITY_MAX:g}",
                bool(stable_within <= STABILITY_MAX)))
    return out


def digest(values) -> str:
    """SHA-256 of the checked numbers at full precision.

    ``values`` is a flat sequence of floats, ints, bools, strings and
    arrays; floats are hashed by their exact hexadecimal form.
    """
    h = hashlib.sha256()
    for v in values:
        if isinstance(v, np.ndarray):
            for x in v.ravel().tolist():
                h.update(_token(x))
        else:
            h.update(_token(v))
    return h.hexdigest()


def _token(x) -> bytes:
    if isinstance(x, (bool, np.bool_)):
        return b"b1;" if x else b"b0;"
    if isinstance(x, (int, np.integer)):
        return f"i{int(x)};".encode()
    if isinstance(x, str):
        return f"s{len(x)}:{x};".encode()
    if isinstance(x, complex):
        return _token(x.real) + _token(x.imag)
    x = float(x)
    return ("f" + (x.hex() if math.isfinite(x) else repr(x)) + ";").encode()
