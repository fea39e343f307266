"""Decay-rate bookkeeping: tail moments, truncation schedules and the
final rate assembly.

Collects the four error terms of the truncated-operator argument, runs the
N = [t/q] schedule, classifies the growth of the tail moment d_N by decay
exponent, and exposes the constructed slow/fast roof-sum tail example with
its designed single-logarithm gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RateBudget",
    "rate_budget",
    "tail_moments",
    "classify_dN",
    "roof_sum_tail_example",
]


def tail_moments(tails: np.ndarray) -> np.ndarray:
    """d_N = sum_{k<=N} k tails[k-1] for every N, given tails[k-1] =
    mu_Y(r >= k)."""
    k = np.arange(1, len(tails) + 1)
    return np.cumsum(k * tails)


@dataclass
class RateBudget:
    beta: float
    gamma: float
    t: np.ndarray
    N: np.ndarray
    terms: np.ndarray            # (4, len(t)): the four error terms
    dominant: np.ndarray         # index of the dominant term per t
    predicted_rate: str
    dN_class: str
    dN_defect: float             # fit defect of d_N against its class

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("t,N,term1,term2,term3,term4,dominant,predicted_rate\n")
            for i, t in enumerate(self.t):
                row = ",".join(f"{x:.17g}" for x in self.terms[:, i])
                fh.write(f"{t:.17g},{self.N[i]},{row},"
                         f"{int(self.dominant[i])},{self.predicted_rate}\n")


def _synthetic_tails(beta: float, gamma: float, horizon: int) -> np.ndarray:
    k = np.arange(1, horizon + 1)
    t = np.log(np.maximum(k, 2.0)) ** gamma * k ** (-(beta + 1.0))
    return np.minimum(t / t[0], 1.0)


def classify_dN(beta: float, gamma: float, dN: np.ndarray,
                N_grid: np.ndarray) -> tuple[str, float]:
    """Growth class of d_N: bounded above beta=1, a log power at beta=1,
    and (log N)^gamma N^{1-beta} below; returns (class, fit defect)."""
    L = np.log(N_grid.astype(float))
    vals = dN[N_grid - 1]
    if beta > 1.0:
        cls = "bounded"
        defect = float(vals[-1] / vals[len(vals) // 2] - 1.0)
    elif beta == 1.0:
        cls = f"(ln N)^{gamma + 1:g}"
        ratio = vals / L ** (gamma + 1.0)
        defect = float(np.abs(np.diff(np.log(ratio))).max())
    else:
        cls = f"(ln N)^{gamma:g} N^{1 - beta:g}"
        y = np.log(vals) - gamma * np.log(L)
        slope = np.polyfit(L, y, 1)[0]
        defect = float(abs(slope - (1.0 - beta)))
    return cls, defect


# the budget's fixed constants: the spectral margin d, the bound on sup |h|
# and the horizon of the synthetic tail
D = 0.01
H_SUP = 3.0
HORIZON = 200_000


def rate_budget(beta: float, gamma: float = 0.0) -> RateBudget:
    """Evaluate the truncated-operator error terms on the N = [t/q] schedule.

    The four terms are the truncation pair (ln N)^g N^-b and
    t (ln N)^g N^-(b+1), the spectral term d_N N^(1+d) exp(-eps ln N / N t),
    and the contour term (d_N N^d)^(p+2) t^-p, evaluated on the synthetic
    tail (ln k)^g k^-(b+1) over 60 log-spaced t in [10 q, 4000 q].  The
    parameters are derived from beta > 0, so they are admissible by
    construction: p = max(beta, (2-beta)/beta) + 1, eps = 0.99 d/(sup h
    + 1) and q = ceil((1+d+beta)/eps).  A term that is not finite (p
    overflows the contour term as beta -> 0) raises ArithmeticError.
    """
    if not beta > 0:
        raise ValueError(f"beta = {beta!r}: not > 0")
    p = max(beta, (2.0 - beta) / beta) + 1.0
    eps = 0.99 * D / (H_SUP + 1.0)
    q = math.ceil((1.0 + D + beta) / eps)
    t_grid = np.geomspace(10 * q, 4000 * q, 60)
    dN_all = tail_moments(_synthetic_tails(beta, gamma, HORIZON))
    N = np.maximum((t_grid / q).astype(int), 2)
    N = np.minimum(N, len(dN_all))
    dN = dN_all[N - 1]
    LN = np.log(N.astype(float))
    term1 = LN ** gamma * N ** (-beta)
    term2 = t_grid * LN ** gamma * N ** (-(beta + 1.0))
    term3 = dN * N ** (1.0 + D) * np.exp(-eps * LN / N * t_grid)
    term4 = (dN * N ** D) ** (p + 2.0) * t_grid ** (-p)
    terms = np.vstack([term1, term2, term3, term4])
    if not np.isfinite(terms).all():
        raise ArithmeticError(f"budget term not finite at beta = {beta:g}")
    dominant = np.argmax(terms, axis=0)
    if gamma == 0:
        predicted = f"t^-{beta:g}"
    else:
        predicted = f"(ln t)^{gamma:g} t^-{beta:g}"
    Ng = np.unique(np.geomspace(8, len(dN_all), 40).astype(int))
    cls, defect = classify_dN(beta, gamma, dN_all, Ng)
    return RateBudget(beta=beta, gamma=gamma, t=t_grid, N=N, terms=terms,
                      dominant=dominant, predicted_rate=predicted,
                      dN_class=cls, dN_defect=defect)


def budget_matches_rate(budget: RateBudget) -> float:
    """Fit defect of the total budget against the schedule rate: the slope
    of log(total * N^beta / (ln N)^gamma) against log t, which vanishes
    exactly when the truncation pair dominates.  Since N = [t/q], a zero
    slope certifies the (ln t)^gamma t^-beta decay class."""
    total = budget.terms.sum(axis=0)
    rate = np.log(budget.N.astype(float)) ** budget.gamma \
        * budget.N.astype(float) ** (-budget.beta)
    y = np.log(total / rate)
    slope = np.polyfit(np.log(budget.t), y, 1)[0]
    return float(abs(slope))


# ---------------------------------------------------------------------------
# Constructed roof-sum tail with a designed one-log gap
# ---------------------------------------------------------------------------

@dataclass
class RoofSumTailExample:
    beta: float
    measured: np.ndarray          # mu_Y(columns with roof-sum norm >= n)
    bound: np.ndarray             # (ln n)^(beta+2) n^-(beta+1), scaled
    log_factor_fit: float         # fitted exponent of the log factor
    respects_bound: bool


def roof_sum_tail_example(beta: float) -> RoofSumTailExample:
    """Synthetic tower whose roof sums are constant along columns.

    Exponential column-height masses e^{-m} with roof values
    (m^{-1} e^m)^{1/(beta+2)} along height-m columns put, per unit roof-sum
    value S, column mass (ln S)^{beta+1} S^{-(beta+2)} (the height-m family
    smears over S in [S(m), S(m+1))).  The example is built directly from
    that roof-sum value profile for S <= 200000 and read at 30 log-spaced
    n in [10, 20000].  The resulting tail of the roof-sum
    distribution is (ln n)^{beta+1} n^-(beta+1): one logarithm below the
    general (ln n)^{beta+2} n^-(beta+1) bound, by design.
    """
    s_max = 200_000
    S = np.arange(2, s_max + 1).astype(float)
    atom = np.log(S) ** (beta + 1.0) * S ** (-(beta + 2.0))
    atom /= atom.sum()
    tail = np.concatenate([np.cumsum(atom[::-1])[::-1], [0.0]])
    n_grid = np.unique(np.geomspace(10, s_max / 10, 30)).astype(int)
    measured = tail[n_grid - 2]
    L = np.log(n_grid.astype(float))
    bound = L ** (beta + 2.0) * n_grid.astype(float) ** (-(beta + 1.0))
    bound *= measured[0] / bound[0] * (1.0 + 1e-9)
    # slope in ln ln n, with the first-order incomplete-gamma correction
    # 1/ln n absorbed so the finite window does not bias the log exponent
    y = np.log(measured) + (beta + 1.0) * L
    A = np.column_stack([np.ones_like(L), np.log(L), 1.0 / L])
    fit = np.linalg.lstsq(A, y, rcond=None)[0][1]
    respects = bool(np.all(measured <= bound * (1.0 + 1e-6)))
    return RoofSumTailExample(beta=beta, measured=measured, bound=bound,
                              log_factor_fit=float(fit),
                              respects_bound=respects)
