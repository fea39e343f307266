"""Acceptance suite: every headline criterion at its stated scale.

Each test prints one PASS/FAIL line (run pytest with -s to see them all in
order); the same checks back the ``towerlab accept`` subcommand.
"""

import itertools
import math
import os
import re
import time

import numpy as np
import pytest

from towerlab import acceptance, periodic as per, systems, \
    suspension as sp, tower as tw
from towerlab.maps import InducedMap
from towerlab.transfer import rates, renewal
from towerlab.transfer.towerop import TowerGrid


@pytest.mark.parametrize("num,check", acceptance.CHECKS,
                         ids=[f"criterion_{n}" for n, _ in acceptance.CHECKS])
def test_acceptance_criterion(num, check):
    res = check()
    status = "PASS" if res.passed else "FAIL"
    print(f"\n[{status}] criterion {num}: {res.name} "
          f"({res.detail}) [{res.seconds:.1f}s]")
    assert res.passed, f"criterion {num}: {res.name} -- {res.detail}"
    # the time is in ``seconds``; a detail that held it would differ
    # between runs of unchanged code
    assert not re.search(r"\d\s*s\b", res.detail), res.detail


def test_wall_clock_step_moves_no_gate(monkeypatch):
    # the wall clock jumps an hour on every read; the 60 s gate and
    # ``seconds`` run on the monotonic clock
    jumps = itertools.count()
    monkeypatch.setattr(time, "time", lambda: 3600.0 * next(jumps))
    res = acceptance.check_tail_exponent()
    assert res.passed, res.detail
    assert 0.0 <= res.seconds < 60.0


# -- criteria 1 and 3 can fail -------------------------------------------------

def test_wrong_alpha_fails_criterion_1(monkeypatch):
    # a request for pm(0.5) builds pm(0.6), whose tail exponent is 1/0.6
    pm_induced = systems.pm_induced
    monkeypatch.setattr(systems, "pm_induced", lambda alpha, **kw:
                        pm_induced(0.6 if alpha == 0.5 else alpha, **kw))
    res = acceptance.check_tail_exponent()
    assert not res.passed, res.detail
    assert res.detail.startswith("fitted 1.6"), res.detail


def test_dropped_n_term_fails_criterion_3(monkeypatch):
    # sum_{n>N} mu_Y(r >= n) without its n = N + 1 term
    identity = tw.Tower.identity_mean_defect
    monkeypatch.setattr(
        tw.Tower, "identity_mean_defect",
        lambda self: (identity(self)[0],
                      math.fsum(self.ind.tail_ge[self.N + 2:])))
    res = acceptance.check_measure_identities()
    assert not res.passed, res.detail


# -- criterion 2 can fail ------------------------------------------------------

def test_dropped_escape_ladder_fails_criterion_2(monkeypatch):
    # the columns past the cell cutoff leave map_correlation_operator: pm(0.6)
    # then decays like its truncated tower, far faster than n^-2/3
    monkeypatch.setattr(InducedMap, "tail_columns", lambda self: None)
    res = acceptance.check_map_decay()
    assert not res.passed, res.detail
    assert float(res.detail.removeprefix("fitted ")) > 2.0 / 3.0 + 0.25


# -- criterion 4 can fail ------------------------------------------------------

def test_bound_over_n_fails_criterion_4(monkeypatch):
    # every truncation bound divided by N: over N = 10 ... 40 the ratios
    # |rho - rho'| / bound spread 4x further, past the stability gate of 3
    rows = sp._rows
    monkeypatch.setattr(sp, "_rows", lambda N, ts, ref, cut, bound: rows(
        N, ts, ref, cut, lambda t: bound(t) / N))
    res = acceptance.check_truncation_error()
    assert not res.passed, res.detail
    spreads = res.detail.removeprefix("stability ").split(" / ")
    assert all(float(x) > 3.0 for x in spreads), res.detail


# -- criteria 5 and 6 can fail -------------------------------------------------

def test_untwisted_tails_fail_criterion_5(monkeypatch):
    # L_s twists the column tops but not the cells that climb on: the
    # tower side then misses e^{s h} below each top, which the base side
    # R_s(z) = sum_k e^{zk} Mhat diag(e^{s H'} 1_{r'=k}) counts
    step = TowerGrid.step
    monkeypatch.setattr(TowerGrid, "step", lambda self, V, s=None:
                        step(self, V, s)[:1] + step(self, V, None)[1:])
    res = acceptance.check_renewal()
    assert not res.passed, res.detail
    assert float(res.detail.removeprefix("worst residual ")) > 1e-8


def test_roof_through_level_fails_criterion_6(monkeypatch):
    # cum[l] sums the roof through level l instead of below it
    cum_roof = renewal._cum_roof
    monkeypatch.setattr(renewal, "_cum_roof", lambda grid: [
        c + h for c, h in zip(cum_roof(grid), grid.h_at)])
    res = acceptance.check_decomposition()
    assert not res.passed, res.detail
    worst = res.detail.removeprefix("worst residual ").split(",")[0]
    assert float(worst) > 1e-8, res.detail


# -- criterion 8 can fail ------------------------------------------------------

def test_least_cycle_residual_fails_criterion_8(monkeypatch):
    # every cycle of M^n takes the least cycle's residual, so the search
    # minimises over phi the min over cycles instead of the max: one cycle
    # alone can always be closed, and the cosine rows fall below the gate
    cycle_residual = per._cycle_residual

    def least(delta, L):
        return np.broadcast_to(np.min(cycle_residual(delta, L), axis=0),
                               np.shape(delta))

    monkeypatch.setattr(per, "_cycle_residual", least)
    res = acceptance.check_resonance_contrast()
    assert not res.passed, res.detail
    assert float(res.detail.split("min scaled residual ")[1]) <= 1.0


# -- criterion 9 can fail ------------------------------------------------------

def test_wobbling_constant_roof_fails_criterion_9(monkeypatch):
    # the "constant" roof 1 + 0.05 cos(2 pi x): under doubling the roof
    # sum over n returns spreads the phase of cos(2 pi u) by variance
    # n (0.05)^2 / 2, so at t = 20 the band falls to about
    # exp(-2 pi^2 * 10 * 0.05^2) = 0.61, below the gate's 0.9
    cosine = sp.cosine_roof
    monkeypatch.setattr(sp, "constant_roof", lambda c=1.0: cosine(c, 0.05))
    res = acceptance.check_mixing_contrast()
    assert not res.passed, res.detail
    assert float(res.detail.split("rigid band ")[1]) < 0.9, res.detail


# -- criterion 10 can fail -----------------------------------------------------

def test_dropped_k_weight_fails_criterion_10(monkeypatch):
    # d_N = sum_{k<=N} mu_Y(r >= k) without its weight k
    monkeypatch.setattr(rates, "tail_moments", lambda tails: np.cumsum(tails))
    res = acceptance.check_rate_budget()
    assert not res.passed, res.detail


def test_shifted_tail_exponent_fails_criterion_10(monkeypatch):
    # the synthetic tail decays as k^-(beta + 1.5) instead of k^-(beta + 1)
    tails = rates._synthetic_tails
    monkeypatch.setattr(rates, "_synthetic_tails", lambda beta, gamma, h:
                        tails(beta + 0.5, gamma, h))
    res = acceptance.check_rate_budget()
    assert not res.passed, res.detail


# -- criterion 11 can fail -----------------------------------------------------

# suspension.sample_stationary draws from np.random.Philox(key=seed)

def test_unseeded_generator_fails_criterion_11(monkeypatch):
    philox = np.random.Philox
    monkeypatch.setattr(np.random, "Philox", lambda key: philox())
    res = acceptance.check_determinism()
    assert not res.passed, res.detail


@pytest.mark.parametrize("salt, passed", [
    ("12345", True),                          # the same in every process
    ("hash('towerlab') & 0xFFFFFFFF", False),  # follows PYTHONHASHSEED
])
def test_hash_seed_dependence_fails_criterion_11(monkeypatch, tmp_path,
                                                 salt, passed):
    # plant the same salted generator in this process and, through
    # sitecustomize, in the fresh interpreter that criterion 11 starts
    patch = ("import numpy as np\n"
             "_philox = np.random.Philox\n"
             f"np.random.Philox = lambda key: _philox(key=key ^ ({salt}))\n")
    (tmp_path / "sitecustomize.py").write_text(patch)
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        filter(None, [str(tmp_path), os.environ.get("PYTHONPATH")])))
    monkeypatch.setattr(np.random, "Philox", np.random.Philox)  # undone after
    exec(patch, {})
    res = acceptance.check_determinism()
    assert res.passed == passed, res.detail
    if not passed:   # the two runs in this process agree
        assert res.detail == "3 runs, 2 distinct outputs"
