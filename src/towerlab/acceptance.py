"""The acceptance suite: one check per headline criterion.

Each check runs at its stated scale and tolerance and reports one
PASS/FAIL line; ``run_all`` executes them in order.  The CLI ``accept``
subcommand and tests/test_acceptance.py both drive this module.
"""

from __future__ import annotations

import io
import math
import os
import pathlib
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from towerlab import maps, systems, suspension as sp, tower as tw
from towerlab import periodic as per
from towerlab.transfer.basis import CylinderBasis
from towerlab.transfer.towerop import TowerGrid, map_correlation_operator
from towerlab.transfer.operators import lasota_yorke_check, resolvent_scan
from towerlab.transfer.renewal import renewal_build, \
    tower_operator_decomposition
from towerlab.transfer import rates

__all__ = ["CheckResult", "run_all", "CHECKS"]

MC_SAMPLES = 1_000_000


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _result(name, passed, detail, t0) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail,
                       seconds=time.monotonic() - t0)


# -- shared lazily-built objects ---------------------------------------------

@lru_cache(maxsize=None)
def _pm05_basis() -> CylinderBasis:
    return CylinderBasis(systems.pm_induced(0.5), depth=2, refine_symbols=24)


@lru_cache(maxsize=None)
def _doubling_basis() -> CylinderBasis:
    return CylinderBasis(systems.doubling_full(), depth=8, refine_symbols=2)


# -- criteria -------------------------------------------------------------------

def check_tail_exponent() -> CheckResult:
    t0 = time.monotonic()
    ind = systems.pm_induced(0.5)
    fit = maps.fit_tail_exponent(ind, 100, 10_000)
    ok = 1.85 <= fit.exponent <= 2.15 and time.monotonic() - t0 < 60.0
    return _result("tail exponent pm(0.5) in [1.85, 2.15]", ok,
                   f"fitted {fit.exponent:.4f}", t0)


def check_map_decay() -> CheckResult:
    t0 = time.monotonic()
    ind = systems.pm_induced(0.6)
    basis = CylinderBasis(ind, depth=2, refine_symbols=50)
    c = map_correlation_operator(basis, lambda x: x - 0.5,
                                 lambda x: x - 0.5, 500)
    ns = np.unique(np.round(np.geomspace(10, 500, 40)).astype(int))
    coef = np.polyfit(np.log(ns), np.log(np.abs(c[ns])), 1)
    beta_hat = -float(coef[0])
    ok = abs(beta_hat - 2.0 / 3.0) <= 0.25 and time.monotonic() - t0 < 300.0
    return _result("map-level decay pm(0.6) exponent 2/3 +- 0.25", ok,
                   f"fitted {beta_hat:.4f}", t0)


def check_measure_identities() -> CheckResult:
    t0 = time.monotonic()
    ind = systems.pm_induced(0.5)
    t = tw.Tower(ind)
    worst = 0.0
    for N in (10, 20, 50, 100):
        tt = tw.Tower(ind, N)
        l1, r1 = tt.identity_mean_defect()
        l2, r2 = tt.identity_tall_mass()
        worst = max(worst, abs(l1 - r1), abs(l2 - r2))
    visits_ok = True
    margin = math.inf
    for N in (10, 20, 50):
        for k in (1, 5, 10):
            m, b = tw.visit_measure(t, N, k)
            visits_ok &= m <= b + 1e-12
            margin = min(margin, b - m)
    # flow-level excursions for the unbounded roof
    indd = systems.doubling_induced()
    model = sp.SuspensionModel(tw.Tower(indd),
                               sp.power_singularity_roof(1.0))
    flow_ok, parked = True, 0
    for N in (5, 10, 20):
        for k in (1, 5, 10):
            m, b, p = sp.flow_visit_measure(model, N, k)
            flow_ok &= m <= b + 1e-12
            parked += p
    ok = worst <= 1e-12 and visits_ok and flow_ok
    return _result("truncation measure identities and excursion bounds", ok,
                   f"identity defect {worst:.2e}, margins >= {margin:.2e}, "
                   f"{parked} parked landings", t0)


def check_truncation_error() -> CheckResult:
    t0 = time.monotonic()
    v = sp.coordinate_observable()
    tab = sp.truncation_error_experiment(
        systems.pm_induced(0.5), sp.cosine_roof(), v, v,
        [10, 20, 40], [5, 10, 20], MC_SAMPLES, seed=2025)
    pm_ok = tab.stable_within <= 3.0 and \
        all(r.measured <= r.bound for r in tab.rows)
    out = sp.roof_truncation_experiment(
        systems.doubling_induced(), sp.power_singularity_roof(1.0), v, v,
        [10, 20, 40], [5, 10, 20], MC_SAMPLES, seed=2026, q_log_trunc=5.0)
    db_ok = out["stable_within"] <= 3.0 and \
        all(r.measured <= r.bound for r in out["rows"])
    ok = pm_ok and db_ok and time.monotonic() - t0 < 600.0
    return _result("truncation error bounds (bounded and unbounded roof)",
                   ok, f"stability {tab.stable_within:.2f} / "
                   f"{out['stable_within']:.2f}", t0)


def check_renewal() -> CheckResult:
    t0 = time.monotonic()
    grid = TowerGrid(_pm05_basis(), sp.cosine_roof(), 30)
    worst = 0.0
    for s in (0.0, 0.1j, 0.3 + 2.0j):
        rd = renewal_build(grid, complex(s), horizon=96, grow=False)
        worst = max(worst, rd.max_residual, rd.recursion_residual)
    ok = worst <= 1e-8
    return _result("renewal identity residual <= 1e-8 at 16 z-points", ok,
                   f"worst residual {worst:.2e}", t0)


def check_decomposition() -> CheckResult:
    t0 = time.monotonic()
    grid = TowerGrid(_pm05_basis(), sp.cosine_roof(), 20)
    rep = tower_operator_decomposition(grid, 0.1j, (1, 5, 15, 21), n_probes=6)
    ok = rep.residual <= 1e-8 and rep.vanish_beyond
    return _result("passage decomposition residual <= 1e-8, blocks vanish "
                   "past the cut", ok, f"worst residual {rep.residual:.2e}, "
                   f"largest b-norm ratio {rep.b_norms.max():.3f}", t0)


def check_iterate_inequality() -> CheckResult:
    t0 = time.monotonic()
    rep = lasota_yorke_check(_pm05_basis(), sp.cosine_roof(),
                             b_list=[2, 10, 50], omega_list=[0.0, 1.3],
                             n_max=20, N_list=[20, 50, 100], n_probes=6)
    ok = rep.stability <= 2.0
    return _result("twisted-iterate inequality uniform across N (factor 2)",
                   ok, f"C = {rep.C:.3f}, stability {rep.stability:.3f}", t0)


def check_resonance_contrast() -> CheckResult:
    t0 = time.monotonic()
    basis = _doubling_basis()
    b_grid = sorted(set(list(np.arange(1.0, 101.0, 4.0))
                        + [2.0 * np.pi * k for k in range(1, 16)]))
    sc_const = resolvent_scan(basis, sp.constant_roof(1.0), b_grid, [0.0],
                              C6=2.0, n_random=60, seed=8)
    flagged = sc_const.b[sc_const.resonance]
    on_lattice = np.allclose(np.round(flagged / (2 * np.pi))
                             * 2 * np.pi, flagged, atol=1e-9)
    n_lattice = sum(1 for b in b_grid
                    if abs(b / (2 * np.pi) - round(b / (2 * np.pi))) < 1e-12)
    const_ok = on_lattice and len(flagged) == n_lattice
    sc_cos = resolvent_scan(basis, sp.cosine_roof(), b_grid, [0.0],
                            C6=2.0, n_random=60, seed=9)
    cos_ok = (not np.any(sc_cos.resonance)) \
        and np.all(np.isfinite(sc_cos.norm_estimate)) \
        and np.isfinite(sc_cos.alpha_fit)
    sub = per.FiniteSubsystem(systems.doubling_full(), (0, 1))
    lattice = [2.0 * np.pi * k for k in (1, 4, 10)]
    eig_const = per.approx_eigenfunction_search(
        sub, sp.constant_roof(1.0), lattice, [0.0], alpha=2.0)
    zero_ok = all(r.residual <= 1e-9
                  and (abs(r.phi) < 1e-6 or abs(r.phi - 2 * np.pi) < 1e-6)
                  for r in eig_const)
    eig_cos = per.approx_eigenfunction_search(
        sub, sp.cosine_roof(), np.arange(10.0, 201.0, 10.0), [0.0],
        alpha=2.0)
    away = min(r.scaled for r in eig_cos)
    cos_eig_ok = away > 1.0
    ok = const_ok and cos_ok and zero_ok and cos_eig_ok
    return _result("resonance contrast: flags exactly on the 2 pi lattice",
                   ok, f"{len(flagged)} flags, cosine alpha "
                   f"{sc_cos.alpha_fit:.2f}, min scaled residual {away:.2g}",
                   t0)


def check_mixing_contrast() -> CheckResult:
    t0 = time.monotonic()
    ind = systems.doubling_full()
    t = tw.Tower(ind)
    v = sp.coordinate_observable()
    cs = sp.correlation_mc(sp.SuspensionModel(t, sp.cosine_roof()),
                           v, v, [0, 20], MC_SAMPLES, seed=41)
    mixing_ok = abs(cs.rho[-1]) < 0.01
    fp = sp.flow_periodic_observable()
    cs2 = sp.correlation_mc(sp.SuspensionModel(t, sp.constant_roof(1.0)),
                            fp, fp, [0, 1, 2, 5, 10, 20], 200_000, seed=42)
    rigid_ok = np.all(np.abs(cs2.rho[1:]) >= 0.9 * cs2.rho[0]) \
        and np.all(np.abs(cs2.rho[1:]) <= 1.1 * cs2.rho[0])
    ok = mixing_ok and rigid_ok
    return _result("mixing contrast: constant roof rigid, perturbed decays",
                   ok, f"|rho(20)| = {abs(cs.rho[-1]):.4f}, rigid band "
                   f"{np.min(np.abs(cs2.rho[1:]) / cs2.rho[0]):.3f}", t0)


def check_rate_budget() -> CheckResult:
    t0 = time.monotonic()
    b12 = rates.rate_budget(beta=1.0, gamma=2.0)
    sched_ok = b12.predicted_rate == "(ln t)^2 t^-1" \
        and rates.budget_matches_rate(b12) < 0.05
    # d_N must fit its class; at beta = 2 (bounded) the fit defect does
    # not tell a wrong d_N apart, so only the label is checked there
    classes_ok, dN_defect = True, 0.0
    for beta, want in ((0.5, "N^0.5"), (1.0, "(ln N)^1"), (2.0, "bounded")):
        bb = rates.rate_budget(beta=beta, gamma=0.0)
        classes_ok &= want in bb.dN_class
        if beta < 2.0:
            dN_defect = max(dN_defect, bb.dN_defect)
    classes_ok &= dN_defect <= 0.05
    ex = rates.roof_sum_tail_example(1.0)
    yn_ok = ex.respects_bound and abs(ex.log_factor_fit - 2.0) <= 0.25 \
        and ex.log_factor_fit <= 3.0 - 0.5
    ok = sched_ok and classes_ok and yn_ok
    return _result("rate budget: schedule, tail-moment classes, designed "
                   "log gap", ok,
                   f"defect {rates.budget_matches_rate(b12):.4f}, d_N fit "
                   f"defect {dN_defect:.4f}, log factor "
                   f"{ex.log_factor_fit:.2f}", t0)


def _determinism_output() -> bytes:
    """Criterion 11's correlation run, as the exact bytes of its rows."""
    model = sp.SuspensionModel(tw.Tower(systems.pm_induced(0.5)),
                               sp.cosine_roof())
    v = sp.coordinate_observable()
    cs = sp.correlation_mc(model, v, v, [0, 5, 10], 100_000, seed=7)
    buf = io.StringIO()
    for tt, r, e in zip(cs.t, cs.rho, cs.stderr):
        buf.write(f"{tt:.17g},{r:.17g},{e:.17g}\n")
    return buf.getvalue().encode()


def _determinism_output_fresh_process() -> bytes:
    """The same run in a fresh interpreter under another PYTHONHASHSEED,
    which one process cannot vary for itself."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "2" if env.get("PYTHONHASHSEED") == "1" else "1"
    src = str(pathlib.Path(__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys; from towerlab.acceptance import _determinism_output; "
            "sys.stdout.buffer.write(_determinism_output())")
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True).stdout


def check_determinism() -> CheckResult:
    t0 = time.monotonic()
    outs = {_determinism_output(), _determinism_output(),
            _determinism_output_fresh_process()}
    ok = len(outs) == 1
    return _result("bit-identical output across repeated runs",
                   ok, f"{3} runs, {len(outs)} distinct outputs", t0)


CHECKS = [
    ("1", check_tail_exponent),
    ("2", check_map_decay),
    ("3", check_measure_identities),
    ("4", check_truncation_error),
    ("5", check_renewal),
    ("6", check_decomposition),
    ("7", check_iterate_inequality),
    ("8", check_resonance_contrast),
    ("9", check_mixing_contrast),
    ("10", check_rate_budget),
    ("11", check_determinism),
]


def run_all() -> list[CheckResult]:
    results = []
    for num, fn in CHECKS:
        res = fn()
        results.append(res)
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] criterion {num}: {res.name} "
              f"({res.detail}) [{res.seconds:.1f}s]", flush=True)
    return results
