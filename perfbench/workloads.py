"""The benchmark's three workloads.

Each workload is a closed loop: one client in one process issues
towerlab's public layer calls one after another.  ``setup`` builds what
every call shares (induced maps, the cylinder basis, tower grids); ``run``
makes the checked calls and returns the gates and the numbers that go
into the result digest.  All probe and Monte-Carlo seeds derive from the
benchmark seed.

The call sizes (basis n=976 and n=256, J=400, horizon 96, ...) are the
acceptance suite's; the number of calls is cut so that three repetitions
fit in one benchmark run.  ``Sizes`` exists so that the tests can run the
same code small.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from towerlab import maps, suspension as sp
from towerlab.transfer import operators, renewal
from towerlab.transfer.basis import CylinderBasis
from towerlab.transfer.towerop import TowerGrid

import gates


def sub_seed(seed: int, tag: int) -> int:
    """Independent 32-bit seed for one call, derived from the bench seed."""
    return int(np.random.SeedSequence([seed, tag])
               .generate_state(1, dtype=np.uint32)[0])


@dataclass(frozen=True)
class Sizes:
    pm_alpha: float = 0.5
    pm_J: int = 400
    pm_tail_horizon: int = 12000
    pm_depth: int = 2
    pm_refine: int = 24
    renewal_N: int = 30
    renewal_s: tuple = (0.3 + 2.0j,)
    renewal_horizon: int = 96
    renewal_probes: int = 16
    renewal_z: int = 16
    decomp_N: int = 8
    decomp_s: complex = 0.1j
    decomp_n: tuple = (9,)
    decomp_probes: int = 6
    doubling_depth: int = 8
    doubling_refine: int = 2
    resolvent_b: tuple = (1.0, 49.0, 97.0)
    resolvent_lattice_k: tuple = tuple(range(1, 9))
    resolvent_C6: float = 2.0
    resolvent_random: int = 20
    db_J: int = 40
    db_tail_horizon: int = 1200
    trunc_N: tuple = (10, 20, 40)
    trunc_t: tuple = (5.0, 10.0, 20.0)
    trunc_samples: int = 100_000
    roof_beta: float = 1.0
    q_log_trunc: float = 5.0


BENCH = Sizes()


def _pm_induced(z: Sizes):
    return maps.induce(maps.pomeau_manneville(z.pm_alpha), (0.5, 1.0),
                       branch_cutoff=z.pm_J, tail_horizon=z.pm_tail_horizon)


# -- pm-operator --------------------------------------------------------------

def pm_operator_setup(z: Sizes) -> dict:
    basis = CylinderBasis(_pm_induced(z), depth=z.pm_depth,
                          refine_symbols=z.pm_refine)
    roof = sp.cosine_roof()
    return {"renewal_grid": TowerGrid(basis, roof, z.renewal_N),
            "decomp_grid": TowerGrid(basis, roof, z.decomp_N)}


def pm_operator_run(state: dict, z: Sizes, seed: int):
    checks, numbers = [], []
    for i, s in enumerate(z.renewal_s):
        rd = renewal.renewal_build(
            state["renewal_grid"], complex(s), horizon=z.renewal_horizon,
            n_probes=z.renewal_probes, n_z=z.renewal_z,
            seed=sub_seed(seed, 10 + i), grow=False)
        checks += gates.renewal_gates(s, rd)
        numbers += [rd.residuals, rd.raw_residuals, rd.recursion_residual,
                    rd.raw_tail]
    for i, n in enumerate(z.decomp_n):
        rep = renewal.tower_operator_decomposition(
            state["decomp_grid"], z.decomp_s, n, n_probes=z.decomp_probes,
            seed=sub_seed(seed, 20 + i))
        checks += gates.decomposition_gates(n, rep)
        numbers += [rep.residual, rep.vanish_beyond, rep.a_norms,
                    rep.b_norms, rep.e_norms]
    return checks, numbers


# -- doubling-resolvent -------------------------------------------------------

def resolvent_b_grid(z: Sizes) -> list[float]:
    return sorted(set(list(z.resolvent_b)
                      + [2.0 * np.pi * k for k in z.resolvent_lattice_k]))


def doubling_resolvent_setup(z: Sizes) -> dict:
    ind = maps.induce(maps.doubling_map(), (0.0, 1.0), branch_cutoff=4,
                      tail_horizon=16)
    return {"basis": CylinderBasis(ind, depth=z.doubling_depth,
                                   refine_symbols=z.doubling_refine)}


def doubling_resolvent_run(state: dict, z: Sizes, seed: int):
    b_grid = resolvent_b_grid(z)
    scans = []
    for i, roof in enumerate((sp.constant_roof(1.0), sp.cosine_roof())):
        scans.append(operators.resolvent_scan(
            state["basis"], roof, b_grid, [0.0], C6=z.resolvent_C6,
            n_random=z.resolvent_random, seed=sub_seed(seed, 1 + i)))
    checks = gates.resonance_gates(b_grid, *scans)
    numbers = []
    for sc in scans:
        numbers += [sc.b, sc.norm_estimate, sc.resonance, sc.residuals,
                    sc.alpha_fit]
    return checks, numbers


# -- flow-truncation ----------------------------------------------------------

def flow_truncation_setup(z: Sizes) -> dict:
    return {"pm": _pm_induced(z),
            "db": maps.induce(maps.doubling_map(), (0.5, 1.0),
                              branch_cutoff=z.db_J,
                              tail_horizon=z.db_tail_horizon)}


def flow_truncation_run(state: dict, z: Sizes, seed: int):
    v = sp.coordinate_observable()
    tab = sp.truncation_error_experiment(
        state["pm"], sp.cosine_roof(), v, v, list(z.trunc_N),
        list(z.trunc_t), z.trunc_samples, seed=sub_seed(seed, 1))
    out = sp.roof_truncation_experiment(
        state["db"], sp.power_singularity_roof(z.roof_beta), v, v,
        list(z.trunc_N), list(z.trunc_t), z.trunc_samples,
        seed=sub_seed(seed, 2), q_log_trunc=z.q_log_trunc)
    checks = gates.truncation_gates("pm cosine roof", tab.rows,
                                    tab.stable_within)
    checks += gates.truncation_gates("doubling singular roof", out["rows"],
                                     out["stable_within"])
    numbers = []
    for rows in (tab.rows, out["rows"], out["second_rows"]):
        for r in rows:
            numbers += [r.N, r.t, r.measured, r.stderr, r.bound]
    numbers += [tab.stable_within, tab.fitted_C, tab.kept_fraction,
                out["stable_within"], out["fitted_C"]]
    return checks, numbers


WORKLOADS = {
    "pm-operator": (pm_operator_setup, pm_operator_run),
    "doubling-resolvent": (doubling_resolvent_setup, doubling_resolvent_run),
    "flow-truncation": (flow_truncation_setup, flow_truncation_run),
}
