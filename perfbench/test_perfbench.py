"""Tests of the benchmark itself: its gates fire, its digest is exact, its
traced counts repeat, and BENCHMARK.json lists what run.py reports."""

import dataclasses
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

import gates
import hostspeed
import run as bench_run
import spans
import workloads
from towerlab import maps, suspension
from towerlab.transfer.towerop import TowerGrid

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TINY = dataclasses.replace(
    workloads.BENCH, pm_J=60, pm_tail_horizon=2000, pm_refine=6,
    renewal_N=8, renewal_horizon=16, renewal_probes=2, renewal_z=4,
    decomp_N=4, decomp_n=(5,), decomp_probes=1, doubling_depth=4,
    resolvent_b=(1.0, 25.0), resolvent_lattice_k=(1, 2), resolvent_random=2,
    db_J=12, db_tail_horizon=200, trunc_N=(5, 10), trunc_t=(2.0, 5.0),
    trunc_samples=2000)


def _failed(checks):
    return [name for name, ok in checks if not ok]


# -- gates fire on perturbed results ------------------------------------------

def test_renewal_gate():
    good = SimpleNamespace(max_residual=1e-14, recursion_residual=1e-15)
    assert not _failed(gates.renewal_gates(0.1j, good))
    assert _failed(gates.renewal_gates(
        0.1j, SimpleNamespace(max_residual=1e-6, recursion_residual=1e-15)))
    assert _failed(gates.renewal_gates(
        0.1j, SimpleNamespace(max_residual=1e-14, recursion_residual=1e-6)))


def test_decomposition_gate():
    good = SimpleNamespace(residual=1e-15, vanish_beyond=True)
    assert not _failed(gates.decomposition_gates(11, good))
    assert len(_failed(gates.decomposition_gates(
        11, SimpleNamespace(residual=1e-6, vanish_beyond=True)))) == 1
    assert len(_failed(gates.decomposition_gates(
        11, SimpleNamespace(residual=1e-15, vanish_beyond=False)))) == 1


def _scan(b, flags, norms=None, alpha=1.0):
    b = np.asarray(b, dtype=float)
    flags = np.asarray(flags, dtype=bool)
    if norms is None:
        norms = np.where(flags, math.inf, 2.0)
    return SimpleNamespace(b=b, resonance=flags,
                           norm_estimate=np.asarray(norms, dtype=float),
                           alpha_fit=alpha)


def test_resonance_gates():
    b = [1.0, 2 * np.pi, 25.0, 4 * np.pi]
    lattice = [False, True, False, True]
    const_ok = _scan(b, lattice)
    cos_ok = _scan(b, [False] * 4)
    assert not _failed(gates.resonance_gates(b, const_ok, cos_ok))
    off = _scan(b, [False, True, True, True])        # flag off the lattice
    assert "constant roof: flags on the 2 pi lattice" in _failed(
        gates.resonance_gates(b, off, cos_ok))
    missing = _scan(b, [False, True, False, False])  # one lattice flag lost
    assert _failed(gates.resonance_gates(b, missing, cos_ok)) == [
        "constant roof: one flag per lattice point"]
    assert "cosine roof: no flags" in _failed(gates.resonance_gates(
        b, const_ok, _scan(b, [False, True, False, False])))
    assert _failed(gates.resonance_gates(
        b, const_ok, _scan(b, [False] * 4, norms=[2.0, np.inf, 2.0, 2.0])))
    assert _failed(gates.resonance_gates(
        b, const_ok, _scan(b, [False] * 4, alpha=math.nan)))


def test_truncation_gates():
    rows = [SimpleNamespace(N=10, t=5.0, measured=1e-3, bound=1e-2),
            SimpleNamespace(N=20, t=5.0, measured=1e-4, bound=1e-3)]
    assert not _failed(gates.truncation_gates("pm", rows, 1.6))
    worse = rows[:1] + [SimpleNamespace(N=20, t=5.0, measured=2e-3,
                                        bound=1e-3)]
    assert _failed(gates.truncation_gates("pm", worse, 1.6)) == [
        "pm: measured <= bound at N=20, t=5"]
    assert _failed(gates.truncation_gates("pm", rows, 3.5)) == [
        "pm: stable within 3"]


# -- digest -------------------------------------------------------------------

def test_digest_is_exact():
    vals = [np.array([0.1, 1e-300, -2.5]), 3, True, 0.3 + 2.0j, math.inf]
    assert gates.digest(vals) == gates.digest(list(vals))
    nudged = [np.array([np.nextafter(0.1, 1.0), 1e-300, -2.5])] + vals[1:]
    assert gates.digest(nudged) != gates.digest(vals)
    assert gates.digest([True]) != gates.digest([1])
    assert gates.digest([1.0]) != gates.digest([1])


# -- tracing ------------------------------------------------------------------

def _traced_counts(name):
    setup, run = workloads.WORKLOADS[name]
    tracer = spans.Tracer()
    tracer.install()
    try:
        run(setup(TINY), TINY, 7)
    finally:
        tracer.uninstall()
    return {k: v for k, v in tracer.layer_summary().items()
            if k.endswith((".calls", ".points", ".flops_computed",
                           ".bytes_computed", ".point_time", ".oob"))}


@pytest.mark.parametrize("name", bench_run.WORKLOADS)
def test_traced_counts_repeat(name):
    first = _traced_counts(name)
    second = _traced_counts(name)
    assert first == second
    on = {k for k, v in first.items() if k.endswith(".calls") and v > 0}
    assert ("transfer.towerop.step.calls" in on) == (name == "pm-operator")
    assert ("transfer.operators.lu_solve.calls" in on) \
        == (name == "doubling-resolvent")
    assert ("suspension.flow.calls" in on) == (name == "flow-truncation")
    assert ("transfer.basis.theta_seminorm.calls" in on) \
        == (name != "flow-truncation")


def test_uninstall_restores_layers():
    before = (maps.induce, maps.MapModel.apply, suspension.flow,
              TowerGrid.step, suspension.RoofFunction.__call__)
    tracer = spans.Tracer()
    tracer.install()
    assert suspension.flow is not before[2]
    tracer.uninstall()
    assert (maps.induce, maps.MapModel.apply, suspension.flow,
            TowerGrid.step, suspension.RoofFunction.__call__) == before


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
    layers = tracer.layer_summary()
    assert layers["outer.busy_s"] >= layers["inner.busy_s"] > 0.0
    assert math.isclose(layers["outer.self_s"] + layers["inner.busy_s"],
                        layers["outer.busy_s"], rel_tol=1e-9, abs_tol=1e-12)


# -- host speed ---------------------------------------------------------------

def test_scale_removes_probe_time_and_slowdown():
    win = {"n": 4, "total_s": 0.5, "mean_s": 2 * hostspeed.REF_LOOP_S}
    assert math.isclose(hostspeed.scale(10.5, win), 5.0)
    assert hostspeed.scale(3.0, {"n": 0, "total_s": 0.0,
                                 "mean_s": math.nan}) == 3.0


def test_window_trims_stalled_probes():
    probe = hostspeed.HostProbe()
    probe.samples = [(float(i), 1.0) for i in range(199)] + [(199.0, 500.0)]
    win = probe.window(0.0, 200.0)
    assert win["n"] == 200 and win["total_s"] == 699.0
    assert win["mean_s"] == 1.0
    assert probe.window(10.0, 20.0)["n"] == 10


def test_probe_samples_while_busy():
    before = signal.getsignal(signal.SIGALRM)
    probe = hostspeed.HostProbe()
    probe.start()
    try:
        t0 = time.monotonic()
        while time.monotonic() - t0 < 0.2:
            sum(range(1000))
    finally:
        probe.stop()
    assert signal.getsignal(signal.SIGALRM) == before
    win = probe.window(t0, time.monotonic())
    assert win["n"] >= 10
    assert 0.0 < win["mean_s"] <= max(d for _, d in probe.samples)


# -- the benchmark's declaration ----------------------------------------------

def test_benchmark_json_lists_what_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(bench_run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == bench_run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == bench_run.PER_LAYER
    assert set(workloads.WORKLOADS) == set(bench_run.WORKLOADS)


def test_refuses_without_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pm-operator",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
