"""towerlab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs repetitions of one workload (see workloads.py), each in a fresh
interpreter so that no cache survives from one to the next, until the
measuring window of S seconds is used up, with at least three full
repetitions.  With ``--trace 0`` it reports the end-to-end metrics
(medians over the repetitions, times in reference seconds: see
hostspeed.py); with ``--trace 1`` it alternates traced and untraced
repetitions and reports the per-layer metrics and the tracing
overhead.  Every repetition checks its results against the acceptance
tolerances and hashes them; repetitions that disagree fail the run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(machine block, load averages, every repetition, digests, spans) goes to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import hostspeed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("pm-operator", "doubling-resolvent", "flow-truncation")

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB"}

PER_LAYER = {
    "maps.induce.busy_s": "s",
    "maps.MapModel.apply.calls": "count",
    "maps.MapModel.apply.points": "count",
    "tower.Tower.column_positions.calls": "count",
    "tower.Tower.column_positions.busy_s": "s",
    "transfer.basis.CylinderBasis.busy_s": "s",
    "transfer.basis.theta_seminorm.calls": "count",
    "transfer.basis.theta_seminorm.busy_s": "s",
    "transfer.basis.norm_b.calls": "count",
    "transfer.towerop.TowerGrid.busy_s": "s",
    "transfer.towerop.step.calls": "count",
    "transfer.towerop.step.busy_s": "s",
    "transfer.towerop.step.flops_computed": "flop",
    "transfer.towerop.step.bytes_computed": "byte",
    "transfer.towerop.theta_seminorm.calls": "count",
    "transfer.towerop.theta_seminorm.busy_s": "s",
    "transfer.renewal.renewal_build.busy_s": "s",
    "transfer.renewal.renewal_build.self_s": "s",
    "transfer.renewal.tower_operator_decomposition.busy_s": "s",
    "transfer.renewal.tower_operator_decomposition.self_s": "s",
    "transfer.operators.resolvent_scan.busy_s": "s",
    "transfer.operators.resolvent_scan.self_s": "s",
    "transfer.operators.assemble_twisted.calls": "count",
    "transfer.operators.assemble_twisted.busy_s": "s",
    "transfer.operators.lu_factor.calls": "count",
    "transfer.operators.lu_factor.busy_s": "s",
    "transfer.operators.lu_solve.calls": "count",
    "transfer.operators.lu_solve.busy_s": "s",
    "suspension.SuspensionModel.calls": "count",
    "suspension.SuspensionModel.busy_s": "s",
    "suspension.sample_stationary.calls": "count",
    "suspension.sample_stationary.busy_s": "s",
    "suspension.sample_stationary.points": "count",
    "suspension.flow.calls": "count",
    "suspension.flow.busy_s": "s",
    "suspension.flow.point_time": "point-time",
    "suspension.flow.oob": "count",
    "suspension.RoofFunction.call.points": "count",
    "suspension.truncation_error_experiment.busy_s": "s",
    "suspension.truncation_error_experiment.self_s": "s",
    "suspension.roof_truncation_experiment.busy_s": "s",
    "suspension.roof_truncation_experiment.self_s": "s",
    "trace.overhead_s": "s",
}

# One BLAS/OpenMP thread: at or below nproc on any machine, bit-identical
# results between repetitions, and a later change that adds threads shows as
# cpu_s above wall_s.
BLAS_THREADS = 1
MIN_FULL = 3          # full repetitions per untraced run
SETUP_ONLY = 1        # extra set-up-only repetitions per untraced run
RUN_LIMIT_S = 170.0   # a run must end within 180 s


class RepError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _run_rep(args, mode: str, traced: bool, deadline: float,
             spans_out: str | None) -> dict:
    t_spawn = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "rep.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--mode", mode, "--t-spawn", repr(t_spawn)]
    if traced:
        cmd.append("--trace")
        if spans_out:
            cmd += ["--spans-out", spans_out]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), text=True,
                              capture_output=True,
                              timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired as exc:
        raise RepError(f"repetition exceeded the {RUN_LIMIT_S:g} s run "
                       "limit") from exc
    if proc.returncode != 0:
        raise RepError(f"repetition exited with {proc.returncode}:\n"
                       + proc.stderr[-4000:])
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    res = json.loads(lines[-1])
    res.update(mode=mode, traced=traced,
               duration_s=time.monotonic() - t_spawn)
    return res


def _plan_done(reps, seconds: float, t0: float, trace: bool) -> bool:
    full = [r for r in reps if r["mode"] == "full"]
    if trace:   # at least one traced and one untraced repetition
        enough = len({r["traced"] for r in full}) == 2
    else:
        enough = len(full) >= MIN_FULL
    if not enough:
        return False
    per_rep = statistics.mean(r["duration_s"] for r in full)
    return time.monotonic() - t0 + per_rep > seconds


def _git_block() -> dict:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return {"commit": None, "dirty": None}

    def git(*a):
        return subprocess.run(["git", "-C", ROOT, *a], capture_output=True,
                              text=True, timeout=30).stdout.strip()
    try:
        return {"commit": git("rev-parse", "HEAD") or None,
                "dirty": bool(git("status", "--porcelain", "--",
                                  "src", "perfbench"))}
    except (OSError, subprocess.TimeoutExpired):
        return {"commit": None, "dirty": None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "towerlab",
                                       "__init__.py")):
        print(f"no towerlab sources under {ROOT}/src", file=sys.stderr)
        return 2
    build = subprocess.run([sys.executable, "-m", "compileall", "-q",
                            "src/towerlab", "perfbench"], cwd=ROOT,
                           capture_output=True, text=True, timeout=120)
    if build.returncode != 0:
        print(build.stdout + build.stderr, file=sys.stderr)
        return 2

    started = datetime.datetime.now(datetime.timezone.utc)
    stamp = started.strftime("%Y%m%dT%H%M%S%fZ")
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}_{stamp}"
    os.makedirs(OUT_DIR, exist_ok=True)
    load_start = os.getloadavg()
    t0 = time.monotonic()
    deadline = t0 + RUN_LIMIT_S
    reps: list[dict] = []
    try:
        if not args.trace:
            for _ in range(SETUP_ONLY):
                reps.append(_run_rep(args, "setup", False, deadline, None))
        while not _plan_done(reps, args.seconds, t0, bool(args.trace)):
            traced = bool(args.trace) and len(reps) % 2 == 1
            spans_out = os.path.join(OUT_DIR, f"{tag}_rep{len(reps)}"
                                     "_spans.json.gz") if traced else None
            reps.append(_run_rep(args, "full", traced, deadline, spans_out))
    except RepError as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1
    load_end = os.getloadavg()

    full = [r for r in reps if r["mode"] == "full"]
    # every gate of every repetition, plus the digest agreement
    attempted = 1 + sum(r["checks_attempted"] for r in full)
    failures = [name for r in full for name in r["checks_failed"]]
    digests = sorted({r["digest"] for r in full})
    if len(digests) != 1:
        failures.append("result digests differ between repetitions")
    traced = [r for r in full if r["traced"]]
    untraced = [r for r in full if not r["traced"]]

    if args.trace:
        metrics = {}
        for name, unit in PER_LAYER.items():
            if name == "trace.overhead_s":
                value = (statistics.median(r["wall_s"] for r in traced)
                         - statistics.median(r["wall_s"] for r in untraced))
            else:
                value = statistics.median(r["layers"].get(name, 0.0)
                                          for r in traced)
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in reps),
            **{k: statistics.median(r[k] for r in full)
               for k in ("wall_s", "cpu_s", "peak_rss_mb")}}
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in metrics.items()}

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "started_utc": started.isoformat(),
        "machine": {"nproc": os.cpu_count(),
                    "affinity": len(os.sched_getaffinity(0)),
                    "platform": platform.platform(),
                    "blas_threads": BLAS_THREADS,
                    "probe_interval_s": hostspeed.INTERVAL_S,
                    "probe_ref_loop_s": hostspeed.REF_LOOP_S,
                    **reps[0]["versions"], **_git_block()},
        "loadavg_start": load_start, "loadavg_end": load_end,
        "digest": digests[0] if len(digests) == 1 else digests,
        "attempted": attempted, "failures": failures,
        "metrics": metrics, "repetitions": reps,
    }
    path = os.path.join(OUT_DIR, tag + ".json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    slowdown = statistics.median(
        r["probe_checks"]["mean_s"] / hostspeed.REF_LOOP_S for r in full)
    print(f"{args.workload} seed {args.seed}: {len(full)} repetitions, "
          f"host slowdown {slowdown:.2f}, digest {record['digest']}, "
          f"record {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
