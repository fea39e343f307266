"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/rep.py --workload NAME --seed N --mode full|setup
        --t-spawn T [--trace] [--spans-out FILE]

``--t-spawn`` is the parent's ``time.monotonic()`` just before it started
this interpreter, so ``setup_s`` covers interpreter start, imports and the
workload's builds.  ``--mode setup`` stops after set-up.  The result is
one JSON object on the last line of standard output.

``setup_s``, ``wall_s`` and ``cpu_s`` are in reference seconds (see
hostspeed.py); the raw times are kept beside them as ``*_raw_s``.
"""

import argparse
import contextlib
import gzip
import json
import os
import resource
import sys
import time

import hostspeed


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _versions() -> dict:
    import numpy
    import scipy
    out = {"python": sys.version.split()[0], "numpy": numpy.__version__,
           "scipy": scipy.__version__, "blas": None}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        out["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    return out


def main(argv=None) -> int:
    probe = hostspeed.HostProbe()
    probe.start()
    try:
        return _main(probe, argv)
    finally:
        probe.stop()


def _main(probe, argv) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("full", "setup"), default="full")
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    import gates
    import spans
    import towerlab
    import workloads

    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    if not os.path.abspath(towerlab.__file__).startswith(src + os.sep):
        print(f"towerlab imported from {towerlab.__file__}, not {src}",
              file=sys.stderr)
        return 3
    setup, run = workloads.WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        with _maybe_span(tracer, "workload.setup"):
            state = setup(workloads.BENCH)
        t_setup = time.monotonic()
        cpu0 = _cpu_s()
        win = probe.window(args.t_spawn, t_setup)
        result = {"setup_raw_s": t_setup - args.t_spawn,
                  "setup_s": hostspeed.scale(t_setup - args.t_spawn, win),
                  "probe_setup": win}
        t_end = t_setup
        if args.mode == "full":
            with _maybe_span(tracer, "workload.checks"):
                checks, numbers = run(state, workloads.BENCH, args.seed)
            t_end = time.monotonic()
            cpu = _cpu_s() - cpu0
            win = probe.window(t_setup, t_end)
            result.update(
                wall_raw_s=t_end - t_setup, cpu_raw_s=cpu, probe_checks=win,
                wall_s=hostspeed.scale(t_end - t_setup, win),
                cpu_s=hostspeed.scale(cpu, win),
                peak_rss_mb=resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                checks_attempted=len(checks),
                checks_failed=[name for name, ok in checks if not ok],
                digest=gates.digest(numbers))
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["versions"] = _versions()
    if tracer is not None:
        # span times in reference seconds, at the whole repetition's speed
        factor = hostspeed.scale(1.0, dict(
            probe.window(args.t_spawn, t_end), total_s=0.0))
        result["layers"] = {
            k: v * factor if k.endswith("_s") else v
            for k, v in tracer.layer_summary().items()}
        result["by_parent"] = tracer.by_parent()
        if args.spans_out:
            with gzip.open(args.spans_out, "wt") as fh:
                json.dump({"fields": ["name", "start", "end", "parent"],
                           "spans": tracer.spans}, fh)
    print(json.dumps(result))
    return 0


def _maybe_span(tracer, name):
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span(name)


if __name__ == "__main__":
    sys.exit(main())
