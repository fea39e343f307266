"""Run-time tracing of towerlab's layers, installed from outside the package.

``Tracer.install`` replaces each layer function or method listed in
``LAYER_TARGETS`` with a wrapper that records a span (name, start, end,
parent) in memory, or only counts calls for the very frequent point-wise
calls.  Wrappers are removed again by ``Tracer.uninstall``, so a test can
trace in the same process as untraced code.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np


# -- counters computed at the layer boundary ----------------------------------

def _step_counts(args, kwargs):
    """Work of one ``TowerGrid.step``, computed from array shapes.

    The dense base product reads Mhat (n x n doubles) and the top vector and
    writes the new base level: 2 n^2 real flops per real column.  The twist
    multiplies every cell once and the level shift reads and writes every
    cell.  Cache behaviour and temporaries are not counted.
    """
    grid, V = args[0], args[1]
    s = args[2] if len(args) > 2 else kwargs.get("s")
    n = grid.basis.n
    itemsize = V[0].itemsize
    width = int(np.prod(V[0].shape[1:], dtype=np.int64))
    reals = 2 if np.iscomplexobj(V[0]) else 1
    cells = sum(len(v) for v in V)
    flops = 2 * n * n * width * reals
    nbytes = 8 * n * n + 2 * (n + cells) * width * itemsize
    if s is not None and s != 0:
        flops += 6 * cells * width
        nbytes += 2 * cells * width * itemsize
    return {"flops_computed": flops, "bytes_computed": nbytes}


def _sample_counts(args, kwargs):
    n = args[1] if len(args) > 1 else kwargs["n"]
    return {"points": int(n)}


def _flow_counts(args, kwargs):
    st = args[1] if len(args) > 1 else kwargs["st"]
    t = args[2] if len(args) > 2 else kwargs["t"]
    return {"points": len(st), "point_time": len(st) * float(t),
            "_oob_before": st.oob}


def _flow_after(out, pre):
    """Landings parked in the deepest cell during this call."""
    return {"oob": out.oob - pre["_oob_before"]}


def _points_counts(args, kwargs):
    return {"points": int(np.size(args[1]))}


# (module, attribute path, span name, counter, post-call counter, span?)
# A target without a span only counts calls: it is hit too often per run to
# keep one record per call.
LAYER_TARGETS = [
    ("towerlab.maps", "induce", "maps.induce", None, None, True),
    ("towerlab.maps", "MapModel.apply", "maps.MapModel.apply",
     _points_counts, None, False),
    ("towerlab.tower", "Tower.column_positions",
     "tower.Tower.column_positions", None, None, True),
    ("towerlab.suspension", "SuspensionModel.__init__",
     "suspension.SuspensionModel", None, None, True),
    ("towerlab.suspension", "sample_stationary",
     "suspension.sample_stationary", _sample_counts, None, True),
    ("towerlab.suspension", "flow", "suspension.flow", _flow_counts,
     _flow_after, True),
    ("towerlab.suspension", "RoofFunction.__call__",
     "suspension.RoofFunction.call", _points_counts, None, False),
    ("towerlab.suspension", "truncation_error_experiment",
     "suspension.truncation_error_experiment", None, None, True),
    ("towerlab.suspension", "roof_truncation_experiment",
     "suspension.roof_truncation_experiment", None, None, True),
    ("towerlab.transfer.basis", "CylinderBasis.__init__",
     "transfer.basis.CylinderBasis", None, None, True),
    ("towerlab.transfer.basis", "CylinderBasis.theta_seminorm",
     "transfer.basis.theta_seminorm", None, None, True),
    ("towerlab.transfer.basis", "CylinderBasis.norm_b",
     "transfer.basis.norm_b", None, None, True),
    ("towerlab.transfer.towerop", "TowerGrid.__init__",
     "transfer.towerop.TowerGrid", None, None, True),
    ("towerlab.transfer.towerop", "TowerGrid.step", "transfer.towerop.step",
     _step_counts, None, True),
    ("towerlab.transfer.towerop", "TowerGrid.theta_seminorm",
     "transfer.towerop.theta_seminorm", None, None, True),
    ("towerlab.transfer.renewal", "renewal_build",
     "transfer.renewal.renewal_build", None, None, True),
    ("towerlab.transfer.renewal", "tower_operator_decomposition",
     "transfer.renewal.tower_operator_decomposition", None, None, True),
    ("towerlab.transfer.operators", "resolvent_scan",
     "transfer.operators.resolvent_scan", None, None, True),
    ("towerlab.transfer.operators", "assemble_twisted",
     "transfer.operators.assemble_twisted", None, None, True),
    ("towerlab.transfer.operators", "lu_factor",
     "transfer.operators.lu_factor", None, None, True),
    ("towerlab.transfer.operators", "lu_solve",
     "transfer.operators.lu_solve", None, None, True),
]


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _wrap(self, fn, name, counter, after, record_span):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            pre = counter(args, kwargs) if counter is not None else {}
            with self.span(name) if record_span else contextlib.nullcontext():
                out = fn(*args, **kwargs)
            if after is not None:
                pre.update(after(out, pre))
            for key, val in pre.items():
                if not key.startswith("_"):
                    counts[f"{name}.{key}"] += val
            return out

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the body; the open span is its parent."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent)

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; aliases of a wrapped function in other
        towerlab modules (``from x import f``) are wrapped too."""
        for modname, path, name, counter, after, span in LAYER_TARGETS:
            mod = importlib.import_module(modname)
            owner_path, _, attr = path.rpartition(".")
            owner = mod
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            orig = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            wrapped = self._wrap(orig, name, counter, after, span)
            self._patch(owner, attr, orig, wrapped)
            if isinstance(owner, type):
                continue
            for other in list(sys.modules.values()):
                if other is mod or not getattr(other, "__name__", "") \
                        .startswith("towerlab"):
                    continue
                if getattr(other, attr, None) is orig:
                    self._patch(other, attr, orig, wrapped)

    def _patch(self, owner, attr, orig, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- summaries ------------------------------------------------------------

    def layer_summary(self) -> dict[str, float]:
        """Per-name calls and counters, busy time (outermost spans of a
        name) and self time (span minus the time of its direct children)."""
        out: dict[str, float] = dict(self.counts)
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            out.setdefault(name + ".busy_s", 0.0)
            out.setdefault(name + ".self_s", 0.0)
            out[name + ".self_s"] += (t1 - t0) - child[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                out[name + ".busy_s"] += t1 - t0
        return out

    def by_parent(self) -> dict[str, dict[str, float]]:
        """Busy time of each span name under each parent span name."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        for name, t0, t1, parent in self.spans:
            pname = self.spans[parent][0] if parent >= 0 else "-"
            out[pname][name] += t1 - t0
        return {k: dict(v) for k, v in out.items()}

