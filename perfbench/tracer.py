"""Per-layer trace made from outside the program.

Each traced function is replaced, in its module and in the package
namespace that re-exports it, by a wrapper that records a span.  Modules
reach each other's functions through module attributes (``gr.spanning_forest``)
and their own through module globals, so internal calls are caught too.
Nothing under ``src/`` changes; ``uninstall`` puts the originals back.

A span's self time is its duration minus the time of the spans it directly
encloses.  Spans are kept in memory and written out once, at the end.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

LAYERS = {
    "graph": ("incidence_matrix", "laplacian", "spanning_forest", "weighted_cut_matrix",
              "forest_left_inverse", "connected_components", "path_edge_set",
              "build_graph", "load_graph"),
    "spectral": ("signature_of", "spectral_norm", "pseudoinverse"),
    "resistance": ("node_pair_resistance_matrix",),
    "stability": ("classify_stability", "lmi_psd_check", "multi_negative_edge_thresholds",
                  "total_resistance_necessary_check"),
    "robustness": ("m11_at_zero", "worst_single_edge", "small_gain_margin",
                   "single_edge_margin", "disjoint_paths_margin", "sector_stability_check"),
    "simulation": ("simulate_linear", "simulate_nonlinear", "write_trajectory_csv"),
    "cli": ("main",),
}

# functions whose returned arrays are sized into <fn>.out_mb
SIZED = ("incidence_matrix", "laplacian", "spanning_forest", "weighted_cut_matrix",
         "forest_left_inverse", "pseudoinverse", "node_pair_resistance_matrix", "m11_at_zero")

SIMULATORS = ("simulate_linear", "simulate_nonlinear")


def metric_names():
    """Every per-layer metric the traced run reports, with its unit."""
    names = []
    for mod, fns in LAYERS.items():
        for fn in fns:
            names.append((f"{mod}.{fn}.calls", "count"))
            names.append((f"{mod}.{fn}.self_ms", "ms"))
    names += [(f"{fn}.out_mb", "MB") for fn in SIZED]
    names += [("simulation.steps", "count"), ("simulation.steps_per_s", "1/s"),
              ("simulation.csv_mb", "MB"), ("trace.overhead_s", "s")]
    return names


def _array_bytes(obj):
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    # ForestDecomposition carries its two dense matrices
    return sum(getattr(obj, a).nbytes for a in ("cut_matrix", "tucker_matrix") if hasattr(obj, a))


def _steps(traj, config):
    if traj.diverged:
        return int(round(traj.diverged_at / config.dt))
    return int(np.ceil(config.duration / config.dt - 1e-9))


class Tracer:
    """Wraps the layer functions while installed and accumulates one round's spans."""

    def __init__(self, package):
        self.package = package
        self.saved = []
        self.reset()

    def reset(self):
        self.spans = []   # (question, name, start, end, parent span index)
        self.calls = {}
        self.self_s = {}
        self.out_bytes = {}
        self.steps = 0
        self.csv_bytes = 0
        self._stack = []  # [span index, child seconds]
        self.question = None

    def install(self):
        for mod_name, fns in LAYERS.items():
            mod = getattr(self.package, mod_name)
            for fn in fns:
                original = getattr(mod, fn)
                wrapper = self._wrap(f"{mod_name}.{fn}", fn, original)
                self.saved.append((mod, fn, original))
                setattr(mod, fn, wrapper)
                if getattr(self.package, fn, None) is original:
                    self.saved.append((self.package, fn, original))
                    setattr(self.package, fn, wrapper)

    def uninstall(self):
        for owner, fn, original in reversed(self.saved):
            setattr(owner, fn, original)
        self.saved = []

    def _wrap(self, name, fn, original):
        tracer = self
        sized = fn in SIZED

        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1][0] if tracer._stack else None
            tracer.spans.append(None)
            frame = [index, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                span = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += span
                tracer.spans[index] = (tracer.question, name, start, end, parent)
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                tracer.self_s[name] = tracer.self_s.get(name, 0.0) + span - frame[1]
            if sized:
                tracer.out_bytes[fn] = tracer.out_bytes.get(fn, 0) + _array_bytes(result)
            if fn in SIMULATORS:
                tracer.steps += _steps(result, args[-1] if len(args) > 2 else kwargs["config"])
            elif fn == "write_trajectory_csv":
                tracer.csv_bytes += os.path.getsize(args[1])
            return result

        traced.__wrapped__ = original
        return traced

    def write_spans(self, path):
        """Write the spans of the last traced round as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for q, name, start, end, parent in self.spans:
                fh.write(json.dumps({"question": q, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
