"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload rgg_analysis --seed 1 --seconds 40 --trace 0

Run from the repository root (any directory works; paths are resolved from
this file).  The package is not installed: ``src/`` goes on ``sys.path``.
Load comes from this one process asking one question at a time (a closed
loop with a single caller).  The run goes through the whole question set
in rounds, each in a fresh seeded order, until ``--seconds`` are used up
(at least ``MIN_ROUNDS``); each question's time is its
fastest ask.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` untraced and traced rounds
alternate and the metrics are the per-layer ones, plus the tracing
overhead (traced minus untraced ``answer_s``).
"""

from __future__ import annotations

import os
import sys

# fixed before numpy loads; also inherited by the fresh interpreters that time the import
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402

import tracer as layer_trace  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

MIN_ROUNDS = 3
MIN_TRACE_ROUNDS = 2
SETUP_EVERY_S = 5.0
MAX_PROBLEMS_SHOWN = 20

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import resistnet\n"
    "print(repr(time.perf_counter() - t))\n"
)


def fresh_import_seconds():
    """Time of ``import resistnet`` in a new interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def setup_seconds(workload, rn):
    """One set-up: a fresh ``import resistnet`` plus the input-building pass."""
    t_import = fresh_import_seconds()
    t0 = time.perf_counter()
    workload.build(rn)
    return t_import + time.perf_counter() - t0


@dataclass
class Run:
    best: dict          # traced? -> best time per question
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    setups: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    failures: dict = field(default_factory=dict)
    snapshots: list = field(default_factory=list)   # per traced round


def run_rounds(workload, rn, seconds, seed, tracer):
    """Ask every question once per round until the time is used up.

    Between rounds, one set-up is taken for every ``SETUP_EVERY_S`` seconds
    gone since the last, so the set-up median samples the host's speed over
    the whole run instead of at one moment.
    """
    questions = workload.questions
    count = len(questions)
    order_rng = np.random.default_rng([seed, 0xB])
    run = Run(best={False: [math.inf] * count, True: [math.inf] * count})
    min_rounds = MIN_TRACE_ROUNDS if tracer else MIN_ROUNDS
    fresh_import_seconds()  # compiles bytecode once, as any first use would
    start = last_setup = time.perf_counter()
    run.setups.append(setup_seconds(workload, rn))
    while True:
        traced = tracer is not None and run.rounds % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            for qi in order_rng.permutation(count):
                q = questions[qi]
                if traced:
                    tracer.question = int(qi)
                t0 = time.perf_counter()
                try:
                    out = q.run()
                except Exception as exc:  # a program fault: the question failed
                    elapsed = time.perf_counter() - t0
                    run.failed += 1
                    run.failures.setdefault(q.label, f"{type(exc).__name__}: {exc}")
                else:
                    elapsed = time.perf_counter() - t0
                    try:
                        found = q.check(out)
                    except (KeyError, ValueError, TypeError, OSError) as exc:  # malformed answer
                        found = [f"{q.label}: answer not checkable: {type(exc).__name__}: {exc}"]
                    run.problems.extend(p for p in found if p not in run.problems)
                run.attempted += 1
                run.best[traced][qi] = min(run.best[traced][qi], elapsed)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            run.snapshots.append((dict(tracer.calls), dict(tracer.self_s), dict(tracer.out_bytes),
                                  tracer.steps, tracer.csv_bytes))
        run.rounds += 1
        while time.perf_counter() - last_setup >= SETUP_EVERY_S:
            run.setups.append(setup_seconds(workload, rn))
            last_setup += SETUP_EVERY_S
        used = time.perf_counter() - start
        if run.rounds >= min_rounds and (tracer is None or run.rounds % 2 == 0) \
                and used + used / run.rounds > seconds:
            return run


def end_to_end_metrics(setup_s, best):
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "answer_s": {"value": sum(best), "unit": "s"},
        "answer_ms_p50": {"value": 1000.0 * statistics.median(best), "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                        "unit": "MB"},
    }


def per_layer_metrics(snapshots, best, problems):
    calls, _, out_bytes, steps, csv_bytes = snapshots[-1]
    if any(s[0] != calls or s[2] != out_bytes or s[3] != steps or s[4] != csv_bytes
           for s in snapshots):
        problems.append("traced rounds disagree on call counts or output sizes")
    self_s = {}
    for name, _ in layer_trace.metric_names():
        if name.endswith(".self_ms"):
            fn = name[:-len(".self_ms")]
            self_s[fn] = statistics.median(s[1].get(fn, 0.0) for s in snapshots)
    sim_s = sum(self_s[f"simulation.{fn}"] for fn in layer_trace.SIMULATORS)
    values = {}
    for name, unit in layer_trace.metric_names():
        if name.endswith(".calls"):
            value = calls.get(name[:-len(".calls")], 0)
        elif name.endswith(".self_ms"):
            value = 1000.0 * self_s[name[:-len(".self_ms")]]
        elif name.endswith(".out_mb"):
            value = out_bytes.get(name[:-len(".out_mb")], 0) / 1e6
        elif name == "simulation.steps":
            value = steps
        elif name == "simulation.steps_per_s":
            value = steps / sim_s if sim_s > 0 else 0.0
        elif name == "simulation.csv_mb":
            value = csv_bytes / 1e6
        else:  # trace.overhead_s
            value = sum(best[True]) - sum(best[False])
        values[name] = {"value": value, "unit": unit}
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "resistnet", "__init__.py")):
        print(f"benchmark: no resistnet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import resistnet as rn
    import resistnet.cli  # noqa: F401  (the CLI questions call rn.cli.main)

    workdir = os.path.join(OUT, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(workdir)
    try:
        rng = np.random.default_rng(args.seed)
        workload = workloads.WORKLOADS[args.workload](rng, workdir, rn)
        tracer = layer_trace.Tracer(rn) if args.trace else None
        run = run_rounds(workload, rn, args.seconds, args.seed, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setup_s = statistics.median(run.setups)
    if tracer is not None:
        metrics = per_layer_metrics(run.snapshots, run.best, run.problems)
        spans = os.path.join(OUT, f"trace-{args.workload}-s{args.seed}.jsonl")
        tracer.write_spans(spans)
    else:
        metrics = end_to_end_metrics(setup_s, run.best[False])
    for label, why in sorted(run.failures.items()):
        print(f"failed: {label}: {why}", file=sys.stderr)
    for p in run.problems[:MAX_PROBLEMS_SHOWN]:
        print(f"check: {p}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "rounds": run.rounds,
                      "questions": len(workload.questions), "blas_threads": BLAS_THREADS,
                      "setups": len(run.setups), "setup_s": setup_s,
                      **({"spans": os.path.relpath(spans)} if tracer else {})}))
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
