"""One benchmark process: a set-up sample, a preparation or a measurement.

Run by ``run.py`` from the root of the checkout::

    python3 perfbench/child.py setup   --workload W --seed N
    python3 perfbench/child.py prepare --workload W --seed N --work DIR
    python3 perfbench/child.py measure --workload W --seed N --work DIR \
        --seconds S [--trace]

``setup`` times, from the first line of this file, a fresh interpreter
importing the program and building the workload's cases.  ``measure``
runs repetitions until the next one would take the loop past
``--seconds``, at least one; with ``--trace`` half the window runs
untraced and half with the layer wrappers installed.  Results go to
``DIR/<mode>.json``; every timing carries its ``perf_counter`` start,
so ``run.py`` can match it with its host-speed samples.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from statistics import median  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import repro.runner.executor  # noqa: E402,F401  -- the program itself
from perfbench import workloads  # noqa: E402

IMPORT_S = time.perf_counter() - T0


def _reps(args, window, prep, tag, postprocess=None, least=1):
    """Repetitions until the next would take this loop past ``window``
    seconds; at least ``least``."""
    reps = []
    start = time.perf_counter()
    while True:
        rep_dir = os.path.join(args.work, f"{tag}{len(reps)}")
        rep = workloads.run_rep(args.workload, args.seed, rep_dir, prep,
                                postprocess)
        # high-water RSS so far: after the first repetition it covers
        # import, set-up and one repetition, whatever the repetition count
        rep["rss_mb"] = _peak_rss_mb()
        reps.append(rep)
        elapsed = time.perf_counter() - start
        if len(reps) >= least and elapsed + elapsed / len(reps) > window:
            return reps


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tree_bytes(path):
    return sum(os.path.getsize(os.path.join(root, f))
               for root, _, files in os.walk(path) for f in files)


def traced(args, prep):
    from perfbench.layers import (BENCH, EXECUTOR, LayerTracer, attribute,
                                  stray_spans)

    # an untimed first repetition, so that one-off costs of a process's
    # first campaign land in neither half of bench.trace_overhead
    workloads.run_rep(args.workload, args.seed,
                      os.path.join(args.work, "warmup"), prep)
    plain = _reps(args, args.seconds / 2, prep, "plain")
    tracer = LayerTracer()
    tracer.install()
    # the benchmark builds the FOM table itself: a span of its own
    postprocess = tracer.timed("postprocess", lambda build: build())
    start = time.perf_counter()
    try:
        reps = _reps(args, args.seconds / 2, prep, "traced", postprocess)
    finally:
        end = time.perf_counter()
        tracer.uninstall()
    total, inside, run_cases_wall = attribute(
        tracer.spans, start, end, threading.get_ident()
    )
    # kept after the run (the work directory is not): the last traced
    # run's span log per workload
    tracer.write(os.path.join(os.path.dirname(args.work),
                              f"{args.workload}-spans.tsv"))
    n = len(reps)
    c = tracer.counts
    cases = sum(r["cases"] for r in reps)

    def busy(layer):
        return total.get(layer, 0.0) / n

    def ratio(num, den):
        return num / den if den else 0.0

    grown = 0
    if args.workload != "paper_suite":
        base = _tree_bytes(os.path.join(prep, "store")) \
            if args.workload == "sweep_warm" else 0
        grown = sum(_tree_bytes(r["dir"]) for r in reps) / n - base
    layers = {
        "setup.import_s": IMPORT_S,
        "executor.expand_s": busy("executor.expand"),
        "executor.self_s": busy(EXECUTOR),
        "pipeline.self_s": busy("pipeline"),
        "telemetry.busy_s": busy("telemetry"),
        "clock.inits": c["clock.inits"] / n,
        "clock.busy_s": busy("clock"),
        "scheduler.busy_s": busy("scheduler"),
        "scheduler.events": c["scheduler.events"] / n,
        "pkgmgr.concretize_s": busy("pkgmgr"),
        "pkgmgr.memo_hit_ratio": ratio(c["pkgmgr.hits"],
                                       c["pkgmgr.lookups"]),
        "apps.program_s": busy("apps"),
        "perflog.busy_s": busy("perflog"),
        "perflog.flushes": c["perflog.flushes"] / n,
        "journal.busy_s": busy("journal"),
        "journal.appends": c["journal.appends"] / n,
        "trace.busy_s": busy("trace"),
        "trace.spans": c["trace.spans"] / n,
        "resultstore.key_s": busy("resultstore.key"),
        "resultstore.lookup_s": busy("resultstore.lookup"),
        "resultstore.put_s": busy("resultstore.put"),
        "resultstore.hit_ratio": median(r["hit_ratio"] for r in reps),
        "live.busy_s": busy("live"),
        "resilience.attempts_per_case": 1 + ratio(
            sum(r["attempts_extra"] for r in reps), cases),
        "parallel.spec_win_ratio": ratio(
            sum(r["spec_wins"] for r in reps),
            sum(r["speculated"] for r in reps)),
        "postprocess.ingest_s": busy("postprocess"),
        "io.fsync_calls": c["io.fsync_calls"] / n,
        "io.fsync_s": busy("io.fsync"),
        "io.open_calls": c["io.open_calls"] / n,
        "io.bytes_written": grown,
    }
    in_layers = sum(v for k, v in inside.items() if k != BENCH)
    return {
        "plain": plain,
        "reps": reps,
        "layers": layers,
        "wrappers_removed": tracer.clean(),
        "spans": len(tracer.spans),
        "sum_check": {
            "run_cases_wall": run_cases_wall,
            "layers_plus_executor": in_layers,
            # the same calls timed by the benchmark itself, outside the
            # wrappers (a paper pass times more than its run_cases calls)
            "benchmark_wall": sum(r.get("run_cases_wall", r["wall"])
                                  for r in reps),
            "stray_spans": stray_spans(tracer.spans, threading.get_ident()),
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "prepare", "measure"))
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    if args.mode == "setup":
        n = workloads.setup(args.workload, args.seed, args.work)
        print(json.dumps({"start": T0, "setup_s": time.perf_counter() - T0,
                          "cases": n}))
        return 0
    prep = os.path.join(args.work, "prep")
    if args.mode == "prepare":
        out = workloads.prepare(args.workload, args.seed, prep)
    elif args.trace:
        out = traced(args, prep)
    else:
        # the medians of cases_per_s rest on three repetitions or more
        out = {"reps": _reps(args, args.seconds, prep, "rep", least=3)}
    out["import_s"] = IMPORT_S
    with open(os.path.join(args.work, f"{args.mode}.json"), "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
