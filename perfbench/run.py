"""The repository's benchmark: one workload, one seed, one JSON result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 12 \
        --trace 0

Workloads (``BENCHMARK.json`` says why each exists and holds the metric
units; ``layers.json`` says which per-layer metric should move which
end-to-end metric on which workload):

* ``sweep_cold``  -- 1 000-case probe sweep, full artifact stack, fresh
  result store;
* ``sweep_warm``  -- the same sweep against a store a separate process
  filled, after one seed-chosen class was edited (10 cases re-execute);
* ``sweep_chaos`` -- the same sweep, no store, under a seeded transient
  fault storm with retries, watchdog and speculation on 2 threads;
* ``paper_suite`` -- the paper's Figure 2 and Tables 2, 3 and 4.

``--trace 0`` reports the end-to-end metrics: ``cases_per_s`` (median
over repetitions of correct cases per reference second), ``setup_s``
(median of fresh-interpreter set-ups, in reference seconds) and
``peak_rss_mb`` (high-water RSS of the measured process through its
first repetition).  Reference seconds are wall seconds corrected for the
CPU's speed while they passed (``calib.py``): the run and every process
it starts are pinned to one CPU, whose speed a thread of this process
samples throughout.  ``--trace 1`` reports the per-layer metrics of a
separate traced run and leaves its span log in
``.perfbench/<workload>-spans.tsv``.  Every child process is waited for;
all other files go under ``.perfbench/`` in the checkout and are removed
at the end.  The last line of standard output is the result object; the
line before it records the seed, the host fingerprint, the CPU, the
repetition count and the raw timing vectors with their speed factors.

A run takes longer than ``--seconds``: the set-up samples, the
preparation run of ``sweep_warm`` and ``sweep_chaos`` and the output
checks come on top of the measured window (12 to 22 s in all for
``--seconds 12`` on a 2-vCPU virtual machine).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

#: fresh-interpreter set-ups per run (after one untimed warm-up)
SETUP_SAMPLES = 7
#: a child that runs longer than this is killed (and the run fails)
CHILD_TIMEOUT_S = 150
#: children use the bytecode cache (the untimed first set-up fills it)
#: and a single-threaded BLAS, so a process never runs more threads than
#: the workload itself starts, whatever the host's core count
CHILD_ENV = {k: v for k, v in os.environ.items()
             if k != "PYTHONDONTWRITEBYTECODE"}
CHILD_ENV.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                 MKL_NUM_THREADS="1")


def _child(mode: str, args: argparse.Namespace, work: str,
           trace: bool = False) -> str:
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "child.py"),
           mode, "--workload", args.workload, "--seed", str(args.seed),
           "--work", work, "--seconds", str(args.seconds)]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, env=CHILD_ENV)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{mode} process exited {proc.returncode}")
    return proc.stdout


def _load(work: str, mode: str) -> dict:
    with open(os.path.join(work, f"{mode}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def host() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}


def run(args: argparse.Namespace, work: str) -> tuple:
    from perfbench import calib, checks, probe

    context = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "host": host(), "cpu": calib.pin()}
    # earlier runs' files (and their deletion) must not be written back
    # to disk while this run measures
    os.sync()
    with calib.HostSpeed() as speed:
        setups = []
        if not args.trace:
            _child("setup", args, work)  # warm-up: byte-compiles the program
            for _ in range(SETUP_SAMPLES):
                out = _child("setup", args, work).strip().splitlines()[-1]
                setups.append(json.loads(out))
        if args.workload in ("sweep_warm", "sweep_chaos"):
            _child("prepare", args, work)
        _child("measure", args, work, trace=bool(args.trace))
    for sample in setups:
        sample["factor"] = speed.factor(sample["start"],
                                        sample["start"] + sample["setup_s"])
    result = _load(work, "measure")
    reps = result["reps"] + result.get("plain", [])
    for rep in reps:
        rep["factor"] = speed.factor(rep["start"], rep["start"] + rep["wall"])
        rep["ref_wall"] = rep["wall"] * rep["factor"]

    problems = []
    if args.workload in ("sweep_warm", "sweep_chaos"):
        prepared = _load(work, "prepare")
        if prepared["passed"] != prepared["cases"]:
            problems.append(f"preparation run: {prepared}")
    prep = os.path.join(work, "prep")
    expected = (None if args.workload == "paper_suite"
                else probe.expected_foms(args.seed))
    rates = []
    attempted = failed = 0
    for rep in reps:
        good, rep_problems = checks.check_rep(args.workload, rep, prep,
                                              expected)
        attempted += rep["cases"]
        failed += rep["cases"] - good
        problems += rep_problems
        rates.append(good / rep["ref_wall"])
    if args.trace:
        if not result["wrappers_removed"]:
            problems.append("layer wrappers left installed")
        if not checks.same_artifacts(args.workload, result["plain"][0],
                                     result["reps"][0]):
            problems.append("traced artifacts differ from untraced ones")
        sums = result["sum_check"]
        if abs(sums["layers_plus_executor"] - sums["run_cases_wall"]) \
                > 1e-6 * sums["run_cases_wall"]:
            problems.append(f"layer self times do not add up: {sums}")
        # the run_cases spans against the benchmark's own clock: equal up
        # to the wrappers' cost for a sweep, within the pass for the paper
        slack = sums["benchmark_wall"] - sums["run_cases_wall"]
        if slack < 0 or (args.workload != "paper_suite"
                         and slack > 0.01 * sums["benchmark_wall"]):
            problems.append(f"run_cases spans miss the measured wall: {sums}")
        if sums["stray_spans"]:
            problems.append(f"worker spans outside run_cases: {sums}")
        metrics = result["layers"]
        metrics["bench.trace_overhead"] = (
            median(r["ref_wall"] for r in result["reps"])
            / median(r["ref_wall"] for r in result["plain"]) - 1
        )
        context["sum_check"] = sums
        context["spans"] = result["spans"]
    else:
        metrics = {
            "cases_per_s": median(rates),
            "setup_s": median(s["setup_s"] * s["factor"] for s in setups),
            "peak_rss_mb": result["reps"][0]["rss_mb"],
        }
    context.update(
        reps=len(reps),
        walls=[r["wall"] for r in reps],
        speed_factors=[r["factor"] for r in reps],
        cases_per_s_samples=rates,
        setup_walls=[s["setup_s"] for s in setups],
        setup_speed_factors=[s["factor"] for s in setups],
        problems=problems[:20],
    )
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    final = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    return context, final


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repro benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("sweep_cold", "sweep_warm", "sweep_chaos",
                                 "paper_suite"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("error: no program sources (src/repro) next to perfbench/",
              file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".perfbench",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        context, final = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(context))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
