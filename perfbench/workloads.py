"""The four workloads: set-up, preparation and one measured repetition.

A repetition is what ``cases_per_s`` times: from the ``run_cases`` call
until the workload's FOM table is built.  For the sweeps that is the
campaign plus ``read_perflogs`` over its perflog tree and a groupby over
system x environ x perf_var; for ``paper_suite`` it is one pass of the
paper's evaluation.  Everything a repetition needs that users would not
pay per run -- fresh directories, the pristine ``sweep_warm`` store copy
-- is made before its clock starts.
"""

from __future__ import annotations

import os
import shutil
import time
from typing import Any, Callable, Dict, Optional

from perfbench import probe

WORKLOADS = ("sweep_cold", "sweep_warm", "sweep_chaos", "paper_suite")
#: the sweep_chaos storm (fault kind: per-operation probability)
CHAOS_FAULTS = "build:0.2,submit:0.2,timeout:0.1,hook:0.1,hang:0.1,slow:0.2"
CHAOS_RETRIES = 6
CHAOS_WATCHDOG = "run=50,heartbeat=10"
CHAOS_WORKERS = 2
#: journal and trace group-commit size of the full artifact stack
BATCH = 256


def setup(workload: str, seed: int, work: str) -> int:
    """Site config, executor and expanded cases; returns the case count."""
    if workload == "paper_suite":
        from perfbench import paper

        return paper.setup()
    ex = _executor(os.path.join(work, "setup"))
    edited = probe.edited_class(seed) if workload == "sweep_warm" else None
    return len(_expand(ex, seed, edited))


def _expand(ex: Any, seed: int, edited: Optional[int]) -> list:
    return ex.expand_cases(probe.make_classes(seed, edited), probe.SYSTEM,
                           environs=list(probe.ENVIRONS))


def _executor(artifacts: str) -> Any:
    from repro.runner.executor import Executor

    return Executor(site=probe.site(),
                    perflog_prefix=os.path.join(artifacts, "perflogs"),
                    perflog_timestamp=probe.PINNED_TS)


def _full_stack(artifacts: str) -> Dict[str, Any]:
    """Journal, trace and live-status writers in ``artifacts``."""
    from repro.obs.live import LiveStatsSink
    from repro.obs.trace import Tracer

    return dict(
        journal=os.path.join(artifacts, "journal.jsonl"),
        journal_batch=BATCH,
        trace=Tracer(os.path.join(artifacts, "trace.jsonl"), batch=BATCH),
        live=LiveStatsSink(os.path.join(artifacts, "live-status.jsonl")),
    )


def prepare(workload: str, seed: int, prep: str) -> Dict[str, Any]:
    """Work the measured process must not do itself.

    ``sweep_warm``: a cold run of the unedited sweep fills the store at
    ``prep/store`` and leaves its perflogs in ``prep/artifacts``.
    ``sweep_chaos``: a fault-free serial run leaves the reference
    perflogs in ``prep/artifacts``.
    """
    artifacts = os.path.join(prep, "artifacts")
    os.makedirs(artifacts)
    ex = _executor(artifacts)
    cases = _expand(ex, seed, None)
    if workload == "sweep_warm":
        kwargs = _full_stack(artifacts)
        kwargs["result_store"] = os.path.join(prep, "store")
    else:
        kwargs = {}
    report = ex.run_cases(cases, **kwargs)
    return {"cases": len(cases), "passed": len(report.passed)}


def sweep_rep(workload: str, seed: int, rep_dir: str, prep: str,
              postprocess: Optional[Callable[[Callable[[], Any]], Any]],
              ) -> Dict[str, Any]:
    """One measured repetition of a sweep workload.

    ``postprocess`` (the traced run's span) wraps building the FOM table.
    """
    import numpy as np

    from repro.faults import FaultPlan
    from repro.postprocess.perflog_reader import read_perflogs
    from repro.runner.resilience import RetryPolicy

    artifacts = os.path.join(rep_dir, "artifacts")
    os.makedirs(artifacts)
    ex = _executor(artifacts)
    edited = probe.edited_class(seed) if workload == "sweep_warm" else None
    cases = _expand(ex, seed, edited)
    kwargs = _full_stack(artifacts)
    if workload == "sweep_cold":
        kwargs["result_store"] = os.path.join(rep_dir, "store")
    elif workload == "sweep_warm":
        store = os.path.join(rep_dir, "store")
        shutil.copytree(os.path.join(prep, "store"), store)
        kwargs["result_store"] = store
    else:
        kwargs.update(
            faults=FaultPlan.parse(CHAOS_FAULTS, seed=seed),
            retry=RetryPolicy(max_attempts=CHAOS_RETRIES, seed=seed),
            watchdog=CHAOS_WATCHDOG,
            speculation=True,
            policy="async",
            workers=CHAOS_WORKERS,
        )

    def fom_table() -> Any:
        frame = read_perflogs(os.path.join(artifacts, "perflogs"))
        return frame.groupby(["system", "environ", "perf_var"],
                             {"perf_value": np.mean})

    os.sync()  # the store copy and earlier repetitions are on disk now
    t0 = time.perf_counter()
    report = ex.run_cases(cases, **kwargs)
    t1 = time.perf_counter()
    table = postprocess(fom_table) if postprocess else fom_table()
    wall = time.perf_counter() - t0
    metrics = (report.metrics or {}).get("counters", {})
    return {
        "start": t0,
        "wall": wall,
        "run_cases_wall": t1 - t0,
        "dir": rep_dir,
        "cases": len(cases),
        "passed": len(report.passed),
        "skipped": len(report.skipped),
        "replayed": len(report.replayed),
        "fom_groups": len(table),
        "aborted": report.aborted,
        "hit_ratio": (report.result_cache or {}).get("hit_rate", 0.0),
        "attempts_extra": metrics.get("retry.attempts_extra", 0),
        "speculated": metrics.get("spec.speculated", 0),
        "spec_wins": metrics.get("spec.wins", 0),
    }


def paper_rep() -> Dict[str, Any]:
    """One pass of the paper suite (its inputs take no seed)."""
    from perfbench import paper

    t0 = time.perf_counter()
    out = paper.run_pass()
    wall = time.perf_counter() - t0
    attempted, problems = paper.check(out)
    results = [r for rep in out["reports"] for r in rep.results]
    return {
        "start": t0,
        "wall": wall,
        "cases": attempted,
        "problems": problems,
        "skipped": sum(1 for r in results if r.skipped),
        "attempts_extra": sum(r.attempts - 1 for r in results),
        "speculated": 0,
        "spec_wins": 0,
        "hit_ratio": 0.0,
        "tables": {k: out[k] for k in ("table2", "table3", "table4")},
    }


def run_rep(workload: str, seed: int, rep_dir: str, prep: str,
            postprocess: Optional[Callable] = None) -> Dict[str, Any]:
    if workload == "paper_suite":
        return paper_rep()
    return sweep_rep(workload, seed, rep_dir, prep, postprocess)
