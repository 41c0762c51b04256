"""Output checks: a repetition whose outputs are wrong is not a number.

The perflog reader here is deliberately independent of the program's
own: it splits the pipe-separated rows itself and compares every FOM to
the probe's closed form.
"""

from __future__ import annotations

import filecmp
import os
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

from perfbench import probe

#: perflog columns the checks read (file order, see repro.runner.perflog)
TEST, ENVIRON, PERF_VAR, PERF_VALUE, RESULT = 2, 5, 8, 9, 11
N_FIELDS = 12


def _files(root: str) -> List[str]:
    return sorted(
        os.path.relpath(os.path.join(d, f), root)
        for d, _, files in os.walk(root) for f in files
    )


def same_tree(a: str, b: str) -> bool:
    """True when both trees hold the same files with the same bytes."""
    names = _files(a)
    if names != _files(b):
        return False
    return all(filecmp.cmp(os.path.join(a, n), os.path.join(b, n),
                           shallow=False) for n in names)


def good_cases(perflogs: str, expected: Dict[Tuple[str, str, str], float]
               ) -> Tuple[int, int, List[str]]:
    """(cases with 4 correct rows, total rows, first problems) of a tree."""
    rows = 0
    correct: Dict[Tuple[str, str], set] = defaultdict(set)
    problems: List[str] = []
    for name in _files(perflogs):
        if not name.endswith(".log"):
            continue
        with open(os.path.join(perflogs, name), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        for line in lines[1:]:
            rows += 1
            f = line.split("|")
            key = (f[TEST], f[ENVIRON], f[PERF_VAR]) \
                if len(f) == N_FIELDS else None
            want = expected.get(key)
            if want is None or f[RESULT] != "pass" \
                    or float(f[PERF_VALUE]) != want:
                if len(problems) < 5:
                    problems.append(f"{name}: {line}")
                continue
            correct[(f[TEST], f[ENVIRON])].add(f[PERF_VAR])
    kernels = len(probe.KERNELS)
    good = sum(1 for v in correct.values() if len(v) == kernels)
    return good, rows, problems


def check_sweep(workload: str, rep: Dict[str, Any], prep: str,
                expected: Dict[Tuple[str, str, str], float]
                ) -> Tuple[int, List[str]]:
    """(good cases, problems) of one sweep repetition.

    Any problem fails every case of the repetition: a byte-identity or
    count mismatch cannot be pinned on single cases.
    """
    problems: List[str] = []
    cases = rep["cases"]
    if cases != probe.CASES:
        problems.append(f"{cases} cases, expected {probe.CASES}")
    if rep["aborted"]:
        problems.append(f"aborted: {rep['aborted']}")
    if rep["passed"] != cases or rep["skipped"]:
        problems.append(f"{rep['passed']} passed, {rep['skipped']} skipped")
    perflogs = os.path.join(rep["dir"], "artifacts", "perflogs")
    good, rows, bad_rows = good_cases(perflogs, expected)
    problems += bad_rows
    if rows != len(probe.KERNELS) * cases:
        problems.append(f"{rows} FOM rows for {cases} cases")
    groups = len(probe.ENVIRONS) * len(probe.KERNELS)
    if rep["fom_groups"] != groups:
        problems.append(f"FOM table has {rep['fom_groups']} groups")
    reference = os.path.join(prep, "artifacts", "perflogs")
    if workload == "sweep_warm":
        if rep["replayed"] != cases - probe.EDITED_CASES:
            problems.append(f"{rep['replayed']} replayed")
        if not same_tree(perflogs, reference):
            problems.append("perflogs differ from the preparation run's")
    if workload == "sweep_chaos" and not same_tree(perflogs, reference):
        problems.append("perflogs differ from the fault-free serial run's")
    return (0 if problems else good), problems


def check_rep(workload: str, rep: Dict[str, Any], prep: str,
              expected: Optional[Dict[Tuple[str, str, str], float]]
              ) -> Tuple[int, List[str]]:
    if workload == "paper_suite":
        problems = list(rep["problems"])
        if rep["skipped"]:
            problems.append(f"{rep['skipped']} skipped")
        return (0 if problems else rep["cases"]), problems
    return check_sweep(workload, rep, prep, expected)


def same_artifacts(workload: str, a: Dict[str, Any], b: Dict[str, Any]
                   ) -> bool:
    """Traced and untraced repetitions wrote the same bytes."""
    if workload == "paper_suite":
        return a["tables"] == b["tables"]
    da = os.path.join(a["dir"], "artifacts")
    db = os.path.join(b["dir"], "artifacts")
    return same_tree(os.path.join(da, "perflogs"),
                     os.path.join(db, "perflogs")) and filecmp.cmp(
        os.path.join(da, "journal.jsonl"),
        os.path.join(db, "journal.jsonl"), shallow=False)
