"""The paper suite: Figure 2 and Tables 2, 3 and 4 on the shipped registry.

One pass rebuilds the paper's evaluation the way its table generators do
-- BabelStream on five platforms through one ``Executor``, HPCG and
HPGMG through ``BenchmarkingWorkflow``, ``hpgmg%gcc`` concretized per
system -- with no artifact writers.  :func:`check` applies the same
shape criteria the paper-table tests assert, plus the expected outcome
of every case: the paper's ``*`` / ``N/A`` cells are refusals, and a
refusal where the paper has one is a correct outcome.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

FIG2_PLATFORMS = (
    "isambard-macs:volta",
    "isambard-macs:cascadelake",
    "isambard",
    "noctua2",
    "archer2",
)
#: "GCC v12.1.0" for the Cascade Lake CPU runs (Figure 2 caption)
FIG2_ENVIRONS = {"isambard-macs:cascadelake": ["gcc@12.1.0"]}
#: Figure 2's '*' boxes: (model, platform) combinations that cannot run
FIG2_ABSENT = frozenset(
    [("acc", "isambard-macs:volta"), ("std-data", "isambard-macs:volta"),
     ("std-indices", "isambard-macs:volta"),
     ("std-ranges", "isambard-macs:volta"), ("sycl", "isambard-macs:volta"),
     ("tbb", "isambard-macs:volta"), ("cuda", "isambard-macs:cascadelake")]
    + [(m, "isambard") for m in ("acc", "cuda", "ocl", "sycl", "tbb")]
    + [(m, p) for p in ("noctua2", "archer2") for m in ("cuda", "ocl")]
)
TABLE2_PLATFORMS = ("isambard-macs:cascadelake", "archer2")
TABLE2_PAPER = {
    "HPCG_Original": (24.0, 39.2),
    "HPCG_Intel": (39.0, None),
    "HPCG_MatrixFree": (51.0, 124.2),
    "HPCG_LFRic": (18.5, 56.0),
}
TABLE3_PAPER = {
    "archer2": ("11.2.0", "3.10.12", "cray-mpich", "8.1.23"),
    "cosma8": ("11.1.0", "2.7.15", "mvapich2", "2.3.6"),
    "csd3": ("11.2.0", "3.8.2", "openmpi", "4.0.4"),
    "isambard-macs": ("9.2.0", "3.7.5", "openmpi", "4.0.3"),
}
MPI_NAMES = ("cray-mpich", "mvapich2", "openmpi", "intel-oneapi-mpi", "mpich")
TABLE4_PLATFORMS = ("archer2", "cosma8", "csd3", "isambard-macs:cascadelake")
TABLE4_PAPER = {
    "archer2": (95.36, 83.43, 62.18),
    "cosma8": (81.67, 72.96, 75.09),
    "csd3": (126.10, 94.39, 49.40),
    "isambard-macs:cascadelake": (30.59, 25.55, 17.55),
}


def setup() -> int:
    """The set-up a user of the suite pays: site, executor, expansion."""
    from repro.runner.cli import load_suite
    from repro.runner.config import default_site_config
    from repro.runner.executor import Executor

    ex = Executor(site=default_site_config())
    n = 0
    for platform in FIG2_PLATFORMS:
        n += len(ex.expand_cases(load_suite("babelstream"), platform,
                                 environs=FIG2_ENVIRONS.get(platform)))
    for platform in TABLE2_PLATFORMS:
        n += len(ex.expand_cases(load_suite("hpcg"), platform))
    for platform in TABLE4_PLATFORMS:
        n += len(ex.expand_cases(load_suite("hpgmg"), platform,
                                 qos="standard"))
    return n


def run_pass() -> Dict[str, Any]:
    """One pass of the evaluation: outcomes per case plus the four tables."""
    from repro.analysis.efficiency import architectural_efficiency
    from repro.core.workflow import BenchmarkingWorkflow
    from repro.pkgmgr.concretizer import concretize
    from repro.runner.cli import load_suite
    from repro.runner.executor import Executor
    from repro.systems.registry import system_environment

    outcomes: List[Tuple[str, str, str, bool]] = []  # table, cell, platform
    reports = []

    executor = Executor()
    fig2: Dict[str, Dict[str, Any]] = {}
    for platform in FIG2_PLATFORMS:
        report = executor.run(load_suite("babelstream"), platform,
                              environs=FIG2_ENVIRONS.get(platform))
        reports.append(report)
        for r in report.results:
            model = r.case.test.model
            cell = None
            if r.passed:
                peak = r.case.partition.node.peak_bandwidth_gbs
                cell = architectural_efficiency(r.perfvars["Triad"][0], peak)
            fig2.setdefault(model, {})[platform] = cell
            outcomes.append(("fig2", model, platform, r.passed))

    hpcg = BenchmarkingWorkflow(load_suite("hpcg"), list(TABLE2_PLATFORMS))
    result = hpcg.run()
    table2: Dict[str, List[Any]] = {}
    for platform in TABLE2_PLATFORMS:
        reports.append(result.reports[platform])
        for r in result.reports[platform].results:
            table2.setdefault(r.case.test.name, []).append(
                r.perfvars["gflops"][0] if r.passed else None
            )
            outcomes.append(("table2", r.case.test.name, platform, r.passed))

    table3 = {}
    for system in TABLE3_PAPER:
        spec = concretize("hpgmg%gcc", env=system_environment(system))
        mpi = next(n for n in MPI_NAMES if n in spec)
        table3[system] = (str(spec.compiler.version),
                          str(spec["python"].version), mpi,
                          str(spec[mpi].version))

    hpgmg = BenchmarkingWorkflow(load_suite("hpgmg"), list(TABLE4_PLATFORMS),
                                 qos="standard")
    result = hpgmg.run()
    table4 = {}
    for platform in TABLE4_PLATFORMS:
        reports.append(result.reports[platform])
        r = result.reports[platform].results[0]
        table4[platform] = (
            tuple(r.perfvars[f"l{i}"][0] for i in range(3)) if r.passed
            else None
        )
        outcomes.append(("table4", "hpgmg", platform, r.passed))

    return {"outcomes": outcomes, "reports": reports, "fig2": fig2,
            "table2": table2, "table3": table3, "table4": table4}


def _close(got: Any, want: float, rel: float) -> bool:
    return got is not None and abs(got - want) <= rel * abs(want)


def check(out: Dict[str, Any]) -> Tuple[int, List[str]]:
    """(cases attempted, problems) for one pass.

    A problem is a case whose outcome differs from the paper's (a result
    where the paper has ``*``/``N/A``, or the reverse) or a failed shape
    criterion of a table.
    """
    problems: List[str] = []
    for table, cell, platform, passed in out["outcomes"]:
        if table == "fig2":
            expect = (cell, platform) not in FIG2_ABSENT
        elif table == "table2":
            paper = TABLE2_PAPER[cell][TABLE2_PLATFORMS.index(platform)]
            expect = paper is not None
        else:
            expect = True
        if passed != expect:
            problems.append(f"{table} {cell}@{platform}: passed={passed}")

    f = out["fig2"]
    volta, cl = "isambard-macs:volta", "isambard-macs:cascadelake"
    try:
        fig2_ok = (
            f["cuda"][volta] > 0.88 and f["ocl"][volta] > 0.88
            and all(f["omp"][p] is not None for p in FIG2_PLATFORMS)
            and f["omp"][cl] > f["omp"]["isambard"]
            and f["omp"]["noctua2"] > f["omp"]["isambard"]
            and f["std-data"][cl] / f["std-ranges"][cl] > 5
            and f["tbb"][cl] > 1.5 * f["tbb"]["noctua2"]
            and all(v is None or 0 < v <= 1.0
                    for row in f.values() for v in row.values())
        )
    except (KeyError, TypeError):
        fig2_ok = False
    if not fig2_ok:
        problems.append("figure 2 shape criteria")

    t2 = out["table2"]
    try:
        t2_ok = all(
            _close(t2[name][0], cl_paper, 0.05)
            and (t2[name][1] is None if rome is None
                 else _close(t2[name][1], rome, 0.05))
            for name, (cl_paper, rome) in TABLE2_PAPER.items()
        )
        e_i = t2["HPCG_Intel"][0] / t2["HPCG_Original"][0]
        e_a_cl = t2["HPCG_MatrixFree"][0] / t2["HPCG_Original"][0]
        e_a_rome = t2["HPCG_MatrixFree"][1] / t2["HPCG_Original"][1]
        t2_ok = (t2_ok and _close(e_i, 1.625, 0.05)
                 and _close(e_a_cl, 2.125, 0.05)
                 and _close(e_a_rome, 3.168, 0.05)
                 and e_a_cl > e_i and e_a_rome > e_a_cl)
    except (KeyError, TypeError, ZeroDivisionError):
        t2_ok = False
    if not t2_ok:
        problems.append("table 2 values or Eq. (1) ratios")

    if out["table3"] != TABLE3_PAPER:
        problems.append(f"table 3 concretization: {out['table3']}")

    t4 = out["table4"]
    try:
        l0 = {p: v[0] for p, v in t4.items()}
        t4_ok = (
            all(_close(t4[p][i], paper[i], 0.08)
                for p, paper in TABLE4_PAPER.items() for i in range(3))
            and l0["csd3"] == max(l0.values())
            and l0["isambard-macs:cascadelake"] == min(l0.values())
            and l0["csd3"] / l0["isambard-macs:cascadelake"] > 3.5
            and t4["cosma8"][2] > t4["cosma8"][1] * 0.9
            and all(t4[p][0] > t4[p][1] > t4[p][2]
                    for p in ("archer2", "csd3", "isambard-macs:cascadelake"))
        )
    except (KeyError, TypeError):
        t4_ok = False
    if not t4_ok:
        problems.append("table 4 values or shape")

    return len(out["outcomes"]), problems
