"""The sweep probe: a seeded 100-class x 2-point x 5-toolchain campaign.

Every generated class is an ``IncProbe``-shaped streaming benchmark: a
banner, a per-kernel results table on stdout and four FOMs per case,
each with a closed form the benchmark checks the perflogs against.  The
probe declares its toolchains (``valid_prog_environs``), so every case
really runs instead of being skipped at setup.

The workload seed picks each class's FOM scale and, for ``sweep_warm``,
the one class that is edited between the preparation run and the
measured run.  The program only ever sees the generated classes.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.runner import sanity as sn
from repro.runner.benchmark import RegressionTest
from repro.runner.config import SiteConfig, default_site_config
from repro.runner.fields import parameter

N_CLASSES = 100
POINTS = 2
ENVIRONS = ("gnu", "llvm", "aocc", "cray", "nvhpc")
CASES = N_CLASSES * POINTS * len(ENVIRONS)
#: cases one edited class invalidates (all its points, every toolchain)
EDITED_CASES = POINTS * len(ENVIRONS)
SYSTEM = "fleet"
FLEET_NODES = 256
#: the probe's kernels: (name, rate factor); one perflog row each
KERNELS = (("Copy", 1.00), ("Mul", 0.98), ("Add", 1.31), ("Triad", 1.29))
#: pinned perflog timestamp, so runs of the same inputs are byte-identical
PINNED_TS = "2026-01-01T00:00:00"


def site() -> SiteConfig:
    """The shipped registry plus a synthetic five-toolchain fleet."""
    cfg = default_site_config()
    cfg.merge_yaml(
        "systems:\n"
        f"  - name: {SYSTEM}\n"
        "    description: synthetic campaign fleet, 5 toolchains\n"
        "    scheduler: slurm\n"
        f"    num_nodes: {FLEET_NODES}\n"
        "    environs:\n"
        "      - {name: gnu, compiler: gcc, version: 12.3.0}\n"
        "      - {name: llvm, compiler: clang, version: 17.0.1}\n"
        "      - {name: aocc, compiler: aocc, version: 4.1.0}\n"
        "      - {name: cray, compiler: cce, version: 16.0.0}\n"
        "      - {name: nvhpc, compiler: nvhpc, version: 23.9}\n"
    )
    return cfg


def scales(seed: int) -> List[float]:
    """Per-class FOM scales drawn from the workload seed."""
    rng = random.Random(f"scales:{seed}")
    return [round(rng.uniform(0.0, 900.0), 3) for _ in range(N_CLASSES)]


def edited_class(seed: int) -> int:
    """The class ``sweep_warm`` edits between preparation and measurement."""
    return random.Random(f"edit:{seed}").randrange(N_CLASSES)


def expected_rate(scale: float, point: int, factor: float) -> float:
    """The closed form of one FOM, as the probe prints it (3 decimals)."""
    return float(f"{(100.0 + scale + point % 97) * factor:.3f}")


def make_class(index: int, scale: float, rev: str = "r0") -> type:
    """One probe class; ``rev_tag`` is the edit knob (output unchanged)."""

    class IncProbe(RegressionTest):
        valid_prog_environs = list(ENVIRONS)
        point = parameter(list(range(POINTS)))
        rev_tag = rev

        def program(self, ctx):
            base = 100.0 + self.scale + (self.point % 97)
            lines = [
                f"IncProbe v4.0 point={self.point}",
                "Running kernels 100 times",
                "Precision: double",
                f"Array size: {(1 + self.point) * 2}MB (=0.2GB)",
                "Function    MBytes/sec    Min (sec)   Max"
                "      Average",
            ]
            for kernel, factor in KERNELS:
                rate = base * factor
                t = 0.2 / rate
                lines.append(
                    f"{kernel:<12s}{rate:<14.3f}{t:<12.5f}"
                    f"{t * 1.1:<9.5f}{t * 1.02:.5f}"
                )
            lines.append("Validation: PASSED")
            return "\n".join(lines) + "\n", 1.0

        def check_sanity(self, stdout):
            sn.assert_found(r"Validation: PASSED", stdout)
            sn.assert_found(r"Running kernels \d+ times", stdout)

        def extract_performance(self, stdout):
            out = {}
            for kernel, _ in KERNELS:
                v = sn.extractsingle(
                    rf"{kernel}\s+([\d.]+)", stdout, 1, float
                )
                out[kernel.lower()] = (v, "MB/s")
            return out

    IncProbe.scale = scale
    IncProbe.__name__ = IncProbe.__qualname__ = f"IncProbe{index:03d}"
    return IncProbe


def make_classes(seed: int, edited: Optional[int] = None) -> List[type]:
    """The campaign's classes; class ``edited`` carries the edited rev."""
    return [
        make_class(i, s, "r1" if i == edited else "r0")
        for i, s in enumerate(scales(seed))
    ]


def expected_foms(seed: int) -> Dict[Tuple[str, str, str], float]:
    """(test name, environ, perf_var) -> the FOM a perflog row must hold.

    The closed form, at the 6 significant digits perflogs are written in.
    """
    out = {}
    for index, scale in enumerate(scales(seed)):
        for point in range(POINTS):
            name = f"IncProbe{index:03d}_{point}"
            for env in ENVIRONS:
                for kernel, factor in KERNELS:
                    rate = expected_rate(scale, point, factor)
                    out[(name, env, kernel.lower())] = float(f"{rate:.6g}")
    return out
