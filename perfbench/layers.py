"""Per-layer tracing from outside the program.

:class:`LayerTracer` installs timing wrappers around the public entry
points of each layer (the modules of ``src/repro``), records one span
``(id, parent, layer, start, end, thread)`` per call in memory, and
removes every wrapper again on :meth:`LayerTracer.uninstall`.  Functions
a module imports by name are patched where they are looked up (the
executor's ``run_case``, the pipeline's ``capture_telemetry``); methods
are patched on the class that defines them.

:func:`attribute` turns the spans into self times: each stretch of wall
time is charged to the innermost span of every thread that is busy in a
layer at that moment, shared equally between them.  ``run_cases`` itself
(``executor``) and the benchmark's own code are charged only for time no
layer span covers on any thread.  The charges therefore partition the
traced wall time -- inside ``run_cases`` the layers' self times plus
``executor`` add up to its wall time exactly.
"""

from __future__ import annotations

import bisect
import builtins
import functools
import itertools
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: layer names; ``executor`` is ``run_cases`` itself
EXECUTOR = "executor"
BENCH = "bench"  # the benchmark's own code between traced calls
#: charged only for time no layer span covers on any thread
PASSIVE = (EXECUTOR, BENCH)

Span = Tuple[int, int, str, float, float, int]


class LayerTracer:
    """Timing wrappers plus the in-memory span log they fill."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._count_lock = threading.Lock()
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------
    def add(self, name: str, n: float = 1) -> None:
        """Count ``n`` under ``name`` (worker threads count too)."""
        with self._count_lock:
            self.counts[name] += n

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, layer: str, fn: Callable,
              count: Optional[Callable[..., None]] = None) -> Callable:
        """``fn`` wrapped in a span of ``layer``; ``count`` sees the call."""
        perf = time.perf_counter
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            parent = stack[-1] if stack else 0
            span_id = next(ids)
            stack.append(span_id)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                spans.append((span_id, parent, layer, t0, t1,
                              threading.get_ident()))
            if count is not None:
                count(out, *args, **kwargs)
            return out

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a call counter and no span.

        Only calls made inside a traced span count: the benchmark's own
        file handling between repetitions is not the program's I/O.
        """
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if self._stack():
                self.add(name)
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------
    def patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._patched.append((owner, attr, _lookup(owner, attr)))
        setattr(owner, attr, wrapper)

    def patch_timed(self, owner: Any, attr: str, layer: str,
                    count: Optional[Callable[..., None]] = None) -> None:
        self.patch(owner, attr, self.timed(layer, getattr(owner, attr),
                                           count))

    def install(self) -> None:
        """Wrap every layer boundary of the benchmark's layer table."""
        from repro.machine.clock import DeterministicRNG
        from repro.obs.live import LiveStatsSink
        from repro.obs.trace import ReplayedSpans, Tracer
        from repro.pkgmgr.concretizer import Concretizer
        from repro.pkgmgr.memo import ConcretizationCache
        from repro.runner import executor as executor_mod
        from repro.runner import pipeline as pipeline_mod
        from repro.runner.perflog import PerflogHandler
        from repro.runner.resilience import CampaignJournal
        from repro.runner.results import CaseResultStore
        from repro.scheduler.base import BatchScheduler
        from repro.scheduler.events import EventQueue

        add = self.add
        Executor = executor_mod.Executor
        self.patch_timed(Executor, "expand_cases", "executor.expand")
        self.patch_timed(Executor, "run_cases", EXECUTOR)
        # imported by name: patched where the executor looks it up
        self.patch_timed(executor_mod, "run_case", "pipeline")
        self.patch_timed(pipeline_mod, "capture_telemetry", "telemetry")
        self.patch_timed(DeterministicRNG, "__init__", "clock",
                         lambda *a, **k: add("clock.inits"))
        self.patch_timed(BatchScheduler, "submit", "scheduler")
        self.patch_timed(BatchScheduler, "wait_all", "scheduler")
        self.patch_timed(EventQueue, "run_until_idle", "scheduler",
                         lambda n, *a, **k: add("scheduler.events", n))
        self.patch_timed(Concretizer, "concretize", "pkgmgr")

        def memo(out: Any, *a: Any, **k: Any) -> None:
            add("pkgmgr.lookups")
            if out is not None:
                add("pkgmgr.hits")

        self.patch_timed(ConcretizationCache, "lookup", "pkgmgr", memo)
        for cls in _app_classes():
            self.patch_timed(cls, "program", "apps")
        self.patch_timed(PerflogHandler, "emit", "perflog")
        self.patch_timed(PerflogHandler, "emit_replay", "perflog")
        self.patch_timed(PerflogHandler, "flush", "perflog",
                         lambda *a, **k: add("perflog.flushes"))
        self.patch_timed(CampaignJournal, "record", "journal",
                         lambda *a, **k: add("journal.appends"))
        self.patch_timed(
            CampaignJournal, "record_many", "journal",
            lambda out, self_, records, *a, **k:
                add("journal.appends", len(records)),
        )
        self.patch_timed(CampaignJournal, "record_replay", "journal",
                         lambda *a, **k: add("journal.appends"))
        self.patch_timed(CampaignJournal, "record_health", "journal",
                         lambda *a, **k: add("journal.appends"))
        self.patch_timed(CampaignJournal, "compact", "journal")

        def spans_flushed(out: Any, self_: Any, recorder: Any,
                          *a: Any, **k: Any) -> None:
            add("trace.spans", recorder.count
                if isinstance(recorder, ReplayedSpans)
                else len(recorder.spans))

        self.patch_timed(Tracer, "flush", "trace", spans_flushed)
        self.patch_timed(Tracer, "drain", "trace")
        self.patch_timed(Tracer, "write_metrics", "trace")
        self.patch_timed(CaseResultStore, "key_for", "resultstore.key")
        self.patch_timed(CaseResultStore, "lookup", "resultstore.lookup")
        self.patch_timed(CaseResultStore, "put", "resultstore.put")
        self.patch_timed(CaseResultStore, "flush", "resultstore.put")
        for name in ("note_append", "note_flush", "observe_case",
                     "emit_status", "finalize"):
            self.patch_timed(LiveStatsSink, name, "live")
        self.patch_timed(os, "fsync", "io.fsync",
                         lambda *a, **k: add("io.fsync_calls"))
        self.patch(os, "open", self.counted("io.open_calls", os.open))
        self.patch(builtins, "open",
                   self.counted("io.open_calls", builtins.open))

    def write(self, path: str) -> None:
        """The span log as TSV: id, parent, layer, start, end, thread."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tlayer\tstart\tend\tthread\n")
            for span in sorted(self.spans):
                fh.write("\t".join(map(str, span)) + "\n")

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)

    def clean(self) -> bool:
        """True when every patched attribute holds its original again."""
        return all(_lookup(owner, attr) is original
                   for owner, attr, original in self._patched)


def _app_classes() -> List[type]:
    """The ``repro.apps`` classes that define ``program()`` for the
    paper's suites."""
    from repro.runner.cli import load_suite

    seen: List[type] = []
    for suite in ("babelstream", "hpcg", "hpgmg"):
        for cls in load_suite(suite):
            for klass in cls.__mro__:
                if (klass.__module__.startswith("repro.apps")
                        and "program" in vars(klass) and klass not in seen):
                    seen.append(klass)
    return seen


def _lookup(owner: Any, attr: str) -> Any:
    return owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


def attribute(spans: List[Span], t_start: float, t_end: float,
              main_thread: int) -> Tuple[Dict[str, float], Dict[str, float],
                                         float]:
    """Charge ``[t_start, t_end]`` to layers.

    Returns ``(total, inside, run_cases_wall)``: seconds per layer over
    the whole window, the same restricted to time inside ``run_cases``
    spans, and the summed wall time of those spans.  Main-thread time
    outside every span is charged to ``bench``.
    """
    children: Dict[int, List[Span]] = defaultdict(list)
    for s in spans:
        if s[1]:
            children[s[1]].append(s)

    # exclusive intervals: each span minus its children, per thread
    events: List[Tuple[float, int, int, str]] = []  # (t, +1/-1, tid, layer)
    for s in spans:
        _, _, layer, t0, t1, tid = s
        cursor = t0
        for child in sorted(children.get(s[0], ()), key=lambda k: k[3]):
            if child[3] > cursor:
                events.append((cursor, 1, tid, layer))
                events.append((child[3], -1, tid, layer))
            cursor = max(cursor, child[4])
        if t1 > cursor:
            events.append((cursor, 1, tid, layer))
            events.append((t1, -1, tid, layer))
    # main-thread time outside every top-level span belongs to the bench
    cursor = t_start
    for s in sorted((s for s in spans if not s[1] and s[5] == main_thread),
                    key=lambda k: k[3]):
        if s[3] > cursor:
            events.append((cursor, 1, main_thread, BENCH))
            events.append((s[3], -1, main_thread, BENCH))
        cursor = max(cursor, s[4])
    if t_end > cursor:
        events.append((cursor, 1, main_thread, BENCH))
        events.append((t_end, -1, main_thread, BENCH))
    # run_cases boundaries mark the inside of a campaign
    marks = [(s[3], s[4]) for s in spans if s[2] == EXECUTOR]
    for t0, t1 in marks:
        events.append((t0, 2, 0, ""))
        events.append((t1, -2, 0, ""))
    # ends before starts at equal times, so a thread is never counted twice
    events.sort(key=lambda e: (e[0], e[1]))

    total: Dict[str, float] = defaultdict(float)
    inside: Dict[str, float] = defaultdict(float)
    active: Dict[int, str] = {}
    depth = 0
    last = events[0][0] if events else t_start
    for t, kind, tid, layer in events:
        if t > last and active:
            # a thread waiting in run_cases (or in the benchmark) is not
            # busy while another thread works in a layer below it
            busy = [v for v in active.values() if v not in PASSIVE] \
                or list(active.values())
            share = (t - last) / len(busy)
            for name in busy:
                total[name] += share
                if depth:
                    inside[name] += share
        last = t
        if kind == 1:
            active[tid] = layer
        elif kind == -1:
            if active.get(tid) == layer:
                del active[tid]
        else:
            depth += 1 if kind > 0 else -1
    return dict(total), dict(inside), sum(t1 - t0 for t0, t1 in marks)


def stray_spans(spans: List[Span], main_thread: int) -> int:
    """Worker-thread spans that do not lie inside a ``run_cases`` span.

    Their time would be missing from the ``run_cases`` breakdown, so a
    traced run with any of them fails.
    """
    marks = sorted((s[3], s[4]) for s in spans if s[2] == EXECUTOR)
    starts = [m[0] for m in marks]
    stray = 0
    for s in spans:
        if s[5] == main_thread:
            continue
        i = bisect.bisect_right(starts, s[3]) - 1
        if i < 0 or s[4] > marks[i][1]:
            stray += 1
    return stray
