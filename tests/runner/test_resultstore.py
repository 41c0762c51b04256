"""Content-addressed result store: keys, invalidation, replay, journal.

The invalidation matrix is the contract: a warm campaign re-executes a
case iff one of the composite key's components changed (spec problem,
system fingerprint, benchmark source, run config) -- and nothing else.
Key stability across process restarts and dict orderings is
hypothesis-tested; torn entries and eviction are tolerated, never fatal.
"""

import ast
import gc
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from perfbench import probe
from repro.faults import FaultPlan
from repro.iofaults import flip_byte
from repro.runner import resilience
from repro.runner import sanity as sn
from repro.runner.benchmark import RegressionTest, SpackTest
from repro.runner.cli import main as bench_main
from repro.runner.config import default_site_config
from repro.runner.executor import Executor
from repro.runner.fields import parameter, variable
from repro.runner.resilience import (
    _BY_FIRSTLINENO,
    _SOURCE_HASH_CACHE,
    CampaignJournal,
    RetryPolicy,
    _class_source,
    benchmark_source_hash,
    case_fingerprint,
    content_address,
    run_config_fingerprint,
)
from repro.runner.results import CaseResultStore, _seal_entry
from repro.runner.watchdog import WatchdogSpec

PINNED_TS = "2026-01-01T00:00:00"


class Alpha(RegressionTest):
    """Stable half of the delta campaign (never edited)."""

    size = parameter([1, 2, 3])

    def program(self, ctx):
        return f"alpha {self.size}: {self.size * 2.0}\n", 1.0

    def check_sanity(self, stdout):
        sn.assert_found(r"alpha", stdout)

    def extract_performance(self, stdout):
        v = sn.extractsingle(r": ([\d.]+)", stdout, 1, float)
        return {"value": (v, "units")}


class Beta(RegressionTest):
    """The half the tests edit (a plain class attr carries the rev)."""

    size = parameter([1, 2, 3])
    rev = "r0"

    def program(self, ctx):
        return f"beta {self.size}: {self.size * 3.0}\n", 1.0

    def check_sanity(self, stdout):
        sn.assert_found(r"beta", stdout)

    def extract_performance(self, stdout):
        v = sn.extractsingle(r": ([\d.]+)", stdout, 1, float)
        return {"value": (v, "units")}


class SpecProbe(SpackTest):
    """Key-only fixture for the spec component (never run)."""

    spack_spec = variable(str, value="babelstream@4.0 +omp")

    def check_sanity(self, stdout):
        sn.assert_found(r".", stdout)


@pytest.fixture(autouse=True)
def _reset_edits():
    yield
    Beta.rev = "r0"
    _SOURCE_HASH_CACHE.clear()


def edit_beta(rev):
    """The in-process stand-in for editing Beta's source between runs."""
    Beta.rev = rev
    # the memo caches per class object; a real edit arrives in a fresh
    # process where the memo starts empty
    _SOURCE_HASH_CACHE.clear()


def make_executor(tmp_path, tag):
    return Executor(
        perflog_prefix=str(tmp_path / f"perflogs-{tag}"),
        perflog_timestamp=PINNED_TS,
    )


def run(tmp_path, tag, store, classes=(Alpha, Beta), **kwargs):
    ex = make_executor(tmp_path, tag)
    cases = ex.expand_cases(list(classes), "archer2")
    report = ex.run_cases(cases, result_store=store, **kwargs)
    return ex, report


def read_tree(prefix):
    out = {}
    for root, _, files in os.walk(prefix):
        for fname in files:
            path = os.path.join(root, fname)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, prefix)] = fh.read()
    return out


# --------------------------------------------------------------------------
# the invalidation matrix (table-driven, key level)
# --------------------------------------------------------------------------

def _case(cls=Beta, system="archer2"):
    ex = Executor()
    return ex.expand_cases([cls], system)[0]


def _fleet_site(num_nodes):
    site = default_site_config()
    site.merge_yaml(
        "systems:\n"
        "  - name: fleet\n"
        f"    num_nodes: {num_nodes}\n"
    )
    return site


MATRIX = [
    ("no_edit", False),
    ("spec", True),
    ("system", True),
    ("source", True),
    ("config", True),
]


@pytest.mark.parametrize("dimension,should_change", MATRIX)
def test_invalidation_matrix(tmp_path, dimension, should_change):
    """Exactly the edited component changes the composite key."""
    store = CaseResultStore(str(tmp_path / "store"))
    if dimension == "spec":
        base = store.key_for(Executor().expand_cases(
            [SpecProbe], "archer2")[0])
        edited = store.key_for(Executor().expand_cases(
            [SpecProbe], "archer2",
            setvars={"spack_spec": "babelstream@4.0 +cuda"})[0])
    elif dimension == "system":
        a = Executor(site=_fleet_site(8)).expand_cases([Beta], "fleet")[0]
        b = Executor(site=_fleet_site(16)).expand_cases([Beta], "fleet")[0]
        base, edited = store.key_for(a), store.key_for(b)
        # same case identity: this is an *edit*, not a different case
        assert case_fingerprint(a) == case_fingerprint(b)
    elif dimension == "source":
        base = store.key_for(_case())
        edit_beta("r1")
        edited = CaseResultStore(str(tmp_path / "s2")).key_for(_case())
    elif dimension == "config":
        case = _case()
        base = store.key_for(case, run_config_fingerprint())
        edited = store.key_for(case, run_config_fingerprint(
            faults=FaultPlan.parse("build:0.3", seed=1)))
    else:  # no_edit: two independent computations, fresh store
        base = store.key_for(_case())
        edited = CaseResultStore(str(tmp_path / "s2")).key_for(_case())
    assert (base != edited) == should_change


def test_changed_fault_injection_invalidates():
    """The case_fingerprint blind spot: --inject-faults must invalidate."""
    keys = {
        run_config_fingerprint(),
        run_config_fingerprint(faults=FaultPlan.parse("build:0.3", seed=0)),
        run_config_fingerprint(faults=FaultPlan.parse("build:0.3", seed=1)),
        run_config_fingerprint(faults=FaultPlan.parse("submit:0.2", seed=0)),
        run_config_fingerprint(retry=RetryPolicy(max_attempts=5)),
        run_config_fingerprint(watchdog_spec=WatchdogSpec(run=9.0)),
        run_config_fingerprint(drain_after=3),
    }
    assert len(keys) == 7  # every knob lands in the key, all distinct


def test_source_hash_sees_factory_attrs():
    """type()-built classes sharing source text still hash distinctly."""
    def factory(tag):
        cls = type("Twin", (Beta,), {"twin_tag": tag})
        return cls

    a, b = factory("x"), factory("y")
    assert benchmark_source_hash(a) != benchmark_source_hash(b)


# --------------------------------------------------------------------------
# source text: _class_source against inspect.getsource (the oracle)
# --------------------------------------------------------------------------

#: the class shapes ``inspect`` resolves by its own rules: a nested class
#: in a function scope (``<locals>``), decorated classes (source starts at
#: the first decorator), a rebound top-level name (the first definition
#: wins) and factory classes whose ``__qualname__`` was renamed
FIXTURE_SOURCE = """\
def tagged(cls):
    return cls


class Dup:
    first = True


@tagged
@tagged
class Decorated:
    @tagged
    class Inner:
        pass

    def nested(self):
        class InMethod:
            pass
        return InMethod


def factory():
    class Local:
        def method(self):
            return 1
    return Local


class Dup:
    first = False


def renamed(index, qualname=None):
    class Made(Decorated):
        pass
    Made.__name__ = Made.__qualname__ = qualname or f"Made{index:03d}"
    return Made
"""


def _outcome(get_source, klass):
    """The source text, or the type of the exception raised instead."""
    try:
        return get_source(klass)
    except Exception as exc:
        return type(exc)


def _closure(classes):
    """Every class in ``classes``, their nested classes and their MROs."""
    seen, todo = set(), list(classes)
    while todo:
        klass = todo.pop()
        if klass in seen:
            continue
        seen.add(klass)
        todo.extend(klass.__mro__)
        todo.extend(v for v in vars(klass).values() if isinstance(v, type))
    return seen


def _import_file(tmp_path, monkeypatch, name, text):
    (tmp_path / f"{name}.py").write_text(text)
    monkeypatch.syspath_prepend(str(tmp_path))
    return importlib.import_module(name)


@pytest.fixture
def fixture_module(tmp_path, monkeypatch):
    module = _import_file(tmp_path, monkeypatch, "srcfix_shapes",
                          FIXTURE_SOURCE)
    yield module
    sys.modules.pop(module.__name__, None)


def test_class_source_matches_inspect_everywhere(fixture_module):
    """Same text, or the same exception type, for every reachable class."""
    roots = [probe.make_classes(7, edited=3)]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        roots.append([v for v in vars(module).values() if isinstance(v, type)])
    m = fixture_module
    roots.append([
        m.Dup, m.Decorated, m.Decorated().nested(), m.factory(),
        m.renamed(1), m.renamed(2, qualname="Decorated.Inner"),
    ])
    classes = _closure(k for group in roots for k in group)
    assert len(classes) > 300
    for klass in classes:
        assert _outcome(_class_source, klass) == _outcome(
            inspect.getsource, klass
        ), klass


def test_class_source_fixture_shapes(fixture_module):
    """The inspect rules the oracle relies on, spelled out."""
    m = fixture_module
    assert _class_source(m.Dup).startswith("class Dup:\n    first = True")
    assert _class_source(m.Decorated).startswith("@tagged\n@tagged\n")
    assert _class_source(m.Decorated.Inner).startswith("    @tagged\n")
    assert "def method" in _class_source(m.factory())
    assert "class InMethod" in _class_source(m.Decorated().nested())
    assert _class_source(m.renamed(2, qualname="Decorated.Inner")) == (
        _class_source(m.Decorated.Inner)
    )
    if not _BY_FIRSTLINENO:  # 3.13+ finds a renamed class by line instead
        with pytest.raises(OSError):
            _class_source(m.renamed(1))


def test_source_hash_parses_each_file_once(monkeypatch):
    """100 probe classes: one ``ast.parse`` per distinct source file."""
    classes = probe.make_classes(7)
    files = {
        inspect.getsourcefile(k)
        for cls in classes for k in cls.__mro__ if k is not object
    }
    parses = []
    real_parse = ast.parse

    def counting_parse(*args, **kwargs):
        parses.append(1)
        return real_parse(*args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    monkeypatch.setattr(resilience, "_SOURCE_FILES", {})
    for cls in classes:
        benchmark_source_hash(cls)
    assert len(parses) == (0 if _BY_FIRSTLINENO else len(files))


def test_source_edit_on_disk_changes_hash(tmp_path, monkeypatch):
    """The edit-then-rerun loop inside one long-lived process."""
    template = (
        "class Edited:\n"
        "    def program(self, ctx):\n"
        "        return {!r}, 1.0\n"
    )
    module = _import_file(tmp_path, monkeypatch, "srcfix_edited",
                          template.format("a"))
    try:
        before = benchmark_source_hash(module.Edited)
        (tmp_path / "srcfix_edited.py").write_text(
            template.format("a longer output line")
        )
        module = importlib.reload(module)
        assert "a longer output line" in _class_source(module.Edited)
        assert benchmark_source_hash(module.Edited) != before
    finally:
        sys.modules.pop("srcfix_edited", None)


def test_source_hash_memo_does_not_keep_classes_alive():
    cls = type("Transient", (Beta,), {"knob": 1})
    benchmark_source_hash(cls)
    assert cls in _SOURCE_HASH_CACHE
    ref = weakref.ref(cls)
    del cls
    gc.collect()
    assert ref() is None


# --------------------------------------------------------------------------
# key stability (hypothesis + cross-process)
# --------------------------------------------------------------------------

class _FakeTest:
    def __init__(self, name, num_tasks, opts):
        self.name = name
        self.num_tasks = num_tasks
        self.num_tasks_per_node = None
        self.time_limit = None
        self.executable = "x"
        self.executable_opts = opts


class _FakeCase:
    def __init__(self, name, num_tasks, opts, platform, environ):
        self.test = _FakeTest(name, num_tasks, opts)
        self.platform = platform
        self.environ_name = environ
        self.account = None
        self.qos = None


@settings(max_examples=50, deadline=None)
@given(
    name=st.text(min_size=1, max_size=20),
    num_tasks=st.integers(min_value=1, max_value=4096),
    opts=st.lists(st.text(max_size=8), max_size=4),
    spec=st.text(max_size=16),
)
def test_content_address_is_deterministic(name, num_tasks, opts, spec):
    case = _FakeCase(name, num_tasks, opts, "sys:part", "env")
    first = content_address(case, spec_key=spec)
    again = content_address(
        _FakeCase(name, num_tasks, list(opts), "sys:part", "env"),
        spec_key=spec,
    )
    assert first == again
    assert len(first) == 64 and int(first, 16) >= 0


@settings(max_examples=30, deadline=None)
@given(
    max_attempts=st.integers(min_value=1, max_value=9),
    seed=st.integers(min_value=0, max_value=2**31),
    drain=st.one_of(st.none(), st.integers(min_value=1, max_value=9)),
)
def test_run_config_fingerprint_is_deterministic(max_attempts, seed, drain):
    a = run_config_fingerprint(
        retry=RetryPolicy(max_attempts=max_attempts, seed=seed),
        drain_after=drain,
    )
    b = run_config_fingerprint(
        retry=RetryPolicy(max_attempts=max_attempts, seed=seed),
        drain_after=drain,
    )
    assert a == b
    assert a != run_config_fingerprint(
        retry=RetryPolicy(max_attempts=max_attempts + 1, seed=seed),
        drain_after=drain,
    )


SUBPROCESS_KEY = """
import sys
sys.path.insert(0, {src!r})
from repro.runner.executor import Executor
from repro.runner.resilience import run_config_fingerprint
from repro.runner.results import CaseResultStore
sys.path.insert(0, {here!r})
from tests.runner.test_resultstore import Beta
store = CaseResultStore({store!r})
case = Executor().expand_cases([Beta], "archer2")[0]
print(store.key_for(case, run_config_fingerprint()))
"""


def test_key_stable_across_process_restarts(tmp_path):
    """Same class + case -> same key under fresh interpreters and
    randomized hash seeds (no Python ``hash()`` anywhere in the key)."""
    here = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    src = os.path.join(here, "src")
    script = SUBPROCESS_KEY.format(
        src=src, here=here, store=str(tmp_path / "s"))
    keys = set()
    for hashseed in ("1", "31337"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        out = subprocess.run(
            [sys.executable, "-c", script], env=env,
            capture_output=True, text=True, check=True,
        )
        keys.add(out.stdout.strip())
    local = CaseResultStore(str(tmp_path / "local")).key_for(
        _case(), run_config_fingerprint())
    keys.add(local)
    assert len(keys) == 1, f"key unstable across processes: {keys}"


# --------------------------------------------------------------------------
# delta re-execution (executor level)
# --------------------------------------------------------------------------

def test_warm_run_replays_everything_unchanged(tmp_path):
    store = str(tmp_path / "store")
    _, cold = run(tmp_path, "cold", store)
    assert cold.success and not cold.replayed
    assert cold.result_cache["puts"] == 6

    ex, warm = run(tmp_path, "warm", store)
    assert warm.success
    assert len(warm.replayed) == 6
    assert warm.result_cache["hits"] == 6
    assert warm.result_cache["hit_rate"] == 1.0
    assert "Replayed: 6 case(s)" in warm.summary()
    # byte-identical perflogs: the replayed rows are the cold bytes
    assert (read_tree(str(tmp_path / "perflogs-cold"))
            == read_tree(str(tmp_path / "perflogs-warm")))


def test_edit_reexecutes_exactly_the_delta(tmp_path):
    store = str(tmp_path / "store")
    run(tmp_path, "cold", store)
    edit_beta("r1")
    _, warm = run(tmp_path, "warm", store)
    assert warm.success
    replayed = {r.case.display_name for r in warm.replayed}
    executed = {r.case.display_name for r in warm.results} - replayed
    assert all(name.startswith("Alpha") for name in replayed)
    assert all(name.startswith("Beta") for name in executed)
    assert len(replayed) == 3 and len(executed) == 3
    # the Beta misses classify as *invalidated*: same case identity,
    # different content (the identity index still points at the old key)
    assert warm.result_cache["invalidated"] == 3
    # edited results were re-stored: a third run replays everything
    _, third = run(tmp_path, "third", store)
    assert len(third.replayed) == 6


def test_replay_carries_result_material(tmp_path):
    store = str(tmp_path / "store")
    run(tmp_path, "cold", store)
    _, warm = run(tmp_path, "warm", store)
    result = warm.replayed[0]
    assert result.replayed and not result.resumed
    assert result.cached_from  # the cold campaign's deterministic run id
    assert result.perfvars["value"][1] == "units"
    assert result.run_command
    assert result.stdout


def test_provenance_annotates_replays(tmp_path):
    from repro.core.provenance import RunProvenance

    store = str(tmp_path / "store")
    _, cold = run(tmp_path, "cold", store)
    _, warm = run(tmp_path, "warm", store)

    def entries(report):
        prov = RunProvenance(system="archer2")
        for result in report.results:
            prov.add_case(result)
        return json.loads(prov.to_json())["cases"]

    cold_entries, warm_entries = entries(cold), entries(warm)
    for entry in warm_entries:
        assert entry.pop("replayed") is True
        assert entry.pop("cached_from")
    # modulo the cache annotations, provenance is byte-identical
    assert cold_entries == warm_entries


def test_failed_results_replay_too(tmp_path):
    class Hopeless(RegressionTest):
        runs = 0

        def program(self, ctx):
            Hopeless.runs += 1
            return "bad\n", 1.0

        def check_sanity(self, stdout):
            from repro.runner.sanity import SanityError

            raise SanityError("always wrong")

    store = str(tmp_path / "store")
    _, cold = run(tmp_path, "cold", store, classes=(Hopeless,),
                  retry=RetryPolicy(max_attempts=1))
    assert not cold.success and Hopeless.runs == 1
    _, warm = run(tmp_path, "warm", store, classes=(Hopeless,),
                  retry=RetryPolicy(max_attempts=1))
    assert not warm.success
    assert len(warm.replayed) == 1
    assert Hopeless.runs == 1  # deterministic world: the failure replays


# --------------------------------------------------------------------------
# store durability: corruption, eviction
# --------------------------------------------------------------------------

def _pack_path(store_dir):
    return os.path.join(store_dir, "pack.jsonl")


def _pack_lines(store_dir):
    with open(_pack_path(store_dir), encoding="utf-8") as fh:
        return fh.read().splitlines(keepends=True)


def test_torn_entry_is_a_miss_not_a_crash(tmp_path):
    store_dir = str(tmp_path / "store")
    run(tmp_path, "cold", store_dir)
    lines = _pack_lines(store_dir)
    assert len(lines) == 6
    # one torn mid-write, one whose entry is garbage past its key
    lines[0] = lines[0][: len(lines[0]) // 2] + "\n"
    lines[1] = lines[1][: lines[1].index('"entry":')] + \
        '"entry":not json at all}\n'
    with open(_pack_path(store_dir), "w", encoding="utf-8") as fh:
        fh.write("".join(lines))
    _, warm = run(tmp_path, "warm", store_dir)
    assert warm.success
    assert len(warm.replayed) == 4
    assert warm.result_cache["corrupted"] == 2
    assert warm.result_cache["misses"] == 2
    # the re-executed cases re-put their entries: next run is all-warm
    _, third = run(tmp_path, "third", store_dir)
    assert len(third.replayed) == 6


def test_rotten_pack_line_does_not_poison_its_neighbours(tmp_path):
    """One flipped byte inside one line's entry costs that entry only."""
    store_dir = str(tmp_path / "store")
    run(tmp_path, "cold", store_dir)
    lines = _pack_lines(store_dir)
    flip_byte(_pack_path(store_dir), len(lines[0]) + len(lines[1]) // 2)
    _, warm = run(tmp_path, "warm", store_dir)
    assert warm.success
    assert len(warm.replayed) == 5
    assert warm.result_cache["corrupted"] == 1
    _, third = run(tmp_path, "third", store_dir)
    assert len(third.replayed) == 6


def test_pack_respects_eviction(tmp_path):
    """An evicted entry is a miss, in its process and after a reopen."""
    store_dir = str(tmp_path / "store")
    capped = CaseResultStore(store_dir, max_entries=5)
    _, cold = run(tmp_path, "cold", capped)
    assert cold.result_cache["evictions"] == 1
    keys = [json.loads(line)["key"] for line in _pack_lines(store_dir)]
    assert len(keys) == 6  # the eviction reaches the file at compaction
    for store in (capped, CaseResultStore(store_dir, max_entries=5)):
        assert len(store) == 5
        assert store.lookup(keys[0]) is None  # the oldest put went
        assert all(store.lookup(key) is not None for key in keys[1:])
        assert store.stats.corrupted == 0


def test_version_skew_is_a_miss(tmp_path):
    store = CaseResultStore(str(tmp_path / "store"))
    key = "k" * 64
    store.put(key, {"version": 999, "fingerprint": "fp"})
    assert store.lookup(key) is None
    assert store.stats.corrupted == 1


def test_eviction_is_oldest_first(tmp_path):
    """Pack-order eviction: the oldest key goes, a hit protects its key."""
    root = str(tmp_path / "store")
    store = CaseResultStore(root, max_entries=2)
    a, b, c = "a" * 64, "b" * 64, "c" * 64
    store.put(a, {"version": 1, "fingerprint": "fp0"})
    store.put(b, {"version": 1, "fingerprint": "fp1"})
    assert store.lookup(a) is not None  # a moves to the young end
    store.put(c, {"version": 1, "fingerprint": "fp2"})
    assert store.stats.evictions == 1
    assert len(store) == 2
    assert store.lookup(b) is None
    assert store.lookup(a) is not None and store.lookup(c) is not None
    # superseding puts pile up lines until compaction writes the result
    for _ in range(20):
        store.put(c, {"version": 1, "fingerprint": "fp2"})
    store.flush()
    assert len(_pack_lines(root)) == 2
    reopened = CaseResultStore(root)
    assert len(reopened) == 2
    assert reopened.lookup(b) is None
    assert reopened.lookup(a) is not None
    # a reopened store ages each key by its last line in the pack
    reput = str(tmp_path / "reput")
    store = CaseResultStore(reput)
    for key in (a, b, a):
        store.put(key, {"version": 1, "fingerprint": key[:3]})
    store.flush()
    capped = CaseResultStore(reput, max_entries=1)
    assert capped.lookup(b) is None and capped.lookup(a) is not None


def test_pack_lines_are_byte_identical_to_the_legacy_format(tmp_path):
    """put writes the line json.dumps({"key", "entry"}) always wrote, so
    a store filled by an earlier build replays in full."""
    store_dir = str(tmp_path / "store")
    run(tmp_path, "cold", store_dir)
    odd = {"version": 1, "fingerprint": "fp", "stdout": "na\u00efve \u2713\n",
           "floats": [0.1, 1e300, -0.0, 5e-324], "nested": {"z": 1, "a": 2}}
    docs = [json.loads(line) for line in _pack_lines(store_dir)]
    docs.append({"key": "f" * 64, "entry": _seal_entry(odd)})
    fresh = str(tmp_path / "fresh")
    store = CaseResultStore(fresh)
    for doc in docs:
        entry = dict(doc["entry"])
        entry.pop("cs")
        store.put(doc["key"], entry)
    store.flush()
    assert _pack_lines(fresh) == [
        json.dumps({"key": doc["key"], "entry": doc["entry"]},
                   separators=(",", ":")) + "\n"
        for doc in docs
    ]


def _record_opens(monkeypatch):
    """Every path opened through builtins.open or os.open, with how."""
    import builtins

    opened = []
    real_open, real_os_open = builtins.open, os.open

    def spy_open(file, mode="r", *args, **kwargs):
        opened.append((str(file), mode))
        return real_open(file, mode, *args, **kwargs)

    def spy_os_open(path, flags, *args, **kwargs):
        opened.append((str(path), "w" if flags & os.O_CREAT else "r"))
        return real_os_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy_open)
    monkeypatch.setattr(os, "open", spy_os_open)
    return opened


def test_store_in_the_legacy_layout_replays_without_opening_objects(
    tmp_path, monkeypatch
):
    """A store whose builder also wrote objects/<key>.json stays fully
    warm; those files are ignored, never opened."""
    store_dir = str(tmp_path / "store")
    run(tmp_path, "cold", store_dir)
    objects = os.path.join(store_dir, "objects")
    os.makedirs(objects)
    for line in _pack_lines(store_dir):
        doc = json.loads(line)
        with open(os.path.join(objects, doc["key"] + ".json"), "w",
                  encoding="utf-8") as fh:
            json.dump(doc["entry"], fh, separators=(",", ":"))
    opened = _record_opens(monkeypatch)
    _, warm = run(tmp_path, "warm", store_dir)
    monkeypatch.undo()
    assert len(warm.replayed) == 6
    assert warm.result_cache["corrupted"] == 0
    assert opened  # the spy saw the campaign's own files
    assert not [path for path, _ in opened if "objects" in path]


class Wide(RegressionTest):
    """A 40-point sweep for the store's file-count guard."""

    point = parameter(list(range(40)))

    def program(self, ctx):
        return f"wide {self.point}: {self.point + 1.0}\n", 1.0

    def check_sanity(self, stdout):
        sn.assert_found(r"wide", stdout)

    def extract_performance(self, stdout):
        v = sn.extractsingle(r": ([\d.]+)", stdout, 1, float)
        return {"value": (v, "units")}


@pytest.mark.parametrize("classes", [(Alpha,), (Alpha, Beta),
                                     (Alpha, Beta, Wide)])
def test_store_creates_only_pack_and_index(tmp_path, monkeypatch, classes):
    """No per-case file, at any case count -- through group commits,
    eviction, compaction and an edit's re-puts."""
    store_dir = str(tmp_path / "store")
    monkeypatch.setattr(CaseResultStore, "INDEX_FLUSH_EVERY", 4)
    opened = _record_opens(monkeypatch)
    run(tmp_path, "cold", CaseResultStore(store_dir, max_entries=8),
        classes=classes)
    edit_beta("r1")
    run(tmp_path, "warm", CaseResultStore(store_dir), classes=classes)
    monkeypatch.undo()
    created = {
        os.path.relpath(path, store_dir) for path, mode in opened
        if path.startswith(store_dir) and mode != "r"
    }
    assert created <= {"pack.jsonl", "index.json",
                       "pack.jsonl.tmp", "index.json.tmp"}
    assert "pack.jsonl" in created
    assert sorted(os.listdir(store_dir)) == ["index.json", "pack.jsonl"]


def test_missing_artifacts_force_reexecution(tmp_path):
    """An entry stored without trace lines is a miss for --trace."""
    store = str(tmp_path / "store")
    run(tmp_path, "cold", store)  # no tracer: entries carry trace=None
    _, warm = run(tmp_path, "warm", store,
                  trace=str(tmp_path / "trace.jsonl"))
    assert warm.success
    assert not warm.replayed  # all misses: the store lacks their trace
    _, third = run(tmp_path, "third", store,
                   trace=str(tmp_path / "trace3.jsonl"))
    assert len(third.replayed) == 6  # rewritten entries carry the trace


# --------------------------------------------------------------------------
# journal interplay (--resume + --result-store compose)
# --------------------------------------------------------------------------

def test_replays_journal_as_meta_records(tmp_path):
    store = str(tmp_path / "store")
    journal_path = str(tmp_path / "journal.jsonl")
    run(tmp_path, "cold", store)
    _, warm = run(tmp_path, "warm", store, journal=journal_path)
    assert len(warm.replayed) == 6
    journal = CampaignJournal(journal_path)
    records = list(journal.entries())
    replays = [r for r in records if r.get("kind") == "replay"]
    assert len(replays) == 6
    for record in replays:
        assert record["status"] == "passed"
        assert record["key"] and record["cached_from"]
    # replay meta records are invisible to resume state and quarantine
    assert journal.load() == {}
    assert journal.failure_counts() == {}


def test_resume_takes_precedence_over_store(tmp_path):
    """A journal-resumed case neither hits the store nor re-emits rows."""
    store = str(tmp_path / "store")
    journal_path = str(tmp_path / "journal.jsonl")
    run(tmp_path, "cold", store, journal=journal_path)
    ex, resumed = run(tmp_path, "resume", store, journal=journal_path,
                      resume=True)
    assert len(resumed.resumed) == 6
    assert not resumed.replayed
    assert resumed.result_cache["hits"] == 0  # store never consulted
    # resumed cases re-emit nothing: no perflogs in this run's prefix
    assert read_tree(str(tmp_path / "perflogs-resume")) == {}


def test_compact_keeps_latest_replay_per_fingerprint(tmp_path):
    journal = CampaignJournal(str(tmp_path / "journal.jsonl"))

    class R:
        pass

    def fake(status):
        r = R()
        r.passed = status == "passed"
        r.skipped = False

        class C:
            display_name = "case-x"
        r.case = C()
        return r

    journal.record_replay(fake("passed"), key="k1", cached_from="run1",
                          fingerprint="fp1")
    journal.record_replay(fake("failed"), key="k2", cached_from="run2",
                          fingerprint="fp1")
    journal.record_replay(fake("passed"), key="k3", cached_from="run3",
                          fingerprint="fp2")
    # an unknown future record shape must survive compaction untouched
    journal._append({"kind": "future", "fingerprint": "fp9", "x": 1})
    journal.compact()
    records = list(journal.entries())
    replays = {r["fingerprint"]: r for r in records
               if r.get("kind") == "replay"}
    assert set(replays) == {"fp1", "fp2"}
    assert replays["fp1"]["key"] == "k2"  # the *latest* per fingerprint
    assert {"kind": "future", "fingerprint": "fp9", "x": 1} in records


# --------------------------------------------------------------------------
# CLI: --result-store / --cache-stats end to end (Spack suite included)
# --------------------------------------------------------------------------

def test_cli_incremental_spack_campaign(tmp_path, capsys):
    store = str(tmp_path / "store")

    def invoke(tag):
        rc = bench_main([
            "-c", "babelstream", "-r", "--tag", "omp",
            "--system", "archer2",
            "--perflog-dir", str(tmp_path / f"perflogs-{tag}"),
            "--result-store", store,
            "--cache-stats",
            "--performance-report",
        ])
        captured = capsys.readouterr()
        assert rc == 0, captured.out + captured.err
        return captured

    cold = invoke("cold")
    assert "Replayed" not in cold.out
    assert "0 hit(s)" in cold.err
    warm = invoke("warm")
    assert "Replayed: " in warm.out
    assert "(hit rate 100.0%)" in warm.out
    assert "0 miss(es)" in warm.err
    # the replayed Spack case kept its rendered spec: perflog rows (spec
    # column included) are the cold bytes, and the FOM table still renders
    assert (read_tree(str(tmp_path / "perflogs-cold"))
            == read_tree(str(tmp_path / "perflogs-warm")))
    assert "PERFORMANCE REPORT" in warm.out


def test_cli_cache_stats_requires_store(capsys):
    rc = bench_main(["-c", "babelstream", "-r", "--system", "archer2",
                     "--cache-stats"])
    assert rc == 1
    assert "--cache-stats requires --result-store" in capsys.readouterr().err
