"""Crash-point sweep for the result store's commit sites.

Every durable mutation of :class:`CaseResultStore` is a group-commit
append to ``pack.jsonl`` or a temp-write + ``os.replace`` pair
(``index.json``, pack compaction).  This sweep kills the process --
simulated as an exception -- at every such site in a representative
workload: *between the temp write and the rename*, and *halfway through
an append* (a torn pack tail).  It then reopens the store and checks the
crash-consistency contract:

* reopening never raises, and every lookup returns either ``None`` (a
  tolerated miss) or exactly the entry that was put;
* leftover ``.tmp`` files are invisible (never counted, never served);
* after recovery plus one compaction, ``pack.jsonl`` carries exactly
  one valid line per live key -- no duplicates, no torn lines.
"""

import json
import os

import pytest

from repro.iofaults import FaultyIO, flip_byte, tear_tail
from repro.runner.results import ENTRY_VERSION, CaseResultStore, _verify_entry

pytestmark = pytest.mark.iochaos


class SimulatedCrash(BaseException):
    """Not an Exception: nothing in the store may swallow a crash."""


def _key(i: int) -> str:
    return f"cafe{i:04d}" * 5


def _entry(i: int) -> dict:
    return {
        "version": ENTRY_VERSION,
        "key": _key(i),
        "fingerprint": f"fp-{i}",
        "case": f"Case_{i}",
        "record": {"passed": True},
        "perflog": None,
        "trace": None,
    }


def _workload(root: str) -> None:
    """Exercises every commit site: pack appends and index renames (one
    group commit per put), and a supersede-heavy phase that forces
    compaction."""
    store = CaseResultStore(root)
    for i in range(5):
        store.put(_key(i), _entry(i))
        store.flush()
    store.lookup(_key(0))
    for _ in range(20):
        store.put(_key(0), _entry(0))  # supersedes pile up pack lines
    store.flush()


def _recovery_invariants(root: str) -> None:
    store = CaseResultStore(root)
    for i in range(5):
        entry = store.lookup(_key(i))
        if entry is not None:
            # whatever survived is exactly what was put, never garbage
            assert entry["fingerprint"] == f"fp-{i}"
            assert entry["record"] == {"passed": True}
    # recovery: re-put everything, then compact; the pack must come out
    # canonical -- one valid line per live key, no duplicates
    for i in range(5):
        store.put(_key(i), _entry(i))
    store.flush()
    # the re-puts landed whole, even after a torn tail
    reopened = CaseResultStore(root)
    assert all(reopened.lookup(_key(i)) == _entry(i) for i in range(5))
    with store._lock:
        store._compact_pack_locked()
    with open(os.path.join(root, "pack.jsonl"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    keys = []
    for line in lines:
        doc = json.loads(line)  # every line parses
        assert _verify_entry(doc["entry"]) is not None  # and verifies
        keys.append(doc["key"])
    assert len(keys) == len(set(keys)), "duplicate pack lines"
    assert sorted(keys) == sorted(_key(i) for i in range(5))


def _commit_points(monkeypatch, crash_at: int = 0) -> list:
    """Record every commit (renames and appends) as ``(kind, path)``;
    with *crash_at*, crash at that commit instead of making it."""
    real_replace, real_append = os.replace, FaultyIO.append
    commits: list = []

    def replace(src, dst):
        commits.append(("rename", dst))
        if len(commits) == crash_at:
            # the temp file is fully written; the commit never happens
            raise SimulatedCrash(dst)
        return real_replace(src, dst)

    def append(self, path, data, label, sync=True):
        commits.append(("append", path))
        if len(commits) == crash_at:
            # half the payload reaches the disk, then the power goes
            with open(path, "ab") as fh:
                fh.write(data[: len(data) // 2])
            raise SimulatedCrash(path)
        return real_append(self, path, data, label, sync)

    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(FaultyIO, "append", append)
    return commits


def test_workload_covers_all_three_rename_sites(tmp_path, monkeypatch):
    """Guard: the sweep below really visits pack appends, index renames
    AND pack-compaction renames, or it proves nothing."""
    commits = _commit_points(monkeypatch)
    _workload(str(tmp_path / "guard"))
    monkeypatch.undo()
    assert ("append", str(tmp_path / "guard" / "pack.jsonl")) in commits
    assert ("rename", str(tmp_path / "guard" / "index.json")) in commits
    assert ("rename", str(tmp_path / "guard" / "pack.jsonl")) in commits


def test_crash_between_temp_write_and_rename_at_every_site(
    tmp_path, monkeypatch
):
    commits = _commit_points(monkeypatch)
    _workload(str(tmp_path / "count"))
    monkeypatch.undo()
    total = len(commits)
    assert total >= 7  # multiple sites, or the sweep is trivial
    for crash_at in range(1, total + 1):
        root = str(tmp_path / f"crash-{crash_at}")
        _commit_points(monkeypatch, crash_at)
        with pytest.raises(SimulatedCrash):
            _workload(root)
        monkeypatch.undo()
        _recovery_invariants(root)


def test_torn_pack_append_tail_is_a_miss_not_poison(tmp_path):
    """A crash mid-append tears pack.jsonl's last line; the store reopens,
    serves the torn key as a miss, and compaction writes the pack back
    whole."""
    root = str(tmp_path / "torn")
    store = CaseResultStore(root)
    for i in range(3):
        store.put(_key(i), _entry(i))
    store.flush()
    tear_tail(os.path.join(root, "pack.jsonl"), drop=11)
    _recovery_invariants(root)


def test_damaged_line_is_counted_once_and_not_compacted(tmp_path):
    root = str(tmp_path / "damaged")
    store = CaseResultStore(root)
    for i in range(3):
        store.put(_key(i), _entry(i))
    store.flush()
    pack = os.path.join(root, "pack.jsonl")
    with open(pack, encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    for i in (1, 2):  # garbage past the key: filed, but undecodable
        lines[i] = lines[i][: lines[i].index('"entry":')] + '"entry":x}\n'
    with open(pack, "w", encoding="utf-8") as fh:
        fh.write("".join(lines))
    reopened = CaseResultStore(root)
    assert len(reopened) == 3
    assert reopened.lookup(_key(1)) is None
    assert reopened.lookup(_key(1)) is None
    assert reopened.stats.corrupted == 1  # then it left the live set
    assert len(reopened) == 2
    with reopened._lock:
        reopened._compact_pack_locked()
    with open(pack, encoding="utf-8") as fh:
        assert [json.loads(line)["key"] for line in fh] == [_key(0)]


def test_leftover_tmp_files_are_invisible(tmp_path):
    root = str(tmp_path / "tmps")
    store = CaseResultStore(root)
    store.put(_key(0), _entry(0))
    store.flush()
    # a crash's droppings, at every site
    for name in ("index.json.tmp", "pack.jsonl.tmp"):
        with open(os.path.join(root, name), "w", encoding="utf-8") as fh:
            fh.write("{ half a record")
    reopened = CaseResultStore(root)
    assert len(reopened) == 1
    assert reopened.lookup(_key(0)) is not None
    assert reopened.stats.corrupted == 0


def test_fsck_repair_keeps_the_last_verified_line_per_key(tmp_path):
    from repro.runner.fsck import collect_targets, fsck_store

    root = str(tmp_path / "fsck")
    store = CaseResultStore(root)
    for i in range(3):
        store.put(_key(i), _entry(i))
    store.flush()
    store.put(_key(0), _entry(0))  # a newer line for key 0
    store.flush()
    # rot the newest line, and give the index a key the pack lacks
    pack = os.path.join(root, "pack.jsonl")
    with open(pack, encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    flip_byte(pack, sum(map(len, lines[:3])) + len(lines[3]) // 2)
    index_path = os.path.join(root, "index.json")
    with open(index_path, encoding="utf-8") as fh:
        index = json.load(fh)
    index["fp-gone"] = "dead" * 16
    with open(index_path, "w", encoding="utf-8") as fh:
        json.dump(index, fh)

    pack_rep, index_rep = fsck_store(root)
    assert (pack_rep["checked"], pack_rep["invalid"]) == (4, 1)
    assert (index_rep["checked"], index_rep["invalid"]) == (4, 1)
    fsck_store(root, repair=True)
    assert [r["invalid"] for r in fsck_store(root)] == [0, 0]
    reopened = CaseResultStore(root)
    # key 0 is served from its earlier, verified line
    assert all(reopened.lookup(_key(i)) == _entry(i) for i in range(3))
    with open(index_path, encoding="utf-8") as fh:
        assert json.load(fh) == {f"fp-{i}": _key(i) for i in range(3)}
    # a tree holding only a legacy objects/ directory is still a store
    legacy = tmp_path / "legacy"
    (legacy / "objects").mkdir(parents=True)
    assert collect_targets([str(legacy)]) == [("store", str(legacy))]
