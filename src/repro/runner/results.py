"""Content-addressed whole-case result store: incremental campaigns.

The cold path is fast (PR 6), but continuous benchmarking re-runs the
same collection over and over with near-total redundancy -- the exaCB
move (PAPERS.md) is to content-address *entire case results* and
re-execute only the invalidated delta.  This module is that store:

* :class:`CaseResultStore` persists one JSON entry per **composite
  fingerprint** -- :func:`~repro.runner.resilience.content_address`
  over (case coordinates, concretization-problem hash from
  :meth:`~repro.pkgmgr.memo.ConcretizationCache.key_for`,
  :meth:`~repro.runner.config.SystemConfig.fingerprint`,
  :func:`~repro.runner.resilience.benchmark_source_hash`,
  :func:`~repro.runner.resilience.run_config_fingerprint`);
* an entry holds everything the executor's downstream consumers read
  from a finished case: the journal-shaped outcome record, stdout /
  run command / job script / build log, the rendered concrete spec,
  the case's **verbatim perflog lines** and its **verbatim encoded
  trace lines** -- enough for ``repro-bench --result-store DIR`` to
  *replay* the case byte-identically instead of re-running it;
* :class:`ResultStoreStats` mirrors the ``CacheStats`` /
  ``StoreStats`` accounting idiom (hits / misses / invalidated /
  corrupted / evictions), published to the metrics registry under
  ``resultstore.*``.

Durability follows the ``obs.jsonl`` philosophy: entries are sealed
lines of one append-only pack, and a torn or corrupted line is a cache
*miss* plus a counter -- never a crash (the case simply re-executes and
its entry is appended again).
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.iofaults import FaultyIO
from repro.runner.resilience import (
    benchmark_source_hash,
    case_fingerprint,
    content_address,
)

__all__ = [
    "CaseResultStore",
    "ResultStoreStats",
    "StoredSpec",
    "as_result_store",
    "make_entry",
    "replay_result",
]

#: entry schema version (bumped on incompatible changes; a version
#: mismatch is treated as a miss, exactly like corruption)
ENTRY_VERSION = 1


def _entry_checksum(entry: Dict[str, Any]) -> str:
    """CRC32 over the canonical (sort_keys) encoding of *entry*."""
    payload = json.dumps(entry, sort_keys=True)
    return f"{zlib.crc32(payload.encode('utf-8')) & 0xFFFFFFFF:08x}"


def _seal_entry(entry: Dict[str, Any]) -> Dict[str, Any]:
    """A copy of *entry* carrying its ``cs`` self-verification field."""
    return {"cs": _entry_checksum(entry), **entry}


def _verify_entry(doc: Any) -> Optional[Dict[str, Any]]:
    """Strip + verify a sealed entry; ``None`` when damaged.

    Entries written before sealing existed (no ``cs``) are accepted
    as-is; a present-but-mismatched checksum means bit rot that plain
    JSON parsing would have served as plausible garbage.
    """
    if not isinstance(doc, dict):
        return None
    if "cs" not in doc:
        return doc
    doc = dict(doc)
    cs = doc.pop("cs")
    if _entry_checksum(doc) != cs:
        return None
    return doc


def _current(sealed: Any) -> Optional[Dict[str, Any]]:
    """The verified entry of a sealed current-version entry, or ``None``."""
    entry = _verify_entry(sealed)
    if entry is None or entry.get("version") != ENTRY_VERSION:
        return None
    return entry


def _pack_line(key: str, sealed: Dict[str, Any]) -> str:
    """One pack line: a sealed entry filed under its key."""
    return json.dumps({"key": key, "entry": sealed},
                      separators=(",", ":")) + "\n"


#: how every pack line starts: its key is readable without decoding
_LINE_HEAD = '{"key":"'


def _line_key(line: str) -> Optional[str]:
    """The key a pack line is filed under (``None``: unattributable).

    Read off the fixed line head, so a line whose entry is damaged is
    still filed under its key -- and looked up as a corrupted miss.
    """
    if not line.startswith(_LINE_HEAD):
        return None
    end = line.find('"', len(_LINE_HEAD))
    return line[len(_LINE_HEAD):end] if end > len(_LINE_HEAD) else None


def _read_pack(path: str) -> Tuple[List[Tuple[str, Any]], int, bool]:
    """``(filed, lines, torn)`` of one pack file.

    *filed* holds ``(key, sealed entry)`` for every line attributable to
    a key, in file order, with ``None`` for an entry that does not
    decode; *lines* counts the file's lines and *torn* says whether the
    last one is unterminated.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except OSError:
        lines = [""]
    torn = bool(lines[-1])
    if not torn:
        lines.pop()  # the final newline's empty remainder
    docs: Optional[List[Any]] = None
    try:
        # one decoder call for the whole pack: several times faster than
        # a per-line loop, and keys repeated across entries share one
        # string in memory
        docs = json.loads("[" + ",".join(lines) + "]")
    except ValueError:
        pass
    if docs is None or len(docs) != len(lines):
        docs = []
        for line in lines:  # damage somewhere: decode line by line
            try:
                docs.append(json.loads(line))
            except ValueError:
                docs.append(None)
    filed = []
    for line, doc in zip(lines, docs):
        key = _line_key(line)
        if key is not None:
            ok = isinstance(doc, dict) and doc.get("key") == key
            filed.append((key, doc.get("entry") if ok else None))
    return filed, len(lines), torn


class ResultStoreStats:
    """Hit/miss accounting, same idiom as ``CacheStats``/``StoreStats``."""

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        #: misses where an *older* result for the same case identity
        #: exists under a different composite key -- i.e. the case was
        #: invalidated by an edit, not simply never seen
        self.invalidated = 0
        #: unreadable/torn/version-skewed entries tolerated as misses
        self.corrupted = 0
        self.evictions = 0
        self.puts = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidated": self.invalidated,
            "corrupted": self.corrupted,
            "evictions": self.evictions,
            "puts": self.puts,
            "hit_rate": round(self.hit_rate, 4),
        }

    def publish(self, registry, prefix: str = "resultstore") -> None:
        """Fold the counters into a metrics registry namespace."""
        registry.merge_counts(prefix, self.as_dict())

    def __repr__(self) -> str:
        return (
            f"ResultStoreStats({self.hits} hits / {self.misses} misses, "
            f"{self.invalidated} invalidated)"
        )


class StoredSpec:
    """A rendered stand-in for a concrete Spec, replayed from the store.

    Provenance and the perflog formatter only ever call ``format()``,
    ``dag_hash()`` and ``dag_dict()`` on a result's ``concrete_spec``;
    this shim serves the strings the cold run's real Spec rendered, so
    a replayed case's provenance entry and perflog rows are identical
    without re-concretizing anything.
    """

    def __init__(self, doc: Dict[str, Any]):
        self._doc = doc

    def format(self, *, deps: bool = True, hashes: bool = False) -> str:
        if hashes:
            return self._doc.get("format_hashes", self._doc["format"])
        return self._doc["format"] if deps else self._doc["format_nodeps"]

    def dag_hash(self, length: int = 7) -> str:
        full = self._doc["dag_hash_full"]
        return full[:length]

    def dag_dict(self) -> Dict[str, Any]:
        return self._doc["dag_dict"]

    def __repr__(self) -> str:
        return f"StoredSpec({self._doc['format_nodeps']!r})"


def _spec_doc(spec: Any) -> Dict[str, Any]:
    """Serialize the renderings downstream consumers actually read."""
    return {
        "format": spec.format(),
        "format_nodeps": spec.format(deps=False),
        "format_hashes": spec.format(deps=True, hashes=True),
        "dag_hash_full": spec.dag_hash(length=64),
        "dag_dict": spec.dag_dict(),
    }


def make_entry(
    result: Any,
    key: str,
    run_id: str,
    record: Dict[str, Any],
    perflog: Optional[Dict[str, Any]] = None,
    trace: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The persistent store entry for one freshly executed result.

    *record* is the journal-shaped outcome dict (the same bytes a
    ``CampaignJournal`` case record carries); *perflog* is
    ``{"relpath", "lines"}`` with the verbatim rows the cold run
    emitted; *trace* is ``{"first_id", "count", "end_time", "lines"}``
    -- the exact encoded span lines the cold run's tracer wrote, plus
    the global id of the first one, so replay can blit them verbatim
    (or shift ids by a constant when an upstream edit moved the
    sequence; see :class:`repro.obs.trace.ReplayedSpans`).
    """
    return {
        "version": ENTRY_VERSION,
        "key": key,
        "fingerprint": case_fingerprint(result.case),
        "case": result.case.display_name,
        "run_id": run_id,
        "record": record,
        "stdout": result.stdout,
        "run_command": result.run_command,
        "job_script": result.job_script,
        "build_log": list(result.build_log),
        "concretize_cache_hit": result.concretize_cache_hit,
        "spec": (
            _spec_doc(result.concrete_spec)
            if result.concrete_spec is not None else None
        ),
        "perflog": perflog,
        "trace": trace,
    }


def replay_result(case: Any, entry: Dict[str, Any]) -> Any:
    """Reconstruct a CaseResult from a store entry (``replayed=True``).

    Unlike a journal resume (``resumed=True``), a store replay *does*
    re-emit the case's perflog rows (the stored bytes) and re-flush its
    spans -- the warm run's artifacts must be byte-identical to a cold
    run's -- so the executor treats the result as fresh everywhere
    except execution itself.
    """
    from repro.runner.resilience import result_from_record

    result = result_from_record(case, entry["record"], resumed=False)
    result.replayed = True
    result.cached_from = entry.get("run_id")
    result.stdout = entry.get("stdout", "")
    result.run_command = entry.get("run_command", "")
    result.job_script = entry.get("job_script", "")
    result.build_log = list(entry.get("build_log") or [])
    result.concretize_cache_hit = entry.get("concretize_cache_hit")
    spec_doc = entry.get("spec")
    if spec_doc is not None:
        result.concrete_spec = StoredSpec(spec_doc)
    result._replay = entry
    return result


class CaseResultStore:
    """Persistent content-addressed store of whole-case results.

    Layout under *root*::

        pack.jsonl    one {"key", "entry"} line per put; last line wins
        index.json    case identity -> its latest key

    The **pack** is the one canonical copy of every entry: a put
    appends a line, and a warm campaign loads the whole file with one
    sequential read and one decoder call; each entry is verified when
    its key is looked up.  A damaged or version-skewed line is a
    ``corrupted`` miss; the re-executed case's put supersedes it.  A
    line whose tail was torn by a crash is framed off by the next
    append, never glued onto it.

    The identity index is what distinguishes *invalidated* (this case
    ran before, under different content -- an edit) from a plain miss
    (never seen).  Both files are maintained **group-commit**: puts
    buffer in memory and :meth:`flush` persists them (every
    :attr:`INDEX_FLUSH_EVERY` puts and at campaign end), so a crash
    loses at most the puts since the last commit -- cases that simply
    re-execute on the next warm run.

    ``max_entries`` caps the live keys, evicting oldest-first in pack
    order; a hit moves its key to the young end.  Evictions reach the
    file at the next compaction (when the pack holds more than
    :attr:`PACK_SLACK` lines per live key); until then a reopened store
    re-applies its own cap to the pack's order.  One writer per store
    is assumed.
    """

    #: group commit: persist the buffered pack lines and the identity
    #: index every this many puts even if the campaign never reaches its
    #: final flush()
    INDEX_FLUSH_EVERY = 1024

    #: compact the pack (drop superseded/evicted lines) when it holds
    #: more than this many lines per live entry
    PACK_SLACK = 2

    def __init__(self, root: str, max_entries: Optional[int] = None):
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 (or None)")
        self.root = str(root)
        self.max_entries = max_entries
        self.stats = ResultStoreStats()
        self._index_file = os.path.join(self.root, "index.json")
        self._pack_file = os.path.join(self.root, "pack.jsonl")
        os.makedirs(self.root, exist_ok=True)
        #: fingerprint -> latest composite key (lazy-loaded)
        self._index: Optional[Dict[str, str]] = None
        self._index_dirty = 0
        #: key -> its last sealed entry (None: damaged), oldest first
        self._pack: Optional[OrderedDict] = None
        #: pack lines buffered in memory until the next flush()
        self._pack_pending: List[str] = []
        #: lines currently in the pack file (maintained after load)
        self._pack_lines = 0
        #: the pack file ends in an unterminated (torn) line
        self._torn_tail = False
        self._lock = threading.Lock()
        # per-campaign key-component memos (system fingerprints and
        # package environments are invariant within one process run)
        self._system_keys: Dict[int, Tuple[Any, str]] = {}
        self._env_cache: Dict[str, Tuple[Any, Any]] = {}
        #: every write goes through this shim (unarmed: plain os calls)
        self._io: Any = FaultyIO()

    def attach_io(self, io: Any) -> None:
        """Route pack/index writes through an armed FaultyIO shim."""
        self._io = io

    # -- key computation -----------------------------------------------------
    def _system_key(self, system: Any) -> str:
        memo = self._system_keys.get(id(system))
        if memo is not None and memo[0] is system:
            return memo[1]
        fingerprint = system.fingerprint()
        self._system_keys[id(system)] = (system, fingerprint)
        return fingerprint

    def _spec_key(self, case: Any) -> str:
        """The concretization *problem* content address (or '').

        Uses :meth:`ConcretizationCache.key_for` -- computable without
        solving, and (the solver being deterministic) equivalent to
        addressing by the solution.  Non-Spack cases have no spec
        component.
        """
        test = case.test
        spec_text = getattr(test, "spack_spec", "") or ""
        if not spec_text:
            return ""
        from repro.pkgmgr.concretizer import Concretizer
        from repro.pkgmgr.memo import ConcretizationCache
        from repro.pkgmgr.spec import Spec
        from repro.runner.pipeline import _pkg_environment

        cached = self._env_cache.get(case.platform)
        if cached is None:
            env = _pkg_environment(case.platform)
            repo = Concretizer(env=env).repo
            self._env_cache[case.platform] = cached = (env, repo)
        env, repo = cached
        spec = Spec(spec_text)
        if spec.compiler is None:
            environ = case.partition.environ(case.environ_name)
            spec = spec.constrain(Spec(f"%{environ.compiler_spec}"))
        return ConcretizationCache.key_for(spec, env, repo)

    def key_for(self, case: Any, config_key: str = "") -> str:
        """The composite content address of one case's result."""
        return content_address(
            case,
            spec_key=self._spec_key(case),
            system_key=self._system_key(case.system),
            source_key=benchmark_source_hash(type(case.test)),
            config_key=config_key,
        )

    # -- identity index -----------------------------------------------------
    def _load_index_locked(self) -> Dict[str, str]:
        if self._index is None:
            try:
                with open(self._index_file, encoding="utf-8") as fh:
                    loaded = json.load(fh)
                self._index = (
                    {str(k): str(v) for k, v in loaded.items()}
                    if isinstance(loaded, dict) else {}
                )
            except (OSError, ValueError):
                # missing or torn: the index is advisory, start fresh
                self._index = {}
        return self._index

    def _flush_index_locked(self) -> None:
        if self._index is not None and self._index_dirty:
            body = json.dumps(self._index, separators=(",", ":"))
            self._io.write_atomic(self._index_file, body.encode("utf-8"),
                                  "index", sync=False)
            self._index_dirty = 0

    # -- pack ----------------------------------------------------------------
    def _load_pack_locked(self) -> OrderedDict:
        if self._pack is None:
            filed, self._pack_lines, self._torn_tail = _read_pack(
                self._pack_file)
            pack: OrderedDict = OrderedDict()
            for key, sealed in filed:
                pack[key] = sealed
                pack.move_to_end(key)  # the last line wins
            self._pack = pack
            if self.max_entries is not None:
                self._evict_locked()
        return self._pack

    def _flush_pack_locked(self) -> None:
        if not self._pack_pending:
            return
        body = "".join(self._pack_pending)
        if self._torn_tail:
            body = "\n" + body  # frame the torn line off, never extend it
        self._io.append(self._pack_file, body.encode("utf-8"), "store",
                        sync=False)
        self._torn_tail = False
        self._pack_lines += len(self._pack_pending)
        self._pack_pending = []
        # compact when superseded/evicted lines dominate
        if self._pack_lines > max(self.PACK_SLACK * len(self._pack), 16):
            self._compact_pack_locked()

    def _compact_pack_locked(self) -> None:
        pack = self._load_pack_locked()
        for key in [k for k, sealed in pack.items() if sealed is None]:
            del pack[key]  # a damaged line carries nothing to keep
        body = "".join(_pack_line(k, sealed) for k, sealed in pack.items())
        self._io.write_atomic(self._pack_file, body.encode("utf-8"),
                              "store", sync=False)
        self._pack_lines = len(pack)
        self._torn_tail = False

    def flush(self) -> None:
        """Group commit: persist the buffered pack lines, then the index."""
        with self._lock:
            self._flush_pack_locked()
            self._flush_index_locked()

    # -- lookup / put --------------------------------------------------------
    def lookup(
        self,
        key: str,
        fingerprint: Optional[str] = None,
        need_perflog: bool = False,
        need_spans: bool = False,
    ) -> Optional[Dict[str, Any]]:
        """The stored entry for *key*, or ``None`` (a miss).

        A damaged or version-skewed pack line is a tolerated miss
        (``corrupted`` counter) and leaves the live set; an entry
        lacking an artifact this campaign needs (perflog rows while
        perflogs are armed, trace lines while tracing) is also a miss --
        the case re-executes and the rewritten entry carries the missing
        artifact.  On a miss, *fingerprint* (when given) classifies it:
        an identity-index entry pointing at a *different* key means the
        case was seen before and an edit invalidated it.
        """
        with self._lock:
            pack = self._load_pack_locked()
            entry = None
            if key in pack:
                entry = _current(pack[key])
                if entry is None:
                    self.stats.corrupted += 1
                    del pack[key]
                elif ((need_perflog and entry.get("perflog") is None)
                      or (need_spans and entry.get("trace") is None)):
                    entry = None  # incomplete for this campaign's needs
            if entry is None:
                self.stats.misses += 1
                if fingerprint:
                    self._note_invalidation(fingerprint, key)
                return None
            self.stats.hits += 1
            pack.move_to_end(key)  # young end of the eviction order
            return entry

    def _note_invalidation(self, fingerprint: str, key: str) -> None:
        """Classify a miss: invalidated (seen before, edited) or new."""
        known = self._load_index_locked().get(fingerprint)
        if known is not None and known != key:
            self.stats.invalidated += 1

    def put(self, key: str, entry: Dict[str, Any]) -> None:
        """Buffer one entry's pack line, update the index, evict."""
        sealed = _seal_entry(entry)
        line = _pack_line(key, sealed)
        with self._lock:
            pack = self._load_pack_locked()
            pack[key] = sealed
            pack.move_to_end(key)
            self._pack_pending.append(line)
            self.stats.puts += 1
            fingerprint = entry.get("fingerprint")
            if fingerprint:
                index = self._load_index_locked()
                if index.get(fingerprint) != key:
                    index[fingerprint] = key
                    self._index_dirty += 1
            if self.max_entries is not None:
                self._evict_locked()
            if (self._index_dirty >= self.INDEX_FLUSH_EVERY
                    or len(self._pack_pending) >= self.INDEX_FLUSH_EVERY):
                self._flush_pack_locked()
                self._flush_index_locked()

    def verify(self, repair: bool = False
               ) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        """Check the files on disk: ``(checked, invalid)`` for the pack
        and for the index (``repro-fsck``; call on a fresh store).

        Every pack line is decoded and verified exactly as a lookup
        would; every index entry must name a verified key.  *repair*
        rewrites the pack with the last verified line per key, through
        compaction, and rebuilds the index from those entries'
        fingerprints.
        """
        filed, lines, _ = _read_pack(self._pack_file)
        verified: OrderedDict = OrderedDict()  # key -> sealed entry
        pack_bad = lines
        for key, sealed in filed:
            if _current(sealed) is not None:
                verified[key] = sealed
                verified.move_to_end(key)
                pack_bad -= 1
        index_checked = index_bad = 0
        if os.path.exists(self._index_file):
            try:
                with open(self._index_file, encoding="utf-8") as fh:
                    index = json.load(fh)
                if not isinstance(index, dict):
                    raise ValueError("index is not an object")
                index_checked = len(index)
                index_bad = sum(str(v) not in verified
                                for v in index.values())
            except (OSError, ValueError):
                index_checked = index_bad = 1
        if repair:
            with self._lock:
                if pack_bad:
                    self._pack = verified
                    self._compact_pack_locked()
                if index_bad:
                    self._index = {
                        str(sealed["fingerprint"]): key
                        for key, sealed in verified.items()
                        if sealed.get("fingerprint")
                    }
                    self._index_dirty = 1
                    self._flush_index_locked()
        return (lines, pack_bad), (index_checked, index_bad)

    def _evict_locked(self) -> None:
        while len(self._pack) > self.max_entries:
            self._pack.popitem(last=False)
            self.stats.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._load_pack_locked())

    def __repr__(self) -> str:
        return (
            f"CaseResultStore({self.root!r}, {len(self)} entries, "
            f"{self.stats.hits} hits / {self.stats.misses} misses)"
        )


StoreLike = Union[str, CaseResultStore]


def as_result_store(store: Optional[StoreLike]) -> Optional[CaseResultStore]:
    """Coerce CLI/API input (path | store | None) to a store."""
    if store is None or isinstance(store, CaseResultStore):
        return store
    return CaseResultStore(str(store))
