"""Persistent on-disk design cache.

Synthesis is deterministic: the same (system, parameters, interconnect,
bounds) always yields the same design.  That makes every solved design
cacheable forever — a warm sweep skips the schedule and space solvers
entirely and reduces to JSON loads.

**Key scheme.**  Entries are keyed by a SHA-256 over a canonical JSON
payload of four components:

1. ``system`` — a *structural fingerprint* of the recurrence system
   (:func:`system_fingerprint`): module names, dims, domain constraints,
   every equation's rules and guards, link statements, outputs and input
   names, all rendered through their deterministic ``repr``s.  Two systems
   built by different code paths but describing the same recurrences hash
   equal; any structural edit (a new dependence, a changed guard) changes
   the key.
2. ``params`` — the concrete parameter binding, sorted by name.
3. ``interconnect`` — name plus the Δ columns (the name alone is not
   trusted: a redefined pattern must miss).
4. ``bounds`` — the :class:`~repro.core.options.SynthesisOptions` values.

Keys are therefore stable across processes and machines — nothing
position- or id-dependent enters the hash — which the test suite checks by
recomputing a key in a subprocess.

Entries live under ``~/.cache/repro-designs/`` (override with the
``REPRO_DESIGN_CACHE`` environment variable or the ``root`` argument).

**Sharded layout.**  A million-design sweep puts a million files in the
cache; one flat directory makes every create/lookup pay a directory-scan
tax and makes ``ls`` unusable.  Entries therefore fan out over the first
two key bytes — ``ab/cd/<key>.json`` — 65 536 shard directories at ~15
entries each per million designs.  Flat-layout entries written by earlier
versions are migrated transparently: a lookup that misses the shard but
finds the flat file moves it into its shard (under the shard lock) and
proceeds as a hit.  Writes stay atomic (tempfile + ``os.replace`` inside
the shard, serialised by a per-shard ``flock`` where the platform has
one), so concurrent sweep workers can share a cache directory.  Failed
syntheses are cached too (negative entries): re-running a sweep does not
re-discover infeasibility the hard way.

**Index.**  Every store appends one JSON line to ``index.jsonl`` carrying
the entry's headline metadata (status, cells, completion time, size).
``__len__``, :meth:`entries`, :meth:`pareto` and :meth:`prune` read the
index instead of statting the world; :meth:`rebuild_index` regenerates it
from the entry files when it is lost or stale.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping

try:
    import fcntl
except ImportError:                                   # non-POSIX platforms
    fcntl = None

from repro.arrays.interconnect import Interconnect
from repro.core.design import Design
from repro.core.globals import link_constraints
from repro.core.options import SynthesisOptions
from repro.ir.program import RecurrenceSystem
from repro.util.instrument import STATS
from repro.util.journal import append_record, encode_record, read_records

#: Typed handles into the process metrics registry.  Incrementing through
#: them still routes via ``STATS.count`` (span attribution), but the names
#: are declared once here instead of being scattered string literals.
_HITS = STATS.metrics.counter("cache.hits")
_MISSES = STATS.metrics.counter("cache.misses")
_NEGATIVE_HITS = STATS.metrics.counter("cache.negative_hits")
_STORES = STATS.metrics.counter("cache.stores")
_NEGATIVE_STORES = STATS.metrics.counter("cache.negative_stores")
_MIGRATIONS = STATS.metrics.counter("cache.migrated")
_EVICTIONS = STATS.metrics.counter("cache.evictions")
_EVICTED_BYTES = STATS.metrics.counter("cache.evicted_bytes")

#: Environment variable overriding the cache directory.
CACHE_ENV_VAR = "REPRO_DESIGN_CACHE"

#: Bump when the payload or key layout changes incompatibly.
#: v2: ``LinkRule.__repr__`` gained ``min_gap``, which changes a link's
#: timing constraint and therefore feasibility — v1 fingerprints collided
#: across systems differing only there, letting a cached failure (negative
#: entry) poison a feasible variant.
CACHE_FORMAT_VERSION = 2


def default_cache_dir() -> Path:
    """``$REPRO_DESIGN_CACHE`` if set, else ``~/.cache/repro-designs``."""
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-designs"


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def system_fingerprint(system: RecurrenceSystem) -> str:
    """SHA-256 of the system's structure (not its Python object identity).

    Every piece that influences synthesis enters: dims, domain constraints,
    rules with guards, outputs, declared inputs.  ``repr``s throughout the
    IR are value-based (sorted coefficient maps, named ops), so the digest
    is reproducible across processes.
    """
    modules = []
    for name in sorted(system.modules):
        module = system.modules[name]
        equations = []
        for var in sorted(module.equations):
            eqn = module.equations[var]
            equations.append({
                "var": var,
                "where": repr(eqn.where),
                "rules": [repr(rule) for rule in eqn.rules],
            })
        modules.append({
            "name": module.name,
            "dims": list(module.dims),
            "domain": sorted(repr(c) for c in module.domain.constraints),
            "equations": equations,
        })
    outputs = [{
        "module": out.module,
        "var": out.var,
        "domain": sorted(repr(c) for c in out.domain.constraints),
        "key": [repr(k) for k in out.key],
    } for out in system.outputs]
    desc = {
        "format": CACHE_FORMAT_VERSION,
        "name": system.name,
        "params": sorted(system.params),
        "input_names": sorted(system.input_names),
        "modules": modules,
        "outputs": outputs,
    }
    return _sha256(_canonical_json(desc))


def cache_key(system: RecurrenceSystem, params: Mapping[str, int],
              interconnect: Interconnect,
              options: SynthesisOptions | None = None) -> str:
    """Canonical SHA-256 key of one synthesis job."""
    return cache_key_from_fingerprint(system_fingerprint(system), params,
                                      interconnect, options)


def cache_key_from_fingerprint(fingerprint: str, params: Mapping[str, int],
                               interconnect: Interconnect,
                               options: SynthesisOptions | None = None
                               ) -> str:
    """:func:`cache_key` over a precomputed :func:`system_fingerprint`.

    The fingerprint (repr-ing every rule of every equation) dominates key
    cost; a sweep probing hundreds of jobs of the same problem computes it
    once per problem and keys each (params, interconnect) binding from it.
    """
    options = options or SynthesisOptions()
    payload = {
        "format": CACHE_FORMAT_VERSION,
        "system": fingerprint,
        "params": {k: int(v) for k, v in sorted(params.items())},
        "interconnect": {
            "name": interconnect.name,
            "columns": [list(c) for c in interconnect.columns],
        },
        "bounds": options.to_dict(),
    }
    return _sha256(_canonical_json(payload))


@dataclass
class PruneReport:
    """What one :meth:`DesignCache.prune` pass removed and why."""

    examined: int = 0
    removed: int = 0
    freed_bytes: int = 0
    by_reason: dict = field(default_factory=dict)   # reason -> count
    failed: int = 0                 # doomed entries that would not unlink

    def __str__(self) -> str:
        reasons = ", ".join(f"{k}={v}" for k, v in
                            sorted(self.by_reason.items())) or "none"
        tail = f", {self.failed} failed" if self.failed else ""
        return (f"pruned {self.removed}/{self.examined} entries, "
                f"freed {self.freed_bytes} bytes ({reasons}){tail}")


class DesignCache:
    """A sharded directory of ``<key>.json`` design payloads.

    The low-level surface (:meth:`load`, :meth:`store`) moves raw payload
    dicts; the high-level surface (:meth:`get`, :meth:`put`) moves
    :class:`Design` objects, re-deriving the global constraints on load so
    a cached design verifies exactly like a fresh one.
    """

    #: Name of the append-only metadata index at the cache root.
    INDEX_NAME = "index.jsonl"

    def __init__(self, root: "str | os.PathLike | None" = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()

    def path_for(self, key: str) -> Path:
        """The sharded home of ``key``: ``<root>/ab/cd/<key>.json``."""
        if len(key) < 4:
            return self.root / f"{key}.json"
        return self.root / key[:2] / key[2:4] / f"{key}.json"

    def _flat_path(self, key: str) -> Path:
        """Where the pre-shard layout kept ``key`` (migration source)."""
        return self.root / f"{key}.json"

    @property
    def index_path(self) -> Path:
        return self.root / self.INDEX_NAME

    @contextlib.contextmanager
    def _shard_lock(self, shard: Path):
        """An advisory per-shard ``flock`` serialising writers.

        ``os.replace`` already makes individual writes atomic; the lock
        additionally serialises migrate-vs-store races on one shard.  On
        platforms without ``fcntl`` it degrades to a no-op — atomicity
        still holds, only the migration race window stays open.
        """
        if fcntl is None:
            yield
            return
        shard.mkdir(parents=True, exist_ok=True)
        with open(shard / ".lock", "a") as fh:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(fh.fileno(), fcntl.LOCK_UN)

    # -- raw payloads --------------------------------------------------------

    def load(self, key: str) -> dict | None:
        """The stored payload, or ``None`` on a miss (counted in STATS).

        A corrupt entry (interrupted writer from a pre-atomic-write era,
        disk mishap) is treated as a miss, not an error.  Counters
        distinguish hits on *negative* entries (cached infeasibility) from
        design hits, so warm-vs-cold sweep behaviour is visible in
        ``--stats``.  A flat-layout entry written by an earlier version is
        migrated into its shard on first touch.
        """
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            payload = self._load_migrating(key)
            if payload is None:
                _MISSES.inc()
                return None
        except json.JSONDecodeError:
            _MISSES.inc()
            return None
        if payload.get("format") != CACHE_FORMAT_VERSION:
            _MISSES.inc()
            return None
        _HITS.inc()
        if payload.get("status") == "error":
            _NEGATIVE_HITS.inc()
        return payload

    def _load_migrating(self, key: str) -> dict | None:
        """Serve ``key`` from the flat legacy layout, moving it into its
        shard so the next lookup takes the fast path."""
        flat = self._flat_path(key)
        shard_path = self.path_for(key)
        if flat == shard_path:                 # degenerate short key
            return None
        try:
            with open(flat, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (FileNotFoundError, json.JSONDecodeError):
            return None
        with self._shard_lock(shard_path.parent):
            try:
                if not shard_path.exists():
                    os.replace(flat, shard_path)
            except OSError:
                return payload           # racing writer won; entry is live
        _MIGRATIONS.inc()
        self._index_append({"key": key,
                            "status": payload.get("status", "ok"),
                            "cells": payload.get("cells"),
                            "completion_time": payload.get(
                                "completion_time"),
                            "bytes": shard_path.stat().st_size
                            if shard_path.exists() else 0,
                            "ts": time.time()})
        return payload

    def migrate(self) -> int:
        """Move every flat-layout ``<key>.json`` into its shard; returns
        how many entries moved (index updated per entry)."""
        moved = 0
        if not self.root.is_dir():
            return 0
        for flat in sorted(self.root.glob("*.json")):
            key = flat.stem
            if len(key) < 4:
                continue
            if self._load_migrating(key) is not None:
                moved += 1
        return moved

    def store(self, key: str, payload: dict) -> Path:
        """Atomically write ``payload`` under ``key`` (last writer wins)
        and append its metadata to the index."""
        path = self.path_for(key)
        shard = path.parent
        shard.mkdir(parents=True, exist_ok=True)
        body = json.dumps({"format": CACHE_FORMAT_VERSION, "key": key,
                           **payload}, sort_keys=True, indent=1)
        with self._shard_lock(shard):
            fd, tmp = tempfile.mkstemp(dir=shard, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    fh.write(body)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        _STORES.inc()
        if payload.get("status") == "error":
            _NEGATIVE_STORES.inc()
        self._index_append({"key": key,
                            "status": payload.get("status", "ok"),
                            "cells": payload.get("cells"),
                            "completion_time": payload.get(
                                "completion_time"),
                            "bytes": len(body),
                            "ts": time.time()})
        return path

    # -- the index -----------------------------------------------------------

    def _index_append(self, record: dict) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        append_record(self.index_path, record)

    def _read_index(self) -> "dict[str, dict] | None":
        """Live records by key (last writer wins, deletions applied), or
        ``None`` when no index exists yet."""
        try:
            records = read_records(self.index_path)
        except FileNotFoundError:
            return None
        live: dict[str, dict] = {}
        for record in records:
            key = record.get("key")
            if not key:
                continue
            if record.get("deleted"):
                live.pop(key, None)
            else:
                live[key] = record
        return live

    def _iter_entry_paths(self) -> Iterator[Path]:
        """Every entry file on disk, sharded and flat layouts both."""
        if not self.root.is_dir():
            return
        yield from self.root.glob("*.json")
        yield from self.root.glob("??/??/*.json")

    def rebuild_index(self) -> int:
        """Regenerate ``index.jsonl`` from the entry files (the recovery
        path for a lost or externally-mutated cache); returns the entry
        count."""
        records = []
        for path in sorted(self._iter_entry_paths()):
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    payload = json.load(fh)
                stat = path.stat()
            except (OSError, json.JSONDecodeError):
                continue
            if payload.get("format") != CACHE_FORMAT_VERSION:
                continue
            records.append({"key": payload.get("key", path.stem),
                            "status": payload.get("status", "ok"),
                            "cells": payload.get("cells"),
                            "completion_time": payload.get(
                                "completion_time"),
                            "bytes": stat.st_size,
                            "ts": stat.st_mtime})
        body = "".join(encode_record(r) for r in records)
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(body)
            os.replace(tmp, self.index_path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return len(records)

    def entries(self) -> list[dict]:
        """The index's live records, key-sorted (rebuilding the index
        from disk when none exists yet)."""
        live = self._read_index()
        if live is None:
            if self.rebuild_index() == 0:
                return []
            live = self._read_index() or {}
        return [live[k] for k in sorted(live)]

    def pareto(self) -> list[dict]:
        """Index records of successful designs not dominated in
        (completion time, cells) — the cache-wide selection question,
        answered without opening a single entry file."""
        ok = [r for r in self.entries()
              if r.get("status") == "ok"
              and r.get("completion_time") is not None
              and r.get("cells") is not None]
        front = []
        seen: set[tuple] = set()
        for r in sorted(ok, key=lambda r: (r["completion_time"],
                                           r["cells"], r["key"])):
            tag = (r["completion_time"], r["cells"])
            if tag in seen:
                continue
            if any(o["completion_time"] <= r["completion_time"]
                   and o["cells"] <= r["cells"]
                   and (o["completion_time"], o["cells"]) != tag
                   for o in ok):
                continue
            seen.add(tag)
            front.append(r)
        return front

    # -- pruning -------------------------------------------------------------

    def prune(self, *, max_age_days: "float | None" = None,
              max_bytes: "int | None" = None) -> PruneReport:
        """Evict entries older than ``max_age_days``, then oldest-first
        until the cache fits ``max_bytes``; compacts the index afterwards.
        Entries still at their flat pre-shard path are evicted in place;
        an entry that cannot be unlinked at all counts in
        :attr:`PruneReport.failed`.  Evictions land in the
        ``cache.evictions`` / ``cache.evicted_bytes`` counters."""
        report = PruneReport()
        records = self.entries()
        report.examined = len(records)
        now = time.time()
        survivors = []
        doomed: list[tuple[dict, str]] = []
        for r in records:
            age_days = (now - r.get("ts", now)) / 86400.0
            if max_age_days is not None and age_days > max_age_days:
                doomed.append((r, "age"))
            else:
                survivors.append(r)
        if max_bytes is not None:
            total = sum(r.get("bytes", 0) for r in survivors)
            for r in sorted(survivors, key=lambda r: r.get("ts", 0.0)):
                if total <= max_bytes:
                    break
                doomed.append((r, "size"))
                total -= r.get("bytes", 0)
            doomed_keys = {r["key"] for r, _ in doomed}
            survivors = [r for r in survivors
                         if r["key"] not in doomed_keys]
        for r, reason in doomed:
            # An entry may still sit at its flat pre-shard path (never
            # touched since the layout change) — evict it from wherever
            # it actually lives, and surface entries that would not go.
            path = self.path_for(r["key"])
            if not path.is_file():
                flat = self._flat_path(r["key"])
                if flat.is_file():
                    path = flat
            try:
                size = path.stat().st_size
                path.unlink()
            except OSError:
                report.failed += 1
                continue
            report.removed += 1
            report.freed_bytes += size
            report.by_reason[reason] = report.by_reason.get(reason, 0) + 1
            _EVICTIONS.inc()
            _EVICTED_BYTES.inc(size)
        if report.removed:
            self.rebuild_index()
        return report

    # -- designs -------------------------------------------------------------

    def get(self, key: str, system: RecurrenceSystem) -> Design | None:
        """The cached design for ``key``, rebuilt against ``system``, or
        ``None`` on a miss or a negative (failure) entry."""
        payload = self.load(key)
        if payload is None or payload.get("status") != "ok":
            return None
        design = Design.from_dict(payload["design"], system)
        design.constraints = link_constraints(system, design.params)
        return design

    def put(self, key: str, design: Design, *,
            solve_time: float = 0.0) -> Path:
        """Store a solved design with its derived metrics."""
        return self.store(key, {
            "status": "ok",
            "design": design.to_dict(),
            "cells": design.cell_count,
            "completion_time": design.completion_time,
            "solve_time": solve_time,
        })

    # -- bookkeeping ---------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return (self.path_for(key).is_file()
                or self._flat_path(key).is_file())

    def __len__(self) -> int:
        """Entry count from the index (no directory walk); falls back to
        a one-time rebuild when the index is absent."""
        if not self.root.is_dir():
            return 0
        live = self._read_index()
        if live is None:
            return self.rebuild_index()
        return len(live)

    def clear(self) -> int:
        """Delete every entry (sharded and flat) and the index; returns
        how many entries were removed."""
        removed = 0
        for path in list(self._iter_entry_paths()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        try:
            self.index_path.unlink()
        except OSError:
            pass
        return removed

    def __repr__(self) -> str:
        return f"DesignCache({str(self.root)!r}, entries={len(self)})"
