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
entries each per million designs.  A flat ``<key>.json`` left at the root
by the pre-shard layout is never read: its key misses and is
re-synthesized into its shard.  Writes stay atomic (tempfile +
``os.replace`` inside the shard, serialised by a per-shard ``flock`` where
the platform has one), so concurrent sweep workers can share a cache
directory.  Failed
syntheses are cached too (negative entries): re-running a sweep does not
re-discover infeasibility the hard way.

**Listing.**  ``__len__``, :meth:`entries` and :meth:`prune` scan the
entry files themselves, and :meth:`pareto` ranks the records of one such
scan: each current-format entry contributes its headline fields (key,
status, cells, completion time) with its size and modification time from
``stat``.  The entry files are the only record of what the cache holds,
so no second store can go stale.
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
from repro.core.explore import non_dominated
from repro.core.globals import link_constraints
from repro.core.options import SynthesisOptions
from repro.ir.program import RecurrenceSystem
from repro.obs import TRACER

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

    def __init__(self, root: "str | os.PathLike | None" = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()

    def path_for(self, key: str) -> Path:
        """The sharded home of ``key``: ``<root>/ab/cd/<key>.json``."""
        if len(key) < 4:
            return self.root / f"{key}.json"
        return self.root / key[:2] / key[2:4] / f"{key}.json"

    @contextlib.contextmanager
    def _shard_lock(self, shard: Path):
        """An advisory per-shard ``flock`` serialising writers.

        ``os.replace`` already makes individual writes atomic; the lock
        additionally serialises concurrent stores into one shard.  On
        platforms without ``fcntl`` it degrades to a no-op — atomicity
        still holds.
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
        """The stored payload, or ``None`` on a miss (counted in ``TRACER``).

        A corrupt entry (interrupted writer from a pre-atomic-write era,
        disk mishap) is treated as a miss, not an error.  Counters
        distinguish hits on *negative* entries (cached infeasibility) from
        design hits, so warm-vs-cold sweep behaviour is visible in
        ``--stats``.
        """
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (FileNotFoundError, json.JSONDecodeError):
            TRACER.count("cache.misses")
            return None
        if payload.get("format") != CACHE_FORMAT_VERSION:
            TRACER.count("cache.misses")
            return None
        TRACER.count("cache.hits")
        if payload.get("status") == "error":
            TRACER.count("cache.negative_hits")
        return payload

    def store(self, key: str, payload: dict) -> Path:
        """Atomically write ``payload`` under ``key`` (last writer wins)."""
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
        TRACER.count("cache.stores")
        if payload.get("status") == "error":
            TRACER.count("cache.negative_stores")
        return path

    # -- listing -------------------------------------------------------------

    def _iter_entry_paths(self) -> Iterator[Path]:
        """Every sharded entry file on disk."""
        if not self.root.is_dir():
            return
        yield from self.root.glob("??/??/*.json")

    def _remove_orphans(self) -> None:
        """Delete the temp files of writers killed between ``mkstemp`` and
        ``os.replace``.  :meth:`store` holds the shard lock across that
        window, so a ``*.tmp`` file seen under the lock is an orphan."""
        if not self.root.is_dir():
            return
        for shard in {tmp.parent for tmp in self.root.glob("??/??/*.tmp")}:
            with self._shard_lock(shard):
                for tmp in shard.glob("*.tmp"):
                    with contextlib.suppress(OSError):
                        tmp.unlink()

    def entries(self) -> list[dict]:
        """One record per readable current-format entry, key-sorted:
        ``key``, ``status``, ``cells``, ``completion_time``, ``bytes``
        (file size) and ``ts`` (modification time)."""
        records = []
        for path in self._iter_entry_paths():
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
        records.sort(key=lambda r: r["key"])
        return records

    @staticmethod
    def pareto(records: "list[dict]") -> list[dict]:
        """The :meth:`entries` ``records`` of successful designs not
        dominated in (completion time, cells) — the cache-wide selection
        question.  The caller passes the records it already scanned, so
        one listing serves both its counts and the front."""
        ok = sorted((r for r in records
                     if r["status"] == "ok"
                     and r["completion_time"] is not None
                     and r["cells"] is not None),
                    key=lambda r: (r["completion_time"], r["cells"],
                                   r["key"]))
        return non_dominated(ok, lambda r: (r["completion_time"],
                                            r["cells"]))

    # -- pruning -------------------------------------------------------------

    def prune(self, *, max_age_days: "float | None" = None,
              max_bytes: "int | None" = None) -> PruneReport:
        """Evict entries older than ``max_age_days``, then oldest-first
        until the cache fits ``max_bytes``.  An entry that cannot be
        unlinked counts in :attr:`PruneReport.failed`.  Evictions land in
        the ``cache.evictions`` / ``cache.evicted_bytes`` counters.
        Orphaned temp files of killed writers are always deleted."""
        self._remove_orphans()
        report = PruneReport()
        records = self.entries()
        report.examined = len(records)
        now = time.time()
        survivors = []
        doomed: list[tuple[dict, str]] = []
        for r in records:
            age_days = (now - r["ts"]) / 86400.0
            if max_age_days is not None and age_days > max_age_days:
                doomed.append((r, "age"))
            else:
                survivors.append(r)
        if max_bytes is not None:
            total = sum(r["bytes"] for r in survivors)
            for r in sorted(survivors, key=lambda r: r["ts"]):
                if total <= max_bytes:
                    break
                doomed.append((r, "size"))
                total -= r["bytes"]
        for r, reason in doomed:
            path = self.path_for(r["key"])
            try:
                size = path.stat().st_size
                path.unlink()
            except OSError:
                report.failed += 1
                continue
            report.removed += 1
            report.freed_bytes += size
            report.by_reason[reason] = report.by_reason.get(reason, 0) + 1
            TRACER.count("cache.evictions")
            TRACER.count("cache.evicted_bytes", size)
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
        return self.path_for(key).is_file()

    def __len__(self) -> int:
        return len(self.entries())

    def clear(self) -> int:
        """Delete every entry and every orphaned temp file; returns how
        many entries were removed."""
        self._remove_orphans()
        removed = 0
        for path in list(self._iter_entry_paths()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def __repr__(self) -> str:
        return f"DesignCache({str(self.root)!r}, entries={len(self)})"
