"""Resumable sweep manifests: a JSONL journal that survives ``kill -9``.

A million-design sweep takes hours; losing it to a reboot, an OOM kill or
a fat-fingered ^C means re-paying every completed job.  The manifest is
the sweep's write-ahead journal: one *header* line identifying the job
set, then one *done* line per completed job carrying the full
:class:`~repro.core.batch.SweepResult` payload.  Jobs are journaled by
their **engine-qualified identity** (``<cache key>::<engine>``, see
:attr:`~repro.core.batch.SweepResult.identity`): the cache key excludes
the engine, so two jobs differing only in engine share a key — each must
get its own done-record or resuming would silently drop one of them.  ``run_sweep(...,
manifest=path)`` opens the journal before executing anything and appends
as results land, fsync'ing in batches (``fsync_every``), so the file on
disk is never more than a batch behind reality.

Resuming is the same call: if the file already holds done-records for the
same job set, those jobs are *restored* from the journal — not probed,
not re-executed — and only the remainder runs.  The restored results are
byte-for-byte the recorded ones, so a resumed sweep's report tables
render identically to the uninterrupted run's.

Safety properties:

* the header pins a SHA-256 over the sorted job keys — resuming a
  manifest against a *different* sweep raises :class:`ManifestError`
  instead of silently mixing results;
* a torn final line (the writer died mid-append) is ignored, everything
  before it is kept — appends are single ``write`` calls of one line;
* done-records for keys not in the current job set also raise, catching
  a stale file path reused for a new sweep shape.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.util.instrument import STATS
from repro.util.journal import encode_record, read_records

if TYPE_CHECKING:                                       # pragma: no cover
    from repro.core.batch import SweepResult

#: Bump when the journal layout changes incompatibly.
#: v2: done-records are keyed by engine-qualified job identity
#: (``<cache key>::<engine>``) instead of the bare cache key.
MANIFEST_VERSION = 2

#: Default completion-records-per-fsync.  Batching amortises the sync
#: cost at ~no durability loss: a crash forfeits at most a batch of
#: cheap-to-redo jobs, never the whole sweep.
DEFAULT_FSYNC_EVERY = 16

_RESTORED = STATS.metrics.counter("sweep.manifest_restored")
_RECORDED = STATS.metrics.counter("sweep.manifest_recorded")


class ManifestError(ValueError):
    """The manifest on disk does not belong to the requested sweep."""


def jobs_fingerprint(keys: Iterable[str]) -> str:
    """Order-independent SHA-256 identity of a sweep's job-identity set
    (``run_sweep`` passes engine-qualified identities, not cache keys)."""
    digest = hashlib.sha256()
    for key in sorted(keys):
        digest.update(key.encode("ascii"))
        digest.update(b"\n")
    return digest.hexdigest()


class SweepManifest:
    """The journal behind ``run_sweep(..., manifest=...)``.

    Lifecycle: :meth:`open` parses-or-creates the file and exposes
    :attr:`completed` (job identity → recorded result payload); the sweep calls
    :meth:`record` per finished job and :meth:`close` at the end.  The
    file handle stays open for the sweep's duration — appends are one
    ``write`` each, fsync'd every ``fsync_every`` records and on close.
    """

    def __init__(self, path: "str | os.PathLike",
                 fsync_every: int = DEFAULT_FSYNC_EVERY) -> None:
        self.path = Path(path)
        self.fsync_every = max(1, int(fsync_every))
        self.completed: dict[str, dict] = {}
        self.total = 0
        self._fingerprint: "str | None" = None
        self._fh = None
        self._since_fsync = 0

    # -- opening -------------------------------------------------------------

    @classmethod
    def open(cls, path: "str | os.PathLike", job_keys: Iterable[str],
             fsync_every: int = DEFAULT_FSYNC_EVERY) -> "SweepManifest":
        """Create the journal for ``job_keys`` (engine-qualified job
        identities), or resume the existing one (validating that it
        journals the same job set)."""
        manifest = cls(path, fsync_every=fsync_every)
        keys = list(job_keys)
        manifest.total = len(keys)
        manifest._fingerprint = jobs_fingerprint(keys)
        existing = manifest._parse_existing(set(keys))
        manifest.path.parent.mkdir(parents=True, exist_ok=True)
        manifest._fh = open(manifest.path, "a", encoding="utf-8")
        if not existing:
            manifest._append({"kind": "header",
                              "version": MANIFEST_VERSION,
                              "fingerprint": manifest._fingerprint,
                              "total": manifest.total})
            manifest._fsync()
        return manifest

    def _parse_existing(self, valid_keys: set[str]) -> bool:
        """Load a pre-existing journal; ``False`` when absent or empty."""
        try:
            records = read_records(self.path)
        except FileNotFoundError:
            return False
        if not records:
            return False
        header = records[0]
        if header.get("kind") != "header":
            raise ManifestError(
                f"{self.path}: not a sweep manifest (bad header)")
        if header.get("version") != MANIFEST_VERSION:
            raise ManifestError(
                f"{self.path}: manifest version "
                f"{header.get('version')!r} is not the supported "
                f"version {MANIFEST_VERSION} — start a fresh manifest "
                f"file")
        if header.get("fingerprint") != self._fingerprint:
            raise ManifestError(
                f"{self.path}: manifest belongs to a different sweep "
                f"(job-set fingerprint mismatch) — use a fresh manifest "
                f"file per sweep spec")
        for record in records[1:]:
            if record.get("kind") != "done":
                continue
            key = record.get("key")
            if key not in valid_keys:
                raise ManifestError(
                    f"{self.path}: completion record for unknown job key "
                    f"{key!r}")
            self.completed[key] = record["result"]
        return True

    # -- journaling ----------------------------------------------------------

    def record(self, result: "SweepResult") -> None:
        """Journal one finished job (idempotent per job identity)."""
        ident = result.identity
        if ident in self.completed:
            return
        payload = result.to_dict()
        self.completed[ident] = payload
        self._append({"kind": "done", "key": ident,
                      "result": payload})
        _RECORDED.inc()
        self._since_fsync += 1
        if self._since_fsync >= self.fsync_every:
            self._fsync()

    def restore(self) -> "list[SweepResult]":
        """The journaled results, rebuilt as :class:`SweepResult`\\ s."""
        from repro.core.batch import SweepResult

        restored = [SweepResult.from_dict(payload)
                    for payload in self.completed.values()]
        _RESTORED.inc(len(restored))
        return restored

    def _append(self, record: Mapping) -> None:
        if self._fh is None:
            raise ValueError(f"{self.path}: manifest is not open")
        self._fh.write(encode_record(record))
        self._fh.flush()

    def _fsync(self) -> None:
        if self._fh is not None:
            os.fsync(self._fh.fileno())
            self._since_fsync = 0

    def close(self) -> None:
        if self._fh is not None:
            self._fsync()
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "SweepManifest":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"SweepManifest({str(self.path)!r}, "
                f"{len(self.completed)}/{self.total} done)")


def read_manifest(path: "str | os.PathLike") -> dict:
    """Post-mortem view of a manifest file: header fields plus the
    completed keys — what a monitor (or a human with a dead sweep) needs
    to size the remaining work.  Tolerates a torn final line."""
    header: dict = {}
    completed: list[str] = []
    for record in read_records(path):
        if record.get("kind") == "header" and not header:
            header = record
        elif record.get("kind") == "done":
            completed.append(record.get("key"))
    return {"version": header.get("version"),
            "fingerprint": header.get("fingerprint"),
            "total": header.get("total", 0),
            "completed": completed}
