"""Append-only JSONL journals that tolerate a torn tail.

The sweep manifest and the progress heartbeat share one shape: each
record is one canonical JSON line (sorted keys, compact separators)
written with a single ``write``, so a writer killed mid-append leaves at
most one torn final line.  Readers skip blank lines and lines that do not
decode to a JSON object, keeping everything before the tear.
"""

from __future__ import annotations

import json
import os
from typing import Mapping


def encode_record(record: Mapping) -> str:
    """``record`` as one canonical journal line, newline included."""
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def append_record(path: "str | os.PathLike", record: Mapping) -> None:
    """Append one record to the journal at ``path`` in a single ``write``
    — POSIX appends of a line this size are atomic, so concurrent writers
    interleave whole records."""
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(encode_record(record))


def read_records(path: "str | os.PathLike") -> list[dict]:
    """Every intact record of the journal at ``path``, in write order.

    Raises :class:`FileNotFoundError` when there is no journal.
    """
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue                # torn tail: the writer died mid-append
            if isinstance(record, dict):
                records.append(record)
    return records
