"""Cycle-level execution event log of the systolic machine.

The paper's whole point is *non-uniform behaviour over time* — a cell's
action varies cycle by cycle — yet :class:`~repro.machine.simulator.
MachineStats` only reports aggregates.  This module defines the event
vocabulary both machine engines emit behind an opt-in sink:

========  =============================================================
kind      meaning
========  =============================================================
inject    a host input value enters a boundary cell's register file
fire      a cell executes an operation (``copy`` for link transfers)
hop       a value crosses one interconnect link (``cell`` is the dst)
output    a host result value is produced (at its production cycle/cell)
reclaim   a register is freed after its last local use
========  =============================================================

Every event is keyed by ``(cycle, cell)``.  The interpreter emits live
during execution; the native engine replays the identical stream, derived
structurally at lowering time — the test suite cross-checks the two.

:class:`EventLog` is the stock sink: it collects events and exports them as

* **JSON lines** (:meth:`EventLog.write_jsonl`) — one event per line, stable
  keys, greppable;
* **Chrome ``trace_event`` JSON** (:meth:`EventLog.write_chrome_trace`) —
  loads directly in Perfetto / ``chrome://tracing``: each cell is a track
  (tid), each cycle is one millisecond, so the non-uniform data flow of a
  design can be inspected interactively.

This module deliberately imports nothing from the rest of the engine, so
any layer can depend on it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterable, Protocol

Cell = tuple[int, ...]

#: Every legal event kind, in canonical within-cycle emission order.
EVENT_KINDS = ("hop", "inject", "fire", "output", "reclaim")

#: Chrome-trace timebase: one machine cycle is rendered as one millisecond.
CYCLE_US = 1000


@dataclass(frozen=True)
class MachineEvent:
    """One cycle-level occurrence in a machine execution.

    ``key`` is the value's identity rendered as a string
    (``module::var(point)``) so events stay hashable and serialisable
    without dragging IR types along.  ``src`` is set for hops only;
    ``name`` carries the input name (inject), op name (fire) or host result
    key (output); ``stream`` is the (module, var) channel class for
    hops and fires.
    """

    kind: str
    cycle: int
    cell: Cell
    key: str
    src: Cell | None = None
    name: str | None = None
    stream: tuple[str, str] | None = None

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind, "cycle": self.cycle,
                     "cell": list(self.cell), "key": self.key}
        if self.src is not None:
            out["src"] = list(self.src)
        if self.name is not None:
            out["name"] = self.name
        if self.stream is not None:
            out["stream"] = list(self.stream)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "MachineEvent":
        return cls(kind=data["kind"], cycle=data["cycle"],
                   cell=tuple(data["cell"]), key=data["key"],
                   src=tuple(data["src"]) if "src" in data else None,
                   name=data.get("name"),
                   stream=tuple(data["stream"]) if "stream" in data else None)


class EventSink(Protocol):
    """Anything that can receive machine events."""

    def emit(self, event: MachineEvent) -> None:
        ...


class EventLog:
    """The stock :class:`EventSink`: collect, summarise, export."""

    def __init__(self) -> None:
        self.events: list[MachineEvent] = []

    def emit(self, event: MachineEvent) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    # -- summaries -----------------------------------------------------------

    def counts_by_kind(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for e in self.events:
            counts[e.kind] = counts.get(e.kind, 0) + 1
        return {k: counts[k] for k in sorted(counts)}

    def per_cell_counts(self) -> dict[Cell, dict[str, int]]:
        """``{cell: {kind: count}}`` over every event's home cell."""
        table: dict[Cell, dict[str, int]] = {}
        for e in self.events:
            per = table.setdefault(e.cell, {})
            per[e.kind] = per.get(e.kind, 0) + 1
        return table

    def cycle_range(self) -> tuple[int, int]:
        if not self.events:
            return (0, 0)
        cycles = [e.cycle for e in self.events]
        return (min(cycles), max(cycles))

    # -- exporters -----------------------------------------------------------

    def to_jsonl(self) -> str:
        """One stable-key JSON object per line."""
        return "\n".join(
            json.dumps(e.to_dict(), sort_keys=True, separators=(",", ":"))
            for e in self.events)

    def digest(self, canonical: bool = True) -> str:
        """SHA-256 of the JSON-lines export — the stream's byte identity.

        With ``canonical=True`` (default) events are put in
        :func:`canonical_order` first, so two engines that tell the same
        story in different emission orders digest equal.  The four-engine
        equivalence tests compare these digests, and they are cheap enough
        to log per run.
        """
        events = canonical_order(self.events) if canonical else self.events
        body = "\n".join(
            json.dumps(e.to_dict(), sort_keys=True, separators=(",", ":"))
            for e in events)
        return hashlib.sha256(body.encode("utf-8")).hexdigest()

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            body = self.to_jsonl()
            fh.write(body + ("\n" if body else ""))

    def to_chrome_trace(self) -> dict:
        """The Chrome ``trace_event`` representation (Perfetto-loadable).

        Cells become threads of one process, named and sorted by their
        coordinates; every event is a complete (``ph: "X"``) slice one cycle
        wide.  Hops are drawn on the destination cell's track with the
        source recorded in ``args``.
        """
        cells = sorted({e.cell for e in self.events})
        tids = {cell: i + 1 for i, cell in enumerate(cells)}
        trace_events: list[dict] = [
            {"ph": "M", "pid": 0, "tid": 0, "name": "process_name",
             "args": {"name": "systolic array"}},
        ]
        for cell, tid in tids.items():
            trace_events.append(
                {"ph": "M", "pid": 0, "tid": tid, "name": "thread_name",
                 "args": {"name": f"cell {cell}"}})
            trace_events.append(
                {"ph": "M", "pid": 0, "tid": tid, "name": "thread_sort_index",
                 "args": {"sort_index": tid}})
        base = min((e.cycle for e in self.events), default=0)
        for e in self.events:
            args: dict = {"key": e.key, "cycle": e.cycle}
            if e.src is not None:
                args["src"] = str(e.src)
            if e.stream is not None:
                args["stream"] = "::".join(e.stream)
            if e.name is not None:
                args["name"] = e.name
            label = e.name if e.kind == "fire" and e.name else e.kind
            trace_events.append({
                "ph": "X", "pid": 0, "tid": tids[e.cell],
                "ts": (e.cycle - base) * CYCLE_US, "dur": CYCLE_US,
                "cat": e.kind, "name": f"{label} {e.key}", "args": args})
        return {"traceEvents": trace_events, "displayTimeUnit": "ms",
                "otherData": {"cycle_us": CYCLE_US}}

    def write_chrome_trace(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_chrome_trace(), fh, indent=1, sort_keys=True)


def read_jsonl(path) -> list[MachineEvent]:
    """Load an event log written by :meth:`EventLog.write_jsonl`."""
    events: list[MachineEvent] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(MachineEvent.from_dict(json.loads(line)))
    return events


def canonical_order(events: Iterable[MachineEvent]) -> list[MachineEvent]:
    """Engine-independent ordering: by cycle, then kind (hop, inject, fire,
    output, reclaim — the machine's phase order), then cell, then key."""
    rank = {kind: i for i, kind in enumerate(EVENT_KINDS)}
    return sorted(events, key=lambda e: (e.cycle, rank[e.kind], e.cell,
                                         e.key, e.src or ()))
