"""Per-cell analytics for compiled microcode.

Beyond the aggregate :class:`~repro.machine.simulator.MachineStats`, the
per-cell utilization table exposes the *shape* of an execution: what each
cell computes, moves and receives, and how busy it is — the kind of
information the paper's figures annotate by hand.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

from repro.machine.microcode import Microcode


@dataclass(frozen=True)
class CellUtilization:
    """One cell's share of the execution: what it did and how busy it was."""

    cell: tuple[int, ...]
    operations: int
    hops_in: int
    hops_out: int
    injections: int
    busy_cycles: int            # distinct cycles with >= 1 operation
    first_active: int
    last_active: int
    occupancy: float            # busy_cycles / total span

    @property
    def events(self) -> int:
        """Total events homed at this cell (hops counted at both ends)."""
        return (self.operations + self.hops_in + self.hops_out
                + self.injections)


def cell_utilization(mc: Microcode) -> dict[tuple[int, ...], CellUtilization]:
    """Per-cell utilization/occupancy summary — the non-uniformity of a
    design made visible: cells of a non-uniform array differ wildly in how
    often and when they fire, which this table quantifies cell by cell."""
    ops: Counter = Counter()
    busy: dict[tuple[int, ...], set[int]] = defaultdict(set)
    hops_in: Counter = Counter()
    hops_out: Counter = Counter()
    injections: Counter = Counter()
    active: dict[tuple[int, ...], list[int]] = defaultdict(list)
    for op in mc.operations:
        ops[op.cell] += 1
        busy[op.cell].add(op.cycle)
        active[op.cell].append(op.cycle)
    for hop in mc.hops:
        hops_out[hop.src] += 1
        hops_in[hop.dst] += 1
        active[hop.src].append(hop.cycle)
        active[hop.dst].append(hop.cycle)
    for inj in mc.injections:
        injections[inj.cell] += 1
        active[inj.cell].append(inj.cycle)
    span = max(mc.span, 1)
    return {
        cell: CellUtilization(
            cell=cell,
            operations=ops.get(cell, 0),
            hops_in=hops_in.get(cell, 0),
            hops_out=hops_out.get(cell, 0),
            injections=injections.get(cell, 0),
            busy_cycles=len(busy.get(cell, ())),
            first_active=min(cycles),
            last_active=max(cycles),
            occupancy=len(busy.get(cell, ())) / span)
        for cell, cycles in sorted(active.items())}

