"""The synthesized design: schedules + space maps + interconnect for a
recurrence system, with the derived quantities the paper reports — cell
count, completion time, and per-variable data flows."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.arrays.dataflow import Flow, variable_flows
from repro.arrays.interconnect import Interconnect
from repro.arrays.model import ArrayRegion, VLSIArray
from repro.deps.extract import system_dependence_matrices
from repro.ir.program import RecurrenceSystem
from repro.schedule.linear import LinearSchedule
from repro.space.allocation import SpaceMap, cells_used


@dataclass
class Design:
    """A complete mapping of a system onto a VLSI array.

    All derived quantities are exact and computed from the enumerated module
    domains for the design's parameter binding.
    """

    system: RecurrenceSystem
    params: dict[str, int]
    interconnect: Interconnect
    schedules: dict[str, LinearSchedule]
    space_maps: dict[str, SpaceMap]

    #: value-independent verification artifacts (execution plan, microcode,
    #: lowered machine, symbolic-check outcome) keyed by stage name — the
    #: synthesis pipeline hands over its plan and microcode, and
    #: :func:`repro.core.verify.verify_design`'s native engine lowers the
    #: microcode (then drops it) and fills the rest lazily.  Never
    #: persisted.
    _exec_cache: dict[str, object] = field(default_factory=dict, repr=False)

    def module_points(self, name: str) -> np.ndarray:
        """The module's enumerated domain: the shared, read-only array
        every stage of synthesis and verification reads."""
        return self.system.modules[name].domain.points_array(self.params)

    def time(self, module: str, point) -> int:
        return self.schedules[module].time(point)

    def cell(self, module: str, point) -> tuple[int, ...]:
        return self.space_maps[module].cell(point)

    def region(self) -> ArrayRegion:
        """All cells any module's computations occupy."""
        cells: set[tuple[int, ...]] = set()
        for name in self.system.modules:
            pts = self.module_points(name)
            if pts.shape[0]:
                cells |= cells_used(self.space_maps[name], pts)
        return ArrayRegion(frozenset(cells))

    def array(self) -> VLSIArray:
        return VLSIArray(self.interconnect, self.region())

    @property
    def cell_count(self) -> int:
        return self.region().count

    def time_range(self) -> tuple[int, int]:
        """(first, last) execution cycle over all modules."""
        lo = None
        hi = None
        for name in self.system.modules:
            pts = self.module_points(name)
            if pts.shape[0] == 0:
                continue
            t = self.schedules[name].times(pts)
            lo = int(t.min()) if lo is None else min(lo, int(t.min()))
            hi = int(t.max()) if hi is None else max(hi, int(t.max()))
        if lo is None:
            raise ValueError("design has no computations")
        return lo, hi

    @property
    def completion_time(self) -> int:
        """The paper's total execution time: max T - min T."""
        lo, hi = self.time_range()
        return hi - lo

    def flows(self) -> dict[str, dict[str, Flow]]:
        """Per module, the data-flow classification of each variable."""
        deps = system_dependence_matrices(self.system)
        out: dict[str, dict[str, Flow]] = {}
        for name in self.system.modules:
            out[name] = variable_flows(
                deps[name], self.schedules[name], self.space_maps[name])
        return out

    def to_dict(self) -> dict:
        """JSON-serialisable description of the design (transformations,
        interconnect and parameters; the system itself is code and travels
        separately — see :meth:`from_dict`)."""
        return {
            "system": self.system.name,
            "params": dict(self.params),
            "interconnect": {
                "name": self.interconnect.name,
                "columns": [list(c) for c in self.interconnect.columns],
            },
            "schedules": {
                name: {"dims": list(s.dims), "coeffs": list(s.coeffs),
                       "offset": s.offset}
                for name, s in self.schedules.items()},
            "space_maps": {
                name: {"dims": list(m.dims),
                       "matrix": [list(r) for r in m.matrix],
                       "offset": list(m.offset)}
                for name, m in self.space_maps.items()},
        }

    @staticmethod
    def from_dict(data: dict, system: RecurrenceSystem) -> "Design":
        """Rebuild a design from :meth:`to_dict` output plus the system.

        Raises ``ValueError`` when the payload was produced for a different
        system (module names must match).
        """
        if data["system"] != system.name:
            raise ValueError(
                f"payload is for system {data['system']!r}, got {system.name!r}")
        if set(data["schedules"]) != set(system.modules):
            raise ValueError("module set mismatch between payload and system")
        ic = data["interconnect"]
        interconnect = Interconnect(
            ic["name"], tuple(tuple(c) for c in ic["columns"]))
        schedules = {
            name: LinearSchedule(tuple(s["dims"]), tuple(s["coeffs"]),
                                 s["offset"])
            for name, s in data["schedules"].items()}
        space_maps = {
            name: SpaceMap(tuple(m["dims"]),
                           tuple(tuple(r) for r in m["matrix"]),
                           tuple(m["offset"]))
            for name, m in data["space_maps"].items()}
        return Design(system=system, params=dict(data["params"]),
                      interconnect=interconnect, schedules=schedules,
                      space_maps=space_maps)

    def summary(self) -> str:
        """Human-readable design card."""
        lines = [f"Design of {self.system.name!r} on {self.interconnect.name}"]
        lines.append(f"  params: {self.params}")
        for name in self.system.modules:
            lines.append(f"  module {name}: T={self.schedules[name].as_expr()}"
                         f"  S={self.space_maps[name]}")
        lines.append(f"  cells: {self.cell_count}")
        lo, hi = self.time_range()
        lines.append(f"  time: [{lo}, {hi}]  (completion {hi - lo})")
        for mod, fl in self.flows().items():
            for var, flow in fl.items():
                lines.append(f"  flow {mod}::{var}: {flow.describe()}")
        return "\n".join(lines)
