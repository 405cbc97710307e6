"""Design-space exploration (the paper's Section I motivation: "the
possibility of automatically generating a number of viable algorithms ...
enables the selection of an optimal algorithm among a wider set of
candidates").

For a single-module system, enumerate every valid (T, S) pair within
coefficient bounds, package each as an :class:`ExploredDesign` with its
completion time, processor count and per-variable flows, and rank by the
chosen criterion.  The convolution benchmarks use this to regenerate
Tables 1 and 2: which named designs (W1/W2/R2) arise from which recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, TypeVar

import numpy as np

from repro.arrays.dataflow import Flow, variable_flows
from repro.arrays.interconnect import Interconnect
from repro.core.design import Design
from repro.deps.extract import module_dependence_matrix
from repro.ir.program import RecurrenceSystem
from repro.schedule.linear import LinearSchedule
from repro.core.options import SynthesisOptions
from repro.schedule.solver import valid_candidates
from repro.space.allocation import cells_used, enumerate_space_maps

T = TypeVar("T")


@dataclass(frozen=True)
class ExploredDesign:
    """One point of the design space."""

    design: Design
    makespan: int
    cells: int
    flows: dict[str, Flow]

    def signature(self) -> tuple:
        """Hashable movement signature: (variable, direction, speed)."""
        return tuple(sorted(
            (var, f.direction, f.speed) for var, f in self.flows.items()))


def explore_uniform(system: RecurrenceSystem, params: Mapping[str, int],
                    interconnect: Interconnect,
                    time_bound: int = 2, space_bound: int = 1
                    ) -> list[ExploredDesign]:
    """Enumerate all designs of a single-module system, sorted by
    (completion time, #cells, movement signature)."""
    if len(system.modules) != 1:
        raise ValueError("explore_uniform handles single-module systems")
    (name, module), = system.modules.items()
    deps = module_dependence_matrix(module)
    pts = module.domain.points_array(params)
    decomposer = interconnect.decomposer()

    # All candidate schedules and their makespans in two matrix ops.
    candidates = valid_candidates(deps, len(module.dims), time_bound)
    if pts.shape[0] and candidates.shape[0]:
        all_times = candidates @ pts.T
        spans = all_times.max(axis=1) - all_times.min(axis=1)
    else:
        spans = np.zeros(candidates.shape[0], dtype=np.int64)

    results: list[ExploredDesign] = []
    seen: set[tuple] = set()
    for row, makespan in zip(candidates, spans.tolist()):
        coeffs = tuple(int(c) for c in row)
        schedule = LinearSchedule(module.dims, coeffs)
        for smap in enumerate_space_maps(
                module.dims, interconnect.label_dim, deps, schedule,
                decomposer, bound=space_bound):
            design = Design(system=system, params=dict(params),
                            interconnect=interconnect,
                            schedules={name: schedule},
                            space_maps={name: smap})
            flows = variable_flows(deps, schedule, smap)
            explored = ExploredDesign(
                design=design, makespan=makespan,
                cells=len(cells_used(smap, pts)), flows=flows)
            key = (coeffs, explored.signature())
            if key in seen:
                continue
            seen.add(key)
            results.append(explored)
    results.sort(key=lambda e: (e.makespan, e.cells, e.signature()))
    return results


def explore_interconnects(system: RecurrenceSystem,
                          params: Mapping[str, int],
                          interconnects: Sequence[Interconnect],
                          options: SynthesisOptions | None = None
                          ) -> list[tuple[Interconnect, "Design | None"]]:
    """Synthesize one design per interconnection pattern (Section V:
    "different interconnection patterns may result in different classes of
    designs"); infeasible patterns yield ``None``.

    Results are sorted by processor count (feasible first), the paper's
    Section VI criterion.
    """
    from repro.core.nonuniform import synthesize
    from repro.schedule.solver import NoScheduleExists
    from repro.space.multimodule import NoSpaceMapExists

    results: list[tuple[Interconnect, Design | None]] = []
    for ic in interconnects:
        try:
            design = synthesize(system, params, ic, options)
        except (NoScheduleExists, NoSpaceMapExists):
            design = None
        results.append((ic, design))
    results.sort(key=lambda pair: (pair[1] is None,
                                   pair[1].cell_count if pair[1] else 0,
                                   pair[0].name))
    return results


def non_dominated(items: Sequence[T],
                  point: Callable[[T], tuple[int, int]]) -> list[T]:
    """The items whose (time, cells) ``point`` no other item dominates, in
    input order, keeping the first item of each distinct point.

    The one Pareto routine: sweep reports, the design cache and
    :func:`pareto_front` all select through it.
    """
    points = [point(item) for item in items]
    front: list[T] = []
    seen: set[tuple[int, int]] = set()
    for item, (t, c) in zip(items, points):
        if (t, c) in seen:
            continue
        if any(ot <= t and oc <= c and (ot, oc) != (t, c)
               for ot, oc in points):
            continue
        seen.add((t, c))
        front.append(item)
    return front


def pareto_front(designs: list[ExploredDesign]) -> list[ExploredDesign]:
    """Designs not dominated in (makespan, cells) — the paper's T/P
    optimality trade-off."""
    return non_dominated(designs, lambda d: (d.makespan, d.cells))
