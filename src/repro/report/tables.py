"""Rendering of design tables in the style of the paper's Tables 1 and 2."""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.arrays.dataflow import Flow
from repro.core.design import Design
from repro.core.explore import ExploredDesign


def format_grid(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Render ``rows`` under ``headers`` as a boxed ASCII grid.

    The house table style — every table in this package and the
    analytics layer (:mod:`repro.report.analytics`) goes through here.
    """
    widths = [len(h) for h in headers]
    for row in rows:
        for idx, cell in enumerate(row):
            widths[idx] = max(widths[idx], len(cell))

    def fmt(cells: Sequence[str]) -> str:
        return "| " + " | ".join(
            c.ljust(w) for c, w in zip(cells, widths)) + " |"

    sep = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
    lines = [sep, fmt(headers), sep]
    lines.extend(fmt(row) for row in rows)
    lines.append(sep)
    return "\n".join(lines)


def flow_table(flows: Mapping[str, Flow], title: str = "") -> str:
    """One design's variable movements as a table row set."""
    rows = [[var, f.describe(), str(f.dependence)]
            for var, f in sorted(flows.items())]
    table = format_grid(["variable", "movement", "dependence"], rows)
    return f"{title}\n{table}" if title else table


def design_table(entries: Sequence[tuple[str, ExploredDesign]],
                 title: str = "") -> str:
    """The paper's Table 1/2 format: one named design per row, with the
    movement of each stream."""
    if not entries:
        return f"{title}\n(no designs)"
    variables = sorted(next(iter(entries))[1].flows)
    headers = ["Design", "T", "makespan", "cells"] + [
        f"{v} stream" for v in variables]
    rows = []
    for name, d in entries:
        sched = next(iter(d.design.schedules.values()))
        rows.append([name, str(sched.as_expr()), str(d.makespan),
                     str(d.cells)] +
                    [d.flows[v].describe() for v in variables])
    table = format_grid(headers, rows)
    return f"{title}\n{table}" if title else table


def _params_cell(params: Mapping[str, int]) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(params.items()))


def sweep_table(results: Sequence, title: str = "") -> str:
    """One row per sweep job (duck-typed over
    :class:`repro.core.batch.SweepResult`), infeasible jobs included.

    Deliberately excludes wall times and cache provenance so a warm re-run
    renders byte-identically to the cold run that populated the cache.
    """
    if not results:
        return f"{title}\n(no jobs)" if title else "(no jobs)"
    rows = []
    for r in results:
        rows.append([
            r.problem, _params_cell(r.params), r.interconnect,
            str(r.completion_time) if r.ok else "-",
            str(r.cells) if r.ok else "-",
            "ok" if r.ok else (r.error_type or "failed"),
        ])
    table = format_grid(
        ["problem", "params", "interconnect", "completion", "cells",
         "status"], rows)
    return f"{title}\n{table}" if title else table


def sweep_pareto_table(front: Sequence, title: str = "") -> str:
    """The Pareto front of a sweep — completion time vs. cell count, with
    the job that achieved each non-dominated point."""
    if not front:
        return f"{title}\n(no feasible designs)" if title \
            else "(no feasible designs)"
    rows = [[str(r.completion_time), str(r.cells), r.problem,
             _params_cell(r.params), r.interconnect] for r in front]
    table = format_grid(
        ["completion", "cells", "problem", "params", "interconnect"], rows)
    return f"{title}\n{table}" if title else table


def module_table(design: Design, title: str = "") -> str:
    """Per-module schedule/space summary of a multi-module design."""
    rows = []
    for name in design.system.modules:
        rows.append([name,
                     str(design.schedules[name].as_expr()),
                     repr(design.space_maps[name])])
    table = format_grid(["module", "time function", "space map"], rows)
    body = f"{title}\n{table}" if title else table
    lo, hi = design.time_range()
    return (f"{body}\ncells: {design.cell_count}   "
            f"time: [{lo}, {hi}]   completion: {hi - lo}")


def cell_utilization_table(utilization: Mapping, title: str = "",
                           limit: int | None = None) -> str:
    """Per-cell occupancy summary (from :func:`repro.machine.analysis.
    cell_utilization`) — the non-uniformity of a design, one cell per row.

    ``limit`` keeps only the ``limit`` busiest cells (by operation count)
    and notes how many were elided — large arrays stay readable.
    """
    cells = sorted(utilization.values(),
                   key=lambda u: (-u.operations, u.cell))
    elided = 0
    if limit is not None and len(cells) > limit:
        elided = len(cells) - limit
        cells = cells[:limit]
    rows = [[str(u.cell), str(u.operations), str(u.hops_in),
             str(u.hops_out), str(u.injections),
             f"[{u.first_active}, {u.last_active}]",
             f"{u.occupancy:.0%}"] for u in cells]
    table = format_grid(
        ["cell", "ops", "hops in", "hops out", "inject", "active",
         "occupancy"], rows)
    if elided:
        table += f"\n({elided} quieter cell(s) elided)"
    return f"{title}\n{table}" if title else table
