"""Reporting: design tables (Tables 1/2 style), ASCII array figures
(Figures 1/2 style), and run-record analytics (``repro report``)."""

from repro.report.actions import action_profile, cell_actions, render_cell_actions
from repro.report.analytics import (
    bench_delta_table,
    cache_table,
    delta_records_table,
    latency_table,
    load_records,
    render_report,
    report_dict,
    stage_table,
)
from repro.report.figures import render_array, render_gantt
from repro.report.tables import (
    cell_utilization_table,
    design_table,
    flow_table,
    format_grid,
    module_table,
    sweep_pareto_table,
    sweep_table,
)

__all__ = [
    "action_profile",
    "bench_delta_table",
    "cache_table",
    "cell_actions",
    "cell_utilization_table",
    "delta_records_table",
    "design_table",
    "flow_table",
    "format_grid",
    "latency_table",
    "load_records",
    "module_table",
    "render_array",
    "render_cell_actions",
    "render_gantt",
    "render_report",
    "report_dict",
    "stage_table",
    "sweep_pareto_table",
    "sweep_table",
]
