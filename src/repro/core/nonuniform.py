"""End-to-end mapping of a (possibly multi-module) recurrence system onto a
VLSI array — Sections II.B and V of the paper in one call.

Since the pass-pipeline redesign this module is a thin entry point: the
actual lowering lives in :mod:`repro.rewrite.pipeline` as named passes
(``decompose-chains``, ``fuse-accumulators``, ``schedule``, ``allocate``,
``lower-microcode``), each traced as a ``pass.<name>`` span.  The stages
are unchanged from the historical one-shot implementation:

1. extract per-module constant dependence matrices (D, or D_1/D_2);
2. enumerate the global constraints from the link statements (A1–A5);
3. jointly solve for linear time functions (λ, μ, σ) — optimal makespan;
4. jointly solve for space maps (S', S'', S) subject to flow realisability,
   full-rank conflict-freedom and the adjacency constraints (10) — minimal
   processor count;
5. compile-check each space candidate's placement and routing on a
   value-free trace — link *bandwidth* is outside the solvers' model, so a
   solver-feasible candidate can still saturate a physical channel — and
   reject any that cannot be lowered;
6. package everything as a :class:`~repro.core.design.Design`.

Escalation: if no solution exists with homogeneous schedules / zero space
offsets, the solvers retry with offsets — "the design procedure is repeated"
(Section II.B), automated.

Callers needing a custom lowering pass ``pipeline=`` (a
:class:`~repro.rewrite.PassPipeline` of their own passes) or drive
:func:`repro.rewrite.run_pipeline` directly for access to intermediate
state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from repro.arrays.interconnect import Interconnect
from repro.core.design import Design
from repro.core.options import SynthesisOptions
from repro.ir.program import HighLevelSpec, RecurrenceSystem

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rewrite.passes import PassPipeline


def synthesize(source: "RecurrenceSystem | HighLevelSpec",
               params: Mapping[str, int],
               interconnect: Interconnect,
               options: SynthesisOptions | None = None, *,
               pipeline: "PassPipeline | None" = None) -> Design:
    """Synthesize a design for ``source`` on ``interconnect``.

    ``source`` is a canonic :class:`RecurrenceSystem`, or a
    :class:`HighLevelSpec` — the pipeline's ``decompose-chains`` pass then
    performs the Section III restructuring first (what
    :func:`repro.core.restructure.restructure` does standalone).

    Search bounds come from ``options`` (a :class:`SynthesisOptions`).
    ``pipeline`` overrides the default pass pipeline; it must still
    produce a design (end in ``lower-microcode``).
    """
    opts = options or SynthesisOptions()
    # Imported here, not at module top: repro.rewrite.pipeline imports the
    # restructurer through the repro.core package, which imports us.
    from repro.rewrite.pipeline import run_pipeline

    state = run_pipeline(source, params, interconnect, opts,
                         pipeline=pipeline)
    if state.design is None:
        names = pipeline.names if pipeline is not None else ()
        raise ValueError(
            f"pipeline {list(names)} did not produce a design; custom "
            "pipelines passed to synthesize() must end with the "
            "'lower-microcode' pass (use repro.rewrite.run_pipeline for "
            "partial lowerings)")
    return state.design
