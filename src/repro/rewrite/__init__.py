"""The pass pipeline over the synthesis middle-end.

The paper's flow — canonic-form recurrence → restructured non-uniform
system → scheduled/allocated design → cell program — runs as named passes
that thread one immutable :class:`PipelineState` around one
:class:`~repro.ir.program.RecurrenceSystem`:

* :mod:`repro.rewrite.passes` — :class:`Pass`, :class:`PassPipeline` and
  :class:`PipelineState`, with a ``pass.<name>`` tracer span per pass;
* :mod:`repro.rewrite.pipeline` — the five passes of the default lowering
  (``decompose-chains``, ``fuse-accumulators``, ``schedule``,
  ``allocate``, ``lower-microcode``), the pass registry and
  :func:`default_pipeline`.

The default pipeline is behaviour-identical to the historical one-shot
lowering: same designs, same canonical event streams on both engines.
"""

from repro.rewrite.passes import (
    Pass,
    PassError,
    PassPipeline,
    PipelineState,
)
from repro.rewrite.pipeline import (
    PASS_REGISTRY,
    available_passes,
    default_pipeline,
    make_pass,
    run_pipeline,
)

__all__ = [
    "PASS_REGISTRY",
    "Pass",
    "PassError",
    "PassPipeline",
    "PipelineState",
    "available_passes",
    "default_pipeline",
    "make_pass",
    "run_pipeline",
]
