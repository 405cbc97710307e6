"""Pass manager: :class:`Pass`, :class:`PassPipeline`, :class:`PipelineState`.

A pipeline threads one immutable :class:`PipelineState` value through a
sequence of named passes.  Each pass consumes the fields it needs and
returns a new state with its products filled in; the pipeline runs every
pass under a ``pass.<name>`` span of the global tracer
(:data:`repro.obs.TRACER`), so ``--stats`` and persisted run records show
per-pass wall time without any caller plumbing.

Misordered pipelines fail fast: a pass whose inputs are missing raises
:class:`PassError` naming the missing product and the pass that should
have produced it.
"""

from __future__ import annotations

import abc
import dataclasses
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from repro.obs import TRACER


class PassError(RuntimeError):
    """A pass ran against a state missing its inputs (misordered pipeline)."""


@dataclass(frozen=True)
class PipelineState:
    """Everything the passes of one synthesis run read and produce.

    The front half mirrors the paper's artifacts: a
    :class:`~repro.ir.program.HighLevelSpec` (optional entry point) and
    the restructured :class:`~repro.ir.program.RecurrenceSystem`, which a
    pass that rewrites it replaces rather than mutates.  The back half is
    filled in stage by stage: the execution plan with the link constraints
    read from it and the schedules, space maps, the value-free microcode
    (records name values by the plan's node ids), and finally the
    packaged :class:`~repro.core.design.Design`, which carries the plan
    and the microcode on to native verification.
    """

    params: Mapping[str, int]
    interconnect: object                 # arrays.interconnect.Interconnect
    options: object                      # core.options.SynthesisOptions
    spec: object | None = None           # ir.program.HighLevelSpec
    system: object | None = None         # ir.program.RecurrenceSystem
    plan: object | None = None           # ir.evaluate.ExecutionPlan
    deps: Mapping[str, object] | None = None
    constraints: Sequence[object] | None = None
    schedules: Mapping[str, object] | None = None
    space_maps: Mapping[str, object] | None = None
    microcode: object | None = None      # machine.microcode.Microcode
    design: object | None = None         # core.design.Design

    def replace(self, **updates) -> "PipelineState":
        """Functional update (the only way state ever changes)."""
        return dataclasses.replace(self, **updates)

    def require(self, field: str, producer: str) -> object:
        """Fetch a product, failing with a pipeline-ordering diagnostic."""
        value = getattr(self, field)
        if value is None:
            raise PassError(
                f"state has no {field!r}; run the {producer!r} pass first")
        return value


class Pass(abc.ABC):
    """One named stage of the pipeline.

    Subclasses set ``name`` (kebab-case, unique within a pipeline) and
    ``description`` (one line, shown by ``repro passes``) and implement
    :meth:`run` as a pure ``state -> state`` function.
    """

    name: str = "pass"
    description: str = ""

    @abc.abstractmethod
    def run(self, state: PipelineState) -> PipelineState:
        """Produce the successor state; must not mutate ``state``."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class PassPipeline:
    """An ordered, immutable sequence of passes with unique names."""

    def __init__(self, passes: Sequence[Pass]) -> None:
        self.passes: tuple[Pass, ...] = tuple(passes)
        names = [p.name for p in self.passes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate pass names in pipeline: {names}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.passes)

    def __iter__(self) -> Iterator[Pass]:
        return iter(self.passes)

    def __len__(self) -> int:
        return len(self.passes)

    def __repr__(self) -> str:
        return f"PassPipeline({' -> '.join(self.names)})"

    def run(self, state: PipelineState) -> PipelineState:
        """Run every pass in order under per-pass tracer spans."""
        with TRACER.span("pipeline", passes=len(self.passes)):
            for p in self.passes:
                with TRACER.span(f"pass.{p.name}"):
                    state = p.run(state)
        return state
