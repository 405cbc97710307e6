"""Vectorized execution of lowered machine programs (``engine="vector"``).

:mod:`repro.machine.compiled` already lowers microcode into a flat,
integer-indexed operation table and precomputes every structural property
(statistics, validation, the event stream).  What remains per execution is
the value pass — one Python iteration per operation.  This module hands
that table to the level-grouped kernel engine in :mod:`repro.ir.vector`:
operations of the same level and opcode run as one gather → ufunc →
scatter over a dense value matrix, and a whole batch of input
instantiations runs through a single kernel pass (the multi-seed
verification axis).

Everything else — strict capacity semantics, the structural event replay,
the ``values``/``results``/``stats`` contract — is inherited unchanged
from the compiled lowering, so the vector engine is bit-identical to both
other engines wherever they are defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.ir.evaluate import SystemTrace
from repro.ir.vector import (
    HostValues,
    VectorProgram,
    build_program,
    execute_gathered,
    execute_program,
)
from repro.machine.compiled import CompiledMachine, lower
from repro.machine.errors import CapacityError
from repro.machine.microcode import Microcode
from repro.machine.simulator import MachineRun
from repro.obs.events import EventSink


@dataclass
class VectorMachine:
    """A compiled machine plus the level-grouped kernel form of its
    operation table."""

    compiled: CompiledMachine
    program: VectorProgram

    def execute(self, inputs: Mapping[str, Callable],
                strict: bool = True,
                sink: "EventSink | None" = None,
                want_values: bool = True) -> MachineRun:
        """One kernel pass; drop-in for :meth:`CompiledMachine.execute`.

        ``want_values=False`` skips building the full per-key ``values``
        dict (verification only consumes ``results``); ``results`` and
        ``stats`` are always populated.
        """
        compiled = self.compiled
        if strict and compiled.strict_error is not None:
            raise CapacityError(compiled.strict_error)
        if sink is not None:
            compiled.replay_events(sink)
        buf = self.execute_batch((inputs,))[0].tolist()
        if want_values:
            values, results = compiled.result_dicts(buf)
        else:
            values = {}
            results = {host_key: buf[vid]
                       for host_key, vid in compiled.outputs}
        return MachineRun(values, results, compiled.copy_stats())

    def execute_batch(self, input_sets: Sequence[Mapping[str, Callable]],
                      ) -> np.ndarray:
        """The raw ``(seeds, value_count)`` matrix of one batched pass.

        Capacity strictness and event replay are the caller's concern —
        batched verification checks ``compiled.strict_error`` once, not
        per seed.
        """
        return execute_program(self.program, input_sets)

    def execute_gathered(self, host: HostValues, slot: int = 0,
                         ) -> np.ndarray:
        """One batched pass over host values gathered for gather slot
        ``slot`` (batched verification shares one gather between the
        reference and the machine)."""
        return execute_gathered(self.program, host, slot)


def vectorize(compiled: CompiledMachine) -> VectorMachine:
    """Lower a compiled machine's operation table to kernel groups."""
    program = build_program(
        len(compiled.keys),
        compiled.program,
        [(vid, name, idx) for vid, name, idx in compiled.injections])
    return VectorMachine(compiled, program)


def lower_vector(mc: Microcode, trace: SystemTrace,
                 reclaim_registers: bool = True,
                 record_events: bool = False) -> VectorMachine:
    """Microcode → compiled lowering → kernel groups, in one step."""
    return vectorize(lower(mc, trace, reclaim_registers, record_events))


def run_vector(mc: Microcode, trace: SystemTrace,
               inputs: Mapping[str, Callable], strict: bool = True,
               reclaim_registers: bool = True,
               sink: "EventSink | None" = None) -> MachineRun:
    """Lower and execute in one step (the ``engine="vector"`` path of
    :func:`repro.machine.simulator.run`)."""
    lowered = lower_vector(mc, trace, reclaim_registers,
                           record_events=sink is not None)
    return lowered.execute(inputs, strict, sink=sink)
