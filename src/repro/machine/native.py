"""The fast machine engine (``engine="native"``), in three tiers.

:func:`~repro.machine.compiled.lower` turns microcode into a flat,
integer-indexed operation table and precomputes every structural property
(statistics, strict capacity errors, the event stream, result keying).
This module groups that table by level and opcode
(:func:`~repro.ir.vector.build_program`) and runs each value pass on the
best tier available:

1. **C executor** — the kernel schedule, encoded as an ``int32``
   instruction stream (:func:`~repro.codegen.encode_program`), runs on the
   one precompiled executor of :mod:`repro.codegen`, compiled once per
   toolchain and content-addressed, with checked int64 arithmetic;
2. **ndarray kernels** — with no C compiler (or ``$REPRO_NO_NATIVE`` set),
   an op outside the executor's repertoire or a failed compile, the same
   levels run as ndarray gather → ufunc → scatter kernels over the int64
   value matrix;
3. **object arrays** — non-integer inputs (``Fraction``, ``bool``,
   bignums) or an int64 overflow rerun the pass exactly on Python
   objects.

Python runs the gather phase (host input callables are arbitrary Python)
once per batch via :class:`~repro.ir.vector.HostGather`; a whole batch of
input instantiations runs through one pass (the multi-seed verification
axis).  Every tier gives the interpreter's results; counters
(``native.vector_fallbacks``, ``native.input_fallbacks``,
``native.overflow_fallbacks``) and the shared ``vector.int64_fallbacks``
warning keep the degradation visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.codegen.build import NativeExecutor, load_or_build
from repro.codegen.executor import UnsupportedForNative, encode_program
from repro.ir.evaluate import SystemTrace
from repro.ir.vector import (
    HostValues,
    IntegerFallback,
    VectorProgram,
    build_program,
    execute_gathered,
)
from repro.machine.compiled import CompiledMachine, lower
from repro.machine.errors import CapacityError
from repro.machine.microcode import Microcode
from repro.machine.simulator import MachineRun
from repro.obs import TRACER
from repro.obs.events import EventSink

def native_code(program: VectorProgram, cache_dir=None) -> tuple:
    """``(executor, code, None)`` when ``program`` can run natively here,
    else ``(None, None, reason)``."""
    if not program.int_ok:
        return None, None, ("program contains ops without exact int64 "
                            "kernels; the ndarray tier runs it")
    try:
        with TRACER.span("native.encode"):
            code = encode_program(program)
    except UnsupportedForNative as exc:
        return None, None, str(exc)
    executor, reason = load_or_build(cache_dir=cache_dir)
    if executor is None:
        return None, None, reason
    return executor, code, None


def native_pass(executor: NativeExecutor, code: np.ndarray,
                on_overflow: "Callable[[], None] | None" = None) -> Callable:
    """An ``int_pass`` for :func:`~repro.ir.vector.execute_gathered` that
    runs ``code`` on the executor; ``on_overflow`` counts a fallback."""
    def run(program: VectorProgram, values: np.ndarray) -> None:
        with TRACER.span("native.exec"):
            rc = executor.run(values, code)
        if rc == 1:
            if on_overflow is not None:
                on_overflow()
            raise IntegerFallback("int64 overflow in native kernel")
        if rc != 0:
            raise RuntimeError(
                f"native executor rejected the code stream (status {rc})")
    return run


@dataclass
class NativeMachine:
    """A compiled machine plus (when runnable here) its encoded program.

    Always constructible: ``code is None`` means every execution takes
    the ndarray tier and ``fallback_reason`` says why — callers never need
    to probe the toolchain themselves.
    """

    compiled: CompiledMachine
    program: VectorProgram
    executor: "NativeExecutor | None"
    code: "np.ndarray | None"
    fallback_reason: "str | None" = None

    def execute(self, inputs: Mapping[str, Callable],
                strict: bool = True,
                sink: "EventSink | None" = None,
                want_values: bool = True) -> MachineRun:
        """One value pass, with the interpreter's ``values``/``results``/
        ``stats`` contract.  ``want_values=False`` skips building the full
        per-key ``values`` dict (verification only consumes ``results``).
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
        """The raw ``(seeds, value_count)`` matrix of one batched pass."""
        return self.execute_gathered(
            self.program.gather().collect(input_sets))

    def execute_gathered(self, host: HostValues, slot: int = 0,
                         ) -> np.ndarray:
        """One batched pass over host values gathered for gather slot
        ``slot``.  Value levels run in C; any reason the executor cannot
        run this batch exactly drops to the ndarray or object tier
        (counted, and warned once via the shared int64 fallback
        channel)."""
        if self.code is None:
            TRACER.count("native.vector_fallbacks")
            return execute_gathered(self.program, host, slot)
        if host.ints is None:
            TRACER.count("native.input_fallbacks")
        return execute_gathered(
            self.program, host, slot,
            native_pass(self.executor, self.code,
                        lambda: TRACER.count("native.overflow_fallbacks")))


def nativize(compiled: CompiledMachine, cache_dir=None) -> NativeMachine:
    """Group a compiled machine's table into kernel levels and encode them
    for the shared native executor (built on first use through the
    content-addressed artifact cache)."""
    program = build_program(len(compiled.keys), compiled.program,
                            compiled.injections)
    executor, code, reason = native_code(program, cache_dir)
    if code is None:
        TRACER.count("native.fallback_builds")
    return NativeMachine(compiled=compiled, program=program,
                         executor=executor, code=code,
                         fallback_reason=reason)


def lower_native(mc: Microcode, trace: SystemTrace,
                 reclaim_registers: bool = True,
                 record_events: bool = False,
                 cache_dir=None) -> NativeMachine:
    """Microcode → compiled lowering → kernel groups → encoded program."""
    return nativize(lower(mc, trace, reclaim_registers, record_events),
                    cache_dir=cache_dir)


def run_native(mc: Microcode, trace: SystemTrace,
               inputs: Mapping[str, Callable], strict: bool = True,
               reclaim_registers: bool = True,
               sink: "EventSink | None" = None) -> MachineRun:
    """Lower and execute in one step (the ``engine="native"`` path of
    :func:`repro.machine.simulator.run`)."""
    lowered = lower_native(mc, trace, reclaim_registers,
                           record_events=sink is not None)
    return lowered.execute(inputs, strict, sink=sink)
