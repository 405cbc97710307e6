"""The systolic machine: microcode compilation (placement + routing) and a
cycle-accurate, strictly local simulator — the hardware substrate standing in
for the paper's VLSI arrays."""

from repro.machine.analysis import (
    CellUtilization,
    CycleActivity,
    activity_timeline,
    cell_utilization,
    io_schedule,
    peak_parallelism,
    render_activity,
    stream_traffic,
)
from repro.machine.errors import (
    CapacityError,
    CausalityError,
    LocalityError,
    MachineError,
    MissingOperandError,
)
from repro.machine.compiled import CompiledMachine, lower
from repro.machine.microcode import Hop, Injection, Microcode, Operation, compile_design
from repro.machine.native import NativeMachine, lower_native, nativize, run_native
from repro.machine.simulator import MachineRun, MachineStats, run

__all__ = [
    "CapacityError",
    "CellUtilization",
    "CycleActivity",
    "activity_timeline",
    "cell_utilization",
    "io_schedule",
    "peak_parallelism",
    "render_activity",
    "stream_traffic",
    "CausalityError",
    "CompiledMachine",
    "Hop",
    "Injection",
    "LocalityError",
    "MachineError",
    "MachineRun",
    "MachineStats",
    "Microcode",
    "MissingOperandError",
    "NativeMachine",
    "Operation",
    "compile_design",
    "lower",
    "lower_native",
    "nativize",
    "run",
    "run_native",
]
