"""The systolic machine: microcode compilation (placement + routing), its
lowering to one kernel program, a cycle-accurate, strictly local simulator
and a per-cell utilization table — the hardware substrate standing in for
the paper's VLSI arrays."""

from repro.machine.analysis import CellUtilization, cell_utilization
from repro.machine.errors import (
    CapacityError,
    CausalityError,
    LocalityError,
    MachineError,
    MissingOperandError,
)
from repro.machine.microcode import Hop, Injection, Microcode, Operation, compile_design
from repro.machine.native import NativeMachine, lower
from repro.machine.simulator import MachineRun, MachineStats, run

__all__ = [
    "CapacityError",
    "CellUtilization",
    "cell_utilization",
    "CausalityError",
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
    "run",
]
