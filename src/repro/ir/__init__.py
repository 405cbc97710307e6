"""Intermediate representation: affine expressions, integer index sets,
recurrence modules and systems, and a reference evaluator.

This is the substrate the paper assumes as its "algorithmic model"
(Section II.A): structured sets of computations written as recurrence
relations or nested loops over integer index sets, with input/output/
assignment/conditional-assignment statements.
"""

from repro.ir.affine import AffineExpr, QuasiAffineExpr, const, var
from repro.ir.evaluate import (
    CyclicDependence,
    ExecutionPlan,
    SystemTrace,
    ValueKey,
    build_execution_plan,
    execute_plan,
    run_system,
    trace_execution,
)
from repro.ir.vector import VectorProgram, lower_plan
from repro.ir.indexset import Polyhedron, eq, ge, le
from repro.ir.ops import ADD, IDENTITY, MAC, MAX, MIN, MIN_PLUS, MUL, Op, make_op
from repro.ir.predicates import (
    Predicate,
    TRUE,
    at_least,
    at_most,
    equals,
    greater,
)
from repro.ir.program import (
    ArgSpec,
    HighLevelSpec,
    Module,
    OutputSpec,
    RecurrenceSystem,
)
from repro.ir.statements import ComputeRule, Equation, InputRule, LinkRule
from repro.ir.validation import ValidationError, check_canonic, check_system
from repro.ir.variables import ExternalRef, Ref

__all__ = [
    "ADD", "IDENTITY", "MAC", "MAX", "MIN", "MIN_PLUS", "MUL",
    "AffineExpr", "ArgSpec", "ComputeRule", "CyclicDependence",
    "Equation", "ExecutionPlan", "ExternalRef", "HighLevelSpec",
    "InputRule", "LinkRule", "Module", "Op", "OutputSpec", "Polyhedron",
    "Predicate", "QuasiAffineExpr", "Ref", "RecurrenceSystem", "SystemTrace",
    "TRUE", "ValidationError", "ValueKey", "VectorProgram", "at_least",
    "at_most", "build_execution_plan", "check_canonic", "check_system",
    "const", "eq", "equals", "execute_plan", "ge", "greater", "le",
    "lower_plan", "make_op", "run_system", "trace_execution", "var",
]
