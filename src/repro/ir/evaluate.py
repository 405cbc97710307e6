"""Reference (sequential) execution of a :class:`RecurrenceSystem`.

This evaluator is the semantic ground truth for everything downstream: the
systolic machine must produce exactly these values.  Its
:class:`ExecutionPlan` is the one structural record of a system execution:
every stage that needs to know which rule produces a value, which values it
reads, which host input it fetches or which host result it becomes takes
that fact from the plan — the microcode compiler, the native lowering and
the kernel program of verification alike.

Values are identified by :class:`ValueKey` ``(module, var, point)`` at the
API edge and by dense node ids inside the plan.  Execution is split into two
phases:

* :func:`build_execution_plan` — resolve, for every defined value, which
  rule fires and which values it reads (vectorised first-match guard
  selection over the enumerated domain arrays), intern every value to a
  dense integer id, and topologically order the dependence-id graph with an
  iterative worklist (Kahn).  The plan depends only on the system and the
  parameter binding — never on input values — so callers that execute the
  same system repeatedly (the verification engine, sweeps over random
  seeds) can build it once.
* :func:`execute_plan` — one pass over the pre-ordered node table applying
  each rule to already-computed operand slots.  No recursion (deep DP
  chains cannot hit Python's recursion limit) and no per-value dict
  hashing on the hot path.

A :class:`SystemTrace` is a plan plus the values of one execution;
``SystemTrace(plan)`` is the value-free trace that placement and routing
read.  ``trace_execution`` composes the two phases and keeps the historical
recursive evaluator's failure modes: missing input bindings and
out-of-domain references raise :class:`KeyError`, cyclic systems raise
:class:`CyclicDependence`, uncovered guards raise :class:`ValueError`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from repro.ir.arrayeval import eval_index_int, predicate_mask
from repro.ir.program import RecurrenceSystem
from repro.ir.statements import ComputeRule, InputRule, LinkRule, Rule


@dataclass(frozen=True)
class ValueKey:
    """Identity of one computed value in the system."""

    module: str
    var: str
    point: tuple[int, ...]

    def __repr__(self) -> str:
        return f"{self.module}::{self.var}{self.point}"


class CyclicDependence(Exception):
    """The system's dependencies contain a cycle (no valid schedule exists)."""


@dataclass
class ExecutionPlan:
    """Value-independent execution structure of one (system, params) pair.

    Parallel arrays over dense value ids: ``keys[i]`` is the value's
    identity, ``rules[i]`` the rule that produces it, ``operands[i]`` the
    ids it reads (empty for inputs), ``input_calls[i]`` the pre-evaluated
    ``(input_name, index)`` for :class:`InputRule` nodes, ``rows[i]`` the
    row of the value's point in ``points[keys[i].module]`` (each module's
    enumerated domain), and ``order`` a dependence-respecting evaluation
    order of all ids.  ``outputs`` pairs every host result key with the id
    of its value.
    """

    system: RecurrenceSystem
    params: dict[str, int]
    points: dict[str, np.ndarray]
    keys: list[ValueKey]
    rules: list[Rule]
    rows: list[int]
    operands: list[tuple[int, ...]]
    input_calls: list[tuple[str, tuple[int, ...]] | None]
    order: list[int]
    outputs: list[tuple[tuple[int, ...], int]]   # (host key, value id)

    @property
    def node_count(self) -> int:
        return len(self.keys)


@dataclass
class SystemTrace:
    """One execution of ``plan``: ``values[i]`` is the value of node ``i``
    (``None`` for a value-free trace, which records structure only) and
    ``results`` maps host output keys to final values."""

    plan: ExecutionPlan
    values: "list[object] | None" = None
    results: dict[tuple[int, ...], object] = field(default_factory=dict)

    @property
    def system(self) -> RecurrenceSystem:
        return self.plan.system

    @property
    def params(self) -> dict[str, int]:
        return self.plan.params


def _guard_rows(rule_guard, dims, pts, rows, params) -> np.ndarray:
    """Indices (into ``pts``) of ``rows`` where the guard holds; falls back
    to the scalar path for atom kinds the vectoriser does not know."""
    if rule_guard.is_true():
        return rows
    sub = pts[rows]
    try:
        mask = predicate_mask(rule_guard, dims, sub, params)
    except TypeError:
        binding = dict(params)
        mask = np.empty(len(rows), dtype=bool)
        for pos, row in enumerate(sub.tolist()):
            binding.update(zip(dims, row))
            mask[pos] = rule_guard.holds(binding)
    return rows[mask]


def _operand_points(index_exprs, dims, pts, rows, params) -> list[tuple[int, ...]]:
    """Evaluate one reference's index expressions over the chosen rows."""
    if len(rows) == 0:
        return []
    sub = pts[rows]
    cols = [eval_index_int(e, dims, sub, params) for e in index_exprs]
    if not cols:
        return [() for _ in range(len(rows))]
    return list(map(tuple, np.column_stack(cols).tolist()))


def build_execution_plan(system: RecurrenceSystem,
                         params: Mapping[str, int]) -> ExecutionPlan:
    """Resolve rules, operands and evaluation order — no values involved."""
    params = dict(params)
    pts_arrays = {name: module.domain.points_array(params)
                  for name, module in system.modules.items()}
    pt_tuples = {name: list(map(tuple, pts.tolist()))
                 for name, pts in pts_arrays.items()}

    keys: list[ValueKey] = []
    rules: list[Rule] = []
    node_rows: list[int] = []
    key_ids: dict[ValueKey, int] = {}

    def scalar_error(key: ValueKey):
        """Re-raise the exact error the recursive evaluator produced for a
        reference that resolves to no computed value."""
        if key.module not in pt_tuples:
            raise KeyError(key.module)
        if key.point not in set(pt_tuples[key.module]):
            raise KeyError(
                f"reference to {key} outside the domain of module {key.module}")
        module = system.modules[key.module]
        binding = {**params, **dict(zip(module.dims, key.point))}
        eqn = module.equations.get(key.var)
        if eqn is None:
            raise KeyError(f"no equation for {key.module}::{key.var}")
        eqn.select(binding)  # raises ValueError (undefined / no guard)
        raise KeyError(f"unresolvable reference to {key}")  # pragma: no cover

    # Pass 1 — rule selection: for every equation, split its defined rows
    # among the rules by vectorised first-match over the guards.
    selection: list[tuple[str, str, Rule, np.ndarray]] = []
    for name, module in system.modules.items():
        pts = pts_arrays[name]
        dims = module.dims
        all_rows = np.arange(pts.shape[0])
        for var, eqn in module.equations.items():
            defined = _guard_rows(eqn.where, dims, pts, all_rows, params)
            remaining = defined
            for rule in eqn.rules:
                if len(remaining) == 0:
                    break
                chosen = _guard_rows(rule.guard, dims, pts, remaining, params)
                if len(chosen):
                    mask = np.ones(len(remaining), dtype=bool)
                    mask[np.searchsorted(remaining, chosen)] = False
                    remaining = remaining[mask]
                    selection.append((name, var, rule, chosen))
            if len(remaining):
                row = pts[int(remaining[0])].tolist()
                binding = {**params, **dict(zip(dims, row))}
                eqn.select(binding)  # raises ValueError("no rule guard holds")
    # Assign dense ids (per rule group, rows ascending — any order works,
    # the worklist re-orders by dependence).
    for name, var, rule, rows in selection:
        points = pt_tuples[name]
        for row in rows.tolist():
            key = ValueKey(name, var, points[row])
            key_ids[key] = len(keys)
            keys.append(key)
            rules.append(rule)
            node_rows.append(row)

    # Pass 2 — operand resolution per (rule, rows) group, vectorised over
    # the group's point rows.
    operands: list[tuple[int, ...]] = [()] * len(keys)
    input_calls: list[tuple[str, tuple[int, ...]] | None] = [None] * len(keys)
    cursor = 0
    for name, var, rule, rows in selection:
        module = system.modules[name]
        dims = module.dims
        pts = pts_arrays[name]
        count = len(rows)
        ids = range(cursor, cursor + count)
        cursor += count
        if isinstance(rule, InputRule):
            idx_rows = _operand_points(rule.index, dims, pts, rows, params)
            for nid, idx in zip(ids, idx_rows):
                input_calls[nid] = (rule.input_name, idx)
            continue
        if isinstance(rule, LinkRule):
            src = rule.source
            src_rows = _operand_points(src.index, dims, pts, rows, params)
            for nid, sp in zip(ids, src_rows):
                src_key = ValueKey(src.module, src.var, sp)
                src_id = key_ids.get(src_key)
                if src_id is None:
                    scalar_error(src_key)
                operands[nid] = (src_id,)
            continue
        # ComputeRule
        per_ref = [(_operand_points(ref.index, dims, pts, rows, params),
                    ref.var) for ref in rule.operands]
        for pos, nid in enumerate(ids):
            op_ids = []
            for ref_rows, ref_var in per_ref:
                op_key = ValueKey(name, ref_var, ref_rows[pos])
                op_id = key_ids.get(op_key)
                if op_id is None:
                    scalar_error(op_key)
                op_ids.append(op_id)
            operands[nid] = tuple(op_ids)

    # Pass 3 — iterative worklist (Kahn) over the dependence-id graph.
    n = len(keys)
    indegree = [0] * n
    consumers: list[list[int]] = [[] for _ in range(n)]
    for nid, ops in enumerate(operands):
        indegree[nid] = len(ops)
        for op_id in ops:
            consumers[op_id].append(nid)
    ready = deque(nid for nid in range(n) if indegree[nid] == 0)
    order: list[int] = []
    while ready:
        nid = ready.popleft()
        order.append(nid)
        for consumer in consumers[nid]:
            indegree[consumer] -= 1
            if indegree[consumer] == 0:
                ready.append(consumer)
    if len(order) < n:
        stuck = next(nid for nid in range(n) if indegree[nid] > 0)
        raise CyclicDependence(f"cycle through {keys[stuck]}")

    outputs: list[tuple[tuple[int, ...], int]] = []
    for out in system.outputs:
        arr = out.domain.points_array(params)
        host_cols = [eval_index_int(e, out.domain.dims, arr, params)
                     for e in out.key]
        out_pts = list(map(tuple, arr.tolist()))
        host_rows = (list(map(tuple, np.column_stack(host_cols).tolist()))
                     if host_cols else [() for _ in out_pts])
        for p, host_key in zip(out_pts, host_rows):
            key = ValueKey(out.module, out.var, p)
            nid = key_ids.get(key)
            if nid is None:
                scalar_error(key)
            outputs.append((host_key, nid))

    return ExecutionPlan(system=system, params=params, points=pts_arrays,
                         keys=keys, rules=rules, rows=node_rows,
                         operands=operands, input_calls=input_calls,
                         order=order, outputs=outputs)


def execute_plan(plan: ExecutionPlan,
                 inputs: Mapping[str, Callable]) -> SystemTrace:
    """One linear pass over the plan's pre-ordered node table."""
    missing = set(plan.system.input_names) - set(inputs)
    if missing:
        raise KeyError(f"missing input bindings: {sorted(missing)}")
    values: list[object] = [None] * plan.node_count
    rules = plan.rules
    operands = plan.operands
    input_calls = plan.input_calls
    for nid in plan.order:
        rule = rules[nid]
        if type(rule) is ComputeRule:
            ops = operands[nid]
            values[nid] = rule.op(*[values[i] for i in ops])
        elif type(rule) is LinkRule:
            values[nid] = values[operands[nid][0]]
        else:  # InputRule
            name, idx = input_calls[nid]
            values[nid] = inputs[name](*idx)
    return SystemTrace(plan, values, {host_key: values[nid]
                                      for host_key, nid in plan.outputs})


def trace_execution(system: RecurrenceSystem, params: Mapping[str, int],
                    inputs: Mapping[str, Callable]) -> SystemTrace:
    """Execute the system and record the value of every node.

    ``inputs`` binds each declared input name to a callable receiving the
    evaluated index of the :class:`InputRule`.
    """
    missing = set(system.input_names) - set(inputs)
    if missing:
        raise KeyError(f"missing input bindings: {sorted(missing)}")
    return execute_plan(build_execution_plan(system, params), inputs)


def run_system(system: RecurrenceSystem, params: Mapping[str, int],
               inputs: Mapping[str, Callable]) -> dict[tuple[int, ...], object]:
    """Execute and return only the host results."""
    return trace_execution(system, params, inputs).results
