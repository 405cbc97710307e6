"""The scalar structural passes of the reference evaluator, kept as test
oracles.

:func:`build_execution_plan` is the body
:func:`repro.ir.evaluate.build_execution_plan` had before it resolved
operands on node-id arrays: it interns every value as a
:class:`~repro.ir.evaluate.ValueKey` in one dict and looks each operand
up by key.  :func:`build_program` and :func:`lower_plan` are the
per-entry group builders :mod:`repro.ir.vector` had before it formed the
groups with one stable sort.  Tests assert that the array versions give
field-by-field equal plans and programs, and raise the same errors.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Mapping

import numpy as np

from repro.ir.arrayeval import eval_index_int, predicate_mask
from repro.ir.evaluate import CyclicDependence, ExecutionPlan, ValueKey
from repro.ir.ops import IDENTITY, Op
from repro.ir.program import RecurrenceSystem
from repro.ir.statements import ComputeRule, InputRule, LinkRule, Rule
from repro.ir.vector import _INT_KERNELS, KernelGroup, VectorProgram


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



class _GroupBuilder:
    __slots__ = ("level", "kind", "op", "dst", "operands")

    def __init__(self, level: int, kind: str, op: Op | None, arity: int):
        self.level = level
        self.kind = kind
        self.op = op
        self.dst: list[int] = []
        self.operands: list[list[int]] = [[] for _ in range(arity)]


def build_program(node_count: int,
                  entries: Iterable[tuple[int, Op | None, tuple[int, ...]]],
                  input_entries: Iterable[tuple[int, str, tuple[int, ...]]],
                  ) -> VectorProgram:
    """Lower a node table to a :class:`VectorProgram`.

    ``entries`` is any sequence of ``(dst id, op-or-None, operand ids)``
    that is valid to execute one node at a time in order (``op=None`` is a
    copy); ``input_entries`` are host fetches ``(dst id, input name,
    pre-evaluated index)``.  Ids must be dense in ``[0, node_count)``.
    """
    # Current value's producer level, and the latest level reading it —
    # consumers go strictly above producers (RAW), rewrites go strictly
    # above both the previous value (WAW) and its readers (WAR).
    value_level = [0] * node_count
    last_read = [0] * node_count

    input_groups: dict[str, tuple[list[int], list[tuple[int, ...]]]] = {}
    for dst, name, idx in input_entries:
        dsts, idxs = input_groups.setdefault(name, ([], []))
        dsts.append(dst)
        idxs.append(tuple(idx))

    builders: dict[tuple, _GroupBuilder] = {}
    order: list[_GroupBuilder] = []
    int_ok = True
    max_level = 0
    for dst, op, ops in entries:
        level = 1
        for o in ops:
            if value_level[o] >= level:
                level = value_level[o] + 1
        if last_read[dst] >= level:
            level = last_read[dst] + 1
        if value_level[dst] >= level:
            level = value_level[dst] + 1
        for o in ops:
            if level > last_read[o]:
                last_read[o] = level
        value_level[dst] = level
        if level > max_level:
            max_level = level

        if op is None or (op == IDENTITY and op.fn is IDENTITY.fn):
            key = (level, "copy")
            builder = builders.get(key)
            if builder is None:
                builder = builders[key] = _GroupBuilder(
                    level, "copy", None, 1)
                order.append(builder)
        else:
            key = (level, "compute", op.name, op.arity, id(op.fn))
            builder = builders.get(key)
            if builder is None:
                builder = builders[key] = _GroupBuilder(
                    level, "compute", op, op.arity)
                order.append(builder)
        builder.dst.append(dst)
        for pos, o in enumerate(ops[:len(builder.operands)]):
            builder.operands[pos].append(o)

    groups: list[KernelGroup] = []
    for name in sorted(input_groups):
        dsts, idxs = input_groups[name]
        groups.append(KernelGroup(
            level=0, kind="input", dst=np.asarray(dsts, dtype=np.intp),
            input_name=name, dst_py=tuple(dsts), indices=tuple(idxs)))
    for builder in sorted(order, key=lambda b: b.level):
        kernel = None
        obj_kernel = None
        if builder.kind == "compute":
            stock = _INT_KERNELS.get(builder.op)
            if stock is not None and stock[0] is builder.op.fn:
                kernel = stock[1]
            elif builder.op.int_kernel is not None:
                kernel = builder.op.int_kernel
            else:
                int_ok = False
            obj_kernel = np.frompyfunc(builder.op.fn, builder.op.arity, 1)
        groups.append(KernelGroup(
            level=builder.level, kind=builder.kind,
            dst=np.asarray(builder.dst, dtype=np.intp),
            operands=tuple(np.asarray(col, dtype=np.intp)
                           for col in builder.operands),
            op=builder.op, int_kernel=kernel, obj_kernel=obj_kernel))
    return VectorProgram(node_count=node_count, groups=groups,
                         level_count=max_level + 1, int_ok=int_ok)


def lower_plan(plan: ExecutionPlan) -> VectorProgram:
    """Lower a reference-evaluator plan to level-grouped kernels."""
    entries: list[tuple[int, Op | None, tuple[int, ...]]] = []
    input_entries: list[tuple[int, str, tuple[int, ...]]] = []
    rules = plan.rules
    operands = plan.operands
    input_calls = plan.input_calls
    for nid in plan.order:
        rule = rules[nid]
        if type(rule) is ComputeRule:
            entries.append((nid, rule.op, operands[nid]))
        elif type(rule) is LinkRule:
            entries.append((nid, None, operands[nid]))
        else:  # InputRule
            name, idx = input_calls[nid]
            input_entries.append((nid, name, idx))
    return build_program(plan.node_count, entries, input_entries)
