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
  selection over the enumerated domain arrays), give every value a dense
  integer id (contiguous per rule group; each ``(module, var)`` has a
  row -> id table), resolve each reference's operand ids with one gather
  through its module's dense point -> row lookup, and topologically order
  the dependence-id graph with an iterative worklist (Kahn) on int lists.
  Keys are not built: ``plan.keys`` makes them on first read.  The plan
  depends only on the system and the
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

from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.ir.arrayeval import eval_index_columns, predicate_mask
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


class KeyTable(Sequence):
    """The :class:`ValueKey` of every node id, built on first read.

    ``streams`` lists the distinct ``(module, var)`` pairs and
    ``stream_ids[i]`` is node ``i``'s index into it: placement, routing and
    lowering read a node's stream and module there and never build a key.
    Keys are made (all at once) only when something indexes or iterates
    the table — the API edge, event streams and error messages.
    """

    def __init__(self, streams: list[tuple[str, str]],
                 stream_ids: np.ndarray, rows: list[int],
                 points: Mapping[str, np.ndarray]):
        self.streams = streams
        self.stream_ids = stream_ids
        self._rows = rows
        self._points = points
        self._keys: list[ValueKey] | None = None

    def _list(self) -> list[ValueKey]:
        if self._keys is None:
            tuples = {name: list(map(tuple, pts.tolist()))
                      for name, pts in self._points.items()}
            made = [(module, var, tuples[module])
                    for module, var in self.streams]
            self._keys = [ValueKey(module, var, points[row])
                          for (module, var, points), row in zip(
                              map(made.__getitem__, self.stream_ids.tolist()),
                              self._rows)]
        return self._keys

    def __getitem__(self, index):
        return self._list()[index]

    def __len__(self) -> int:
        return len(self.stream_ids)

    def __iter__(self):
        return iter(self._list())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, KeyTable)):
            return self._list() == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return repr(self._list())


@dataclass
class ExecutionPlan:
    """Value-independent execution structure of one (system, params) pair.

    Parallel arrays over dense value ids: ``keys[i]`` is the value's
    identity (a :class:`KeyTable`, which builds the keys on first read),
    ``rules[i]`` the rule that produces it, ``operands[i]`` the
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
    keys: KeyTable
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


def _guard_mask(rule_guard, dims, pts, rows, params) -> np.ndarray | None:
    """Where the guard holds over the points ``pts[rows]`` (``None``: a
    true guard holds everywhere); falls back to the scalar path for atom
    kinds the vectoriser does not know."""
    if rule_guard.is_true():
        return None
    sub = pts[rows]
    try:
        return predicate_mask(rule_guard, dims, sub, params)
    except TypeError:
        binding = dict(params)
        mask = np.empty(len(rows), dtype=bool)
        for pos, row in enumerate(sub.tolist()):
            binding.update(zip(dims, row))
            mask[pos] = rule_guard.holds(binding)
        return mask


class _RowIndex:
    """Dense point -> row lookup of one module's domain: a mixed-radix code
    over the domain's bounding box indexes a table of rows (-1 where the
    box holds no domain point)."""

    __slots__ = ("lo", "hi", "strides", "table")

    def __init__(self, pts: np.ndarray):
        if len(pts) == 0:
            self.table = None
            return
        self.lo = pts.min(axis=0)
        self.hi = pts.max(axis=0)
        extent = (self.hi - self.lo + 1).tolist()
        strides = [1] * len(extent)
        for d in range(len(extent) - 2, -1, -1):
            strides[d] = strides[d + 1] * extent[d + 1]
        self.strides = np.asarray(strides, dtype=np.int64)
        size = strides[0] * extent[0] if extent else 1
        self.table = np.full(size, -1, dtype=np.int64)
        self.table[(pts - self.lo) @ self.strides] = np.arange(len(pts))

    def rows(self, cols: np.ndarray) -> np.ndarray:
        """Row of every point of ``cols`` (``(count, d)``), -1 for points
        outside the domain."""
        if self.table is None:
            return np.full(len(cols), -1, dtype=np.int64)
        inside = ((cols >= self.lo) & (cols <= self.hi)).all(axis=1)
        codes = np.where(inside[:, None], cols - self.lo, 0) @ self.strides
        return np.where(inside, self.table[codes], -1)


def build_execution_plan(system: RecurrenceSystem,
                         params: Mapping[str, int]) -> ExecutionPlan:
    """Resolve rules, operands and evaluation order — no values involved."""
    params = dict(params)
    pts_arrays = {name: module.domain.points_array(params)
                  for name, module in system.modules.items()}
    row_index: dict[str, _RowIndex] = {}

    def scalar_error(key: ValueKey):
        """Re-raise the exact error the recursive evaluator produced for a
        reference that resolves to no computed value."""
        if key.module not in pts_arrays:
            raise KeyError(key.module)
        if key.point not in set(map(tuple, pts_arrays[key.module].tolist())):
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
            where = _guard_mask(eqn.where, dims, pts, all_rows, params)
            remaining = all_rows if where is None else all_rows[where]
            for rule in eqn.rules:
                if len(remaining) == 0:
                    break
                hold = _guard_mask(rule.guard, dims, pts, remaining, params)
                if hold is None:
                    selection.append((name, var, rule, remaining))
                    remaining = remaining[:0]
                elif hold.any():
                    selection.append((name, var, rule, remaining[hold]))
                    remaining = remaining[~hold]
            if len(remaining):
                row = pts[int(remaining[0])].tolist()
                binding = {**params, **dict(zip(dims, row))}
                eqn.select(binding)  # raises ValueError("no rule guard holds")

    # Dense ids, contiguous per rule group (rows ascending — any order
    # works, the worklist re-orders by dependence); each (module, var)
    # gets a row -> id table, -1 where the variable is undefined.
    rules: list[Rule] = []
    starts: list[int] = []
    streams: dict[tuple[str, str], int] = {}
    stream_runs: list[int] = []
    id_tables: dict[tuple[str, str], np.ndarray] = {}
    for name, var, rule, rows in selection:
        start = len(rules)
        starts.append(start)
        table = id_tables.get((name, var))
        if table is None:
            table = id_tables[(name, var)] = np.full(
                len(pts_arrays[name]), -1, dtype=np.int64)
        table[rows] = np.arange(start, start + len(rows))
        stream_runs.append(streams.setdefault((name, var), len(streams)))
        rules.extend([rule] * len(rows))
    n = len(rules)
    sizes = [len(rows) for *_, rows in selection]
    node_rows = (np.concatenate([rows for *_, rows in selection]).tolist()
                 if selection else [])
    keys = KeyTable(list(streams), np.repeat(
        np.asarray(stream_runs, dtype=np.int64), sizes), node_rows,
        pts_arrays)

    def resolve(module: str, refs: list[tuple[str, np.ndarray]]
                ) -> np.ndarray:
        """Node ids of each ``(var, cols)`` reference into ``module``: one
        row lookup for all of them, then one gather per variable; -1 where
        no such value exists (and for points of the wrong dimension)."""
        ids = np.full((len(refs), len(refs[0][1])), -1, dtype=np.int64)
        if module not in pts_arrays:
            return ids
        index = row_index.get(module)
        if index is None:
            index = row_index[module] = _RowIndex(pts_arrays[module])
        fit = [at for at, (_, cols) in enumerate(refs)
               if cols.shape[1] == pts_arrays[module].shape[1]]
        if not fit:
            return ids
        rows = index.rows(np.concatenate([refs[at][1] for at in fit]))
        size = ids.shape[1]
        for k, at in enumerate(fit):
            found = rows[k * size:(k + 1) * size]
            table = id_tables.get((module, refs[at][0]))
            if table is not None:
                ids[at] = np.where(found >= 0, table[found], -1)
        return ids

    # Pass 2 — operand resolution per (rule, rows) group: each reference's
    # index columns, then one gather to node ids.  The first miss, in the
    # scalar evaluator's node-major reference order, raises its error.
    operands: list[tuple[int, ...]] = [()] * n
    input_calls: list[tuple[str, tuple[int, ...]] | None] = [None] * n
    for (name, var, rule, rows), start in zip(selection, starts):
        module = system.modules[name]
        dims = module.dims
        sub = pts_arrays[name][rows]
        count = len(rows)
        if isinstance(rule, InputRule):
            idx_rows = map(tuple, eval_index_columns(rule.index, dims, sub,
                                                     params).tolist())
            input_calls[start:start + count] = [(rule.input_name, idx)
                                                for idx in idx_rows]
            continue
        if isinstance(rule, LinkRule):
            target = rule.source.module
            refs = [(rule.source.var, rule.source.index)]
        else:  # ComputeRule: operands live in the rule's own module
            target = name
            refs = [(ref.var, ref.index) for ref in rule.operands]
        if not refs:
            continue
        every = eval_index_columns([expr for _, index in refs
                                    for expr in index], dims, sub, params)
        ends = list(accumulate(len(index) for _, index in refs))
        cols = [every[:, a:b] for a, b in zip([0] + ends, ends)]
        ids = resolve(target, [(ref_var, ref_cols) for (ref_var, _), ref_cols
                               in zip(refs, cols)])
        missing = ids < 0
        if missing.any():
            pos = int(np.argmax(missing.any(axis=0)))
            ref = int(np.argmax(missing[:, pos]))
            scalar_error(ValueKey(target, refs[ref][0],
                                  tuple(cols[ref][pos].tolist())))
        operands[start:start + count] = zip(*ids.tolist())

    # Pass 3 — iterative worklist (Kahn) over the dependence-id graph; a
    # node's consumers in ascending id (and operand position) order.
    indegree = list(map(len, operands))
    src = np.fromiter(chain.from_iterable(operands), np.int64,
                      sum(indegree))
    by_src = np.argsort(src, kind="stable")
    consumers = np.repeat(np.arange(n), indegree)[by_src].tolist()
    bounds = np.searchsorted(src[by_src], np.arange(n + 1)).tolist()
    # ``order`` is the FIFO queue itself: ids are appended as they become
    # ready and read back in turn.
    order = [nid for nid in range(n) if indegree[nid] == 0]
    for nid in order:
        for consumer in consumers[bounds[nid]:bounds[nid + 1]]:
            indegree[consumer] -= 1
            if indegree[consumer] == 0:
                order.append(consumer)
    if len(order) < n:
        stuck = next(nid for nid in range(n) if indegree[nid] > 0)
        raise CyclicDependence(f"cycle through {keys[stuck]}")

    outputs: list[tuple[tuple[int, ...], int]] = []
    for out in system.outputs:
        arr = out.domain.points_array(params)
        host_rows = map(tuple, eval_index_columns(out.key, out.domain.dims,
                                                  arr, params).tolist())
        ids = resolve(out.module, [(out.var, arr)])[0]
        if (ids < 0).any():
            bad = int(np.argmax(ids < 0))
            scalar_error(ValueKey(out.module, out.var,
                                  tuple(arr[bad].tolist())))
        outputs.extend(zip(host_rows, ids.tolist()))

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
