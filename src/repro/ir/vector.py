"""Level-grouped ndarray execution of lowered programs (``native``'s tiers).

Both lowered execution forms in this codebase — the reference evaluator's
:class:`~repro.ir.evaluate.ExecutionPlan` and the machine engine's
:class:`~repro.machine.compiled.CompiledMachine` program table — end up as
the same thing: a dense-id node table where every node applies one rule to
already-computed operand slots.  Executing that table one node per Python
iteration leaves the interpreter dispatch loop, not the arithmetic, as the
cost.  This module turns the table into *batched array kernels*:

* partition the (topologically valid) node sequence into **levels** — Kahn
  frontiers along the dependence edges, with write-after-read and
  write-after-write edges respected so non-SSA tables stay sequentially
  faithful;
* within a level, group nodes by rule shape: one group per operation
  (``add``, ``mul``, ``mac``, ...), one group for all copies
  (:class:`~repro.ir.statements.LinkRule` / machine ``copy`` ops), one group
  per host input name;
* execute each group as one gather → ufunc → scatter over a dense
  ``(seeds, node_count)`` value matrix.  The batch axis runs many input
  instantiations through a single kernel pass, so S-seed verification costs
  roughly one execution instead of S.

Dtype policy (exactness is non-negotiable — the backend must be
value-identical to the interpreter oracle):

* **int64 fast path** — taken when every compute group maps to a stock
  kernel and every host input value is a Python/numpy integer.  Addition
  and multiplication carry *exact* overflow checks (sign-flip test for add;
  ``c // a == b`` for mul, which cannot be fooled because a wrapped product
  is off by a multiple of 2^64 while ``|a| < 2^63`` — except ``a == -1``,
  whose quotient probe itself overflows at ``b == -2^63`` and is therefore
  tested directly).  Any overflow, or any non-integer input, falls back
  transparently;
* **object fallback** — ``Fraction``, floats, tuples, symbolic values and
  custom ops run through :func:`numpy.frompyfunc` over object arrays: the
  exact per-element Python semantics of the interpreter, minus the
  per-node dispatch loop.

Host inputs are gathered once per batch (:class:`HostGather`): each
distinct ``(input name, index)`` is evaluated once per seed, type-checked
once, and scattered into the value matrix of every program that reads it
— also into the object matrices of a fallback, so no callable runs twice.

Kernel-level work reports through the span tracer as ``vector.lower``
(level/group construction), ``vector.gather`` (host input fills) and
``vector.exec`` (the kernel pass), with ``vector.kernels`` /
``vector.int64_fallbacks`` counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import starmap
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.ir.evaluate import ExecutionPlan, SystemTrace
from repro.ir.ops import ADD, IDENTITY, MAC, MAX, MIN, MIN_PLUS, MUL, Op
from repro.ir.statements import ComputeRule, LinkRule
from repro.util.instrument import STATS

#: Typed counter for the int64 -> object-array perf cliff (see
#: :mod:`repro.obs.telemetry`); shared with the native engine.
_INT64_FALLBACKS = STATS.metrics.counter("vector.int64_fallbacks")
_KERNELS = STATS.metrics.counter("vector.kernels")


class IntegerFallback(Exception):
    """Internal control flow: the int64 fast path cannot represent this
    execution exactly — rerun on the object path."""


# -- exact int64 kernels ------------------------------------------------------

def _checked_add(a, b):
    c = a + b
    # Overflow iff both operands share a sign the result flipped.
    if np.any(((a ^ c) & (b ^ c)) < 0):
        raise IntegerFallback("int64 overflow in add")
    return c


_INT64_MIN = np.iinfo(np.int64).min


def _checked_mul(a, b):
    c = a * b
    # a == -1 would fool the quotient probe below: the only wrapping product
    # is -1 * INT64_MIN, and there c // -1 overflows right back to b.  Test
    # that one pair directly and keep -1 out of the division.
    neg_one = a == -1
    if np.any(neg_one & (b == _INT64_MIN)):
        raise IntegerFallback("int64 overflow in mul")
    probe = (a != 0) & ~neg_one
    # Exact: if c != a*b mathematically, they differ by a nonzero multiple
    # of 2^64, so floor(c / a) cannot equal b (|a| < 2^63, a != -1).
    if np.any(c[probe] // a[probe] != b[probe]):
        raise IntegerFallback("int64 overflow in mul")
    return c


def _checked_mac(acc, a, b):
    return _checked_add(acc, _checked_mul(a, b))


#: stock op -> (fn identity, int64 kernel).  The fn identity guard keeps a
#: user-made op that merely *names* itself like a stock op off the fast
#: path (``Op`` equality deliberately ignores ``fn``).
_INT_KERNELS: dict[Op, tuple[Callable, Callable]] = {
    IDENTITY: (IDENTITY.fn, lambda a: a),
    ADD: (ADD.fn, _checked_add),
    MIN_PLUS: (MIN_PLUS.fn, _checked_add),
    MUL: (MUL.fn, _checked_mul),
    MIN: (MIN.fn, np.minimum),
    MAX: (MAX.fn, np.maximum),
    MAC: (MAC.fn, _checked_mac),
}

#: Canonical exact-semantics tag per stock op — the shared vocabulary of
#: every backend that re-implements the checked int64 repertoire (the C
#: native executor's encoding keys on these).  ``min_plus`` is semantically
#: plain addition, so it shares the ``add`` tag.
_EXACT_OPCODES: dict[Op, tuple[Callable, str]] = {
    IDENTITY: (IDENTITY.fn, "id"),
    ADD: (ADD.fn, "add"),
    MIN_PLUS: (MIN_PLUS.fn, "add"),
    MUL: (MUL.fn, "mul"),
    MIN: (MIN.fn, "min"),
    MAX: (MAX.fn, "max"),
    MAC: (MAC.fn, "mac"),
}


def exact_opcode(op: Op) -> str | None:
    """Canonical opcode tag of a stock op with exact int64 semantics.

    Returns ``"id"``/``"add"``/``"mul"``/``"min"``/``"max"``/``"mac"`` when
    ``op`` is one of the stock operations (fn identity checked, exactly as
    the fast-path kernel table does), ``None`` otherwise.  Composite
    accumulator ops are *not* resolved here — look at ``op.components``
    (what :func:`repro.codegen.encode_program` does).
    """
    entry = _EXACT_OPCODES.get(op)
    if entry is None or entry[0] is not op.fn:
        return None
    return entry[1]


def fused_int_kernel(h: Op, f: Op) -> Callable | None:
    """Exact int64 kernel for ``hf(prev, *xs) = h(prev, f(*xs))``.

    Returns ``None`` unless *both* components carry a stock exact kernel
    (fn identity checked, as everywhere on the fast path) — a fused op
    built from custom callables must stay on the object path.
    """
    hk = _INT_KERNELS.get(h)
    fk = _INT_KERNELS.get(f)
    if (hk is None or hk[0] is not h.fn
            or fk is None or fk[0] is not f.fn):
        return None
    h_kernel, f_kernel = hk[1], fk[1]

    def kernel(prev, *xs):
        return h_kernel(prev, f_kernel(*xs))

    return kernel


def _exact_int_type(kind: type) -> bool:
    """Types whose values the int64 path may hold without changing
    semantics.

    ``bool`` is excluded: ``min``/``max`` of bools returns a bool in the
    interpreter but an integer from ``np.minimum`` — exactness first.
    """
    return issubclass(kind, (int, np.integer)) and not issubclass(kind, bool)


def _is_exact_int(value: object) -> bool:
    return _exact_int_type(type(value))


# -- the lowered program ------------------------------------------------------

@dataclass
class KernelGroup:
    """One gather → kernel → scatter unit: same level, same rule shape."""

    level: int
    kind: str                                 # "input" | "copy" | "compute"
    dst: np.ndarray                           # destination value ids
    operands: tuple[np.ndarray, ...] = ()     # per-position operand ids
    op: Op | None = None
    int_kernel: Callable | None = None
    obj_kernel: Callable | None = None
    input_name: str | None = None
    dst_py: tuple[int, ...] = ()              # python ids for the fill loop
    indices: tuple[tuple[int, ...], ...] = ()  # pre-evaluated input indices

    @property
    def width(self) -> int:
        return len(self.dst_py) if self.kind == "input" else len(self.dst)


@dataclass
class VectorProgram:
    """A node table lowered to level-grouped kernels."""

    node_count: int
    groups: list[KernelGroup]                 # level-ascending, inputs first
    level_count: int
    int_ok: bool                              # every compute op has a kernel
    _gather: "HostGather | None" = field(default=None, repr=False,
                                         compare=False)

    def kernel_schedule(self) -> "list[KernelGroup]":
        """The level-group execution schedule, in the order the kernel pass
        runs it: input groups first, then copy/compute groups by ascending
        level.

        Within a level no value slot is both read and written (producers
        and rewrites always land strictly above their readers), so a
        backend may execute a level's groups — and the elements within a
        group — in any order, or sequentially in place.  This is the
        shared execution source: :func:`repro.codegen.encode_program`
        walks it to build the native executor's instruction stream, and
        :func:`execute_program` walks it with ndarray kernels.
        """
        return list(self.groups)

    def gather(self) -> "HostGather":
        """This program's own host gather (built once, then reused)."""
        if self._gather is None:
            self._gather = HostGather((self,))
        return self._gather

    def stats(self) -> dict[str, int]:
        """Level/group shape of the lowered program (for reports/tests)."""
        widths = [g.width for g in self.groups] or [0]
        return {
            "nodes": self.node_count,
            "levels": self.level_count,
            "groups": len(self.groups),
            "max_width": max(widths),
            "copy_groups": sum(g.kind == "copy" for g in self.groups),
            "compute_groups": sum(g.kind == "compute" for g in self.groups),
            "input_groups": sum(g.kind == "input" for g in self.groups),
        }


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
    with STATS.stage("vector.lower"):
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


# -- execution ----------------------------------------------------------------

#: One process-wide warning the first time the exact int64 fast path bails
#: out: the object path is 10-50x slower, and without the warning the cliff
#: only shows up as wall clock.  The counter keeps every later occurrence
#: visible in ``--stats``.
_fallback_warned = False


def note_int64_fallback(reason: str) -> None:
    """Count an int64 → object-array fallback and warn once per process.

    Shared by every backend that mirrors the fast path's semantics (the
    ndarray kernels here, the native C executor in
    :mod:`repro.machine.native`): the ``vector.int64_fallbacks`` counter
    makes the perf cliff visible in ``--stats``, and the first occurrence
    raises a :class:`RuntimeWarning` naming the cause.
    """
    global _fallback_warned
    _INT64_FALLBACKS.inc()
    if not _fallback_warned:
        _fallback_warned = True
        import warnings

        warnings.warn(
            f"exact int64 fast path fell back to the (10-50x slower) "
            f"object-array path: {reason}; results stay exact, but check "
            f"--stats ('vector.int64_fallbacks') if this is a hot path",
            RuntimeWarning, stacklevel=3)


@dataclass
class HostValues:
    """One batch of host input values, evaluated once per seed.

    ``rows[s]`` holds seed ``s``'s values in gather-column order.  ``ints``
    is the same batch as an int64 ``(seeds, columns)`` matrix when every
    value is an exact integer that fits; otherwise it is ``None`` and
    ``reason`` says why, and every pass runs on the object path.
    """

    rows: list[list]
    ints: np.ndarray | None
    reason: str | None
    targets: tuple[tuple[np.ndarray, np.ndarray], ...]

    def matrix(self, slot: int, node_count: int, int_mode: bool
               ) -> np.ndarray:
        """A fresh ``(seeds, node_count)`` value matrix for program
        ``slot`` of the gather, with its input slots filled."""
        dst, cols = self.targets[slot]
        seeds = len(self.rows)
        if int_mode:
            values = np.zeros((seeds, node_count), dtype=np.int64)
            values[:, dst] = self.ints[:, cols]
            return values
        values = np.empty((seeds, node_count), dtype=object)
        pairs = tuple(zip(dst.tolist(), cols.tolist()))
        for out, row in zip(values, self.rows):
            for at, col in pairs:
                out[at] = row[col]
        return values


class HostGather:
    """The host fetches of one or more programs, deduplicated.

    Each distinct ``(input name, index)`` is one gather column, so a check
    that runs a reference and a machine program over the same inputs
    evaluates every host callable once per seed, not once per program.
    """

    def __init__(self, programs: Sequence[VectorProgram]):
        columns: dict[tuple[str, tuple[int, ...]], int] = {}
        by_name: dict[str, list[tuple[int, ...]]] = {}
        targets = []
        for program in programs:
            dst: list[int] = []
            cols: list[int] = []
            for group in program.groups:
                if group.kind != "input":
                    continue
                name = group.input_name
                for at, idx in zip(group.dst_py, group.indices):
                    col = columns.get((name, idx))
                    if col is None:
                        col = columns[(name, idx)] = len(columns)
                        by_name.setdefault(name, []).append(idx)
                    dst.append(at)
                    cols.append(col)
            targets.append((np.asarray(dst, dtype=np.intp),
                            np.asarray(cols, dtype=np.intp)))
        # Columns are re-numbered name by name, the order calls run in.
        self.fetches = tuple(sorted(by_name.items()))
        order = [columns[(name, idx)]
                 for name, idxs in self.fetches for idx in idxs]
        renumber = np.empty(len(order), dtype=np.intp)
        renumber[order] = np.arange(len(order), dtype=np.intp)
        self.names = [name for name, idxs in self.fetches for _ in idxs]
        self.targets = tuple((dst, renumber[cols]) for dst, cols in targets)

    def collect(self, input_sets: Sequence[Mapping[str, Callable]]
                ) -> HostValues:
        """Call every host fetch once per binding set and type-check the
        batch for the int64 path (same rule as :func:`_is_exact_int`)."""
        with STATS.stage("vector.gather"):
            rows = []
            for bindings in input_sets:
                row: list = []
                for name, idxs in self.fetches:
                    row.extend(starmap(bindings[name], idxs))
                rows.append(row)
            kinds: set[type] = set()
            for row in rows:
                kinds.update(map(type, row))
            bad = [kind for kind in kinds if not _exact_int_type(kind)]
            ints = reason = None
            if bad:
                row = next(r for r in rows
                           if not all(map(_is_exact_int, r)))
                col = next(c for c, v in enumerate(row)
                           if not _is_exact_int(v))
                reason = (f"input {self.names[col]!r} produced non-integer "
                          f"{type(row[col]).__name__}")
            else:
                try:
                    ints = np.array(rows, dtype=np.int64).reshape(
                        len(rows), len(self.names))
                except OverflowError as exc:  # an int too wide for int64
                    reason = str(exc) or "OverflowError"
        return HostValues(rows, ints, reason, self.targets)


def _run_levels(program: VectorProgram, values: np.ndarray,
                int_mode: bool = True) -> None:
    """Every copy/compute level of ``program`` over ``values`` in place;
    the int64 kernels raise :class:`IntegerFallback` on overflow."""
    with STATS.stage("vector.exec"):
        kernels = 0
        for group in program.groups:
            if group.kind == "input":
                continue
            if group.kind == "copy":
                values[:, group.dst] = values[:, group.operands[0]]
            else:
                cols = [values[:, col] for col in group.operands]
                kernel = group.int_kernel if int_mode else group.obj_kernel
                values[:, group.dst] = kernel(*cols)
            kernels += 1
        _KERNELS.inc(kernels)


def execute_gathered(program: VectorProgram, host: HostValues,
                     slot: int = 0,
                     int_pass: Callable | None = None) -> np.ndarray:
    """Run ``program`` (gather slot ``slot``) over already-gathered host
    values; the dense ``(seeds, node_count)`` value matrix comes back
    int64 when the fast path held, object otherwise.

    ``int_pass(program, values)`` runs the levels over the int64 matrix in
    place and raises :class:`IntegerFallback` on overflow — the ndarray
    kernels by default, the native executor when the caller has one.  The
    fallback is transparent and reuses the gathered values: no host
    callable runs twice.
    """
    if program.int_ok:
        if host.ints is None:
            note_int64_fallback(host.reason)
        else:
            values = host.matrix(slot, program.node_count, int_mode=True)
            try:
                (int_pass or _run_levels)(program, values)
                return values
            except (IntegerFallback, OverflowError) as exc:
                note_int64_fallback(str(exc) or type(exc).__name__)
    values = host.matrix(slot, program.node_count, int_mode=False)
    _run_levels(program, values, int_mode=False)
    return values


def execute_program(program: VectorProgram,
                    input_sets: Sequence[Mapping[str, Callable]],
                    ) -> np.ndarray:
    """Run the program for every input binding set at once.

    Returns the dense ``(len(input_sets), node_count)`` value matrix —
    int64 when the fast path held, object otherwise.  The fallback is
    transparent: overflow or non-integer inputs simply rerun the pass on
    object arrays.
    """
    return execute_gathered(program, program.gather().collect(input_sets))


# -- the ExecutionPlan front end ---------------------------------------------

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


def _check_bindings(plan: ExecutionPlan,
                    inputs: Mapping[str, Callable]) -> None:
    missing = set(plan.system.input_names) - set(inputs)
    if missing:
        raise KeyError(f"missing input bindings: {sorted(missing)}")


def _trace_from_row(plan: ExecutionPlan, row: np.ndarray) -> SystemTrace:
    trace = SystemTrace(plan.system, dict(plan.params))
    trace.domains = plan.domains
    values = row.tolist()     # int64 -> exact Python ints; object -> as-is
    trace._pending = (plan, values)
    for host_key, nid in plan.outputs:
        trace.results[host_key] = values[nid]
    return trace


def execute_plan_vector(plan: ExecutionPlan,
                        inputs: Mapping[str, Callable],
                        program: VectorProgram | None = None) -> SystemTrace:
    """Kernel-executed drop-in for :func:`~repro.ir.evaluate.
    execute_plan`: same trace (lazy events included), kernel execution."""
    _check_bindings(plan, inputs)
    if program is None:
        program = lower_plan(plan)
    values = execute_program(program, (inputs,))
    return _trace_from_row(plan, values[0])


def execute_plan_batch(plan: ExecutionPlan,
                       input_sets: Sequence[Mapping[str, Callable]],
                       program: VectorProgram | None = None,
                       ) -> list[SystemTrace]:
    """Run every input instantiation through one kernel pass.

    The batch axis is the whole point of the vector backend: S-seed
    verification costs roughly one execution instead of S.  Returns one
    :class:`SystemTrace` per binding set, identical to what
    :func:`~repro.ir.evaluate.execute_plan` would produce for each.
    """
    input_sets = list(input_sets)
    for bindings in input_sets:
        _check_bindings(plan, bindings)
    if not input_sets:
        return []
    if program is None:
        program = lower_plan(plan)
    values = execute_program(program, input_sets)
    return [_trace_from_row(plan, values[s]) for s in range(len(input_sets))]
