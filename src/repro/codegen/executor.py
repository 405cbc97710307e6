"""One fixed C executor for every level-grouped program.

Instead of emitting and compiling a translation unit per design, the
native engine compiles :data:`EXECUTOR_SOURCE` once per toolchain and
passes each program to it as data: :func:`encode_program` turns a
:class:`~repro.ir.vector.VectorProgram` into an ``int32`` instruction
stream, one record per non-input group of
:meth:`~repro.ir.vector.VectorProgram.kernel_schedule`::

    [kind, width, h_tag, f_tag, n_operands, dst..., operand columns...]

``kind`` is copy or compute.  A stock op is ``h_tag`` with ``f_tag = 0``;
an accumulator composite ``h(prev, f(*xs))`` (``Op.components``) sets
both.  The ``dst`` block and each operand column hold ``width`` value
slots.  Within a level no slot is both read and written, so each record
runs as one sequential loop in place.

Semantics contract (the reason the native engine is bit-identical to the
interpreter wherever it runs): every arithmetic tag carries the *same*
checked int64 behaviour as :mod:`repro.ir.vector` —
``__builtin_add_overflow`` / ``__builtin_mul_overflow`` where the ndarray
path uses the sign-flip / quotient-probe tests.  Any overflow returns 1
and the caller reruns the pass on the object path, exactly like the
ndarray fast path's transparent fallback.

Only the stock exact repertoire is encodable (``id``/``add``/``mul``/
``min``/``max``/``mac`` per :func:`~repro.ir.vector.exact_opcode`, plus
one level of accumulator composite over it).  Anything else raises
:class:`UnsupportedForNative` — the design then runs on the vector
engine, never on approximated semantics.
"""

from __future__ import annotations

import numpy as np

from repro.ir.ops import Op
from repro.ir.vector import VectorProgram, exact_opcode

#: Exported entry point of the executor shared object.
EXECUTOR_SYMBOL = "repro_exec"

#: Record kinds and op tags of the instruction stream (tag 0: no ``f``).
_COPY, _COMPUTE = 0, 1
_TAGS = {"id": 1, "add": 2, "mul": 3, "min": 4, "max": 5, "mac": 6}
_ARITY = {"id": 1, "add": 2, "mul": 2, "min": 2, "max": 2, "mac": 3}
#: Tags an accumulator may combine with: ``h(prev, inner)`` is binary.
_COMBINE = ("add", "mul", "min", "max")

EXECUTOR_SOURCE = r"""/* repro native executor: exact int64 level passes */
#include <stdint.h>

#if !defined(__GNUC__) && !defined(__clang__)
#error "the native executor needs GCC/Clang overflow builtins"
#endif

typedef int64_t i64;
typedef int32_t i32;

enum { COPY = 0, COMPUTE = 1 };
enum { NONE = 0, ID = 1, ADD = 2, MUL = 3, MIN = 4, MAX = 5, MAC = 6 };

#define X(k) r[a[k][i]]
#define DO_ADD(o, x, y) if (__builtin_add_overflow((x), (y), &(o))) return 1
#define DO_MUL(o, x, y) if (__builtin_mul_overflow((x), (y), &(o))) return 1
#define DO_MIN(o, x, y) { i64 x_ = (x), y_ = (y); o = x_ < y_ ? x_ : y_; }
#define DO_MAX(o, x, y) { i64 x_ = (x), y_ = (y); o = x_ > y_ ? x_ : y_; }
#define DO_ID(o, x, y) o = (x)
#define LOOP(BODY) for (i = 0; i < w; ++i) { i64 o, t, p; (void)t; (void)p; \
                                             BODY; r[d[i]] = o; } break

/* One loop per (h, f) pair, so no tag is tested per element. */
#define COMPOSITE(HDO) switch (f) { \
  case ID:  LOOP(DO_ID(t, X(1), 0); HDO(o, X(0), t)); \
  case ADD: LOOP(DO_ADD(t, X(1), X(2)); HDO(o, X(0), t)); \
  case MUL: LOOP(DO_MUL(t, X(1), X(2)); HDO(o, X(0), t)); \
  case MIN: LOOP(DO_MIN(t, X(1), X(2)); HDO(o, X(0), t)); \
  case MAX: LOOP(DO_MAX(t, X(1), X(2)); HDO(o, X(0), t)); \
  case MAC: LOOP(DO_MUL(p, X(2), X(3)); DO_ADD(t, X(1), p); \
                 HDO(o, X(0), t)); \
  default: return 2; }

static const int ARITY[] = {0, 1, 2, 2, 2, 2, 3};

/* Whether a record header names a record the executor can run: a copy
   reads one column; a stock op reads its arity; h(prev, f(...)) reads
   one more than f, with a binary h. */
static int runnable(long kind, long h, long f, long m) {
  if (h < NONE || h > MAC || f < NONE || f > MAC) return 0;
  if (kind == COPY) return m == 1;
  if (kind != COMPUTE || h == NONE || h == ID) return 0;
  if (f == NONE) return m == ARITY[h];
  return h != MAC && m == ARITY[f] + 1;
}

/* Whether `code[0..n)` is a well-formed stream whose every slot lies in
   [0, stride): checked once per call, so a bad stream never touches
   memory outside the matrix. */
static int well_formed(long stride, const i32 *code, long n) {
  long pc = 0, j, end;
  while (pc < n) {
    long w, m;
    if (n - pc < 5) return 0;
    w = code[pc + 1]; m = code[pc + 4];
    if (!runnable(code[pc], code[pc + 2], code[pc + 3], m)) return 0;
    if (w < 0 || (n - pc - 5) / (m + 1) < w) return 0;
    end = pc + 5 + (m + 1) * w;
    for (j = pc + 5; j < end; ++j)
      if (code[j] < 0 || code[j] >= stride) return 0;
    pc = end;
  }
  return 1;
}

/* Run the program `code[0..n)` over every row of the (rows, stride)
   matrix `v` in place.  0: done; 1: a checked op overflowed; 2: the
   code stream is malformed. */
int repro_exec(i64 *v, long rows, long stride, const i32 *code, long n) {
  long s, i;
  if (!well_formed(stride, code, n)) return 2;
  for (s = 0; s < rows; ++s) {
    i64 *r = v + s * stride;
    long pc = 0;
    while (pc < n) {
      const i32 *a[4];
      const i32 *d = code + pc + 5;
      long k, w = code[pc + 1], h = code[pc + 2], f = code[pc + 3];
      long m = code[pc + 4];
      for (k = 0; k < m; ++k) a[k] = d + (k + 1) * w;
      if (code[pc] == COPY) {
        for (i = 0; i < w; ++i) r[d[i]] = X(0);
      } else if (f == NONE) {
        switch (h) {
        case ADD: LOOP(DO_ADD(o, X(0), X(1)));
        case MUL: LOOP(DO_MUL(o, X(0), X(1)));
        case MIN: LOOP(DO_MIN(o, X(0), X(1)));
        case MAX: LOOP(DO_MAX(o, X(0), X(1)));
        case MAC: LOOP(DO_MUL(p, X(1), X(2)); DO_ADD(o, X(0), p));
        default: return 2;
        }
      } else {
        switch (h) {
        case ADD: COMPOSITE(DO_ADD); break;
        case MUL: COMPOSITE(DO_MUL); break;
        case MIN: COMPOSITE(DO_MIN); break;
        case MAX: COMPOSITE(DO_MAX); break;
        default: return 2;
        }
      }
      pc += 5 + (m + 1) * w;
    }
  }
  return 0;
}
"""


class UnsupportedForNative(Exception):
    """The program contains an op the executor cannot run exactly — run it
    on the ndarray kernels instead (custom Python callables, symbolic
    values)."""


def _tag(op: Op) -> str:
    tag = exact_opcode(op)
    if tag is None:
        raise UnsupportedForNative(
            f"op {op.name}/{op.arity} has no exact native encoding "
            f"(custom callable); the design stays on the ndarray kernels")
    return tag


def _op_tags(op: Op) -> tuple[int, int]:
    """``(h_tag, f_tag)`` of a compute group's op."""
    if exact_opcode(op) is None and op.components is not None:
        h, f = op.components
        h_tag, f_tag = _tag(h), _tag(f)
        if h_tag not in _COMBINE or _ARITY[f_tag] + 1 != op.arity:
            raise UnsupportedForNative(
                f"accumulator {op.name}/{op.arity} = {h_tag}(prev, "
                f"{f_tag}(...)) has no exact native encoding")
        return _TAGS[h_tag], _TAGS[f_tag]
    return _TAGS[_tag(op)], 0


def encode_program(program: VectorProgram) -> np.ndarray:
    """The ``int32`` instruction stream :data:`EXECUTOR_SOURCE` runs for
    ``program`` (input groups are gathered by the caller, not encoded).

    Raises :class:`UnsupportedForNative` for any op outside the exact
    repertoire and ``ValueError`` if a slot does not fit ``int32``.
    """
    if program.node_count > np.iinfo(np.int32).max:
        raise ValueError(f"{program.node_count} value slots exceed int32")
    parts = []
    for group in program.kernel_schedule():
        if group.kind == "input":
            continue
        if group.kind == "copy":
            kind, (h_tag, f_tag) = _COPY, (0, 0)
        else:
            kind, (h_tag, f_tag) = _COMPUTE, _op_tags(group.op)
        parts.append(np.array(
            [kind, group.width, h_tag, f_tag, len(group.operands)],
            dtype=np.int32))
        parts.append(group.dst.astype(np.int32))
        parts.extend(col.astype(np.int32) for col in group.operands)
    if not parts:
        return np.zeros(0, dtype=np.int32)
    return np.ascontiguousarray(np.concatenate(parts), dtype=np.int32)
