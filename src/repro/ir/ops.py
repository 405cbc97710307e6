"""Operations appearing on the right-hand side of recurrence equations.

The paper keeps the combining functions abstract (``f`` and ``h`` in eq. (8));
correctness of a design depends only on data dependencies, not on what the
cells compute.  We carry an executable callable with each operation so the
systolic machine simulator can actually run synthesized designs and compare
against sequential references.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Op:
    """A named k-ary operation with executable semantics.

    ``fn`` receives the operand values in the order the equation lists them.
    ``int_kernel``, when present, is an *exact* int64 array kernel for the
    ndarray kernels (:mod:`repro.ir.vector`): it must either return values
    identical to mapping ``fn`` element-wise or raise
    ``IntegerFallback``/``OverflowError`` — never silently wrap.
    """

    name: str
    arity: int
    fn: Callable = field(compare=False, hash=False)
    int_kernel: Callable | None = field(
        default=None, compare=False, hash=False)
    #: For ops built by :func:`compose_accumulate`: the ``(h, f)`` pair the
    #: composite was assembled from.  Rewrite patterns use it to derive an
    #: exact array kernel (``repro.rewrite.patterns.FuseAccumulatorKernels``)
    #: without any bespoke wiring at the construction site.
    components: "tuple[Op, ...] | None" = field(
        default=None, compare=False, hash=False)

    def __call__(self, *args):
        if len(args) != self.arity:
            raise TypeError(
                f"op {self.name} expects {self.arity} operands, got {len(args)}")
        return self.fn(*args)

    def __repr__(self) -> str:
        return f"Op({self.name}/{self.arity})"


# -- the standard repertoire used by the paper's examples -------------------

IDENTITY = Op("id", 1, lambda x: x)
"""Pure data propagation (``w_{i,k} = w_{i-1,k}``)."""

ADD = Op("add", 2, lambda a, b: a + b)
MUL = Op("mul", 2, lambda a, b: a * b)
MIN = Op("min", 2, min)
MAX = Op("max", 2, max)

MAC = Op("mac", 3, lambda acc, a, b: acc + a * b)
"""Multiply-accumulate, the convolution cell action ``y + w*x``."""

MIN_PLUS = Op("min_plus", 2, lambda a, b: a + b)
"""The dynamic-programming body ``f(c_ik, c_kj) = c_ik + c_kj`` used by
optimal parenthesization / shortest path; combined with :data:`MIN` as ``h``."""


def make_op(name: str, arity: int, fn: Callable,
            int_kernel: Callable | None = None,
            components: "tuple[Op, ...] | None" = None) -> Op:
    """Create a custom operation (e.g. a parenthesization body that also
    tracks the split position).  ``int_kernel`` optionally supplies an
    exact int64 array kernel so the ndarray fast path applies
    (see :func:`repro.ir.vector.fused_int_kernel` for composing one);
    ``components`` records the ``(h, f)`` pair of an accumulator
    composite so structural backends (the rewrite patterns, the native
    C executor encoding) can recover the exact semantics of the lambda."""
    return Op(name, arity, fn, int_kernel, components)


def compose_accumulate(h: Op, f: Op) -> Op:
    """The accumulator composite ``hf(prev, *xs) = h(prev, f(*xs))``.

    The result carries no array kernel of its own — it records its
    ``components`` so the ``fuse-accumulators`` rewrite pattern of the pass
    pipeline can attach the composed exact int64 kernel when (and only
    when) both components are stock ops.  Construction sites therefore
    stay free of vector-engine plumbing.
    """
    return Op(f"{h.name}_after_{f.name}", f.arity + 1,
              lambda prev, *xs: h.fn(prev, f.fn(*xs)),
              components=(h, f))
