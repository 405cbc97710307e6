"""Dynamic programming (Sections IV–VI).

The high-level recurrence (8)::

    1 <= i < j <= n
    c_{i,j} = min_{i < k < j} f(c_{i,k}, c_{k,j}),    c_{i,i+1} = seed_i

has non-constant dependencies; :func:`dp_spec` states it as a
:class:`HighLevelSpec` for the automatic restructurer
(:mod:`repro.core.restructure`).

:func:`dp_system` is the paper's *hand-derived* system of mutually dependent
recurrences (the pseudocode of Section IV) against which the automatic
derivation is tested:

* **module m1** — the descending chain ``k = floor((i+j)/2) .. i+1``;
  variables ``ap`` (a′, carries ``c_{i,k}``), ``bp`` (b′, carries
  ``c_{k,j}``), ``cp`` (c′, the chain accumulator);
  local dependence matrix D1: ``cp=(0,0,-1), ap=(0,1,0), bp=(-1,0,0)``.
* **module m2** — the ascending chain ``k = floor((i+j)/2)+1 .. j-1``;
  variables ``app``/``bpp``/``cpp``;
  D2: ``cpp=(0,0,1), app=(0,1,0), bpp=(-1,0,0)``.
* **module comb** — statement A5: ``c_{i,j} = h(c'_{i,j,i+1}, c''_{i,j,j-1})``.

Global link statements (with the same labels as the paper):

* A1 — ``ap`` at the even-sum chain head comes from ``app`` at ``(i, j-1)``;
* A2 — ``bp`` at ``k = i+1`` comes from the combined result ``c_{i+1,j}``;
* A3 — ``app`` at ``k = j-1`` comes from ``c_{i,j-1}``;
* A4 — ``bpp`` at the odd-sum chain head comes from ``bp`` at ``(i+1, j)``;
* A5 — the combine reads both chain accumulators (gap >= 0: same-cell,
  same-cycle forwarding is allowed, matching ``σ >= max(λ, μ)``).
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.ir.affine import var
from repro.ir.indexset import Polyhedron, eq, ge, le
from repro.ir.ops import IDENTITY, MIN, MIN_PLUS, Op, make_op
from repro.ir.vector import fused_int_kernel
from repro.ir.program import (
    ArgSpec,
    HighLevelSpec,
    Module,
    OutputSpec,
    RecurrenceSystem,
)
from repro.ir.predicates import TRUE, at_least, at_most, equals
from repro.ir.statements import ComputeRule, Equation, InputRule, LinkRule
from repro.ir.variables import ExternalRef, Ref

I, J, K = var("i"), var("j"), var("k")
N = var("n")


def fused_accumulate(h: Op, f: Op) -> Op:
    """``hf(prev, x, y) = h(prev, f(x, y))`` — the chain-accumulation body
    ``c' := h(c'_{k±1}, f(a', b'))``.

    When both components are stock ops the fused op also carries the
    composed exact int64 kernel, so the ndarray kernels keep DP workloads
    on the array fast path instead of calling the lambda per element; the
    recorded ``components`` let the native executor encoding do the same.
    """
    return make_op(f"{h.name}_after_{f.name}", 3,
                   lambda prev, x, y: h.fn(prev, f.fn(x, y)),
                   int_kernel=fused_int_kernel(h, f),
                   components=(h, f))


def dp_spec(f: Op = MIN_PLUS, h: Op = MIN) -> HighLevelSpec:
    """Recurrence (8) as a high-level specification (input to Section III)."""
    domain = Polyhedron(("i", "j"),
                        [ge(I, 1), le(J, N), ge(J - I, 2)], params=("n",))
    init = Polyhedron(("i", "j"),
                      [ge(I, 1), le(J, N), *eq(J - I, 1)], params=("n",))
    return HighLevelSpec(
        name="dynamic-programming", dims=("i", "j"), domain=domain,
        target="c", reduction_index="k", k_lower=I + 1, k_upper=J - 1,
        body=f, combine=h,
        args=(ArgSpec(1, (0, 0)),    # c_{i,k}: j replaced by k
              ArgSpec(0, (0, 0))),   # c_{k,j}: i replaced by k
        init_domain=init, init_input="c0", params=("n",))


def _module1(f: Op, h: Op) -> Module:
    """Descending chain: ``k = floor((i+j)/2) .. i+1``."""
    domain = Polyhedron(
        ("i", "j", "k"),
        [ge(I, 1), le(J, N), ge(J - I, 2), ge(K - I, 1), ge(I + J - 2 * K, 0)],
        params=("n",))
    head = at_least(2 * K, I + J - 1)          # k == floor((i+j)/2)
    even_head = equals(2 * K, I + J)           # head and i+j even
    ap = Equation("ap", (
        InputRule("c0", (I, I + 1), guard=even_head & equals(J - I, 2)),
        LinkRule(ExternalRef.of("m2", "app", I, J - 1, K),
                 guard=even_head & at_least(J - I, 3), label="A1"),
        ComputeRule(IDENTITY, (Ref.of("ap", I, J - 1, K),),
                    guard=at_most(2 * K, I + J - 1)),
    ))
    bp = Equation("bp", (
        InputRule("c0", (I + 1, I + 2),
                  guard=equals(K, I + 1) & equals(J - I, 2)),
        LinkRule(ExternalRef.of("comb", "c", I + 1, J),
                 guard=equals(K, I + 1) & at_least(J - I, 3), label="A2"),
        ComputeRule(IDENTITY, (Ref.of("bp", I + 1, J, K),),
                    guard=at_least(K - I, 2)),
    ))
    cp = Equation("cp", (
        ComputeRule(f, (Ref.of("ap", I, J, K), Ref.of("bp", I, J, K)),
                    guard=head),
        ComputeRule(fused_accumulate(h, f),
                    (Ref.of("cp", I, J, K + 1),
                     Ref.of("ap", I, J, K), Ref.of("bp", I, J, K)),
                    guard=at_most(2 * K, I + J - 2)),
    ))
    return Module("m1", ("i", "j", "k"), domain, [ap, bp, cp])


def _module2(f: Op, h: Op) -> Module:
    """Ascending chain: ``k = floor((i+j)/2)+1 .. j-1``."""
    domain = Polyhedron(
        ("i", "j", "k"),
        [ge(I, 1), le(J, N), ge(2 * K - I - J, 1), ge(J - 1 - K, 0)],
        params=("n",))
    head = at_most(2 * K, I + J + 2)           # k == floor((i+j)/2) + 1
    app = Equation("app", (
        LinkRule(ExternalRef.of("comb", "c", I, J - 1),
                 guard=equals(K, J - 1), label="A3"),
        ComputeRule(IDENTITY, (Ref.of("app", I, J - 1, K),),
                    guard=at_most(K, J - 2)),
    ))
    bpp = Equation("bpp", (
        LinkRule(ExternalRef.of("m1", "bp", I + 1, J, K),
                 guard=equals(2 * K, I + J + 1), label="A4"),
        ComputeRule(IDENTITY, (Ref.of("bpp", I + 1, J, K),),
                    guard=at_least(2 * K, I + J + 2)),
    ))
    cpp = Equation("cpp", (
        ComputeRule(f, (Ref.of("app", I, J, K), Ref.of("bpp", I, J, K)),
                    guard=head),
        ComputeRule(fused_accumulate(h, f),
                    (Ref.of("cpp", I, J, K - 1),
                     Ref.of("app", I, J, K), Ref.of("bpp", I, J, K)),
                    guard=at_least(2 * K, I + J + 3)),
    ))
    return Module("m2", ("i", "j", "k"), domain, [app, bpp, cpp])


def _combine(h: Op) -> Module:
    """Statement A5 as its own (2-index) module."""
    domain = Polyhedron(("i", "j"),
                        [ge(I, 1), le(J, N), ge(J - I, 2)], params=("n",))
    left = Equation("left", (
        LinkRule(ExternalRef.of("m1", "cp", I, J, I + 1),
                 guard=TRUE, label="A5", min_gap=0),
    ))
    right = Equation("right", (
        LinkRule(ExternalRef.of("m2", "cpp", I, J, J - 1),
                 guard=TRUE, label="A5", min_gap=0),
    ), where=at_least(J - I, 3))
    c = Equation("c", (
        ComputeRule(IDENTITY, (Ref.of("left", I, J),),
                    guard=equals(J - I, 2)),
        ComputeRule(h, (Ref.of("left", I, J), Ref.of("right", I, J)),
                    guard=at_least(J - I, 3)),
    ))
    return Module("comb", ("i", "j"), domain, [left, right, c])


def dp_system(f: Op = MIN_PLUS, h: Op = MIN) -> RecurrenceSystem:
    """The paper's hand-derived system of mutually dependent recurrences."""
    comb_domain = Polyhedron(("i", "j"),
                             [ge(I, 1), le(J, N), ge(J - I, 2)], params=("n",))
    return RecurrenceSystem(
        "dp-two-chain", [_module1(f, h), _module2(f, h), _combine(h)],
        outputs=[OutputSpec("comb", "c", comb_domain, (I, J))],
        input_names=("c0",), params=("n",))


def dp_inputs(seeds: Sequence[object]) -> dict[str, Callable]:
    """Host bindings: ``c0(i, j) = c_{i,i+1}`` for ``j = i + 1`` (1-based).

    The seed function receives the full boundary index (both coordinates of
    the init-domain point) — the convention the automatic restructurer also
    emits, so the same bindings drive both systems.
    """
    values = list(seeds)

    def c0(i: int, j: int):
        if j != i + 1:
            raise KeyError(f"seed requested off the diagonal: ({i}, {j})")
        return values[i - 1]

    return {"c0": c0}
