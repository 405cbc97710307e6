"""Optimal parenthesization (matrix-chain ordering) — the paper's flagship
dynamic-programming application.

Recurrence (8) with value tuples ``(r_left, r_right, cost, tree)``: the body
``f`` joins two sub-chains (adding the multiplication cost
``r_left * r_mid * r_right``), the combiner ``h`` keeps the cheaper
parenthesisation (ties broken by the tree string, so every execution order —
sequential, two-chain system, systolic machine — picks the same tree).
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.ir.ops import Op, make_op
from repro.ir.program import HighLevelSpec
from repro.problems.dynamic_programming import dp_spec


def paren_body() -> Op:
    """``f(left, right)``: join two adjacent sub-chains."""

    def fn(left: tuple, right: tuple) -> tuple:
        rl, rm, cl, tl = left
        rm2, rr, cr, tr = right
        if rm != rm2:
            raise ValueError(f"inner dimensions differ: {rm} vs {rm2}")
        return (rl, rr, cl + cr + rl * rm * rr, f"({tl}*{tr})")

    return make_op("chain_join", 2, fn)


def paren_combine() -> Op:
    """``h``: keep the cheaper (deterministically tie-broken) alternative."""
    return make_op("cheaper", 2,
                   lambda a, b: min(a, b, key=lambda v: (v[2], v[3])))


def parenthesization_spec() -> HighLevelSpec:
    """Recurrence (8) instantiated for matrix-chain ordering."""
    spec = dp_spec(paren_body(), paren_combine())
    return spec


def parenthesization_inputs(dims: Sequence[int]) -> dict[str, Callable]:
    """Seeds: ``c_{i,i+1} = (r_i, r_{i+1}, 0, "Ai")`` for a chain whose
    boundary dimensions are ``dims`` (``len(dims) = n``)."""
    r = list(dims)

    def c0(i: int, j: int) -> tuple:
        if j != i + 1:
            raise KeyError(f"seed requested off the diagonal: ({i}, {j})")
        return (r[i - 1], r[i], 0, f"A{i}")

    return {"c0": c0}
