"""Ready-made broadcast-form problem statements for the transformer tests.

These are the *natural* formulations (with broadcasts) from which
:func:`repro.transform.reductions.build_recurrence` derives canonic-form
recurrences automatically — the step the paper performs by hand at the start
of Section II.C.
"""

from __future__ import annotations

from typing import Sequence

from repro.ir.affine import const, var
from repro.ir.ops import ADD, MUL
from repro.transform.reductions import WeightedReduction
from repro.transform.streams import StreamSpec

I, K = var("i"), var("k")


def convolution_reduction() -> WeightedReduction:
    """``y_i = sum_{k=1..s} w[k] * x[i-k+1]`` — Example 1.

    Stream ``w`` reads host element ``k`` (constant along ``(1, 0)``),
    stream ``x`` reads ``i - k + 1`` (constant along ``(1, 1)``).
    """
    return WeightedReduction(
        name="conv",
        dims=("i", "k"),
        outer_range=(const(1), var("n")),
        inner_range=(const(1), var("s")),
        streams=(StreamSpec("w", (K,)),
                 StreamSpec("x", (I - K + 1,))),
        term=MUL,
        combine=ADD,
        params=("n", "s"))


def matvec_reduction() -> WeightedReduction:
    """``y_i = sum_{j=1..n} A[i,j] * x[j]`` — matrix-vector product.

    ``A`` is consumed once per point (no pipelining direction exists; it
    enters directly), ``x_j`` is constant along ``(1, 0)`` and pipelines.
    """
    return WeightedReduction(
        name="matvec",
        dims=("i", "k"),
        outer_range=(const(1), var("n")),
        inner_range=(const(1), var("n")),
        streams=(StreamSpec("A", (I, K)),
                 StreamSpec("x", (K,))),
        term=MUL,
        combine=ADD,
        params=("n",))


def convolution_transform_inputs(x: Sequence[float],
                                 w: Sequence[float]) -> dict:
    """Input bindings for the *derived* convolution systems.

    Unlike the hand-written recurrences — which route the zero padding
    through a dedicated ``zero`` input — the derived systems fetch
    ``x[i-k+1]`` directly at the pipeline boundary, so the binding pads.
    """
    xs = list(x)
    ws = list(w)

    def x_in(m: int) -> float:
        return xs[m - 1] if 1 <= m <= len(xs) else 0.0

    def w_in(k: int) -> float:
        return ws[k - 1]

    return {"x": x_in, "w": w_in}


def matvec_transform_inputs(A, x) -> dict:
    """Input bindings for the derived matvec system (1-based)."""
    return {"A": lambda i, j: A[i - 1][j - 1],
            "x": lambda j: x[j - 1]}
