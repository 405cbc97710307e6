"""Convolution (Example 1 of Section II.C).

``y_i = sum_{k=1..s} w_k * x_{i-k+1}`` (1-based; ``x_m = 0`` for ``m < 1``).

Broadcasting of ``x`` and ``w`` is eliminated by adding one more index to all
variables, after which two index transformations produce the two canonic
recurrences of the paper:

* **backward** (eq. 4): ``y_{i,k} = y_{i,k-1} + w_{i,k} x_{i,k}`` — the
  accumulation runs k = 1..s; dependence matrix columns
  ``y=(0,1), x=(1,1), w=(1,0)``;
* **forward** (eq. 5): ``y_{i,k} = y_{i,k+1} + w_{i,k} x_{i,k}`` — k runs
  s..1; columns ``y=(0,-1), x=(1,1), w=(1,0)``.

Design W2 arises from the backward recurrence only; W1 and R2 from the
forward one only (Tables 1 and 2) — the exploration benchmark reproduces
that split.
"""

from __future__ import annotations

from typing import Sequence

from repro.ir.affine import var
from repro.ir.indexset import Polyhedron, eq, ge, le
from repro.ir.ops import IDENTITY, MAC, MUL
from repro.ir.program import Module, OutputSpec, RecurrenceSystem
from repro.ir.predicates import at_least, equals
from repro.ir.statements import ComputeRule, Equation, InputRule
from repro.ir.variables import Ref

I, K = var("i"), var("k")


def _domain() -> Polyhedron:
    return Polyhedron.box({"i": (1, "n"), "k": (1, "s")}, params=("n", "s"))


def _w_equation() -> Equation:
    """``w_{i,k} = w_{i-1,k}``; boundary ``w_{0,k} = w_k``."""
    return Equation("w", (
        InputRule("w", (K,), guard=equals(I, 1)),
        ComputeRule(IDENTITY, (Ref.of("w", I - 1, K),),
                    guard=at_least(I, 2)),
    ))


def _x_equation() -> Equation:
    """``x_{i,k} = x_{i-1,k-1}``; boundaries ``x_{i,1} = x_i`` and
    ``x_{1,k} = 0`` for k >= 2 (the paper's zero padding)."""
    return Equation("x", (
        InputRule("x", (I,), guard=equals(K, 1)),
        InputRule("zero", (), guard=equals(I, 1) & at_least(K, 2)),
        ComputeRule(IDENTITY, (Ref.of("x", I - 1, K - 1),),
                    guard=at_least(I, 2) & at_least(K, 2)),
    ))


def convolution_backward() -> RecurrenceSystem:
    """The paper's recurrence (4): accumulate with k increasing."""
    y = Equation("y", (
        ComputeRule(MUL, (Ref.of("w", I, K), Ref.of("x", I, K)),
                    guard=equals(K, 1)),
        ComputeRule(MAC, (Ref.of("y", I, K - 1),
                          Ref.of("w", I, K), Ref.of("x", I, K)),
                    guard=at_least(K, 2)),
    ))
    module = Module("conv", ("i", "k"), _domain(),
                    [_w_equation(), _x_equation(), y])
    out_domain = Polyhedron(("i", "k"),
                            [ge(I, 1), le(I, "n"), *eq(K, var("s"))],
                            params=("n", "s"))
    return RecurrenceSystem(
        "convolution-backward", [module],
        outputs=[OutputSpec("conv", "y", out_domain, (I,))],
        input_names=("w", "x", "zero"), params=("n", "s"))


def convolution_forward() -> RecurrenceSystem:
    """The paper's recurrence (5): accumulate with k decreasing."""
    S = var("s")
    y = Equation("y", (
        ComputeRule(MUL, (Ref.of("w", I, K), Ref.of("x", I, K)),
                    guard=equals(K, S)),
        ComputeRule(MAC, (Ref.of("y", I, K + 1),
                          Ref.of("w", I, K), Ref.of("x", I, K)),
                    guard=at_least(S - K, 1)),
    ))
    module = Module("conv", ("i", "k"), _domain(),
                    [_w_equation(), _x_equation(), y])
    out_domain = Polyhedron(("i", "k"),
                            [ge(I, 1), le(I, "n"), *eq(K, 1)],
                            params=("n", "s"))
    return RecurrenceSystem(
        "convolution-forward", [module],
        outputs=[OutputSpec("conv", "y", out_domain, (I,))],
        input_names=("w", "x", "zero"), params=("n", "s"))


def classify_design(flows) -> str | None:
    """Name a convolution design in Kung's taxonomy [12] from its flows.

    * **W1** — weights stay; inputs and results move in opposite directions.
    * **W2** — weights stay; results move in the same direction as inputs
      but faster (Kung: results at speed 1, inputs at 1/2).
    * **R1** — results stay; inputs and weights move in opposite directions.
    * **R2** — results stay; inputs move in the same direction as weights
      but faster (Kung: inputs at speed 1, weights at 1/2).

    The mirror images (same stationary stream and co-direction but with the
    speed relation reversed) are labelled ``W2m`` / ``R2m``; they are valid
    designs but *not* the ones Kung's taxonomy names — this distinction is
    what makes the paper's Tables 1 and 2 disjoint.

    Returns ``None`` for designs outside the taxonomy.
    """
    y, x, w = flows["y"], flows["x"], flows["w"]
    if w.stays and not y.stays and not x.stays:
        if y.direction == tuple(-v for v in x.direction):
            return "W1"
        if y.direction == x.direction and y.speed > x.speed:
            return "W2"
        if y.direction == x.direction and y.speed < x.speed:
            return "W2m"
    if y.stays and not w.stays and not x.stays:
        if w.direction == tuple(-v for v in x.direction):
            return "R1"
        if x.direction == w.direction and x.speed > w.speed:
            return "R2"
        if x.direction == w.direction and x.speed < w.speed:
            return "R2m"
    return None


def convolution_inputs(x: Sequence[float], w: Sequence[float]) -> dict:
    """Host input bindings for either recurrence (1-based host indexing)."""
    xs = list(x)
    ws = list(w)

    def x_in(i: int) -> float:
        return xs[i - 1]

    def w_in(k: int) -> float:
        return ws[k - 1]

    return {"x": x_in, "w": w_in, "zero": lambda: 0}
