"""Random canonic-form recurrence cases for the nonuniform pipeline.

A :class:`CaseDescriptor` is a small, JSON-serialisable recipe for one
fuzzing example: a generalised "triangle" reduction family

.. math::

    c_{i,j} = \\bigoplus_{k=i+lo}^{j-hi} f(\\text{args at } k),
    \\qquad j - i \\ge lo + hi

with seed values on the init band ``min(lo, hi) <= j - i <= lo + hi - 1``.
The family subsumes the paper's recurrence (6)/(8) (``lo = hi = 1``, args
``c(i,k), c(k,j)``) and deliberately exceeds its figures:

* **chain structure** — argument lists where both replaced coordinates
  differ (two chains, ascending + descending, the Section IV shape), where
  both coincide (a single chain of either direction) and unary bodies
  (one-argument reductions);
* **non-uniform offsets** — args may carry an extra constant offset in a
  non-replaced coordinate, giving dependence shapes the restructurer must
  either close over or cleanly reject;
* **reduction bounds** — ``lo``/``hi`` vary, moving the init band and the
  envelope-crossing split point;
* **op tables** — stock ops (exact int64 kernels) and custom ops without
  ``int_kernel`` (object path), with ``combine`` restricted to
  associative + commutative ops so a fold order change cannot alter the
  value (the chains fold the reduction in a different order than a direct
  evaluation);
* **value pools** — small ints, int64-boundary values (``±2**63``),
  bignums beyond int64 and exact ``Fraction`` values, so every example
  stresses the native engine's int64/object-array decision.

Seed values are deterministic in the descriptor: the init point ``(i, j)``
takes ``pool[(3*i + 5*j) % len(pool)]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping

from repro.ir.affine import var
from repro.ir.indexset import Polyhedron, ge, le
from repro.ir.ops import ADD, IDENTITY, MAX, MIN, MIN_PLUS, MUL, Op, make_op
from repro.ir.program import ArgSpec, HighLevelSpec

_I, _J, _N = var("i"), var("j"), var("n")

#: Binary body ops: arbitrary semantics allowed (the body is applied once
#: per reduction term, so it needs no algebraic properties).  The last two
#: are custom ops *without* ``int_kernel`` — they keep the native engine on
#: its object tier by construction.
BODY2_OPS: dict[str, Op] = {
    "min_plus": MIN_PLUS,
    "mul": MUL,
    "min": MIN,
    "max": MAX,
    "affmix": make_op("affmix", 2, lambda a, b: a + 2 * b),
    "mixmul": make_op("mixmul", 2, lambda a, b: a + b + a * b),
}

#: Unary body ops for one-argument reductions.
BODY1_OPS: dict[str, Op] = {
    "id": IDENTITY,
    "dbl": make_op("dbl", 1, lambda a: 2 * a),
    "neg": make_op("neg", 1, lambda a: -a),
}

#: Combine ops must be associative and commutative: the restructured system
#: folds each chain separately (descending chain, then ascending chain,
#: then one join), while the dumb oracle folds k ascending — only
#: reassociation-invariant ops make the two comparable.
COMBINE_OPS: dict[str, Op] = {
    "min": MIN,
    "max": MAX,
    "add": ADD,
    "mul": MUL,
}

Value = "int | Fraction"


@dataclass(frozen=True)
class CaseDescriptor:
    """One fuzzing example, fully determined and JSON-serialisable.

    ``args`` is a tuple of ``(replaced_coord, (off_i, off_j))`` pairs; the
    offset applies to the *non*-replaced coordinates (the replaced one is
    substituted by the reduction index).  ``pool`` is the seed value pool
    indexed per init point (see module docstring).
    """

    n: int
    lo: int
    hi: int
    args: tuple  # tuple[tuple[int, tuple[int, int]], ...]
    body: str
    combine: str
    pool: tuple  # tuple[int | Fraction, ...]
    interconnect: str = "fig1"
    time_bound: int = 3

    def __post_init__(self) -> None:
        if self.lo < 1 or self.hi < 1:
            raise ValueError("reduction bounds lo/hi must be >= 1")
        if self.n < self.lo + self.hi + 1:
            raise ValueError(
                f"n={self.n} leaves the computation domain empty "
                f"(needs n >= lo + hi + 1 = {self.lo + self.hi + 1})")
        table = BODY1_OPS if len(self.args) == 1 else BODY2_OPS
        if self.body not in table:
            raise ValueError(f"unknown {len(self.args)}-ary body {self.body!r}")
        if self.combine not in COMBINE_OPS:
            raise ValueError(f"unknown combine {self.combine!r} "
                             "(must be associative + commutative)")
        if not self.pool:
            raise ValueError("empty seed value pool")

    @property
    def body_op(self) -> Op:
        table = BODY1_OPS if len(self.args) == 1 else BODY2_OPS
        return table[self.body]

    @property
    def combine_op(self) -> Op:
        return COMBINE_OPS[self.combine]

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "n": self.n, "lo": self.lo, "hi": self.hi,
            "args": [[rc, list(off)] for rc, off in self.args],
            "body": self.body, "combine": self.combine,
            "pool": [_encode_value(v) for v in self.pool],
            "interconnect": self.interconnect,
            "time_bound": self.time_bound,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "CaseDescriptor":
        return cls(
            n=int(data["n"]), lo=int(data["lo"]), hi=int(data["hi"]),
            args=tuple((int(rc), (int(off[0]), int(off[1])))
                       for rc, off in data["args"]),
            body=data["body"], combine=data["combine"],
            pool=tuple(_decode_value(v) for v in data["pool"]),
            interconnect=data.get("interconnect", "fig1"),
            time_bound=int(data.get("time_bound", 3)),
        )


def _encode_value(value):
    if isinstance(value, Fraction):
        return {"frac": [value.numerator, value.denominator]}
    return value


def _decode_value(value):
    if isinstance(value, dict):
        num, den = value["frac"]
        return Fraction(num, den)
    return value


def seed_value(pool, i: int, j: int):
    """The deterministic seed value of init point ``(i, j)``."""
    return pool[(3 * i + 5 * j) % len(pool)]


def build_inputs(desc: CaseDescriptor) -> dict[str, Callable]:
    """Host input binding for the spec built from ``desc``."""
    pool = desc.pool
    return {"c0": lambda i, j: seed_value(pool, i, j)}


def build_spec(desc: CaseDescriptor) -> HighLevelSpec:
    """The :class:`HighLevelSpec` the descriptor denotes.

    Domain: ``1 <= i``, ``j <= n``, ``j - i >= lo + hi``; init band:
    ``min(lo, hi) <= j - i <= lo + hi - 1``.  Whether the spec is *closed*
    (every referenced point lands in domain or init band) depends on the
    argument offsets — the oracle rejects unclosed descriptors before the
    pipeline ever sees them.
    """
    args = tuple(ArgSpec(rc, tuple(off)) for rc, off in desc.args)
    bmin = min(desc.lo, desc.hi)
    domain = Polyhedron(
        ("i", "j"),
        [ge(_I, 1), le(_J, _N), ge(_J - _I, desc.lo + desc.hi)],
        params=("n",))
    init = Polyhedron(
        ("i", "j"),
        [ge(_I, 1), le(_J, _N), ge(_J - _I, bmin),
         le(_J - _I, desc.lo + desc.hi - 1)],
        params=("n",))
    return HighLevelSpec(
        name="fuzz", dims=("i", "j"), domain=domain, target="c",
        reduction_index="k",
        k_lower=_I + desc.lo, k_upper=_J - desc.hi,
        body=desc.body_op, combine=desc.combine_op, args=args,
        init_domain=init, init_input="c0", params=("n",))
