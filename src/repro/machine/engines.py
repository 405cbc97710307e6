"""The single registry of execution engines.

The two places that dispatch on an execution strategy — the simulator's
``run(..., engine=)`` and ``verify_design(..., engine=)`` — draw from this
enum.

:class:`Engine` subclasses :class:`str`, so string-based callers
(``run(..., engine="native")``, serialized run records) keep working;
:func:`coerce_engine` is the one validation/normalisation point,
returning the canonical string value.
"""

from __future__ import annotations

import warnings
from enum import Enum


class Engine(str, Enum):
    """Execution strategy for running a design's machine.

    * ``INTERPRETED`` — the cycle-by-cycle simulator; the oracle the fast
      engine is checked against.
    * ``NATIVE`` — the one fast engine: the lowered operation table runs
      on one C executor compiled once per toolchain and cached, falls back
      to level-grouped ndarray kernels without a toolchain or for ops
      outside its repertoire, and to exact object arrays for non-int64
      inputs or on int64 overflow.
    """

    INTERPRETED = "interpreted"
    NATIVE = "native"

    def __str__(self) -> str:  # "native", not "Engine.NATIVE"
        return self.value


#: Canonical engine names, in documentation order.
ENGINES: tuple[str, ...] = tuple(e.value for e in Engine)

#: Engine names folded into ``native``; still accepted, with a warning.
RETIRED_ENGINES: dict[str, str] = {"compiled": "native", "vector": "native"}


def coerce_engine(engine: "Engine | str") -> str:
    """Validate ``engine`` and return its canonical string value.

    Accepts an :class:`Engine` member or its string value.  A retired name
    (``"compiled"``, ``"vector"``) maps to its replacement with a
    ``DeprecationWarning``; anything else raises ``ValueError``.
    """
    if isinstance(engine, Engine):
        return engine.value
    replacement = RETIRED_ENGINES.get(engine)
    if replacement is not None:
        warnings.warn(f"engine {engine!r} is retired; use {replacement!r}",
                      DeprecationWarning, stacklevel=3)
        return replacement
    try:
        return Engine(engine).value
    except ValueError:
        raise ValueError(f"unknown engine {engine!r} "
                         f"(expected one of {', '.join(ENGINES)})") from None
