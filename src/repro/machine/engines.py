"""The single registry of execution engines.

Every place that dispatches on an execution strategy — the simulator,
verification, :class:`~repro.core.options.SynthesisOptions`, the CLI's
``--engine`` flags — draws from this enum, so adding an engine is one
edit here plus its dispatch arm.

:class:`Engine` subclasses :class:`str`, so existing string-based callers
(``run(..., engine="vector")``, serialized run records) keep working
unchanged; :func:`coerce_engine` is the one validation/normalisation
point, returning the canonical string value.
"""

from __future__ import annotations

from enum import Enum


class Engine(str, Enum):
    """Execution strategy for running a design's machine.

    * ``COMPILED`` — lower the microcode to integer-indexed form once and
      cache the artifacts on the design; fastest for repeated runs.
    * ``INTERPRETED`` — the cycle-by-cycle simulator; the oracle every
      other engine is checked against.
    * ``VECTOR`` — execute the lowered table as level-grouped ndarray
      kernels; batches multi-seed verification into one pass.
    * ``NATIVE`` — run the level-grouped table, encoded as data, on one C
      executor compiled once per toolchain and cached; falls back to the vector engine when no C
      toolchain is present or inputs leave exact int64 range.
    """

    COMPILED = "compiled"
    INTERPRETED = "interpreted"
    VECTOR = "vector"
    NATIVE = "native"

    def __str__(self) -> str:  # "compiled", not "Engine.COMPILED"
        return self.value


#: Canonical engine names, in documentation order.  The historical
#: constant — ``repro.core.verify.ENGINES`` re-exports it.
ENGINES: tuple[str, ...] = tuple(e.value for e in Engine)

#: One-line description per engine — the CLI derives its ``--engine`` help
#: from this table, so a new engine documents itself everywhere at once.
ENGINE_DESCRIPTIONS: dict[str, str] = {
    Engine.COMPILED.value:
        "lowers microcode to integer-indexed straight-line form (fast)",
    Engine.INTERPRETED.value:
        "the cycle-by-cycle oracle every other engine is checked against",
    Engine.VECTOR.value:
        "level-grouped ndarray kernels; batches multi-seed runs into one "
        "pass",
    Engine.NATIVE.value:
        "one C executor compiled once with the system toolchain and "
        "cached; falls back to 'vector' without a compiler or for "
        "Fraction/bignum inputs",
}


def engine_help(lead: str) -> str:
    """``--engine`` help text assembled from the registry (CLI helper)."""
    body = "; ".join(f"'{name}' {ENGINE_DESCRIPTIONS[name]}"
                     for name in ENGINES)
    return f"{lead}: {body}"


def coerce_engine(engine: "Engine | str") -> str:
    """Validate ``engine`` and return its canonical string value.

    Accepts an :class:`Engine` member or its string value; anything else
    raises ``ValueError`` with the historical ``unknown engine`` message.
    """
    if isinstance(engine, Engine):
        return engine.value
    try:
        return Engine(engine).value
    except ValueError:
        raise ValueError(f"unknown engine {engine!r} "
                         f"(expected one of {', '.join(ENGINES)})") from None
