"""Synthesis options: one frozen value object instead of loose kwargs.

:func:`repro.core.nonuniform.synthesize` historically took four keyword
arguments (``time_bound``, ``space_bound``, ``schedule_offsets``,
``space_offsets``).  The batch engine needs the same knobs as a hashable,
serialisable value — they are part of the design-cache key — so they are
consolidated here.  The old kwargs went through one release of
``DeprecationWarning`` and are now rejected with a :class:`TypeError`
carrying the migration hint (see :func:`resolve_options`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.engines import Engine, coerce_engine


#: Sentinel distinguishing "not passed" from a meaningful ``None``
#: (``space_offsets=None`` means "escalate only if needed").
_UNSET = object()


@dataclass(frozen=True)
class SynthesisOptions:
    """Bounds and offset ranges of the synthesis search.

    ``time_bound`` / ``space_bound`` bound the schedule and allocation
    coefficient magnitudes; ``schedule_offsets`` is the range of per-module
    schedule constants tried before escalation; ``space_offsets=None`` tries
    translation-free space maps first and escalates to offsets in ``[-1, 1]``
    only if needed.

    ``engine`` selects the execution strategy downstream consumers
    (verification, sweep cross-checks) use to run the design's machine:
    ``"native"`` (default) runs the lowered table on one shared C
    executor, falling back to ndarray kernels and then to exact object
    arrays, and caches every value-independent artifact on the design;
    ``"interpreted"`` is the cycle-by-cycle oracle.
    It does not influence *which* design is synthesized, so it is
    deliberately **not** part of :meth:`to_dict` (and therefore not part of
    the design-cache key).
    """

    time_bound: int = 3
    space_bound: int = 1
    schedule_offsets: tuple[int, ...] = (0,)
    space_offsets: tuple[int, ...] | None = None
    engine: Engine | str = "native"

    def __post_init__(self) -> None:
        object.__setattr__(self, "schedule_offsets",
                           tuple(int(o) for o in self.schedule_offsets))
        if self.space_offsets is not None:
            object.__setattr__(self, "space_offsets",
                               tuple(int(o) for o in self.space_offsets))
        if self.time_bound < 1 or self.space_bound < 0:
            raise ValueError(
                f"bounds out of range: time_bound={self.time_bound}, "
                f"space_bound={self.space_bound}")
        # Engine members are str subclasses; store the canonical string so
        # equality/hash match options built from plain strings.
        object.__setattr__(self, "engine", coerce_engine(self.engine))

    def to_dict(self) -> dict:
        """JSON-safe canonical form (part of the design-cache key).

        Excludes ``engine``: execution strategy does not affect the
        synthesized design, so two options differing only in engine share
        cache entries."""
        return {
            "time_bound": self.time_bound,
            "space_bound": self.space_bound,
            "schedule_offsets": list(self.schedule_offsets),
            "space_offsets": (None if self.space_offsets is None
                              else list(self.space_offsets)),
        }

    @staticmethod
    def from_dict(data: dict) -> "SynthesisOptions":
        return SynthesisOptions(
            time_bound=data["time_bound"],
            space_bound=data["space_bound"],
            schedule_offsets=tuple(data["schedule_offsets"]),
            space_offsets=(None if data["space_offsets"] is None
                           else tuple(data["space_offsets"])))


def resolve_options(options: SynthesisOptions | None,
                    time_bound: object = _UNSET,
                    space_bound: object = _UNSET,
                    schedule_offsets: object = _UNSET,
                    space_offsets: object = _UNSET) -> SynthesisOptions:
    """Reject the legacy loose kwargs with a migration hint.

    The ``time_bound``/``space_bound``/``schedule_offsets``/``space_offsets``
    kwargs of :func:`~repro.core.nonuniform.synthesize` spent one release
    as a :class:`DeprecationWarning` shim; they now raise :class:`TypeError`
    naming the replacement so stragglers get an actionable error instead of
    a silently narrowing surface.
    """
    legacy = {name: value for name, value in [
        ("time_bound", time_bound),
        ("space_bound", space_bound),
        ("schedule_offsets", schedule_offsets),
        ("space_offsets", space_offsets),
    ] if value is not _UNSET}
    if legacy:
        kwargs = ", ".join(f"{name}={value!r}"
                           for name, value in sorted(legacy.items()))
        raise TypeError(
            f"synthesize() no longer accepts the legacy kwargs "
            f"{sorted(legacy)}; pass options=SynthesisOptions({kwargs}) "
            "instead")
    return options if options is not None else SynthesisOptions()
