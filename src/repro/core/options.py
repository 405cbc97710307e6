"""Synthesis options: one frozen value object for the search bounds.

The batch engine needs the bounds of :func:`repro.core.nonuniform.synthesize`
as a hashable, serialisable value — they are part of the design-cache key —
so they live here rather than as loose keyword arguments.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SynthesisOptions:
    """Bounds and offset ranges of the synthesis search.

    ``time_bound`` / ``space_bound`` bound the schedule and allocation
    coefficient magnitudes; ``schedule_offsets`` is the range of per-module
    schedule constants tried before escalation; ``space_offsets=None`` tries
    translation-free space maps first and escalates to offsets in ``[-1, 1]``
    only if needed.
    """

    time_bound: int = 3
    space_bound: int = 1
    schedule_offsets: tuple[int, ...] = (0,)
    space_offsets: tuple[int, ...] | None = None

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

    def to_dict(self) -> dict:
        """JSON-safe canonical form (part of the design-cache key)."""
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
