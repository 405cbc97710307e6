"""Synthesis options: one frozen value object for the search bounds.

The batch engine needs the bounds of :func:`repro.core.nonuniform.synthesize`
as a hashable, serialisable value — they are part of the design-cache key —
so they live here rather than as loose keyword arguments.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SynthesisOptions:
    """Bounds of the synthesis search.

    ``time_bound`` / ``space_bound`` bound the schedule and allocation
    coefficient magnitudes.  The offset ranges are fixed: schedules try
    offset 0 and escalate to offsets in ``[-time_bound, time_bound]`` only
    if needed; space maps try translation-free maps, then small
    translations of low-dimensional modules, and escalate to offsets in
    ``[-1, 1]`` everywhere only if neither plan lowers.
    """

    time_bound: int = 3
    space_bound: int = 1

    def __post_init__(self) -> None:
        if self.time_bound < 1 or self.space_bound < 0:
            raise ValueError(
                f"bounds out of range: time_bound={self.time_bound}, "
                f"space_bound={self.space_bound}")

    def to_dict(self) -> dict:
        """JSON-safe canonical form (part of the design-cache key)."""
        return {"time_bound": self.time_bound,
                "space_bound": self.space_bound}
