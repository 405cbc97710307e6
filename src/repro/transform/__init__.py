"""Algorithm transformations (Section II.C): adding indices, introducing
pipelining variables, eliminating broadcasts, and choosing accumulation
directions — deriving canonic-form recurrences from natural broadcast-form
statements."""

from repro.transform.reductions import (
    TransformError,
    WeightedReduction,
    build_recurrence,
    fused,
)
from repro.transform.streams import StreamSpec, propagation_direction

__all__ = [
    "StreamSpec",
    "TransformError",
    "WeightedReduction",
    "build_recurrence",
    "fused",
    "propagation_direction",
]
