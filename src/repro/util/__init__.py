"""Small shared utilities: exact integer math, validation helpers and
append-only JSONL journals."""

from repro.util.intmath import (
    extended_gcd,
    gcd_vector,
    integer_solve,
    is_integer_matrix,
    lcm,
)

__all__ = [
    "extended_gcd",
    "gcd_vector",
    "integer_solve",
    "is_integer_matrix",
    "lcm",
]
