"""The ndarray fast path run over input binding sets, kept as a test oracle.

Tests compare the C executor and the lowered machine against it; the
program itself runs through :func:`repro.ir.vector.execute_gathered`, the
tier that verification falls back to.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from repro.ir.vector import VectorProgram, execute_gathered


def execute_program(program: VectorProgram,
                    input_sets: Sequence[Mapping[str, Callable]],
                    ) -> np.ndarray:
    """Run the program for every input binding set at once.

    Returns the dense ``(len(input_sets), node_count)`` value matrix —
    int64 when the fast path held, object otherwise.  The fallback is
    transparent: overflow or non-integer inputs simply rerun the pass on
    object arrays.
    """
    return execute_gathered(program, program.gather().collect(input_sets))
