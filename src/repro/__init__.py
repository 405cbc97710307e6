"""repro — a reproduction of Guerra & Melhem, *Synthesizing Non-Uniform
Systolic Designs* (Purdue CSD-TR-621 / ICPP 1986).

The package implements the paper's full synthesis pipeline:

* :mod:`repro.ir` — recurrence/loop IR with affine index machinery;
* :mod:`repro.deps` — constant and non-constant dependence analysis;
* :mod:`repro.schedule` — linear time functions (single and multi-module);
* :mod:`repro.space` — processor allocation (diophantine ``S D = Δ K``);
* :mod:`repro.chains` — the availability preorder and chain decomposition;
* :mod:`repro.core` — the two-step refinement procedure, restructuring,
  synthesis, exploration and verification;
* :mod:`repro.arrays` — interconnection patterns and data-flow analysis;
* :mod:`repro.machine` — a cycle-accurate, strictly local systolic machine;
* :mod:`repro.problems` — the paper's worked problems;
* :mod:`repro.transform` — Section II.C algorithm transformations
  (broadcast elimination / pipelining derivation);
* :mod:`repro.reference` — sequential golden models;
* :mod:`repro.report` — design tables and ASCII array figures.

Quickstart::

    from repro import problems, core, arrays
    system = problems.dp_system()
    design = core.synthesize(system, {"n": 8}, arrays.FIG2_EXTENDED)
    print(design.summary())
"""

from repro import arrays, chains, core, deps, ir, machine, problems, reference
from repro import report, schedule, space, transform
from repro import api
from repro.core import (
    Design,
    SynthesisError,
    SynthesisOptions,
    coarse_timing,
    explore_uniform,
    restructure,
    run_sweep,
    synthesize,
    verify_design,
)

__version__ = "1.1.0"

__all__ = [
    "Design",
    "SynthesisError",
    "SynthesisOptions",
    "api",
    "arrays",
    "chains",
    "coarse_timing",
    "core",
    "deps",
    "explore_uniform",
    "ir",
    "machine",
    "problems",
    "reference",
    "report",
    "restructure",
    "run_sweep",
    "schedule",
    "space",
    "synthesize",
    "transform",
    "verify_design",
]
