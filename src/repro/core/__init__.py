"""The paper's contribution: the two-step refinement procedure (coarse
timing + chain-based restructuring) and the multi-module time/space mapping
pipeline, packaged as designs with verification, exploration, batch sweeps
and a persistent design cache."""

from repro.core.batch import (
    PROBLEM_BUILDERS,
    SweepJob,
    SweepReport,
    SweepResult,
    SweepSpec,
    default_workers,
    run_sweep,
)
from repro.core.cache import (
    DesignCache,
    PruneReport,
    cache_key,
    cache_key_from_fingerprint,
    system_fingerprint,
)
from repro.core.manifest import ManifestError, SweepManifest, read_manifest
from repro.core.coarse import CoarseTiming, coarse_timing
from repro.core.design import Design
from repro.core.errors import (
    NoScheduleExists,
    NoSpaceMapExists,
    SynthesisError,
)
from repro.core.explore import (
    ExploredDesign,
    explore_interconnects,
    explore_uniform,
    pareto_front,
)
from repro.core.globals import link_constraints
from repro.core.nonuniform import synthesize
from repro.core.options import SynthesisOptions
from repro.core.restructure import RestructureError, restructure
from repro.core.verify import VerificationReport, verify_design

__all__ = [
    "CoarseTiming",
    "Design",
    "DesignCache",
    "ExploredDesign",
    "ManifestError",
    "NoScheduleExists",
    "NoSpaceMapExists",
    "PROBLEM_BUILDERS",
    "PruneReport",
    "RestructureError",
    "SweepJob",
    "SweepManifest",
    "SweepReport",
    "SweepResult",
    "SweepSpec",
    "SynthesisError",
    "SynthesisOptions",
    "VerificationReport",
    "cache_key",
    "cache_key_from_fingerprint",
    "coarse_timing",
    "default_workers",
    "explore_interconnects",
    "explore_uniform",
    "link_constraints",
    "pareto_front",
    "read_manifest",
    "restructure",
    "run_sweep",
    "synthesize",
    "system_fingerprint",
    "verify_design",
]
