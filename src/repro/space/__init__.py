"""Processor allocation: diophantine machinery (Smith normal form), link
decomposition of displacements, space-map enumeration (conditions (2)/(3))
and joint multi-module allocation under global adjacency constraints."""

from repro.space.allocation import (
    SpaceMap,
    cells_used,
    conflict_free,
    enumerate_space_maps,
    flows_realisable,
)
from repro.space.diophantine import LinkDecomposer, solve_integer_system
from repro.space.multimodule import (
    ModuleSpaceProblem,
    MultiSpaceSolution,
    NoSpaceMapExists,
    solve_multimodule_space,
)
from repro.space.smith import smith_normal_form

__all__ = [
    "LinkDecomposer",
    "ModuleSpaceProblem",
    "MultiSpaceSolution",
    "NoSpaceMapExists",
    "SpaceMap",
    "cells_used",
    "conflict_free",
    "enumerate_space_maps",
    "flows_realisable",
    "smith_normal_form",
    "solve_integer_system",
    "solve_multimodule_space",
]
