"""Dependence analysis: constant extraction from canonic modules,
non-constant expansion/intersection for high-level specs, and concrete
dependence DAGs."""

from repro.deps.extract import module_dependence_matrix, system_dependence_matrices
from repro.deps.graph import (
    critical_path_length,
    dependence_dag,
    levels,
)
from repro.deps.nonconstant import (
    affine_max,
    affine_min,
    constant_dependence_set,
)
from repro.deps.vectors import DependenceMatrix, DependenceVector

__all__ = [
    "DependenceMatrix",
    "DependenceVector",
    "affine_max",
    "affine_min",
    "constant_dependence_set",
    "critical_path_length",
    "dependence_dag",
    "levels",
    "module_dependence_matrix",
    "system_dependence_matrices",
]
