"""VLSI array models: interconnection patterns (Δ matrices), occupied
regions/cell counts, and data-flow classification of mapped variables."""

from repro.arrays.dataflow import Flow, all_flows, variable_flows
from repro.arrays.interconnect import (
    FIG1_UNIDIRECTIONAL,
    FIG2_EXTENDED,
    HEX_6,
    INTERCONNECT_ALIASES,
    LINEAR_BIDIR,
    LINEAR_UNI,
    MESH_4,
    STOCK_INTERCONNECTS,
    Interconnect,
    resolve_interconnect,
)
from repro.arrays.model import ArrayRegion, VLSIArray

__all__ = [
    "ArrayRegion",
    "FIG1_UNIDIRECTIONAL",
    "FIG2_EXTENDED",
    "Flow",
    "HEX_6",
    "INTERCONNECT_ALIASES",
    "Interconnect",
    "LINEAR_BIDIR",
    "LINEAR_UNI",
    "MESH_4",
    "STOCK_INTERCONNECTS",
    "VLSIArray",
    "all_flows",
    "resolve_interconnect",
    "variable_flows",
]
