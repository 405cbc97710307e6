"""The paper's worked problems as ready-made specifications and systems."""

from repro.problems.convolution import (
    classify_design,
    convolution_backward,
    convolution_forward,
    convolution_inputs,
)
from repro.problems.dynamic_programming import (
    dp_inputs,
    dp_spec,
    dp_system,
    fused_accumulate,
)
from repro.problems.instances import (
    INPUT_PROBLEMS,
    input_factory,
    random_inputs,
)
from repro.problems.matmul import matmul_inputs, matmul_system
from repro.problems.parenthesization import (
    paren_body,
    paren_combine,
    parenthesization_inputs,
    parenthesization_spec,
)
from repro.problems.recursive_convolution import (
    recursive_convolution_backward,
    recursive_convolution_forward,
    recursive_convolution_inputs,
)
from repro.problems.shortest_path import (
    random_instance,
    reference_distances,
    shortest_path_inputs,
    shortest_path_spec,
    shortest_path_system,
)

__all__ = [
    "INPUT_PROBLEMS",
    "classify_design",
    "convolution_backward",
    "convolution_forward",
    "convolution_inputs",
    "dp_inputs",
    "dp_spec",
    "dp_system",
    "fused_accumulate",
    "input_factory",
    "matmul_inputs",
    "matmul_system",
    "paren_body",
    "paren_combine",
    "parenthesization_inputs",
    "parenthesization_spec",
    "random_inputs",
    "random_instance",
    "recursive_convolution_backward",
    "recursive_convolution_forward",
    "recursive_convolution_inputs",
    "reference_distances",
    "shortest_path_inputs",
    "shortest_path_spec",
    "shortest_path_system",
]
