"""Matrix multiplication on 2-D arrays — the Section II machinery at full
dimensionality (3-D index space onto 2-D processor space)."""

import numpy as np
import pytest

from repro.arrays import HEX_6, MESH_4
from repro.core import synthesize, verify_design
from repro.problems import matmul_inputs, matmul_system

N = 4
PARAMS = {"n": N}


def random_matrices(seed=0):
    rng = np.random.default_rng(seed)
    A = rng.integers(-5, 6, size=(N, N))
    B = rng.integers(-5, 6, size=(N, N))
    return A, B


class TestMeshMatmul:
    @pytest.fixture(scope="class")
    def design(self):
        return synthesize(matmul_system(), PARAMS, MESH_4)

    def test_schedule_is_i_plus_j_plus_k(self, design):
        """The classic wavefront: T(i,j,k) = i + j + k."""
        assert design.schedules["mm"].coeffs == (1, 1, 1)

    def test_one_stationary_stream(self, design):
        """The cell-count-optimal mesh designs pin exactly one stream
        (stationary-B with S = (k, j) or stationary-C with S = (i, j) are
        tied optima; the deterministic tie-break picks stationary-B) and
        stream the other two through n² cells."""
        flows = design.flows()["mm"]
        stationary = [v for v, f in flows.items() if f.stays]
        assert len(stationary) == 1
        assert design.cell_count == N * N

    def test_machine_matches_numpy(self, design):
        A, B = random_matrices(1)
        report = verify_design(design, matmul_inputs(A, B))
        assert report.ok, report.failures

    def test_completion_linear(self, design):
        assert design.completion_time == 3 * (N - 1)


class TestHexMatmul:
    def test_hex_design_verifies(self):
        design = synthesize(matmul_system(), PARAMS, HEX_6)
        A, B = random_matrices(2)
        report = verify_design(design, matmul_inputs(A, B))
        assert report.ok, report.failures

    def test_hex_at_least_as_cheap_as_mesh(self):
        mesh = synthesize(matmul_system(), PARAMS, MESH_4)
        hexd = synthesize(matmul_system(), PARAMS, HEX_6)
        assert hexd.cell_count <= mesh.cell_count
