"""The problems library: every system matches its golden model."""

import random

import numpy as np
import pytest

from repro.ir import check_system, run_system
from repro.problems import (
    convolution_backward,
    convolution_forward,
    convolution_inputs,
    dp_inputs,
    dp_system,
    matmul_inputs,
    matmul_system,
    paren_body,
    paren_combine,
    parenthesization_inputs,
    recursive_convolution_backward,
    recursive_convolution_forward,
    recursive_convolution_inputs,
    shortest_path_inputs,
    shortest_path_system,
)
from repro.reference import (
    convolve,
    matrix_chain,
    min_plus_dp,
    optimal_parenthesization,
    recursive_convolve,
)

RNG = random.Random(2024)


class TestConvolution:
    @pytest.mark.parametrize("builder", [convolution_backward,
                                         convolution_forward])
    @pytest.mark.parametrize("n,s", [(5, 2), (8, 3), (12, 5)])
    def test_matches_reference(self, builder, n, s):
        x = [RNG.randint(-9, 9) for _ in range(n)]
        w = [RNG.randint(-4, 4) for _ in range(s)]
        system = builder()
        check_system(system, {"n": n, "s": s})
        res = run_system(system, {"n": n, "s": s}, convolution_inputs(x, w))
        assert [res[(i,)] for i in range(1, n + 1)] == convolve(x, w)

    def test_reference_matches_numpy(self):
        x = [RNG.uniform(-1, 1) for _ in range(20)]
        w = [RNG.uniform(-1, 1) for _ in range(5)]
        ours = convolve(x, w)
        full = np.convolve(x, w)
        np.testing.assert_allclose(ours, full[: len(x)], rtol=1e-12)


class TestRecursiveConvolution:
    @pytest.mark.parametrize("n,s", [(6, 2), (10, 3)])
    def test_forward_matches_reference(self, n, s):
        w = [round(RNG.uniform(-0.9, 0.9), 3) for _ in range(s)]
        seeds = [round(RNG.uniform(-2, 2), 3) for _ in range(s)]
        system = recursive_convolution_forward()
        check_system(system, {"n": n, "s": s})
        res = run_system(system, {"n": n, "s": s},
                         recursive_convolution_inputs(w, seeds))
        expected = recursive_convolve(w, seeds, n)
        got = [res[(i,)] for i in range(1, n + 1)]
        np.testing.assert_allclose(got, expected, rtol=1e-9)

    @pytest.mark.parametrize("n,s", [(6, 2), (10, 3)])
    def test_backward_matches_reference(self, n, s):
        w = [round(RNG.uniform(-0.9, 0.9), 3) for _ in range(s)]
        seeds = [round(RNG.uniform(-2, 2), 3) for _ in range(s)]
        system = recursive_convolution_backward(s)
        check_system(system, {"n": n})
        res = run_system(system, {"n": n},
                         recursive_convolution_inputs(w, seeds))
        expected = recursive_convolve(w, seeds, n)
        got = [res[(i,)] for i in range(1, n + 1)]
        np.testing.assert_allclose(got, expected, rtol=1e-9)

    def test_seed_validation(self):
        inputs = recursive_convolution_inputs([1.0], [2.0])
        with pytest.raises(KeyError):
            inputs["seed"](1)


class TestDynamicProgramming:
    @pytest.mark.parametrize("n", [3, 5, 8, 12])
    def test_min_plus(self, n):
        seeds = [RNG.randint(1, 20) for _ in range(n - 1)]
        res = run_system(dp_system(), {"n": n}, dp_inputs(seeds))
        ref = min_plus_dp(seeds, n)
        assert all(res[k] == ref[k] for k in res)

    def test_seed_off_diagonal_rejected(self):
        inputs = dp_inputs([1, 2, 3])
        with pytest.raises(KeyError):
            inputs["c0"](1, 3)


class TestParenthesization:
    @pytest.mark.parametrize("dims", [
        (30, 35, 15, 5, 10, 20, 25),       # CLRS example
        (5, 10, 3, 12, 5, 50, 6),
        (10, 20, 30),
    ])
    def test_matches_reference(self, dims):
        n = len(dims)
        system = dp_system(paren_body(), paren_combine())
        res = run_system(system, {"n": n}, parenthesization_inputs(dims))
        ref = matrix_chain(dims)
        for key, value in res.items():
            assert value == ref[key]

    def test_clrs_optimal_cost(self):
        """The classic CLRS chain: optimal cost 15125."""
        cost, tree = optimal_parenthesization((30, 35, 15, 5, 10, 20, 25))
        assert cost == 15125
        assert tree.count("*") == 5

    def test_inner_dimension_mismatch_detected(self):
        from repro.problems import paren_body

        with pytest.raises(ValueError):
            paren_body()((2, 3, 0, "A1"), (4, 5, 0, "A2"))


class TestShortestPath:
    @pytest.mark.parametrize("n", [4, 7, 10])
    def test_matches_min_plus(self, n):
        costs = [RNG.randint(1, 15) for _ in range(n - 1)]
        res = run_system(shortest_path_system(), {"n": n},
                         shortest_path_inputs(costs))
        ref = min_plus_dp(costs, n)
        assert all(res[k] == ref[k] for k in res)

    def test_distances_never_exceed_direct_sums(self):
        n = 8
        costs = [RNG.randint(1, 9) for _ in range(n - 1)]
        res = run_system(shortest_path_system(), {"n": n},
                         shortest_path_inputs(costs))
        for (i, j), d in res.items():
            assert d <= sum(costs[i - 1: j - 1])


class TestMatmul:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_matches_numpy(self, n):
        A = np.arange(n * n).reshape(n, n) - 3
        B = (np.arange(n * n).reshape(n, n) * 2 - n) % 7
        system = matmul_system()
        check_system(system, {"n": n})
        res = run_system(system, {"n": n}, matmul_inputs(A, B))
        C = A @ B
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert res[(i, j)] == C[i - 1, j - 1]
