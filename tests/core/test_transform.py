"""Algorithm transformations: broadcast elimination derives the paper's
recurrences (4)/(5) from the natural convolution statement."""

import random

import numpy as np
import pytest

from repro.arrays import LINEAR_BIDIR
from repro.core import synthesize_uniform, verify_design
from repro.deps import module_dependence_matrix
from repro.ir import check_system, run_system
from repro.ir.affine import var
from repro.problems import classify_design, convolution_inputs
from repro.reference import convolve
from repro.transform import (
    StreamSpec,
    build_recurrence,
    convolution_reduction,
    convolution_transform_inputs,
    matvec_reduction,
    matvec_transform_inputs,
    propagation_direction,
)

RNG = random.Random(99)
I, K = var("i"), var("k")


class TestPropagationDirection:
    def test_weights_constant_along_i(self):
        assert propagation_direction(StreamSpec("w", (K,)),
                                     ("i", "k")) == (1, 0)

    def test_inputs_constant_along_diagonal(self):
        assert propagation_direction(StreamSpec("x", (I - K + 1,)),
                                     ("i", "k")) == (1, 1)

    def test_full_rank_stream_has_none(self):
        assert propagation_direction(StreamSpec("A", (I, K)),
                                     ("i", "k")) is None

    def test_direction_is_primitive(self):
        d = propagation_direction(StreamSpec("v", (2 * I - 2 * K,)),
                                  ("i", "k"))
        assert d == (1, 1)

    def test_sign_canonical(self):
        d = propagation_direction(StreamSpec("v", (I + K,)), ("i", "k"))
        assert d is not None and d[0] >= 0


class TestDerivedConvolution:
    @pytest.mark.parametrize("direction", ["backward", "forward"])
    def test_matches_reference(self, direction):
        n, s = 10, 4
        system = build_recurrence(convolution_reduction(), direction)
        check_system(system, {"n": n, "s": s})
        x = [RNG.randint(-9, 9) for _ in range(n)]
        w = [RNG.randint(-4, 4) for _ in range(s)]
        res = run_system(system, {"n": n, "s": s},
                         convolution_transform_inputs(x, w))
        assert [res[(i,)] for i in range(1, n + 1)] == convolve(x, w)

    def test_backward_dependence_matrix_matches_paper(self):
        """The derived recurrence has exactly (4)'s dependence columns."""
        system = build_recurrence(convolution_reduction(), "backward")
        D = module_dependence_matrix(system.modules["conv"])
        by_var = {v: {d.vector for d in D.columns_for(v)}
                  for v in D.variables}
        assert by_var == {"w": {(1, 0)}, "x": {(1, 1)}, "y": {(0, 1)}}

    def test_forward_dependence_matrix_matches_paper(self):
        system = build_recurrence(convolution_reduction(), "forward")
        D = module_dependence_matrix(system.modules["conv"])
        assert {d.vector for d in D.columns_for("y")} == {(0, -1)}

    def test_derived_system_synthesizes_to_w2(self):
        """The automatically derived recurrence reaches the same design the
        paper's hand-written (4) does."""
        params = {"n": 10, "s": 3}
        system = build_recurrence(convolution_reduction(), "backward")
        design = synthesize_uniform(system, params, LINEAR_BIDIR)
        assert design.schedules["conv"].coeffs == (1, 1)
        assert design.space_maps["conv"].matrix == ((0, 1),)
        flows = design.flows()["conv"]
        assert classify_design(flows) == "W2"

    # The derived bindings pad with ``0.0``, a float, so the native
    # engine's passes fall back to exact object arrays.
    @pytest.mark.filterwarnings(
        "ignore:exact int64 fast path:RuntimeWarning")
    def test_derived_design_verifies_on_machine(self):
        params = {"n": 9, "s": 3}
        system = build_recurrence(convolution_reduction(), "backward")
        design = synthesize_uniform(system, params, LINEAR_BIDIR)
        x = [RNG.randint(-5, 5) for _ in range(params["n"])]
        w = [RNG.randint(-3, 3) for _ in range(params["s"])]
        report = verify_design(design, convolution_transform_inputs(x, w))
        assert report.ok, report.failures

    def test_agrees_with_hand_written_recurrence(self):
        """Derived and hand-written systems compute identical outputs."""
        from repro.problems import convolution_backward

        n, s = 8, 3
        x = [RNG.randint(-9, 9) for _ in range(n)]
        w = [RNG.randint(-4, 4) for _ in range(s)]
        derived = run_system(build_recurrence(convolution_reduction(),
                                              "backward"),
                             {"n": n, "s": s},
                             convolution_transform_inputs(x, w))
        hand = run_system(convolution_backward(), {"n": n, "s": s},
                          convolution_inputs(x, w))
        assert derived == hand


class TestDerivedMatvec:
    def test_matches_numpy(self):
        n = 6
        system = build_recurrence(matvec_reduction(), "backward")
        check_system(system, {"n": n})
        A = [[RNG.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        x = [RNG.randint(-5, 5) for _ in range(n)]
        res = run_system(system, {"n": n}, matvec_transform_inputs(A, x))
        expected = np.array(A) @ np.array(x)
        for i in range(1, n + 1):
            assert res[(i,)] == expected[i - 1]

    def test_A_enters_directly_x_pipelines(self):
        system = build_recurrence(matvec_reduction(), "backward")
        D = module_dependence_matrix(system.modules["matvec"])
        assert "A" not in D.variables          # consumed in place
        assert {d.vector for d in D.columns_for("x")} == {(1, 0)}

    def test_matvec_synthesizes_and_runs(self):
        n = 5
        params = {"n": n}
        system = build_recurrence(matvec_reduction(), "backward")
        design = synthesize_uniform(system, params, LINEAR_BIDIR)
        A = [[RNG.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        x = [RNG.randint(-4, 4) for _ in range(n)]
        report = verify_design(design, matvec_transform_inputs(A, x))
        assert report.ok, report.failures
