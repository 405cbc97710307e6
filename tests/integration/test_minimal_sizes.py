"""Boundary problem sizes: the smallest DP instances stress every guard.

* n = 3: a single reduction point per (i, j); module m2 is *empty*;
* n = 4: first instance with both chains non-empty;
* s = 1 convolution: the accumulation degenerates to a single term.
"""

import pytest

from repro.arrays import FIG1_UNIDIRECTIONAL, FIG2_EXTENDED, LINEAR_BIDIR
from repro.core import restructure, synthesize, verify_design
from repro.ir import check_system, run_system
from repro.problems import (
    convolution_backward,
    convolution_inputs,
    dp_inputs,
    dp_spec,
    dp_system,
)
from repro.reference import convolve, min_plus_dp


class TestTinyDp:
    def test_n3_m2_empty(self):
        system = dp_system()
        assert list(system.modules["m2"].domain.points({"n": 3})) == []
        assert len(list(system.modules["m1"].domain.points({"n": 3}))) == 1

    @pytest.mark.parametrize("interconnect",
                             [FIG1_UNIDIRECTIONAL, FIG2_EXTENDED])
    @pytest.mark.parametrize("n", [3, 4])
    def test_synthesize_and_run(self, interconnect, n):
        system = dp_system()
        seeds = list(range(2, n + 1))
        design = synthesize(system, {"n": n}, interconnect)
        report = verify_design(design, dp_inputs(seeds))
        assert report.ok, report.failures
        ref = min_plus_dp(seeds, n)
        # Sanity: final result present.
        res = run_system(system, {"n": n}, dp_inputs(seeds))
        assert res[(1, n)] == ref[(1, n)]

    @pytest.mark.parametrize("n", [3, 4])
    def test_restructured_tiny(self, n):
        system = restructure(dp_spec(), params={"n": 5})
        check_system(system, {"n": n})
        seeds = list(range(1, n))

        def c0(i, j, _s=seeds):
            return _s[i - 1]

        res = run_system(system, {"n": n}, {"c0": c0})
        ref = min_plus_dp(seeds, n)
        assert all(res[k] == ref[k] for k in res)


class TestTinyConvolution:
    def test_single_tap_filter(self):
        """s = 1: y_i = w_1 * x_i; the MAC rule never fires."""
        system = convolution_backward()
        params = {"n": 5, "s": 1}
        check_system(system, params)
        res = run_system(system, params, convolution_inputs([1, 2, 3, 4, 5],
                                                            [3]))
        assert [res[(i,)] for i in range(1, 6)] == [3, 6, 9, 12, 15]

    def test_single_tap_synthesizes(self):
        params = {"n": 5, "s": 1}
        design = synthesize(convolution_backward(), params, LINEAR_BIDIR)
        report = verify_design(design,
                               convolution_inputs([1, 2, 3, 4, 5], [2]))
        assert report.ok, report.failures
        assert design.cell_count == 1

    def test_n_equals_s(self):
        params = {"n": 4, "s": 4}
        x, w = [1, -1, 2, -2], [1, 2, 3, 4]
        design = synthesize(convolution_backward(), params, LINEAR_BIDIR)
        report = verify_design(design, convolution_inputs(x, w))
        assert report.ok, report.failures
