"""The consolidated repro.api surface, options object and error hierarchy."""

import pytest

from repro import api
from repro.arrays import FIG2_EXTENDED
from repro.core import SynthesisOptions, synthesize
from repro.core.errors import (
    NoScheduleExists,
    NoSpaceMapExists,
    SynthesisError,
)
from repro.problems import dp_system


class TestApiSurface:
    def test_all_names_resolve(self):
        for name in api.__all__:
            assert hasattr(api, name), name

    def test_blessed_entry_points(self):
        assert api.synthesize is synthesize
        assert api.SynthesisOptions is SynthesisOptions
        assert callable(api.run_sweep)
        assert callable(api.cache_key)
        assert "dp" in api.PROBLEM_BUILDERS

    def test_resolve_interconnect_aliases(self):
        assert api.resolve_interconnect("fig2") is FIG2_EXTENDED
        assert api.resolve_interconnect(FIG2_EXTENDED) is FIG2_EXTENDED
        with pytest.raises(KeyError, match="unknown interconnect"):
            api.resolve_interconnect("warp-drive")

    def test_top_level_reexports(self):
        import repro

        assert repro.SynthesisOptions is SynthesisOptions
        assert repro.SynthesisError is SynthesisError
        assert repro.run_sweep is api.run_sweep


class TestSynthesisOptions:
    def test_options_plus_kwargs_rejected(self):
        # Bounds have one spelling: the options object.
        with pytest.raises(TypeError, match="time_bound"):
            synthesize(dp_system(), {"n": 6}, FIG2_EXTENDED,
                       SynthesisOptions(), time_bound=3)

    def test_frozen_and_hashable(self):
        opts = SynthesisOptions(time_bound=4)
        assert hash(opts) == hash(SynthesisOptions(time_bound=4))
        with pytest.raises(AttributeError):
            opts.time_bound = 5

    def test_bounds_validated(self):
        with pytest.raises(ValueError, match="out of range"):
            SynthesisOptions(time_bound=0)

    def test_engine_not_in_cache_key(self):
        # The cache-key form holds the search bounds and nothing else: the
        # engine that later runs a design does not choose it.
        assert sorted(SynthesisOptions().to_dict()) == [
            "space_bound", "time_bound"]


class TestRetiredEngines:
    """``"compiled"`` and ``"vector"`` were folded into ``"native"``: they
    still work, with a warning naming the replacement."""

    @pytest.fixture(scope="class")
    def design(self):
        from repro.arrays import FIG1_UNIDIRECTIONAL

        return synthesize(dp_system(), {"n": 6}, FIG1_UNIDIRECTIONAL)

    @pytest.mark.parametrize("name", ["compiled", "vector"])
    def test_verify_warns_and_reports_like_native(self, design, name):
        factory = api.input_factory("dp", design.params)
        want = api.verify_design(design, factory, seeds=range(3))
        with pytest.warns(DeprecationWarning, match="use 'native'"):
            got = api.verify_design(design, factory, engine=name,
                                    seeds=range(3))
        assert got.ok and want.ok
        assert got.failures == want.failures
        assert got.machine_stats == want.machine_stats
        assert got.seeds_checked == want.seeds_checked == 3

    def test_unknown_names_still_raise(self):
        from repro.machine.engines import coerce_engine

        with pytest.raises(ValueError, match="unknown engine"):
            coerce_engine("quantum")
        with pytest.raises(ValueError, match="interpreted, native"):
            api.verify_design(None, {}, engine="Compiled")


class TestErrorHierarchy:
    def test_concrete_errors_share_the_base(self):
        assert issubclass(NoScheduleExists, SynthesisError)
        assert issubclass(NoSpaceMapExists, SynthesisError)

    def test_carries_module_and_bounds(self):
        err = NoScheduleExists("no schedule", module="m1", bounds=3)
        assert err.module == "m1" and err.bounds == 3

    def test_raised_errors_are_catchable_as_base(self):
        from repro.arrays import LINEAR_BIDIR

        # dp needs a diagonal link the linear patterns lack.
        with pytest.raises(SynthesisError) as info:
            synthesize(dp_system(), {"n": 6}, LINEAR_BIDIR)
        assert info.value.bounds is not None

    def test_blessed_location_matches_util(self):
        from repro.util.errors import SynthesisError as util_base

        assert SynthesisError is util_base


class TestSolverSurface:
    def test_valid_candidates_public(self):
        from repro.schedule import valid_candidates
        from repro.schedule.solver import _valid_candidates

        assert valid_candidates is _valid_candidates
