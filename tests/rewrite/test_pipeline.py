"""Pass manager and the default pipeline: composition, ordering, tracing."""

import pytest

from repro.arrays.interconnect import resolve_interconnect
from repro.core.nonuniform import synthesize
from repro.core.options import SynthesisOptions
from repro.problems import dp_spec, dp_system
from repro.rewrite import (
    PASS_REGISTRY,
    PassError,
    PassPipeline,
    PipelineState,
    available_passes,
    default_pipeline,
    make_pass,
    run_pipeline,
)

FIG1 = resolve_interconnect("fig1")
PARAMS = {"n": 5}
OPTS = SynthesisOptions()


class TestRegistry:
    def test_default_pipeline_names_and_order(self):
        assert default_pipeline().names == (
            "decompose-chains", "fuse-accumulators", "schedule",
            "allocate", "lower-microcode")

    def test_available_passes_are_the_default_pipeline(self):
        rows = available_passes()
        assert tuple(name for name, _ in rows) == default_pipeline().names
        assert tuple(PASS_REGISTRY) == default_pipeline().names
        assert all(desc for _, desc in rows)

    def test_cli_lists_the_passes_in_order(self, capsys):
        from repro.cli import main

        assert main(["passes"]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert [line.split()[0] for line in lines] == \
            list(default_pipeline().names)

    def test_make_pass_unknown_name(self):
        with pytest.raises(KeyError, match="unknown pass 'tile'"):
            make_pass("tile")


class TestComposition:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            PassPipeline([make_pass("schedule"), make_pass("schedule")])


class TestStateContract:
    def test_require_names_the_producer(self):
        state = PipelineState(params=PARAMS, interconnect=FIG1, options=OPTS)
        with pytest.raises(PassError, match="'schedule' pass"):
            state.require("schedules", "schedule")

    def test_misordered_pipeline_fails_fast(self):
        pipe = PassPipeline([make_pass("allocate")])
        state = PipelineState(params=PARAMS, interconnect=FIG1, options=OPTS,
                              system=dp_system())
        with pytest.raises(PassError, match="run the 'schedule' pass first"):
            pipe.run(state)

    def test_partial_pipeline_exposes_intermediate_state(self):
        pipe = PassPipeline([make_pass("decompose-chains"),
                             make_pass("schedule")])
        state = run_pipeline(dp_spec(), PARAMS, FIG1, OPTS, pipeline=pipe)
        assert state.system is not None
        assert state.schedules is not None
        assert state.design is None

    def test_synthesize_rejects_designless_pipeline(self):
        pipe = PassPipeline([make_pass("decompose-chains")])
        with pytest.raises(ValueError, match="lower-microcode"):
            synthesize(dp_spec(), PARAMS, FIG1, OPTS, pipeline=pipe)

    def test_run_pipeline_rejects_other_sources(self):
        with pytest.raises(TypeError, match="RecurrenceSystem"):
            run_pipeline(object(), PARAMS, FIG1, OPTS)


class TestTracing:
    def test_per_pass_spans_recorded(self):
        from repro.obs import TRACER

        TRACER.reset()
        TRACER.enabled = True
        try:
            run_pipeline(dp_spec(), PARAMS, FIG1, OPTS)
            timers = TRACER.snapshot()["timers"]
        finally:
            TRACER.enabled = False
            TRACER.reset()
        for name in default_pipeline().names:
            assert f"pass.{name}" in timers, (name, sorted(timers))
