"""The fuzz loop, the corpus store, and a short live hypothesis run."""

import json

import pytest
from hypothesis import HealthCheck, given, settings

from repro.fuzz import (
    CaseDescriptor,
    artifact_name,
    fuzz,
    load_artifact,
    load_corpus,
    replay_corpus,
    run_case,
    save_artifact,
)
from repro.fuzz.runner import descriptors

#: Fuzz value pools hold Fractions and bignums on purpose, so the exact
#: int64 fast path falling back to object arrays is expected here.
EXPECTED_FALLBACK = pytest.mark.filterwarnings(
    "ignore:exact int64 fast path:RuntimeWarning")

TWO_CHAIN = ((1, (0, 0)), (0, (0, 0)))
DESC = CaseDescriptor(n=5, lo=1, hi=1, args=TWO_CHAIN, body="min_plus",
                      combine="min", pool=(3, -1), interconnect="fig1")


class TestCorpusStore:
    def test_save_load_round_trip(self, tmp_path):
        path = save_artifact(tmp_path, DESC, expect="ok", note="why",
                             found={"stage": "verify", "detail": "boom"})
        artifact = load_artifact(path)
        assert artifact["descriptor"] == DESC
        assert artifact["expect"] == "ok"
        assert artifact["note"] == "why"
        assert artifact["found"]["stage"] == "verify"

    def test_name_is_content_addressed(self, tmp_path):
        assert artifact_name(DESC) == artifact_name(
            CaseDescriptor.from_dict(DESC.to_dict()))
        other = CaseDescriptor(n=6, lo=1, hi=1, args=TWO_CHAIN,
                               body="min_plus", combine="min", pool=(3, -1))
        assert artifact_name(DESC) != artifact_name(other)
        # Saving the same descriptor twice overwrites, never duplicates.
        save_artifact(tmp_path, DESC)
        save_artifact(tmp_path, DESC, note="again")
        assert len(load_corpus(tmp_path)) == 1

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "fuzz-bad.json"
        path.write_text(json.dumps({"format": 99, "descriptor": {}}))
        with pytest.raises(ValueError, match="format"):
            load_artifact(path)

    def test_missing_corpus_dir_is_empty(self, tmp_path):
        assert load_corpus(tmp_path / "nope") == []

    def test_replay_honours_expect_contract(self, tmp_path):
        save_artifact(tmp_path, DESC, expect="ok")
        [(artifact, outcome, ok)] = replay_corpus(tmp_path)
        assert ok and outcome.status == "ok"
        # A wrong pin must fail the replay even though nothing crashed.
        save_artifact(tmp_path, DESC, expect="infeasible")
        [(artifact, outcome, ok)] = replay_corpus(tmp_path)
        assert not ok


class TestFuzzLoop:
    @EXPECTED_FALLBACK
    def test_short_run_is_clean_and_budgeted(self, tmp_path):
        report = fuzz(max_examples=8, budget=120.0, seed=11,
                      corpus_dir=tmp_path)
        assert report.ok, report.summary()
        assert 0 < report.examples_run <= 8
        assert sum(report.counts.values()) == report.examples_run
        assert set(report.counts) <= {"ok", "reject", "infeasible"}
        assert load_corpus(tmp_path) == []   # clean run saves nothing
        assert "seed 11" in report.summary()

    def test_bugs_are_shrunk_deduped_and_saved(self, tmp_path, monkeypatch):
        import repro.fuzz.runner as runner_mod

        from repro.fuzz.harness import CaseOutcome

        def flaky_run_case(desc, pipeline=True, native=False):
            # Everything with n > 3 is "broken": the shrinker should hand
            # the loop a minimal failing example, and repeats of the same
            # signature must not add artifacts.
            if desc.n > 3:
                return CaseOutcome("bug", "verify", "injected failure")
            return CaseOutcome("ok", "verify", "")

        monkeypatch.setattr(runner_mod, "run_case", flaky_run_case)
        report = fuzz(max_examples=30, budget=120.0, seed=0,
                      corpus_dir=tmp_path, max_failures=2)
        assert not report.ok
        assert len(report.failures) == 1    # one signature, deduplicated
        desc, outcome, path = report.failures[0]
        assert desc.n == 4                  # shrunk to the smallest failure
        [artifact] = load_corpus(tmp_path)
        assert artifact["path"] == path
        assert artifact["expect"] is None   # fresh failure: not yet pinned
        assert artifact["found"]["detail"] == "injected failure"
        assert "FAILURE [verify]" in report.summary()


class TestGeneratorLive:
    @EXPECTED_FALLBACK
    @settings(max_examples=12, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(descriptors())
    def test_random_descriptors_never_expose_bugs(self, desc):
        outcome = run_case(desc)
        assert not outcome.is_bug, (
            f"{desc!r}\nstage={outcome.stage}\n{outcome.detail}")
