"""End-to-end outcomes of :func:`repro.fuzz.harness.run_case`."""

from repro.fuzz import ENGINE_ORDER, CaseDescriptor, run_case

TWO_CHAIN = ((1, (0, 0)), (0, (0, 0)))


def test_engine_order_covers_all_engines():
    # The oracle plus the native engine's ndarray tier always; its C tier
    # is opt-in for fuzzing (``run_case(..., native=True)`` / ``repro fuzz
    # --native``): it needs a C toolchain to add coverage beyond the
    # ndarray tier it otherwise falls back to.
    from repro.machine.engines import ENGINES

    assert ENGINE_ORDER == ("interpreted", "vector")
    assert set(ENGINE_ORDER + ("native",)) - {"vector"} == set(ENGINES)


def test_dp_like_case_is_ok():
    # The paper's own recurrence shape (two chains, min-plus/min) must pass
    # the full round trip: oracle, reference, synthesis, the engine tiers and
    # byte-identical event streams.
    outcome = run_case(CaseDescriptor(
        n=6, lo=1, hi=1, args=TWO_CHAIN, body="min_plus", combine="min",
        pool=(3, -1, 4, 1, 0), interconnect="fig1"))
    assert outcome.status == "ok", outcome.detail
    assert not outcome.is_bug


def test_unclosed_offsets_reject_not_crash():
    outcome = run_case(CaseDescriptor(
        n=5, lo=1, hi=1, args=((1, (0, 0)), (1, (1, 0))), body="min",
        combine="min", pool=(2,), interconnect="fig1"))
    assert outcome.status == "reject"
    assert outcome.stage == "oracle"


def test_unlowerable_design_is_infeasible_not_bug():
    # Regression for the link-bandwidth gap: the schedule/space solvers do
    # not model channel capacity, so pre-fix synthesize returned a mesh
    # design whose compilation died with CapacityError ("channel ... of
    # stream ('m1', 'bp') is saturated").  synthesize now compile-checks
    # candidates on a value-free structural trace and reports infeasible.
    outcome = run_case(CaseDescriptor(
        n=6, lo=1, hi=1, args=TWO_CHAIN, body="min_plus", combine="min",
        pool=(0,), interconnect="mesh"))
    assert outcome.status == "infeasible", outcome.detail
    assert outcome.stage == "synthesize"


def test_outcome_is_bug_only_for_bug_status():
    from repro.fuzz.harness import CaseOutcome

    assert CaseOutcome("bug", "verify", "boom").is_bug
    for status in ("ok", "reject", "infeasible"):
        assert not CaseOutcome(status, "any", "").is_bug
