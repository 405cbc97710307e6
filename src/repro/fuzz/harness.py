"""Round-trip one fuzz case through the full nonuniform pipeline.

Stages, in order, with the outcome taxonomy each can produce:

1. **oracle** — direct dumb evaluation (:mod:`repro.fuzz.oracle`).
   Unclosed or cyclic descriptors are ``reject`` — they denote no
   computation, so the pipeline never sees them.
2. **restructure** — chain decomposition + system construction.  Documented
   spec-shape errors (:class:`RestructureError`,
   :class:`ChainDecompositionError`, ``ValueError``) are ``reject``;
   an unschedulable coarse timing is ``infeasible``.
3. **reference** — the IR evaluator must equal the oracle (``bug`` when it
   differs or crashes).
4. **synthesize** — schedule + space mapping on the descriptor's
   interconnect; :class:`NoScheduleExists` / :class:`NoSpaceMapExists` are
   ``infeasible`` (honest: the array cannot host the instance).
5. **verify** — :func:`verify_design`'s symbolic + physical checks.
6. **engines** — the interpreter and the native engine on its ndarray
   tier (``vector``: ``$REPRO_NO_NATIVE`` set, object arrays on
   fallback) run the compiled design; each must reproduce the oracle's
   values exactly *and* emit the byte-identical canonical event stream
   (``canonical_order`` then JSONL).  ``native=True`` adds the engine's
   C-executor tier to the comparison set (a missing toolchain degrades it
   to the ndarray tier, which still cross-checks dispatch).
7. **pipeline** (on by default, ``pipeline=False`` opts out) — the last
   comparison point: the case is round-tripped *again* through the pass
   pipeline from its high-level spec (exercising the ``decompose-chains``
   ingest pass), and the resulting design dict, machine values and
   canonical native event stream (on the last tier compared) must match
   the system-entry run byte for byte.

Any unexpected exception anywhere is a ``bug`` — error-path hygiene is
part of the contract being fuzzed.
"""

from __future__ import annotations

import traceback
from contextlib import nullcontext
from dataclasses import dataclass

from repro.arrays.interconnect import resolve_interconnect
from repro.chains.decompose import ChainDecompositionError
from repro.codegen import native_disabled
from repro.core.nonuniform import synthesize
from repro.core.options import SynthesisOptions
from repro.core.restructure import RestructureError, restructure
from repro.core.verify import verify_design
from repro.fuzz.cases import CaseDescriptor, build_inputs, build_spec
from repro.fuzz.oracle import OracleReject, evaluate
from repro.ir.evaluate import run_system, trace_execution
from repro.machine.microcode import compile_design
from repro.machine.simulator import run
from repro.obs.events import EventLog, canonical_order
from repro.rewrite.pipeline import run_pipeline
from repro.schedule.solver import NoScheduleExists
from repro.space.multimodule import NoSpaceMapExists

#: Comparison points for the cross-check: the interpreter (the oracle of
#: the event stream) and the native engine's ndarray tier, which must match
#: it byte for byte; ``run_case(..., native=True)`` appends the C tier,
#: ``"native"``.
ENGINE_ORDER = ("interpreted", "vector")


@dataclass(frozen=True)
class CaseOutcome:
    """What happened to one descriptor.

    ``status`` is one of ``ok`` (full round-trip, all engines agree),
    ``reject`` (the descriptor denotes no well-formed computation, or the
    restructurer refused its shape with a documented error),
    ``infeasible`` (no schedule / space map on the chosen interconnect) and
    ``bug`` (anything else — a value divergence, a stream divergence, an
    undocumented exception).  ``stage`` names where it happened; ``detail``
    is human-readable evidence.
    """

    status: str
    stage: str = ""
    detail: str = ""

    @property
    def is_bug(self) -> bool:
        return self.status == "bug"


def _diff(results, oracle, limit: int = 3) -> str:
    keys = [k for k in oracle if results.get(k) != oracle[k]][:limit]
    pairs = [(k, results.get(k), oracle[k]) for k in keys]
    return f"first diffs (key, got, want): {pairs}"


def _run_tier(tier: str, mc, trace, inputs, sink):
    """One strict machine run on comparison point ``tier``."""
    if tier == "interpreted":
        return run(mc, trace, inputs, strict=True, sink=sink)
    with native_disabled() if tier == "vector" else nullcontext():
        return run(mc, trace, inputs, strict=True, engine="native",
                   sink=sink)


def run_case(desc: CaseDescriptor, pipeline: bool = True,
             native: bool = False) -> CaseOutcome:
    """Round-trip ``desc``; never raises — failures become outcomes."""
    try:
        oracle = evaluate(desc)
    except OracleReject as exc:
        return CaseOutcome("reject", "oracle", str(exc))

    spec = build_spec(desc)
    params = {"n": desc.n}
    try:
        system = restructure(spec, params=params)
    except (RestructureError, ChainDecompositionError, ValueError) as exc:
        return CaseOutcome("reject", "restructure",
                           f"{type(exc).__name__}: {exc}")
    except NoScheduleExists as exc:
        return CaseOutcome("infeasible", "coarse", str(exc))
    except Exception:
        return CaseOutcome("bug", "restructure", traceback.format_exc())

    inputs = build_inputs(desc)
    try:
        reference = run_system(system, params, inputs)
    except Exception:
        return CaseOutcome("bug", "reference", traceback.format_exc())
    if reference != oracle:
        return CaseOutcome("bug", "reference", _diff(reference, oracle))

    interconnect = resolve_interconnect(desc.interconnect)
    options = SynthesisOptions(time_bound=desc.time_bound)
    try:
        design = synthesize(system, params, interconnect, options)
    except (NoScheduleExists, NoSpaceMapExists) as exc:
        return CaseOutcome("infeasible", "synthesize",
                           f"{type(exc).__name__}: {exc}")
    except Exception:
        return CaseOutcome("bug", "synthesize", traceback.format_exc())

    try:
        report = verify_design(design, inputs)
    except Exception:
        return CaseOutcome("bug", "verify", traceback.format_exc())
    if not report.ok:
        return CaseOutcome("bug", "verify", "; ".join(report.failures))

    engines = ENGINE_ORDER + ("native",) if native else ENGINE_ORDER
    streams: dict[str, str] = {}
    try:
        trace = trace_execution(system, params, inputs)
        mc = compile_design(trace, design.schedules, design.space_maps,
                            interconnect.decomposer())
        for engine in engines:
            log = EventLog()
            machine = _run_tier(engine, mc, trace, inputs, log)
            if machine.results != oracle:
                return CaseOutcome("bug", f"engine:{engine}",
                                   _diff(machine.results, oracle))
            log.events = canonical_order(log.events)
            streams[engine] = log.to_jsonl()
    except Exception:
        return CaseOutcome("bug", "engines", traceback.format_exc())

    if len(set(streams.values())) != 1:
        sizes = {name: len(body.splitlines())
                 for name, body in streams.items()}
        return CaseOutcome("bug", "events",
                           f"canonical event streams differ across engines "
                           f"(lines per engine: {sizes})")

    if pipeline:
        # Fourth comparison point: the same case again, through the pass
        # pipeline from its *spec* (decompose-chains does the restructuring
        # this time).  The one-shot path above already restructured the
        # same spec, so any infeasibility here is a divergence, not an
        # honest reject.
        try:
            state = run_pipeline(spec, params, interconnect, options)
            pdesign = state.design
            if pdesign.to_dict() != design.to_dict():
                return CaseOutcome(
                    "bug", "pipeline",
                    "pass-pipeline design differs from the system-entry "
                    "design")
            ptrace = trace_execution(pdesign.system, params, inputs)
            pmc = compile_design(ptrace, pdesign.schedules,
                                 pdesign.space_maps,
                                 interconnect.decomposer())
            log = EventLog()
            machine = _run_tier(engines[-1], pmc, ptrace, inputs, log)
            if machine.results != oracle:
                return CaseOutcome("bug", "pipeline",
                                   _diff(machine.results, oracle))
            log.events = canonical_order(log.events)
            if log.to_jsonl() != streams[engines[-1]]:
                return CaseOutcome(
                    "bug", "pipeline",
                    "pass-pipeline canonical event stream differs from the "
                    "system-entry native stream")
        except Exception:
            return CaseOutcome("bug", "pipeline", traceback.format_exc())
    return CaseOutcome("ok")
