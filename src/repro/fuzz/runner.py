"""The fuzzing loop: hypothesis generation, shrinking, corpus persistence.

:func:`fuzz` drives :func:`~repro.fuzz.harness.run_case` over random
:class:`~repro.fuzz.cases.CaseDescriptor`\\ s under a joint example/time
budget.  Failures go through hypothesis's shrinker — the *minimal* failing
descriptor is what gets persisted to the corpus (``expect: null``, see
:mod:`repro.fuzz.corpus`) — and duplicate failure signatures within one run
are collapsed so a single bug cannot flood the corpus.

Determinism: generation is seeded (``--seed``); batch ``b`` of a run uses
``seed + b``, so a failure is reproducible by rerunning with the same seed
and budget.  Hypothesis's on-disk example database is off by default
(``db_dir`` opts in — useful in CI to resume shrinking across runs).

Hypothesis is an optional dependency of the *library* (it is a test
requirement of the repo): importing this module works without it,
:func:`fuzz` raises cleanly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from repro.fuzz.cases import BODY1_OPS, BODY2_OPS, COMBINE_OPS, CaseDescriptor
from repro.fuzz.corpus import save_artifact
from repro.fuzz.harness import CaseOutcome, run_case

try:
    from hypothesis import HealthCheck, assume, given
    from hypothesis import seed as hypothesis_seed
    from hypothesis import settings
    from hypothesis import strategies as st
    from hypothesis.database import DirectoryBasedExampleDatabase
    from hypothesis.errors import Unsatisfiable

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - the repo's test env has hypothesis
    HAVE_HYPOTHESIS = False

INT64_MIN = -(2 ** 63)

#: Values chosen to straddle every representation boundary the vector
#: engine cares about: comfortable int64, the exact int64 edges, bignums
#: beyond int64, and exact rationals.
BOUNDARY_INTS = (INT64_MIN, INT64_MIN + 1, 2 ** 63 - 1, 2 ** 62, -1,
                 10 ** 25, -(10 ** 25))

#: Argument shapes, simplest first (hypothesis shrinks toward the front).
#: The first three pick the chain structure — two chains (the paper's
#: Section IV shape), single descending, single ascending; then the unary
#: families; the offset-carrying tails are usually unclosed and exercise
#: the reject paths.
ARG_SHAPES = (
    ((1, (0, 0)), (0, (0, 0))),
    ((1, (0, 0)), (1, (0, 0))),
    ((0, (0, 0)), (0, (0, 0))),
    ((1, (0, 0)),),
    ((0, (0, 0)),),
    ((1, (0, 0)), (1, (1, 0))),
    ((0, (0, 0)), (0, (0, 1))),
)

INTERCONNECTS = ("fig1", "fig2", "mesh", "hex")


def _require_hypothesis() -> None:
    if not HAVE_HYPOTHESIS:
        raise RuntimeError(
            "fuzzing needs the 'hypothesis' package (a test dependency of "
            "this repo); install it or run the corpus replay tests instead")


if HAVE_HYPOTHESIS:

    def _values():
        return st.one_of(
            st.integers(-9, 9),
            st.sampled_from(BOUNDARY_INTS),
            st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
        )

    @st.composite
    def descriptors(draw) -> CaseDescriptor:
        """Strategy over the whole case family of :mod:`repro.fuzz.cases`."""
        args = draw(st.sampled_from(ARG_SHAPES))
        body_table = BODY1_OPS if len(args) == 1 else BODY2_OPS
        lo = draw(st.sampled_from((1, 2)))
        hi = draw(st.sampled_from((1, 2)))
        return CaseDescriptor(
            # The domain needs n >= lo + hi + 1 to be non-empty.
            n=draw(st.integers(lo + hi + 1, 7)),
            lo=lo,
            hi=hi,
            args=args,
            body=draw(st.sampled_from(sorted(body_table))),
            combine=draw(st.sampled_from(sorted(COMBINE_OPS))),
            pool=tuple(draw(st.lists(_values(), min_size=1, max_size=5))),
            interconnect=draw(st.sampled_from(INTERCONNECTS)),
            time_bound=draw(st.sampled_from((3, 2))),
        )


@dataclass
class FuzzReport:
    """Outcome of one :func:`fuzz` run."""

    seed: int
    examples_run: int = 0                      # includes shrink replays
    counts: dict = field(default_factory=dict)  # status -> count
    #: Deduplicated shrunk failures: ``(descriptor, outcome, artifact path
    #: or None)``.
    failures: list = field(default_factory=list)
    elapsed: float = 0.0
    budget_exhausted: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        parts = [f"{self.examples_run} cases in {self.elapsed:.1f}s "
                 f"(seed {self.seed})"]
        for status in ("ok", "infeasible", "reject", "bug"):
            if status in self.counts:
                parts.append(f"{status}={self.counts[status]}")
        lines = ["fuzz: " + "  ".join(parts)]
        if self.budget_exhausted:
            lines.append("fuzz: time budget exhausted")
        for desc, outcome, path in self.failures:
            where = f" -> {path}" if path else ""
            lines.append(f"FAILURE [{outcome.stage}]{where}")
            detail = outcome.detail.strip()
            if detail:
                lines.append("  " + detail.splitlines()[-1])
        return "\n".join(lines)


class _FuzzFailure(Exception):
    """Raised inside the hypothesis probe so the shrinker minimises the
    failing descriptor before the loop persists it."""


def _signature(outcome: CaseOutcome) -> tuple:
    tail = outcome.detail.strip().splitlines()
    return (outcome.stage, tail[-1][:160] if tail else "")


def fuzz(max_examples: int = 100, budget: float = 60.0, seed: int = 0,
         corpus_dir=None, max_failures: int = 3, batch_size: int = 20,
         db_dir=None, log=None, pipeline: bool = True,
         native: bool = False) -> FuzzReport:
    """Fuzz the nonuniform pipeline until a budget is hit.

    Stops when ``max_examples`` cases ran, ``budget`` seconds elapsed or
    ``max_failures`` distinct failure signatures were collected.  Each
    failure is shrunk by hypothesis; the minimal descriptor is saved under
    ``corpus_dir`` (unless ``None``) and reported in the returned
    :class:`FuzzReport`.  ``pipeline=False`` skips the pass-pipeline
    fourth comparison point of each case (faster, less coverage);
    ``native=True`` adds the C-executor engine to every case's engine
    cross-check (slower per case — one more engine to run).
    """
    _require_hypothesis()
    started = time.monotonic()
    report = FuzzReport(seed=seed)
    seen_signatures: set[tuple] = set()
    database = (DirectoryBasedExampleDatabase(str(db_dir))
                if db_dir is not None else None)
    batch = 0
    while (report.examples_run < max_examples
           and time.monotonic() - started < budget
           and len(report.failures) < max_failures):
        count = min(batch_size, max_examples - report.examples_run)
        state: dict = {}

        @hypothesis_seed(seed + batch)
        @settings(max_examples=count, deadline=None, database=database,
                  suppress_health_check=list(HealthCheck),
                  print_blob=False)
        @given(descriptors())
        def probe(desc: CaseDescriptor) -> None:
            if time.monotonic() - started > budget:
                report.budget_exhausted = True
                assume(False)
            outcome = run_case(desc, pipeline=pipeline, native=native)
            report.examples_run += 1
            report.counts[outcome.status] = (
                report.counts.get(outcome.status, 0) + 1)
            if outcome.is_bug:
                # Track the latest failure: hypothesis reruns the *minimal*
                # shrunk example last, so this is what gets persisted.
                state["last"] = (desc, outcome)
                raise _FuzzFailure(outcome.stage)

        try:
            probe()
        except _FuzzFailure:
            desc, outcome = state["last"]
            sig = _signature(outcome)
            if sig not in seen_signatures:
                seen_signatures.add(sig)
                path = None
                if corpus_dir is not None:
                    path = save_artifact(
                        corpus_dir, desc, expect=None,
                        note="auto-saved by 'repro fuzz' (shrunk failing "
                             "example); set 'expect' after fixing",
                        found={"stage": outcome.stage,
                               "detail": outcome.detail[-2000:]})
                report.failures.append((desc, outcome, path))
                if log is not None:
                    log(f"fuzz: new failure [{outcome.stage}] "
                        f"{'-> ' + str(path) if path else '(not saved)'}")
        except Unsatisfiable:
            # Every generated example was discarded — the time budget ran
            # out mid-batch.
            break
        else:
            if log is not None and report.examples_run:
                log(f"fuzz: batch {batch} clean "
                    f"({report.examples_run}/{max_examples} cases)")
        batch += 1
    report.elapsed = time.monotonic() - started
    return report


def replay_corpus(corpus_dir, pipeline: bool = True,
                  native: bool = False) -> list[tuple]:
    """Re-run every corpus artifact; returns ``(artifact, outcome, ok)``
    triples (``ok`` per the artifact's ``expect`` contract)."""
    from repro.fuzz.corpus import load_corpus

    results = []
    for artifact in load_corpus(corpus_dir):
        outcome = run_case(artifact["descriptor"], pipeline=pipeline,
                           native=native)
        expect = artifact["expect"]
        ok = (not outcome.is_bug if expect is None
              else outcome.status == expect)
        results.append((artifact, outcome, ok))
    return results
