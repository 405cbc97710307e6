"""Replaying the persisted fuzz corpus under ``tests/corpus/``.

Every artifact is a shrunk :class:`~repro.fuzz.cases.CaseDescriptor` that
once exposed a bug (or pins a boundary the fuzzer must keep exercising).
Replay runs the descriptor through the *whole* pipeline — oracle,
restructuring, synthesis, the interpreter and both tiers of ``native``
(its C tier degrades to the ndarray tier where no C toolchain exists) with
value and event-stream comparison — via
:func:`repro.fuzz.harness.run_case`, then enforces the artifact's
``expect`` contract: the recorded status must match exactly, or for
freshly-found failures (``expect: null``) the outcome must merely not
be a bug.  See :mod:`repro.fuzz.corpus` for the artifact format.
"""

from pathlib import Path

import pytest

from repro.fuzz import load_corpus, run_case

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
ARTIFACTS = load_corpus(CORPUS_DIR)


def test_corpus_is_populated():
    # The shipped corpus pins the int64 boundary fixes, the synthesize
    # lowering check, and a spread of chain structures; losing the files
    # would silently skip every replay below.
    assert len(ARTIFACTS) >= 10


# Artifacts pin Fraction and int64-boundary pools, so the exact int64
# fast path falling back to object arrays is expected here.
@pytest.mark.filterwarnings("ignore:exact int64 fast path:RuntimeWarning")
@pytest.mark.parametrize(
    "artifact", ARTIFACTS, ids=[a["path"].stem for a in ARTIFACTS])
def test_artifact_replays(artifact):
    outcome = run_case(artifact["descriptor"], native=True)
    expect = artifact["expect"]
    context = (f"{artifact['path'].name}: {artifact['note']}\n"
               f"stage={outcome.stage}\n{outcome.detail}")
    if expect is None:
        assert not outcome.is_bug, context
    else:
        assert outcome.status == expect, context
