"""A sample of the committed design and lowering fingerprints, re-derived.

``tools/check_design_fingerprints.py --check`` re-synthesizes all of
``tests/data/design_fingerprints.json`` (a CI step); this keeps a few cheap
cases of every family, feasible and infeasible, in the tier-1 suite.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
SNAPSHOT = json.loads(
    (REPO / "tests" / "data" / "design_fingerprints.json").read_text())

_spec = importlib.util.spec_from_file_location(
    "check_design_fingerprints",
    REPO / "tools" / "check_design_fingerprints.py")
tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tool)

SAMPLE = ("dp(n=6)@fig1", "dp(n=6)@fig2", "dp(n=6)@linear",
          "conv-backward(n=8,s=3)@linear", "conv-forward(n=8,s=3)@fig1",
          "matmul(n=3)@hex", "matmul(n=3)@linear")
CASES = {tool.case_label(c): c for c in SNAPSHOT["cases"]}


def test_snapshot_lists_every_case_once():
    assert len(CASES) == len(SNAPSHOT["cases"])
    assert set(CASES) == set(SNAPSHOT["fingerprints"])


def test_every_feasible_case_pins_its_lowering():
    feasible = {label for label, fp in SNAPSHOT["fingerprints"].items()
                if fp.startswith("sha256:")}
    assert set(SNAPSHOT["lowerings"]) == feasible


@pytest.mark.parametrize("label", SAMPLE)
def test_design_matches_snapshot(label):
    design, lowering = tool.fingerprints(CASES[label])
    assert design == SNAPSHOT["fingerprints"][label]
    assert lowering == SNAPSHOT["lowerings"].get(label)
