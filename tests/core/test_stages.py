"""The one list of stage names, and the byte-stable profile exports."""

import ast
import hashlib
import json
from pathlib import Path

from repro.api import available_passes, synthesize, verify_design
from repro.arrays import FIG1_UNIDIRECTIONAL
from repro.obs import (
    STAGES,
    TRACER,
    Span,
    collapsed_stacks,
    spans_to_chrome_trace,
)
from repro.problems import dp_inputs, dp_system

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Entries of :data:`STAGES` that end in "." are name prefixes.
PREFIXES = tuple(s for s in STAGES if s.endswith("."))
NAMES = frozenset(s for s in STAGES if not s.endswith("."))


def _span_calls():
    """``(file, literal name or None, f-string prefix or None)`` for every
    ``TRACER.span(...)`` call under ``src/``."""
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "span"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "TRACER"):
                continue
            arg = node.args[0]
            rel = path.relative_to(SRC)
            if isinstance(arg, ast.Constant):
                yield rel, arg.value, None
            elif isinstance(arg, ast.JoinedStr):
                head = arg.values[0]
                assert isinstance(head, ast.Constant), rel
                yield rel, None, head.value
            else:
                raise AssertionError(f"{rel}: span name is not a literal")


def _walk(span):
    yield span
    for child in span.children:
        yield from _walk(child)


class TestStageList:
    def test_unique_and_prefixes_marked(self):
        assert len(set(STAGES)) == len(STAGES)
        assert PREFIXES == ("pass.",)

    def test_every_span_in_src_is_listed(self):
        calls = list(_span_calls())
        assert calls
        for rel, literal, prefix in calls:
            if literal is not None:
                assert literal in NAMES, f"{rel}: unlisted stage {literal!r}"
            else:
                assert prefix in PREFIXES, f"{rel}: unlisted {prefix!r}"

    def test_every_listed_stage_is_opened_somewhere(self):
        used = set()
        for _, literal, prefix in _span_calls():
            used.add(literal if literal is not None else prefix)
        assert set(STAGES) - used == set()

    def test_traced_design_emits_only_listed_stages(self):
        passes = {name for name, _ in available_passes()}
        was_enabled = TRACER.enabled
        TRACER.reset()
        TRACER.enable()
        try:
            design = synthesize(dp_system(), {"n": 6}, FIG1_UNIDIRECTIONAL)
            report = verify_design(design, dp_inputs([3, 1, 4, 1, 5]))
            names = {s.name for root in TRACER.spans() for s in _walk(root)}
        finally:
            TRACER.enabled = was_enabled
            TRACER.reset()
        assert report.ok
        assert {"pipeline", "verify.reference"} <= names
        for name in names:
            if name.startswith("pass."):
                assert name[len("pass."):] in passes, name
            else:
                assert name in NAMES, name


#: A fixed span forest: nesting, attributes, counters and sibling layout.
FIXTURE = [
    {"name": "sweep.solve", "duration_ms": 12.5, "children": [
        {"name": "sweep.job", "duration_ms": 7.25,
         "attrs": {"job": "dp(n=5)"}, "counters": {"cache.stores": 1},
         "children": [
             {"name": "pipeline", "duration_ms": 6.0,
              "attrs": {"passes": 5}, "children": [
                  {"name": "pass.schedule", "duration_ms": 2.125},
                  {"name": "pass.allocate", "duration_ms": 3.5,
                   "counters": {"space.assignments_examined": 40}}]}]},
        {"name": "sweep.verify", "duration_ms": 4.0}]},
    {"name": "verify.reference", "duration_ms": 0.75},
]


class TestExportBytes:
    def _spans(self):
        return [Span.from_dict(d) for d in FIXTURE]

    def test_collapsed_stacks_bytes(self):
        assert collapsed_stacks(self._spans()) == (
            "sweep.solve 1250\n"
            "sweep.solve;sweep.job 1250\n"
            "sweep.solve;sweep.job;pipeline 375\n"
            "sweep.solve;sweep.job;pipeline;pass.allocate 3500\n"
            "sweep.solve;sweep.job;pipeline;pass.schedule 2125\n"
            "sweep.solve;sweep.verify 4000\n"
            "verify.reference 750")

    def test_chrome_trace_bytes(self):
        # The bytes ``repro profile`` writes for this forest.
        body = json.dumps(spans_to_chrome_trace(self._spans()), indent=1,
                          sort_keys=True).encode("utf-8")
        assert hashlib.sha256(body).hexdigest() == (
            "35e1d5d65a5ef6582236e82ab8000ae032b7b01d2fb6e002e4428d1a1672ba1b")
