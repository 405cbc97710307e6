"""Correctness oracle for the end-to-end benchmark.

Every operation the benchmark times is checked three ways, all outside the
timed region:

* **verdict** -- the committed ``expected.json`` names, per case, either
  ``{"ok": true, "cells": .., "completion_time": ..}`` or
  ``{"ok": false, "error_type": ..}``;
* **closed forms** -- the paper's formulas, asserted directly: DP on Fig. 1
  has ``(n-1)(n-2)/2`` cells and finishes in ``2n-5`` cycles, DP on Fig. 2
  has ``sum_i floor((n-i)/2)`` cells in the same time, the backward
  convolution (design W2) has ``s`` cells and ``n+s-2`` cycles, matmul has
  ``n^2`` cells and ``3(n-1)`` cycles;
* **golden models** -- one seeded instance per feasible design runs on the
  systolic machine and is compared against :mod:`repro.reference` or NumPy,
  never against the program's own evaluator.

Regenerate ``expected.json`` (only after reviewing why a verdict changed)::

    PYTHONPATH=src python benchmarks/e2e/oracle.py
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import api
from repro.ir import trace_execution
from repro.machine import compile_design, run
from repro.problems import (
    convolution_backward,
    convolution_forward,
    convolution_inputs,
    dp_inputs,
    dp_spec,
    dp_system,
    matmul_inputs,
    matmul_system,
    parenthesization_inputs,
    parenthesization_spec,
    shortest_path_inputs,
    shortest_path_spec,
)
from repro.reference import convolve, matrix_chain, min_plus_dp

EXPECTED_PATH = Path(__file__).with_name("expected.json")

#: Case problem name -> builder of the synthesis source.  ``*-spec`` entries
#: are high-level specifications that go through Section III restructuring.
SOURCES = {
    "dp": dp_system,
    "dp-spec": dp_spec,
    "paren-spec": parenthesization_spec,
    "sp-spec": shortest_path_spec,
    "conv-backward": convolution_backward,
    "conv-forward": convolution_forward,
    "matmul": matmul_system,
}


@dataclass(frozen=True)
class Case:
    """One synthesis problem instance on one interconnect."""

    problem: str
    params: tuple[tuple[str, int], ...]
    interconnect: str

    @classmethod
    def of(cls, problem: str, interconnect: str, **params: int) -> "Case":
        return cls(problem, tuple(sorted(params.items())), interconnect)

    @property
    def label(self) -> str:
        p = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.problem}({p})@{self.interconnect}"

    @property
    def params_dict(self) -> dict[str, int]:
        return dict(self.params)


def _draw(case: Case, seed: int) -> dict:
    """The raw random instance behind a golden check (not the program's
    own input generator, so the check stays independent of it)."""
    rng = random.Random(f"{case.label}:{seed}")
    p = case.params_dict
    if case.problem == "paren-spec":
        return {"dims": [rng.randint(1, 9) for _ in range(p["n"])]}
    if case.problem in ("dp", "dp-spec", "sp-spec"):
        return {"w": [rng.randint(1, 50) for _ in range(p["n"] - 1)]}
    if case.problem.startswith("conv"):
        return {"x": [rng.randint(-9, 9) for _ in range(p["n"])],
                "w": [rng.randint(-3, 3) for _ in range(p["s"])]}
    n = p["n"]
    return {"A": np.array([[rng.randint(-5, 5) for _ in range(n)]
                           for _ in range(n)]),
            "B": np.array([[rng.randint(-5, 5) for _ in range(n)]
                           for _ in range(n)])}


def input_factory(case: Case):
    """``seed -> input binding`` for ``verify_design(seeds=...)``.

    The program's own generator serves every problem it knows; matrix-chain
    values are tuples, which it does not generate.
    """
    if case.problem == "paren-spec":
        return lambda seed: parenthesization_inputs(_draw(case, seed)["dims"])
    problem = "dp" if case.problem.endswith("-spec") else case.problem
    return api.input_factory(problem, case.params_dict)


def golden(case: Case, design, seed: int) -> list[str]:
    """Run one seeded instance on the machine and compare every output with
    the sequential reference; returns failure messages."""
    params = case.params_dict
    data = _draw(case, seed)
    if case.problem == "paren-spec":
        inputs = parenthesization_inputs(data["dims"])
        ref = matrix_chain(data["dims"])
    elif case.problem in ("dp", "dp-spec"):
        inputs, ref = dp_inputs(data["w"]), min_plus_dp(data["w"], params["n"])
    elif case.problem == "sp-spec":
        inputs = shortest_path_inputs(data["w"])
        ref = min_plus_dp(data["w"], params["n"])
    elif case.problem.startswith("conv"):
        inputs = convolution_inputs(data["x"], data["w"])
        ref = {(i + 1,): v for i, v in enumerate(convolve(data["x"],
                                                          data["w"]))}
    else:
        inputs = matmul_inputs(data["A"], data["B"])
        c = data["A"] @ data["B"]
        ref = {(i + 1, j + 1): c[i, j] for i in range(params["n"])
               for j in range(params["n"])}
    if case.problem in ("dp", "dp-spec", "sp-spec", "paren-spec"):
        # The seed diagonal c_{i,i+1} is an input, not a machine output.
        ref = {k: v for k, v in ref.items() if k[1] - k[0] >= 2}
    trace = trace_execution(design.system, params, inputs)
    mc = compile_design(trace, design.schedules, design.space_maps,
                        design.interconnect.decomposer())
    got = run(mc, trace, inputs, engine="compiled").results
    if set(got) != set(ref):
        return [f"{case.label}: machine outputs {len(got)} keys, "
                f"reference {len(ref)}"]
    bad = [k for k in ref if got[k] != ref[k]]
    if bad:
        return [f"{case.label}: machine differs from reference at {bad[:3]}"]
    return []


def closed_form(case: Case, cells: int, completion: int) -> list[str]:
    """The paper's cell-count and completion-time formulas, where one
    applies to ``case``; returns failure messages."""
    p = case.params_dict
    want = None
    if case.problem in ("dp", "dp-spec", "paren-spec", "sp-spec"):
        n = p["n"]
        if case.interconnect == "fig1":
            want = ((n - 1) * (n - 2) // 2, 2 * n - 5)
        elif case.interconnect == "fig2":
            want = (sum((n - i) // 2 for i in range(1, n)), 2 * n - 5)
    elif case.problem == "conv-backward":
        want = (p["s"], p["n"] + p["s"] - 2)
    elif case.problem == "matmul":
        want = (p["n"] ** 2, 3 * (p["n"] - 1))
    if want is None or want == (cells, completion):
        return []
    return [f"{case.label}: {cells} cells / {completion} cycles, "
            f"closed form says {want[0]} / {want[1]}"]


def verdict_of(design=None, error: BaseException | None = None) -> dict:
    """The verdict record of one outcome, in ``expected.json``'s shape."""
    if error is not None:
        return {"ok": False, "error_type": type(error).__name__}
    return {"ok": True, "cells": design.cell_count,
            "completion_time": design.completion_time}


def load_expected() -> dict[str, dict]:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check_verdict(expected: dict[str, dict], case: Case,
                  verdict: dict) -> list[str]:
    """Compare an outcome with its committed verdict and closed form."""
    want = expected.get(case.label)
    if want is None:
        return [f"{case.label}: no expected verdict committed"]
    if verdict != want:
        return [f"{case.label}: got {verdict}, expected {want}"]
    if verdict["ok"]:
        return closed_form(case, verdict["cells"], verdict["completion_time"])
    return []


def _regenerate() -> None:
    from workloads import all_cases

    expected = {}
    for case in all_cases():
        try:
            expected[case.label] = verdict_of(api.synthesize(
                SOURCES[case.problem](), case.params_dict,
                api.resolve_interconnect(case.interconnect)))
        except api.SynthesisError as exc:
            expected[case.label] = verdict_of(error=exc)
        print(case.label, expected[case.label], flush=True)
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    _regenerate()
