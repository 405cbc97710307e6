"""The global link constraints read from the execution plan equal the
scalar per-point derivation on every system of the fingerprint grid."""

import numpy as np
import pytest

from repro.core.globals import link_constraints
from repro.core.restructure import restructure
from repro.ir.evaluate import build_execution_plan
from repro.ir.program import HighLevelSpec

from tests.core.link_oracle import scalar_link_constraints
from tests.core.test_design_fingerprints import SNAPSHOT, tool

# The interconnect does not enter the system: one case per (problem, params).
SYSTEMS = sorted({(c["problem"], tuple(sorted(c["params"].items())))
                  for c in SNAPSHOT["cases"]})


def _system(problem, params):
    source = tool._sources()[problem]()
    if isinstance(source, HighLevelSpec):
        return restructure(source, params=params)
    return source


def _described(constraints):
    return [(gc.name, gc.dst_module, gc.src_module, gc.min_gap,
             gc.dst_points.tolist(), gc.src_points.tolist())
            for gc in constraints]


@pytest.mark.parametrize(
    "problem,params", SYSTEMS,
    ids=[f"{p}({','.join(f'{k}={v}' for k, v in ps)})" for p, ps in SYSTEMS])
def test_plan_constraints_match_scalar_oracle(problem, params):
    params = dict(params)
    system = _system(problem, params)
    got = link_constraints(build_execution_plan(system, params))
    want = scalar_link_constraints(system, params)
    assert got or len(system.modules) == 1
    assert _described(got) == _described(want)
    for gc in got:
        assert gc.dst_points.dtype == gc.src_points.dtype == np.int64
