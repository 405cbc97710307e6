"""Shared fixtures: systems, designs and inputs used across the suite.

Synthesis results are session-scoped — the solvers are deterministic, so
caching them is safe and keeps the suite fast.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.arrays import FIG1_UNIDIRECTIONAL, FIG2_EXTENDED, LINEAR_BIDIR
from repro.core import restructure, synthesize
from repro.problems import (
    convolution_backward,
    convolution_forward,
    dp_inputs,
    dp_spec,
    dp_system,
)

DP_N = 8


@pytest.fixture(scope="session", autouse=True)
def _isolated_design_cache(tmp_path_factory):
    """Point the persistent cache (designs + native .so artifacts) at a
    session tmp dir so the suite never pollutes the user's real cache —
    while still exercising warm-cache behaviour within the session."""
    path = tmp_path_factory.mktemp("design-cache")
    old = os.environ.get("REPRO_DESIGN_CACHE")
    os.environ["REPRO_DESIGN_CACHE"] = str(path)
    yield path
    if old is None:
        os.environ.pop("REPRO_DESIGN_CACHE", None)
    else:
        os.environ["REPRO_DESIGN_CACHE"] = old


@pytest.fixture(autouse=True)
def _int64_fallback_warns_every_test(monkeypatch):
    """Re-arm the once-per-process int64 fallback warning for each test.

    ``RuntimeWarning`` is an error in this suite, so every test that takes
    the fallback on purpose must say so with a ``filterwarnings`` mark —
    and which one fails must not depend on test order.
    """
    from repro.ir import vector

    monkeypatch.setattr(vector, "_fallback_warned", False)


@pytest.fixture(scope="session")
def dp_sys():
    return dp_system()


@pytest.fixture(scope="session")
def dp_params():
    return {"n": DP_N}


@pytest.fixture(scope="session")
def dp_seeds():
    rng = random.Random(42)
    return [rng.randint(1, 9) for _ in range(DP_N - 1)]


@pytest.fixture(scope="session")
def dp_host_inputs(dp_seeds):
    return dp_inputs(dp_seeds)


@pytest.fixture(scope="session")
def dp_restructured():
    return restructure(dp_spec(), params={"n": DP_N})


@pytest.fixture(scope="session")
def dp_design_fig1(dp_sys, dp_params):
    return synthesize(dp_sys, dp_params, FIG1_UNIDIRECTIONAL)


@pytest.fixture(scope="session")
def dp_design_fig2(dp_sys, dp_params):
    return synthesize(dp_sys, dp_params, FIG2_EXTENDED)


@pytest.fixture(scope="session")
def conv_backward_sys():
    return convolution_backward()


@pytest.fixture(scope="session")
def conv_forward_sys():
    return convolution_forward()


@pytest.fixture(scope="session")
def conv_params():
    return {"n": 10, "s": 4}


@pytest.fixture(scope="session")
def conv_design_backward(conv_backward_sys, conv_params):
    return synthesize(conv_backward_sys, conv_params, LINEAR_BIDIR)


@pytest.fixture(scope="session")
def conv_design_forward(conv_forward_sys, conv_params):
    return synthesize(conv_forward_sys, conv_params, LINEAR_BIDIR)
