"""Joint multi-module scheduling — reproduces λ, μ, σ of Section V.A."""

import numpy as np
import pytest

from repro.core import link_constraints
from repro.deps import system_dependence_matrices
from repro.ir.evaluate import build_execution_plan
from repro.problems import dp_system
from repro.schedule import (
    GlobalConstraint,
    LinearSchedule,
    ModuleSchedulingProblem,
    NoScheduleExists,
    normalise_start,
    solve_multimodule,
)


def dp_problems(n=8):
    system = dp_system()
    params = {"n": n}
    deps = system_dependence_matrices(system)
    problems = []
    for name, module in system.modules.items():
        pts = np.array(list(module.domain.points(params)), dtype=np.int64)
        problems.append(ModuleSchedulingProblem(name, module.dims,
                                                deps[name], pts))
    return problems, link_constraints(build_execution_plan(system, params))


class TestPaperSolution:
    def test_lambda_mu_sigma(self):
        """Optimal: λ = -i+2j-k, μ = -2i+j+k, σ = -2i+2j."""
        problems, constraints = dp_problems()
        sol = solve_multimodule(problems, constraints, bound=3)
        assert sol.schedules["m1"].coeffs == (-1, 2, -1)
        assert sol.schedules["m2"].coeffs == (-2, 1, 1)
        assert sol.schedules["comb"].coeffs == (-2, 2)

    def test_constraint_names_match_paper(self):
        _, constraints = dp_problems()
        names = sorted({c.name for c in constraints})
        assert names == ["A1", "A2", "A3", "A4", "A5"]

    def test_all_gaps_respected(self):
        problems, constraints = dp_problems()
        sol = solve_multimodule(problems, constraints, bound=3)
        for gc in constraints:
            dst = gc.dst_points @ np.array(
                sol.schedules[gc.dst_module].coeffs) \
                + sol.schedules[gc.dst_module].offset
            src = gc.src_points @ np.array(
                sol.schedules[gc.src_module].coeffs) \
                + sol.schedules[gc.src_module].offset
            assert (dst - src >= gc.min_gap).all()

    def test_a5_gap_is_exactly_one(self):
        """σ = max(λ, μ) + 1 for the paper's solution."""
        problems, constraints = dp_problems()
        sol = solve_multimodule(problems, constraints, bound=3)
        for gc in constraints:
            if gc.name != "A5":
                continue
            dst = gc.dst_points @ np.array(sol.schedules["comb"].coeffs)
            src = gc.src_points @ np.array(
                sol.schedules[gc.src_module].coeffs)
            assert set(dst - src) == {1}

    def test_stable_across_sizes(self):
        for n in (6, 10):
            problems, constraints = dp_problems(n)
            sol = solve_multimodule(problems, constraints, bound=3)
            assert sol.schedules["m1"].coeffs == (-1, 2, -1)


class TestMechanics:
    def test_normalise_start(self):
        problems, constraints = dp_problems()
        sol = solve_multimodule(problems, constraints, bound=3)
        shifted = normalise_start(sol.schedules, problems, start=0)
        lo = min(
            int(shifted[p.name].times(p.points).min())
            for p in problems if p.points.shape[0])
        assert lo == 0
        # Gaps unchanged by a common shift.
        for gc in constraints:
            dst = gc.dst_points @ np.array(
                shifted[gc.dst_module].coeffs) + shifted[gc.dst_module].offset
            src = gc.src_points @ np.array(
                shifted[gc.src_module].coeffs) + shifted[gc.src_module].offset
            assert (dst - src >= gc.min_gap).all()

    def test_infeasible_raises(self):
        problems, _ = dp_problems(6)
        # Impossible: m1 must precede itself through a fake constraint loop.
        m1 = next(p for p in problems if p.name == "m1")
        pts = m1.points[:4]
        fake = GlobalConstraint("loop", "m1", "m1", pts, pts, min_gap=1)
        with pytest.raises(NoScheduleExists):
            solve_multimodule(problems, [fake], bound=2)

    def test_empty_module_allowed(self):
        problems, constraints = dp_problems(6)
        empty = ModuleSchedulingProblem(
            "ghost", ("i",), None, np.zeros((0, 1), dtype=np.int64))
        sol = solve_multimodule(problems + [empty], constraints, bound=3)
        assert "ghost" in sol.schedules

    def test_unknown_constraint_module_rejected(self):
        problems, _ = dp_problems(6)
        bad = GlobalConstraint("x", "nope", "m1",
                               np.zeros((0, 3)), np.zeros((0, 3)))
        with pytest.raises(KeyError):
            solve_multimodule(problems, [bad])
