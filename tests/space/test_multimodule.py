"""Joint space allocation — reproduces S', S'', S of Sections V.B and VI."""

import numpy as np
import pytest

from repro.arrays import FIG1_UNIDIRECTIONAL, FIG2_EXTENDED
from repro.core import link_constraints
from repro.deps import system_dependence_matrices
from repro.ir.evaluate import build_execution_plan
from repro.problems import dp_system
from repro.schedule import ModuleSchedulingProblem, solve_multimodule
from repro.space import (
    ModuleSpaceProblem,
    NoSpaceMapExists,
    solve_multimodule_space,
)
from tests.space.allocator_oracle import adjacency_ok


@pytest.fixture(scope="module")
def dp_setup():
    n = 8
    system = dp_system()
    params = {"n": n}
    deps = system_dependence_matrices(system)
    pts = {name: np.array(list(m.domain.points(params)), dtype=np.int64)
           for name, m in system.modules.items()}
    sched_problems = [
        ModuleSchedulingProblem(name, m.dims, deps[name], pts[name])
        for name, m in system.modules.items()]
    constraints = link_constraints(build_execution_plan(system, params))
    schedules = solve_multimodule(sched_problems, constraints, bound=3).schedules
    return system, deps, pts, constraints, schedules


def space_problems(system, deps, pts, schedules, comb_offsets):
    return [ModuleSpaceProblem(
        name, m.dims, deps[name], pts[name], schedules[name],
        bound=1, offsets=comb_offsets if name == "comb" else (0,))
        for name, m in system.modules.items()]


class TestFig1:
    def test_paper_maps(self, dp_setup):
        system, deps, pts, constraints, schedules = dp_setup
        sol = solve_multimodule_space(
            space_problems(system, deps, pts, schedules, (0,)),
            constraints, FIG1_UNIDIRECTIONAL.decomposer(), 2)
        assert sol.maps["m1"].matrix == ((0, 1, 0), (1, 0, 0))
        assert sol.maps["m2"].matrix == ((0, 1, 0), (1, 0, 0))
        assert sol.maps["comb"].matrix == ((0, 1), (1, 0))

    def test_cell_count_n_squared_over_two(self, dp_setup):
        system, deps, pts, constraints, schedules = dp_setup
        sol = solve_multimodule_space(
            space_problems(system, deps, pts, schedules, (0,)),
            constraints, FIG1_UNIDIRECTIONAL.decomposer(), 2)
        n = 8
        assert sol.total_cells == n * (n - 1) // 2 - (n - 1)  # pairs j-i>=2


class TestFig2:
    def test_paper_maps(self, dp_setup):
        system, deps, pts, constraints, schedules = dp_setup
        sol = solve_multimodule_space(
            space_problems(system, deps, pts, schedules, (-1, 0, 1)),
            constraints, FIG2_EXTENDED.decomposer(), 2)
        assert sol.maps["m1"].matrix == ((0, 0, 1), (1, 0, 0))
        assert sol.maps["m2"].matrix == ((1, 1, -1), (1, 0, 0))
        assert sol.maps["comb"].matrix == ((1, 0), (1, 0))
        assert sol.maps["comb"].offset == (1, 0)

    def test_fewer_cells_than_fig1(self, dp_setup):
        system, deps, pts, constraints, schedules = dp_setup
        fig1 = solve_multimodule_space(
            space_problems(system, deps, pts, schedules, (0,)),
            constraints, FIG1_UNIDIRECTIONAL.decomposer(), 2)
        fig2 = solve_multimodule_space(
            space_problems(system, deps, pts, schedules, (-1, 0, 1)),
            constraints, FIG2_EXTENDED.decomposer(), 2)
        assert fig2.total_cells < fig1.total_cells


class TestAdjacency:
    def test_adjacency_checks_every_instance(self, dp_setup):
        system, deps, pts, constraints, schedules = dp_setup
        sol = solve_multimodule_space(
            space_problems(system, deps, pts, schedules, (0,)),
            constraints, FIG1_UNIDIRECTIONAL.decomposer(), 2)
        for gc in constraints:
            assert adjacency_ok(
                gc, schedules[gc.dst_module], schedules[gc.src_module],
                sol.maps[gc.dst_module], sol.maps[gc.src_module],
                FIG1_UNIDIRECTIONAL.decomposer())

    def test_infeasible_interconnect(self, dp_setup):
        """Without a leftward or stay link, the DP flows cannot be placed."""
        from repro.arrays import Interconnect

        system, deps, pts, constraints, schedules = dp_setup
        crippled = Interconnect("no-stay-up-only", ((0, 1),))
        with pytest.raises(NoSpaceMapExists):
            solve_multimodule_space(
                space_problems(system, deps, pts, schedules, (0,)),
                constraints, crippled.decomposer(), 2)
