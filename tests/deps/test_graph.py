"""Dependence DAGs over lattice points."""

import pytest

from repro.deps import (
    DependenceMatrix,
    critical_path_length,
    dependence_dag,
    levels,
)
from repro.ir.indexset import Polyhedron
from repro.schedule import LinearSchedule


class TestDependenceDag:
    def test_box_chain(self):
        D = DependenceMatrix.from_dict({"x": [(1,)]})
        dom = Polyhedron.box({"i": (1, 6)})
        g = dependence_dag(dom, D, {})
        assert g.number_of_edges() == 5
        assert critical_path_length(g) == 5

    def test_levels(self):
        D = DependenceMatrix.from_dict({"x": [(1, 0)], "y": [(0, 1)]})
        dom = Polyhedron.box({"i": (1, 3), "j": (1, 3)})
        g = dependence_dag(dom, D, {})
        lv = levels(g)
        assert lv[(1, 1)] == 0
        assert lv[(3, 3)] == 4

    def test_cycle_rejected(self):
        D = DependenceMatrix.from_dict({"x": [(1,)], "y": [(-1,)]})
        dom = Polyhedron.box({"i": (1, 4)})
        with pytest.raises(ValueError):
            dependence_dag(dom, D, {})

    def test_valid_schedule_respects_dag(self):
        D = DependenceMatrix.from_dict({"y": [(0, 1)], "x": [(1, 1)],
                                        "w": [(1, 0)]})
        dom = Polyhedron.box({"i": (1, 6), "k": (1, 3)})
        g = dependence_dag(dom, D, {})
        good = LinearSchedule(("i", "k"), (1, 1))
        bad = LinearSchedule(("i", "k"), (1, -1))
        assert all(good.time(u) < good.time(v) for u, v in g.edges)
        assert not all(bad.time(u) < bad.time(v) for u, v in g.edges)
