"""Interconnects, regions and data-flow classification."""

from fractions import Fraction

import pytest

from repro.arrays import (
    ArrayRegion,
    FIG1_UNIDIRECTIONAL,
    FIG2_EXTENDED,
    Interconnect,
    LINEAR_BIDIR,
    VLSIArray,
    variable_flows,
)
from repro.arrays.dataflow import Flow
from repro.deps import DependenceMatrix
from repro.schedule import LinearSchedule
from repro.space import SpaceMap


class TestInterconnect:
    def test_fig1_matches_paper(self):
        """Δ = [(0,0), (1,0), (0,-1)] — stay, +x, -y."""
        assert FIG1_UNIDIRECTIONAL.columns == ((0, 0), (1, 0), (0, -1))
        assert FIG1_UNIDIRECTIONAL.has_stay
        assert FIG1_UNIDIRECTIONAL.moves() == ((1, 0), (0, -1))

    def test_fig2_matches_paper(self):
        """Δ = [(0,0), (1,0), (0,-1), (-1,0), (-1,-1)]."""
        assert FIG2_EXTENDED.columns == (
            (0, 0), (1, 0), (0, -1), (-1, 0), (-1, -1))

    def test_matrix_shape(self):
        assert FIG2_EXTENDED.matrix().shape == (2, 5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Interconnect("bad", ())

    def test_mixed_dims_rejected(self):
        with pytest.raises(ValueError):
            Interconnect("bad", ((0,), (1, 0)))


class TestRegion:
    def test_count_and_bbox(self):
        r = ArrayRegion.of([(0, 0), (1, 0), (1, 2)])
        assert r.count == 3
        assert r.bounding_box() == ((0, 1), (0, 2))

    def test_union_contains(self):
        a = ArrayRegion.of([(0,)])
        b = ArrayRegion.of([(1,)])
        u = a.union(b)
        assert (0,) in u and (1,) in u

    def test_empty_bbox_raises(self):
        with pytest.raises(ValueError):
            ArrayRegion(frozenset()).bounding_box()


class TestVLSIArray:
    def test_neighbours_respect_region(self):
        region = ArrayRegion.of([(0, 0), (1, 0)])
        arr = VLSIArray(FIG1_UNIDIRECTIONAL, region)
        assert arr.neighbours((0, 0)) == [(1, 0)]
        assert arr.neighbours((1, 0)) == []

    def test_link_exists(self):
        region = ArrayRegion.of([(0, 0), (1, 0)])
        arr = VLSIArray(FIG1_UNIDIRECTIONAL, region)
        assert arr.link_exists((0, 0), (1, 0))
        assert arr.link_exists((0, 0), (0, 0))    # stay
        assert not arr.link_exists((1, 0), (0, 0))


class TestFlows:
    def flows_w2(self):
        deps = DependenceMatrix.from_dict(
            {"y": [(0, 1)], "x": [(1, 1)], "w": [(1, 0)]})
        T = LinearSchedule(("i", "k"), (1, 1))
        S = SpaceMap(("i", "k"), ((0, 1),))
        return variable_flows(deps, T, S)

    def test_w2_flows(self):
        flows = self.flows_w2()
        assert flows["w"].stays
        assert flows["y"].direction == (1,) and flows["y"].speed == 1
        assert flows["x"].direction == (1,) and flows["x"].speed == Fraction(1, 2)

    def test_describe(self):
        flows = self.flows_w2()
        assert flows["w"].describe() == "stays"
        assert "speed 1/2" in flows["x"].describe()
