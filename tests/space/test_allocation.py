"""Space maps: conflicts, flows, enumeration, preference order."""

import numpy as np
import pytest

from repro.arrays import LINEAR_BIDIR
from repro.deps import DependenceMatrix
from repro.ir.indexset import Polyhedron
from repro.schedule import LinearSchedule
from repro.space import (
    SpaceMap,
    cells_used,
    conflict_free,
    enumerate_space_maps,
    flows_realisable,
)
from repro.space.allocation import entry_preference, transformation_full_rank

CONV_DEPS = DependenceMatrix.from_dict(
    {"y": [(0, 1)], "x": [(1, 1)], "w": [(1, 0)]})
CONV_T = LinearSchedule(("i", "k"), (1, 1))
CONV_DOM = Polyhedron.box({"i": (1, 8), "k": (1, 3)})
CONV_PTS = np.array(list(CONV_DOM.points({})), dtype=np.int64)


class TestSpaceMap:
    def test_cell(self):
        s = SpaceMap(("i", "k"), ((0, 1),))
        assert s.cell((5, 2)) == (2,)

    def test_offset(self):
        s = SpaceMap(("i", "j"), ((1, 0), (1, 0)), (1, 0))
        assert s.cell((3, 9)) == (4, 3)

    def test_of_vector_ignores_offset(self):
        s = SpaceMap(("i",), ((2,),), (5,))
        assert s.of_vector((1,)) == (2,)

    def test_cells_vectorised(self):
        s = SpaceMap(("i", "k"), ((0, 1), (1, 0)))
        pts = np.array([[1, 2], [3, 4]])
        np.testing.assert_array_equal(s.cells(pts), [[2, 1], [4, 3]])

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            SpaceMap(("i", "k"), ((1,),))
        with pytest.raises(ValueError):
            SpaceMap(("i",), ((1,),), (0, 0))


class TestConflictFreedom:
    def test_w2_is_conflict_free(self):
        s = SpaceMap(("i", "k"), ((0, 1),))
        assert conflict_free(CONV_T, s, CONV_PTS)

    def test_projection_to_point_conflicts(self):
        s = SpaceMap(("i", "k"), ((0, 0),))
        assert not conflict_free(CONV_T, s, CONV_PTS)

    def test_nonsingular_pi(self):
        s = SpaceMap(("i", "k"), ((0, 1),))
        assert transformation_full_rank(CONV_T, s)
        degenerate = SpaceMap(("i", "k"), ((1, 1),))
        # T=(1,1), S=(1,1): Π singular.
        assert not transformation_full_rank(CONV_T, degenerate)


class TestFlows:
    def test_w2_flows_realisable(self):
        s = SpaceMap(("i", "k"), ((0, 1),))
        assert flows_realisable(CONV_DEPS, CONV_T, s,
                                LINEAR_BIDIR.decomposer())

    def test_too_fast_flow_rejected(self):
        # y displacement 2 per 1 cycle: not coverable.
        s = SpaceMap(("i", "k"), ((0, 2),))
        assert not flows_realisable(CONV_DEPS, CONV_T, s,
                                    LINEAR_BIDIR.decomposer())


class TestEnumeration:
    def test_w2_enumerated_first(self):
        cands = list(enumerate_space_maps(
            ("i", "k"), 1, CONV_DEPS, CONV_T, LINEAR_BIDIR.decomposer(),
            CONV_PTS, bound=1))
        assert cands, "no feasible space maps found"
        assert cands[0].matrix == ((0, 1),)

    def test_all_enumerated_are_feasible(self):
        for s in enumerate_space_maps(
                ("i", "k"), 1, CONV_DEPS, CONV_T,
                LINEAR_BIDIR.decomposer(), CONV_PTS, bound=1):
            assert conflict_free(CONV_T, s, CONV_PTS)
            assert flows_realisable(CONV_DEPS, CONV_T, s,
                                    LINEAR_BIDIR.decomposer())
            assert transformation_full_rank(CONV_T, s)

    def test_cells_used(self):
        s = SpaceMap(("i", "k"), ((0, 1),))
        assert cells_used(s, CONV_PTS) == {(1,), (2,), (3,)}


class TestEntryPreference:
    def test_order(self):
        ranked = sorted([-2, 2, -1, 1, 0], key=entry_preference)
        assert ranked == [0, 1, -1, 2, -2]
