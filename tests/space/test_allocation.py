"""Space maps: conflicts, flows, enumeration, preference order."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.arrays import LINEAR_BIDIR, resolve_interconnect
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
from repro.space.allocation import _CHUNK, _nonsingular, entry_preference

from tests.space import allocator_oracle as oracle
from tests.space.allocator_oracle import int_rank, transformation_full_rank

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
            bound=1))
        assert cands, "no feasible space maps found"
        assert cands[0].matrix == ((0, 1),)

    def test_all_enumerated_are_feasible(self):
        for s in enumerate_space_maps(
                ("i", "k"), 1, CONV_DEPS, CONV_T,
                LINEAR_BIDIR.decomposer(), bound=1):
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


class TestBatchedRank:
    """The batched Bareiss test against the scalar exact rank."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.lists(st.integers(-3, 3), min_size=n * n,
                          max_size=n * n), min_size=1, max_size=12),
        st.integers(0, n - 1), st.sampled_from([1, 10 ** 6, 2 ** 40]))))
    def test_matches_int_rank(self, drawn):
        n, flats, dup, scale = drawn
        mats = [np.array(flat, dtype=object).reshape(n, n) * scale
                for flat in flats]
        # Make every other matrix rank-deficient: copy one row onto another.
        for M in mats[::2]:
            if n > 1:
                M[(dup + 1) % n] = M[dup] * 3
        stack = np.stack(mats)
        if scale < 2 ** 31:
            stack = stack.astype(np.int64)
        want = [int_rank(M.tolist()) == n for M in mats]
        assert _nonsingular(stack).tolist() == want

    def test_det_beyond_int64_is_exact(self):
        # det 2**64 wraps to 0 in int64: the Hadamard bound must route
        # this stack to Python ints.
        stack = np.array([[[2 ** 32, 0], [0, 2 ** 32]],
                          [[2 ** 32, 2 ** 32], [2 ** 32, 2 ** 32]]],
                         dtype=np.int64)
        assert _nonsingular(stack).tolist() == [True, False]

    def test_zero_pivot_needs_a_swap(self):
        stack = np.array([[[0, 1, 0], [1, 0, 0], [0, 0, 1]],
                          [[0, 1, 0], [0, 2, 0], [0, 0, 1]]])
        assert _nonsingular(stack).tolist() == [True, False]


LINKS = st.sampled_from(["linear", "fig1", "fig2", "mesh", "hex"])


@st.composite
def space_problems(draw):
    """A module of 1-4 dims with a random schedule and the dependence
    columns it satisfies, on a random interconnect.  Bound 2 only where
    the bound box stays small enough for the scalar oracle."""
    ic = resolve_interconnect(draw(LINKS))
    n = draw(st.integers(1, 4))
    bound = draw(st.sampled_from([1, 2] if n * ic.label_dim <= 4 else [1]))
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    cols = draw(st.lists(st.lists(st.integers(-1, 1), min_size=n,
                                  max_size=n), max_size=3))
    cols = [c for c in cols if np.dot(coeffs, c) > 0]
    offsets = draw(st.sampled_from([(0,), (-1, 0, 1)]))
    return ic, n, bound, tuple(coeffs), cols, offsets


def assert_enumeration_matches_oracle(ic, n, bound, coeffs, cols, offsets):
    dims = tuple(f"x{k}" for k in range(n))
    schedule = LinearSchedule(dims, coeffs)
    deps = DependenceMatrix.from_dict({"v": cols})
    points = np.array(list(itertools.product(range(3), repeat=n)),
                      dtype=np.int64)
    args = (dims, ic.label_dim, deps, schedule, ic.decomposer())
    got = list(enumerate_space_maps(*args, bound=bound, offsets=offsets))
    want = list(oracle.enumerate_space_maps(*args, points, bound=bound,
                                            offsets=offsets))
    assert got == want
    return got


def grid_index(smap, bound):
    """Position of ``smap``'s matrix in the scan of the bound box."""
    order = sorted(range(-bound, bound + 1), key=entry_preference)
    index = 0
    for entry in itertools.chain.from_iterable(smap.matrix):
        index = index * len(order) + order.index(entry)
    return index


class TestEnumerationMatchesOracle:
    """Same maps, same order, as the scalar generate-and-test scan."""

    @settings(max_examples=40, deadline=None)
    @given(space_problems())
    @example((resolve_interconnect("hex"), 2, 2, (1, 1),
              [(1, 0), (0, 1)], (-1, 0, 1)))
    def test_random_modules(self, problem):
        assert_enumeration_matches_oracle(*problem)

    @pytest.mark.parametrize("offsets", [(0,), (-1, 0, 1)])
    def test_crosses_chunk_boundaries(self, offsets):
        # 5**6 matrices span four chunks, with survivors in every one.
        got = assert_enumeration_matches_oracle(
            resolve_interconnect("fig2"), 3, 2, (2, 1, 1),
            [(1, 0, 0), (0, 1, 0)], offsets)
        chunks = {grid_index(smap, 2) // _CHUNK for smap in got}
        assert chunks == set(range(4))
