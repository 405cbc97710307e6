"""The two-step refinement procedure: coarse timing and restructuring."""

import pytest

from repro.core import coarse_timing, restructure
from repro.core.restructure import RestructureError
from repro.deps import system_dependence_matrices
from repro.ir import check_system, run_system
from repro.problems import dp_inputs, dp_spec, dp_system
from repro.reference import min_plus_dp


class TestCoarseTiming:
    def test_dp_coarse_schedule(self):
        ct = coarse_timing(dp_spec(), {"n": 8})
        assert ct.schedule.coeffs == (-1, 1)

    def test_constant_deps_recorded(self):
        ct = coarse_timing(dp_spec(), {"n": 8})
        assert ct.constant_deps.vector_set() == {(0, 1), (-1, 0)}

    def test_coarse_is_lower_bound_of_actual(self):
        """τ(i^s) >= T(i^s) must hold for the final schedules: the combine
        time σ of every (i,j) is at least the coarse availability."""
        from repro.core import synthesize
        from repro.arrays import FIG1_UNIDIRECTIONAL

        system = dp_system()
        n = 7
        design = synthesize(system, {"n": n}, FIG1_UNIDIRECTIONAL)
        ct = coarse_timing(dp_spec(), {"n": n})
        comb = design.schedules["comb"]
        lo, _ = design.time_range()
        for p in system.modules["comb"].domain.points({"n": n}):
            assert comb.time(p) - lo >= ct.schedule.time(p) - 1


class TestRestructure:
    @pytest.fixture(scope="class")
    def derived(self):
        return restructure(dp_spec(), params={"n": 8})

    def test_module_structure(self, derived):
        assert list(derived.modules) == ["m1", "m2", "comb"]
        assert derived.modules["m1"].dims == ("i", "j", "k")
        assert derived.modules["comb"].dims == ("i", "j")

    def test_dependence_matrices_match_hand_written(self, derived):
        auto = system_dependence_matrices(derived)
        hand = system_dependence_matrices(dp_system())
        # Compare vector sets per module (variable names differ only by
        # systematic renaming ap/bp/cp).
        assert auto["m1"].vector_set() == hand["m1"].vector_set()
        assert auto["m2"].vector_set() == hand["m2"].vector_set()

    def test_canonic_for_many_sizes(self, derived):
        for n in (3, 4, 5, 8, 11):
            check_system(derived, {"n": n})

    def test_semantics_match_reference(self, derived):
        for n in (3, 5, 8, 11):
            seeds = [((7 * i) % 10) + 1 for i in range(1, n)]

            def c0(i, j, _s=seeds):
                return _s[i - 1]

            res = run_system(derived, {"n": n}, {"c0": c0})
            ref = min_plus_dp(seeds, n)
            assert all(res[k] == ref[k] for k in res)

    def test_semantics_match_hand_written_system(self, derived):
        n = 9
        seeds = [5, 2, 8, 1, 9, 3, 7, 4]
        hand = run_system(dp_system(), {"n": n}, dp_inputs(seeds))

        def c0(i, j, _s=seeds):
            return _s[i - 1]

        auto = run_system(derived, {"n": n}, {"c0": c0})
        assert auto == hand

    def test_chain_domains_partition_reduction_range(self, derived):
        """Every (i,j,k) of the DP triangle lands in exactly one module."""
        n = 9
        spec = dp_spec()
        m1 = set(derived.modules["m1"].domain.points({"n": n}))
        m2 = set(derived.modules["m2"].domain.points({"n": n}))
        assert not (m1 & m2)
        triangle = {(i, j, k)
                    for (i, j) in spec.domain.points({"n": n})
                    for k in range(i + 1, j)}
        assert m1 | m2 == triangle

    def test_link_labels_describe_sources(self, derived):
        labels = {rule.label for _, _, rule in derived.all_links()}
        assert "m1.ap<-m2" in labels      # the A1 pattern
        assert "m1.bp<-comb" in labels    # the A2 pattern
        assert "m2.app<-comb" in labels   # the A3 pattern
        assert "m2.bpp<-m1" in labels     # the A4 pattern
        assert "A5" in labels

    def test_requires_coarse_or_params(self):
        with pytest.raises(ValueError):
            restructure(dp_spec())

    def test_split_sensitive_semantics(self):
        """min-plus DP is split-degenerate (every parenthesisation sums the
        same seeds), so correctness there cannot detect missing reduction
        values.  This test uses a split-*sensitive* f — it fails if any k
        of any (i, j) is dropped by the chain decomposition or the combine
        guards (regression for the ascending-chain nonemptiness bug)."""
        from repro.ir import MIN, make_op
        from repro.problems.dynamic_programming import dp_spec as mk_spec
        from repro.reference import dp_table

        f = make_op("mix", 2, lambda a, b: a + b + a * b)
        spec = mk_spec(f, MIN)
        derived = restructure(spec, params={"n": 8})
        for n in (3, 4, 5, 6, 9):
            seeds = [((3 * i) % 7) + 1 for i in range(1, n)]

            def c0(i, j, _s=seeds):
                return _s[i - 1]

            res = run_system(derived, {"n": n}, {"c0": c0})
            ref = dp_table(n, lambda i: seeds[i - 1],
                           lambda a, b: a + b + a * b, min)
            assert all(res[k] == ref[k] for k in res), n
