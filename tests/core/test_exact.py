"""Tests for the exact (optimal) probe-complexity solvers."""

from __future__ import annotations

import math

import pytest

from repro.analysis.yao import majority_hard_distribution, majority_lower_bound
from repro.core import exact
from repro.core.coloring import ColoringDistribution
from repro.core.exact import (
    EXACT_LIMIT,
    ExactSolver,
    permutation_algorithm_worst_expected,
    probabilistic_probe_complexity,
    probe_complexity,
    yao_lower_bound,
)
from repro.systems import (
    HQS,
    CrumblingWall,
    ExplicitQuorumSystem,
    MajoritySystem,
    SingletonSystem,
    TreeSystem,
    TriangSystem,
    WheelSystem,
    uniform_wall,
)


class TestMaj3WorkedExample:
    """The Section 2.3 example: PC = 3, PPC = 5/2, PCR = 8/3."""

    def setup_method(self):
        self.system = MajoritySystem(3)
        self.solver = ExactSolver(self.system)

    def test_deterministic_probe_complexity(self):
        assert self.solver.probe_complexity() == 3

    def test_probabilistic_probe_complexity(self):
        assert math.isclose(self.solver.probabilistic_probe_complexity(0.5), 2.5)

    def test_randomized_upper_via_permutations(self):
        assert math.isclose(permutation_algorithm_worst_expected(self.system), 8 / 3)

    def test_randomized_lower_via_yao(self):
        value = self.solver.best_deterministic_under(
            majority_hard_distribution(self.system)
        )
        assert math.isclose(value, 8 / 3)


class TestEvasiveness:
    """Lemma 2.2: Maj, Wheel, CW and Tree are evasive (PC = n)."""

    @pytest.mark.parametrize(
        "system",
        [
            MajoritySystem(5),
            WheelSystem(5),
            TriangSystem(3),
            CrumblingWall([1, 2, 3]),
            TreeSystem(2),
        ],
        ids=lambda s: s.name,
    )
    def test_paper_systems_are_evasive(self, system):
        assert ExactSolver(system).is_evasive()

    def test_singleton_is_not_evasive(self):
        assert probe_complexity(SingletonSystem(3, center=2)) == 1


class TestProbabilisticOptimum:
    def test_ppc_monotone_in_universe_for_majority(self):
        assert probabilistic_probe_complexity(MajoritySystem(3), 0.5) < (
            probabilistic_probe_complexity(MajoritySystem(5), 0.5)
        )

    def test_ppc_at_extreme_probabilities(self):
        # With p = 0 every element is green: the optimum probes a smallest
        # quorum; with p = 1 a smallest transversal (same size for Maj).
        system = MajoritySystem(5)
        assert math.isclose(probabilistic_probe_complexity(system, 0.0), 3.0)
        assert math.isclose(probabilistic_probe_complexity(system, 1.0), 3.0)

    def test_ppc_symmetry_in_p_for_self_dual_systems(self):
        system = TriangSystem(3)
        assert math.isclose(
            probabilistic_probe_complexity(system, 0.3),
            probabilistic_probe_complexity(system, 0.7),
            rel_tol=1e-9,
        )

    def test_wheel_ppc_is_at_most_three(self):
        # Corollary 3.4: Probe_CW achieves <= 3, so the optimum is <= 3.
        for n in (4, 6, 8):
            assert probabilistic_probe_complexity(WheelSystem(n), 0.5) <= 3.0

    def test_hqs_height1_matches_recursion(self):
        assert math.isclose(probabilistic_probe_complexity(HQS(1), 0.5), 2.5)

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            probabilistic_probe_complexity(MajoritySystem(3), -0.1)

    def test_size_limit_enforced(self):
        with pytest.raises(ValueError):
            ExactSolver(MajoritySystem(EXACT_LIMIT + 1))


class TestOptimalTrees:
    def test_optimal_probabilistic_tree_achieves_value(self):
        system = TriangSystem(3)
        solver = ExactSolver(system)
        tree = solver.optimal_strategy_tree(0.5)
        tree.validate()
        assert math.isclose(
            tree.expected_depth(0.5), solver.probabilistic_probe_complexity(0.5)
        )

    def test_optimal_worst_case_tree_achieves_value(self):
        system = WheelSystem(5)
        solver = ExactSolver(system)
        tree = solver.optimal_worst_case_tree()
        tree.validate()
        assert tree.depth() == solver.probe_complexity()

    def test_trees_achieve_the_values_at_n13(self):
        # CW(1,3,3,3,3): both trees read the table route's value arrays.
        solver = ExactSolver(CrumblingWall([1, 3, 3, 3, 3]))
        assert solver.optimal_worst_case_tree().depth() == solver.probe_complexity() == 13
        assert solver.optimal_strategy_tree(0.5).expected_depth(
            0.5
        ) == solver.probabilistic_probe_complexity(0.5)

    def test_table_route_keeps_only_root_values(self):
        # The value arrays live for one query; PPC at k values of p keeps
        # k floats on the solver.
        solver = ExactSolver(TriangSystem(3))
        solver.optimal_worst_case_tree()
        for p in (0.1, 0.3, 0.5):
            solver.optimal_strategy_tree(p)
            solver.probabilistic_probe_complexity(p)
        assert {measure: len(memo) for measure, memo in solver._values.items()} == {
            0.1: 1, 0.3: 1, 0.5: 1
        }

    def test_optimal_tree_never_beats_lower_bound(self):
        system = MajoritySystem(5)
        solver = ExactSolver(system)
        tree = solver.optimal_strategy_tree(0.5)
        # No strategy can beat the optimum it was derived from.
        assert tree.expected_depth(0.5) >= solver.probabilistic_probe_complexity(0.5) - 1e-9


class TestYaoBounds:
    def test_yao_bound_matches_closed_form_for_majority(self):
        for n in (3, 5, 7):
            system = MajoritySystem(n)
            value = yao_lower_bound(system, majority_hard_distribution(system))
            assert math.isclose(value, majority_lower_bound(n), rel_tol=1e-9)

    def test_yao_bound_never_exceeds_universe(self):
        system = WheelSystem(5)
        dist = ColoringDistribution.product(system.n, 0.5)
        assert yao_lower_bound(system, dist) <= system.n

    def test_yao_with_product_distribution_equals_ppc(self):
        # Under the i.i.d. distribution the best deterministic expected cost
        # *is* the probabilistic probe complexity.
        system = TriangSystem(3)
        dist = ColoringDistribution.product(system.n, 0.5)
        assert math.isclose(
            yao_lower_bound(system, dist),
            probabilistic_probe_complexity(system, 0.5),
            rel_tol=1e-9,
        )

    def test_mismatched_distribution_rejected(self):
        system = MajoritySystem(3)
        dist = ColoringDistribution.product(5, 0.5)
        with pytest.raises(ValueError):
            yao_lower_bound(system, dist)


class TestPermutationAnalysis:
    def test_limited_to_small_systems(self):
        with pytest.raises(ValueError):
            permutation_algorithm_worst_expected(MajoritySystem(9))

    def test_singleton_needs_constant_probes(self):
        # For the singleton coterie the random-permutation algorithm stops as
        # soon as it probes the center, after (n+1)/2 probes on average in
        # the worst case; for n = 3 that is 2.
        value = permutation_algorithm_worst_expected(SingletonSystem(3, center=1))
        assert math.isclose(value, 2.0)


class TestExactLimitBoundary:
    """EXACT_LIMIT raised to 24 by the word-batched mask-DP (PR 9)."""

    def _star(self, n):
        # A single singleton quorum: probing element 1 settles the system
        # either way, so PC = 1 and PPC = 1.0 regardless of n.  The DP
        # prunes to O(1) work, making the n = EXACT_LIMIT boundary cheap.
        return ExplicitQuorumSystem(n, [[1]])

    def test_exact_limit_is_at_least_24(self):
        assert EXACT_LIMIT >= 24

    def test_pc_at_exact_limit(self):
        assert probe_complexity(self._star(EXACT_LIMIT)) == 1

    def test_ppc_at_exact_limit(self):
        assert math.isclose(
            probabilistic_probe_complexity(self._star(EXACT_LIMIT), 0.3), 1.0
        )

    def test_one_past_the_limit_fails_loudly(self):
        with pytest.raises(ValueError, match=f"limited to n <= {EXACT_LIMIT}"):
            probe_complexity(self._star(EXACT_LIMIT + 1))

    def test_solver_constructor_rejects_past_limit(self):
        with pytest.raises(ValueError, match="limited to"):
            ExactSolver(self._star(EXACT_LIMIT + 1))


class TestPackedMaskDP:
    """The packed mask-DP must agree with the legacy trit-table DP."""

    @pytest.mark.parametrize(
        "system",
        [
            MajoritySystem(3),
            MajoritySystem(5),
            MajoritySystem(7),
            WheelSystem(4),
            WheelSystem(5),
            WheelSystem(8),
            TriangSystem(3),
            TriangSystem(4),
            CrumblingWall([1, 2, 3]),
            CrumblingWall([2, 2, 2, 2]),
            uniform_wall(6, 2),
            TreeSystem(2),
            TreeSystem(3),
            HQS(1),
            HQS(2),
            SingletonSystem(5, center=3),
        ],
        ids=lambda s: s.name,
    )
    def test_matches_legacy_dp(self, system):
        solver = ExactSolver(system)
        assert solver.packed_probe_complexity() == solver.probe_complexity()

    @pytest.mark.parametrize(
        "system",
        [MajoritySystem(11), TriangSystem(4), TreeSystem(2), HQS(2)],
        ids=lambda s: s.name,
    )
    def test_sparse_dict_dp_matches(self, system, monkeypatch):
        # The dict DP, the route above the packed limit, agrees with the
        # table and packed routes bit for bit, values and trees alike.
        table = ExactSolver(system)
        pc = table.probe_complexity()
        assert table.packed_probe_complexity() == pc
        monkeypatch.setattr(exact, "_TABLE_DP_LIMIT", 0)
        monkeypatch.setattr(exact, "_PACKED_DP_LIMIT", 0)
        recursive = ExactSolver(system)
        assert recursive.probe_complexity() == pc
        assert recursive.optimal_worst_case_tree().root == table.optimal_worst_case_tree().root
        for p in (0.0, 0.1, 0.3, 0.5, 1.0):
            assert float.hex(recursive.probabilistic_probe_complexity(p)) == float.hex(
                table.probabilistic_probe_complexity(p)
            )
            assert recursive.optimal_strategy_tree(p).root == table.optimal_strategy_tree(p).root

    def test_non_evasive_system(self):
        # Two quorums sharing element 1: probe 1 (must, else adversary
        # hides), then at most the two partner elements -> PC = 3 < n = 8.
        system = ExplicitQuorumSystem(8, [[1, 2], [1, 3]])
        solver = ExactSolver(system)
        assert solver.packed_probe_complexity() == 3
        assert solver.probe_complexity() == 3

    def test_packed_route_used_above_table_limit(self):
        # n = 16 exceeds the trit-table limit; the star's fifteen dummy
        # elements drop out of the DP, which runs over element 1 alone.
        system = ExplicitQuorumSystem(16, [[1]])
        assert probe_complexity(system) == 1

    @pytest.mark.parametrize(
        "system",
        [
            # Maj3 on {2, 7, 11} of twelve elements.
            ExplicitQuorumSystem(12, [[2, 7], [7, 11], [2, 11]]),
            # The Fano plane's seven lines on odd elements of thirteen.
            ExplicitQuorumSystem(
                13,
                [[1, 3, 5], [1, 7, 9], [1, 11, 13], [3, 7, 11], [3, 9, 13],
                 [5, 7, 13], [5, 9, 11]],
            ),
            # A wheel on 1..5 of eleven elements.
            ExplicitQuorumSystem(11, [[1, 2], [1, 3], [1, 4], [1, 5], [2, 3, 4, 5]]),
        ],
        ids=["maj3-of-12", "fano-of-13", "wheel5-of-11"],
    )
    def test_dummy_elements_leave_packed_pc_unchanged(self, system):
        solver = ExactSolver(system)
        assert solver.packed_probe_complexity() == solver.probe_complexity()
