"""Tests for the Yao-principle hard distributions and lower bounds."""

from __future__ import annotations

import math

import pytest

import numpy as np

from repro.analysis.yao import (
    CWHardSource,
    MajorityHardSource,
    TreeHardSource,
    cw_hard_distribution,
    cw_lower_bound,
    majority_hard_distribution,
    majority_lower_bound,
    tree_hard_distribution,
    tree_lower_bound,
    tree_subtree_expected_probes,
    yao_bound_via_exact,
)
from repro.core.coloring import Coloring
from repro.core.distributions import build_source
from repro.core.exact import ExactSolver
from repro.systems import CrumblingWall, MajoritySystem, TreeSystem, TriangSystem


def _draws(name: str, system, trials: int, seed: int) -> list[Coloring]:
    """``trials`` colorings from the registered source ``name`` on ``system``."""
    red = build_source(name, system, 0.5).sample_matrix(system.n, trials, rng=seed)
    return [Coloring.from_red_row(row) for row in red]


class TestMajorityHardDistribution:
    def test_source_draws_exactly_k_plus_one_reds(self):
        system = MajoritySystem(9)
        for coloring in _draws("majority_hard", system, 30, seed=1):
            assert len(coloring.red_elements) == 5

    def test_distribution_support(self):
        system = MajoritySystem(5)
        dist = majority_hard_distribution(system)
        assert len(dist.support) == math.comb(5, 3)

    def test_closed_form(self):
        assert math.isclose(majority_lower_bound(9), 9 - 8 / 12)
        with pytest.raises(ValueError):
            majority_lower_bound(10)

    def test_exact_yao_value_matches_closed_form(self):
        for n in (3, 5, 7, 9):
            system = MajoritySystem(n)
            value = yao_bound_via_exact(system, majority_hard_distribution(system))
            assert math.isclose(value, majority_lower_bound(n), rel_tol=1e-9)


class TestCWHardDistribution:
    def test_source_leaves_one_green_per_row(self):
        wall = TriangSystem(4)
        for coloring in _draws("cw_hard", wall, 30, seed=2):
            for row in wall.rows:
                assert len(row & coloring.green_elements) == 1

    def test_distribution_size_is_product_of_widths(self):
        wall = CrumblingWall([1, 2, 3])
        dist = cw_hard_distribution(wall)
        assert len(dist.support) == 1 * 2 * 3

    def test_closed_form(self):
        wall = TriangSystem(5)
        assert math.isclose(cw_lower_bound(wall), (15 + 5) / 2)

    def test_exact_yao_value_at_least_closed_form(self):
        # Theorem 4.6 computes the expected probes of *any* deterministic
        # algorithm on this distribution as exactly (n + k)/2; the exact
        # optimum therefore matches it.
        wall = CrumblingWall([1, 2, 3])
        value = yao_bound_via_exact(wall, cw_hard_distribution(wall))
        assert value >= cw_lower_bound(wall) - 1e-9


class TestTreeHardDistribution:
    def test_source_reds_come_in_bottom_subtree_pairs(self):
        tree = TreeSystem(3)
        subtree_roots = [v for v in range(1, tree.n + 1) if tree.depth_of(v) == 2]
        for coloring in _draws("tree_hard", tree, 20, seed=3):
            assert len(coloring.red_elements) == 2 * len(subtree_roots)
            for root in subtree_roots:
                trio = {root, *tree.children(root)}
                assert len(trio & coloring.red_elements) == 2

    def test_distribution_size(self):
        tree = TreeSystem(2)
        dist = tree_hard_distribution(tree)
        assert len(dist.support) == 3 ** 2  # 3 choices per height-1 subtree

    def test_height_zero_rejected(self):
        with pytest.raises(ValueError):
            build_source("tree_hard", TreeSystem(0), 0.5)

    def test_closed_form_and_subtree_cost(self):
        assert math.isclose(tree_lower_bound(15), 32 / 3)
        assert math.isclose(tree_subtree_expected_probes(), 8 / 3)

    def test_exact_yao_value_close_to_closed_form(self):
        tree = TreeSystem(2)
        value = yao_bound_via_exact(tree, tree_hard_distribution(tree))
        # The paper's count (2(n+1)/3 = 16/3) charges 8/3 probes per bottom
        # subtree; on this 7-node tree the exact optimum must be at least
        # that (the optimum may not need to probe the all-green root).
        assert value >= 2 * (tree.n + 1) / 3 - 1e-9
        assert value <= tree.n


class TestBatchedHardSamplers:
    """The sources' matrix draws must hit the same supports as the explicit
    distributions, with uniform frequencies at small ``n``."""

    def test_majority_matrix_rows_have_exactly_k_plus_one_reds(self):
        system = MajoritySystem(9)
        red = MajorityHardSource(system).sample_matrix(system.n, 400, rng=1)
        assert red.shape == (400, 9) and red.dtype == np.bool_
        assert (red.sum(axis=1) == 5).all()

    def test_cw_matrix_leaves_one_green_per_row(self):
        wall = TriangSystem(4)
        red = CWHardSource(wall).sample_matrix(wall.n, 300, rng=2)
        for row in wall.rows:
            columns = np.asarray(sorted(row)) - 1
            assert ((~red[:, columns]).sum(axis=1) == 1).all()

    def test_tree_matrix_reds_come_in_bottom_subtree_pairs(self):
        tree = TreeSystem(3)
        red = TreeHardSource(tree).sample_matrix(tree.n, 300, rng=3)
        subtree_roots = [v for v in range(1, tree.n + 1) if tree.depth_of(v) == 2]
        assert (red.sum(axis=1) == 2 * len(subtree_roots)).all()
        for root in subtree_roots:
            trio = np.asarray([root, *tree.children(root)]) - 1
            assert (red[:, trio].sum(axis=1) == 2).all()
        # every node of depth <= h - 2 stays green
        upper = np.asarray(
            [v for v in range(1, tree.n + 1) if tree.depth_of(v) <= tree.height - 2]
        ) - 1
        assert not red[:, upper].any()

    @pytest.mark.parametrize(
        "source,distribution,system",
        [
            (MajorityHardSource, majority_hard_distribution, MajoritySystem(5)),
            (CWHardSource, cw_hard_distribution, CrumblingWall([1, 2, 2])),
            (TreeHardSource, tree_hard_distribution, TreeSystem(2)),
        ],
        ids=["majority", "cw", "tree"],
    )
    def test_matrix_matches_explicit_distribution(self, source, distribution, system):
        trials = 6000
        red = source(system).sample_matrix(system.n, trials, rng=4)
        support = {w.coloring: w.probability for w in distribution(system).support}
        counts: dict[Coloring, int] = {}
        for t in range(trials):
            coloring = Coloring.from_red_row(red[t])
            assert coloring in support
            counts[coloring] = counts.get(coloring, 0) + 1
        for coloring, probability in support.items():
            frequency = counts.get(coloring, 0) / trials
            stderr = np.sqrt(probability * (1.0 - probability) / trials)
            assert abs(frequency - probability) < 5.0 * stderr + 1e-3


class TestRegisteredHardSourcesFitTheirDistributions:
    """Chi-square goodness of fit of each registered hard source's draws
    against its explicit ``*_hard_distribution``."""

    @pytest.mark.parametrize(
        "name,distribution,system",
        [
            ("majority_hard", majority_hard_distribution, MajoritySystem(5)),
            ("cw_hard", cw_hard_distribution, CrumblingWall([1, 2, 2])),
            ("tree_hard", tree_hard_distribution, TreeSystem(2)),
        ],
        ids=["majority", "cw", "tree"],
    )
    def test_draw_frequencies_fit_the_distribution(
        self, name, distribution, system, chi_square_p_value
    ):
        trials = 6000
        support = {w.coloring: w.probability for w in distribution(system).support}
        counts = dict.fromkeys(support, 0)
        for coloring in _draws(name, system, trials, seed=8):
            assert coloring in support
            counts[coloring] += 1
        statistic = sum(
            (counts[coloring] - trials * probability) ** 2 / (trials * probability)
            for coloring, probability in support.items()
        )
        assert chi_square_p_value(statistic, len(support) - 1) > 1e-3

    def test_chi_square_tail_matches_known_quantiles(self, chi_square_p_value):
        # 95th percentiles of chi-square with 3 and 9 degrees of freedom.
        assert abs(chi_square_p_value(7.815, 3) - 0.05) < 0.005
        assert abs(chi_square_p_value(16.919, 9) - 0.05) < 0.003


class TestHardDistributionsAreActuallyHard:
    def test_majority_hard_distribution_is_worst_among_exact_red_counts(self):
        system = MajoritySystem(7)
        solver = ExactSolver(system)
        values = {}
        for reds in range(0, 8):
            from repro.core.coloring import ColoringDistribution

            dist = ColoringDistribution.exact_reds(7, reds)
            values[reds] = solver.best_deterministic_under(dist)
        assert max(values, key=values.get) in (3, 4)

    def test_random_sampling_matches_distribution_support(self):
        wall = CrumblingWall([1, 2, 2])
        support = {w.coloring for w in cw_hard_distribution(wall).support}
        for coloring in _draws("cw_hard", wall, 30, seed=5):
            assert coloring in support
