"""Tests for the unified coloring-source layer (:mod:`repro.core.distributions`).

Covers the registry contract, every registered source's batched draws
against its exact per-element red marginals (and exact invariants where the
distribution has them) and the engine's source-aware estimates.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import ProbeMaj, ProbeTree
from repro.core.coloring import (
    Coloring,
    ColoringDistribution,
    WeightedColoring,
)
from repro.core.distributions import (
    AdversarialSource,
    BernoulliSource,
    CorrelatedGroupsSource,
    FiniteSource,
    FixedCountSource,
    build_source,
    canonical_source_name,
    register_source,
    sample_bernoulli_matrix,
    source_names,
    source_specs,
)
from repro.core.engine import stream_probes
from repro.systems import HQS, MajoritySystem, TreeSystem, TriangSystem


def _exact_marginals(name: str, system, p: float) -> np.ndarray:
    """Each element's exact probability of being red under source ``name``."""
    n = system.n
    if name == "bernoulli":
        return np.full(n, p)
    if name == "fixed_count":
        return np.full(n, round(p * n) / n)
    if name == "adversarial":
        return (np.arange(1, n + 1) <= round(p * n)).astype(float)
    if name == "correlated_groups":
        groups = build_source(name, system, p).groups
        count = np.array([sum(e in group for group in groups) for e in range(1, n + 1)])
        return 1.0 - (1.0 - p) ** count
    if name == "majority_hard":
        return np.full(n, system.quorum_size / n)
    if name == "cw_hard":
        marginals = np.empty(n)
        for row in system.rows:
            marginals[np.asarray(sorted(row)) - 1] = 1.0 - 1.0 / len(row)
        return marginals
    if name == "tree_hard":
        depth = np.array([system.depth_of(v) for v in range(1, n + 1)])
        return np.where(depth >= system.height - 1, 2.0 / 3.0, 0.0)
    if name == "hqs_family_p":
        return np.full(n, 0.5)  # the fair root coin makes every leaf symmetric
    raise AssertionError(f"no exact marginals for {name}")


class TestRegistry:
    def test_all_expected_sources_registered(self):
        names = source_names()
        for expected in (
            "bernoulli",
            "fixed_count",
            "correlated_groups",
            "adversarial",
            "majority_hard",
            "cw_hard",
            "tree_hard",
            "hqs_family_p",
        ):
            assert expected in names

    def test_unknown_name_lists_known_sources(self):
        with pytest.raises(ValueError, match="bernoulli"):
            build_source("no_such_source", MajoritySystem(5), 0.5)

    def test_aliases_resolve(self):
        system = HQS(2)
        assert build_source("hqs_hard", system, 0.5).name == "hqs_family_p"
        assert build_source("iid", system, 0.5).name == "bernoulli"

    def test_canonical_source_name_resolves_aliases_and_case(self):
        assert canonical_source_name("iid") == "bernoulli"
        assert canonical_source_name("Bernoulli") == "bernoulli"
        assert canonical_source_name("HQS_HARD") == "hqs_family_p"
        with pytest.raises(ValueError, match="coloring source"):
            canonical_source_name("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_source("bernoulli", lambda system, p: None)

    def test_rejected_registration_leaves_registry_untouched(self):
        names_before = source_names()
        with pytest.raises(ValueError, match="alias"):
            register_source(
                "brand_new_source", lambda system, p: None, aliases=("iid",)
            )
        assert source_names() == names_before

    def test_specs_carry_descriptions(self):
        for spec in source_specs():
            assert spec.description

    def test_hard_families_require_their_system(self):
        with pytest.raises(ValueError, match="majority_hard"):
            build_source("majority_hard", TreeSystem(2), 0.5)
        with pytest.raises(ValueError, match="tree_hard"):
            build_source("tree_hard", MajoritySystem(5), 0.5)
        with pytest.raises(ValueError, match="cw_hard"):
            build_source("cw_hard", MajoritySystem(5), 0.5)
        with pytest.raises(ValueError, match="hqs_family_p"):
            build_source("hqs_family_p", MajoritySystem(5), 0.5)


def _registered_cases():
    """One ``(name, system, p)`` instance per registered source family."""
    return [
        ("bernoulli", MajoritySystem(21), 0.3),
        ("fixed_count", MajoritySystem(21), 0.3),
        ("correlated_groups", TriangSystem(4), 0.4),
        ("adversarial", MajoritySystem(21), 0.3),
        ("majority_hard", MajoritySystem(9), 0.5),
        ("cw_hard", TriangSystem(4), 0.5),
        ("tree_hard", TreeSystem(3), 0.5),
        ("hqs_family_p", HQS(2), 0.5),
    ]


class TestSourceContract:
    @pytest.mark.parametrize(
        "name,system,p", _registered_cases(), ids=lambda case: str(case)[:24]
    )
    def test_matrix_shape_dtype_and_scalar_universe(self, name, system, p):
        source = build_source(name, system, p)
        assert source.n == system.n
        red = source.sample_matrix(system.n, 50, rng=7)
        assert red.shape == (50, system.n) and red.dtype == np.bool_
        assert Coloring.from_red_row(red[0]).n == system.n

    @pytest.mark.parametrize(
        "name,system,p", _registered_cases(), ids=lambda case: str(case)[:24]
    )
    def test_universe_mismatch_rejected(self, name, system, p):
        source = build_source(name, system, p)
        with pytest.raises(ValueError):
            source.sample_matrix(system.n + 1, 10, rng=1)

    @pytest.mark.parametrize(
        "name,system,p", _registered_cases(), ids=lambda case: str(case)[:24]
    )
    def test_column_frequencies_match_exact_marginals(self, name, system, p):
        source = build_source(name, system, p)
        trials = 1500
        batched = source.sample_matrix(system.n, trials, np.random.default_rng(6)).mean(axis=0)
        exact = _exact_marginals(name, system, p)
        # Each column frequency is a binomial proportion; 5 sigma + slack.
        stderr = np.sqrt(exact * (1 - exact) / trials)
        assert (np.abs(batched - exact) < 5.0 * stderr + 0.01).all()


class TestBernoulliSource:
    def test_is_the_single_iid_sampler_implementation(self):
        # The matrix sampler and the source draw the same stream for the
        # same seed.
        reference = sample_bernoulli_matrix(12, 0.3, 40, rng=9)
        source = BernoulliSource(12, 0.3)
        assert (source.sample_matrix(12, 40, rng=9) == reference).all()

    def test_extremes(self):
        assert not BernoulliSource(8, 0.0).sample_matrix(8, 20, rng=1).any()
        assert BernoulliSource(8, 1.0).sample_matrix(8, 20, rng=1).all()

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            BernoulliSource(5, 1.5)
        with pytest.raises(ValueError):
            sample_bernoulli_matrix(5, -0.1, 4)


class TestFixedCountSource:
    def test_every_row_has_exactly_count_reds(self):
        source = FixedCountSource(30, 11)
        red = source.sample_matrix(30, 500, rng=3)
        assert (red.sum(axis=1) == 11).all()

    def test_subsets_are_uniform_over_elements(self):
        source = FixedCountSource(10, 3)
        red = source.sample_matrix(10, 6000, rng=5)
        frequency = red.mean(axis=0)
        assert np.abs(frequency - 0.3).max() < 0.03

    def test_edge_counts(self):
        assert not FixedCountSource(6, 0).sample_matrix(6, 10, rng=1).any()
        assert FixedCountSource(6, 6).sample_matrix(6, 10, rng=1).all()
        with pytest.raises(ValueError):
            FixedCountSource(6, 7)


class TestCorrelatedGroupsSource:
    def test_groups_fail_atomically_in_both_paths(self):
        groups = [{1, 2, 3}, {4, 5}, {7, 8}]
        source = CorrelatedGroupsSource(8, groups, 0.5)
        red = source.sample_matrix(8, 400, rng=2)
        for group in groups:
            columns = np.asarray(sorted(group)) - 1
            per_row = red[:, columns].sum(axis=1)
            assert set(per_row.tolist()) <= {0, len(group)}
        assert not red[:, 5].any()  # element 6 is in no group

    @pytest.mark.parametrize("trials", [1, 65, 300])
    def test_overlapping_groups_equal_the_membership_matmul(self, trials):
        # An element is red when any of its groups failed: the OR over its
        # groups equals thresholding the float product of the group draws
        # with the 0/1 membership matrix, on the same generator draws.
        groups = [{1, 2, 3}, {3, 4}, {2, 5, 9}, set(), {9}, {3}, {1, 2, 3, 4, 5, 6, 7}]
        source = CorrelatedGroupsSource(10, groups, 0.4)
        membership = np.zeros((len(groups), 10), dtype=np.float32)
        for index, group in enumerate(groups):
            membership[index, np.asarray(sorted(group), dtype=np.intp) - 1] = 1.0
        fails = np.random.default_rng(trials).random((trials, len(groups))) < 0.4
        expected = (fails.astype(np.float32) @ membership) > 0.5
        red = source.sample_matrix(10, trials, np.random.default_rng(trials))
        np.testing.assert_array_equal(red, expected)

    def test_group_failure_rate(self):
        source = CorrelatedGroupsSource(6, [{1, 2}, {3, 4, 5}], 0.25)
        red = source.sample_matrix(6, 8000, rng=4)
        rate = red[:, 0].mean()
        assert abs(rate - 0.25) < 0.02

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            CorrelatedGroupsSource(5, [{1}], 1.5)
        with pytest.raises(ValueError):
            CorrelatedGroupsSource(5, [{9}], 0.5)

    def test_registry_factory_uses_rows_when_they_are_groups(self):
        wall = TriangSystem(3)
        source = build_source("correlated_groups", wall, 0.5)
        assert {frozenset(row) for row in wall.rows} == set(source.groups)

    def test_registry_factory_falls_back_on_non_group_rows(self):
        from repro.systems import GridSystem

        # GridSystem.rows is a row *count*, not a grouping: the factory
        # must fall back to contiguous blocks instead of crashing.
        grid = GridSystem(5)
        source = build_source("correlated_groups", grid, 0.5)
        assert sorted(e for group in source.groups for e in group) == list(
            range(1, grid.n + 1)
        )
        red = source.sample_matrix(grid.n, 50, rng=1)
        assert red.shape == (50, grid.n)


class TestAdversarialSource:
    def test_every_draw_is_the_fixed_set(self):
        source = AdversarialSource(7, {2, 5})
        red = source.sample_matrix(7, 25, rng=1)
        expected = np.zeros(7, dtype=bool)
        expected[[1, 4]] = True
        assert (red == expected).all()
        assert Coloring.from_red_row(red[3]).red_elements == {2, 5}

    def test_matrix_rows_are_independent_copies(self):
        red = AdversarialSource(4, {1}).sample_matrix(4, 3, rng=1)
        red[0, 3] = True  # must not alias other rows
        assert not red[1, 3] and not red[2, 3]

    def test_out_of_universe_rejected(self):
        with pytest.raises(ValueError):
            AdversarialSource(4, {5})


class TestFiniteSource:
    def _distribution(self):
        colorings = [Coloring(4, red) for red in ([], [1], [1, 2], [1, 2, 3])]
        weights = [0.4, 0.3, 0.2, 0.1]
        return ColoringDistribution(
            4,
            [WeightedColoring(c, w) for c, w in zip(colorings, weights)],
        )

    def test_matrix_rows_stay_in_support_with_right_frequencies(self):
        distribution = self._distribution()
        source = FiniteSource(distribution)
        trials = 8000
        red = source.sample_matrix(4, trials, rng=6)
        support = {w.coloring: w.probability for w in distribution.support}
        counts: dict[Coloring, int] = {}
        for t in range(trials):
            coloring = Coloring.from_red_row(red[t])
            assert coloring in support
            counts[coloring] = counts.get(coloring, 0) + 1
        for coloring, probability in support.items():
            stderr = np.sqrt(probability * (1 - probability) / trials)
            assert abs(counts.get(coloring, 0) / trials - probability) < 5 * stderr + 1e-3

    def test_single_draws_stay_in_support(self):
        distribution = self._distribution()
        source = FiniteSource(distribution)
        support = {w.coloring for w in distribution.support}
        for seed in range(25):
            assert Coloring.from_red_row(source.sample_matrix(4, 1, rng=seed)[0]) in support

    def test_cdf_is_monotone_and_normalized(self):
        cdf = self._distribution().cdf
        assert all(b >= a for a, b in zip(cdf, cdf[1:]))
        assert abs(cdf[-1] - 1.0) < 1e-12


class TestSourceAwareEstimators:
    def test_fixed_count_estimate_matches_exact_value(self):
        # Probe_Maj stops once it has seen k+1 = 11 elements of one color;
        # with 8 uniformly placed reds among 21 that is the 11th of the 13
        # greens, at expected position 11 * 22 / 14.
        system = MajoritySystem(21)
        source = FixedCountSource(system.n, 8)
        estimate = stream_probes(ProbeMaj(system), source, trials=3000, seed=11).estimate
        exact = 11 * (system.n + 1) / (13 + 1)
        assert abs(estimate.mean - exact) < estimate.ci95 + 0.2

    def test_estimate_requires_p_or_source(self):
        with pytest.raises(ValueError):
            stream_probes(ProbeMaj(MajoritySystem(5)))

    def test_estimate_rejects_mismatched_source(self):
        with pytest.raises(ValueError):
            stream_probes(
                ProbeMaj(MajoritySystem(5)),
                BernoulliSource(7, 0.5),
                trials=10,
            )

    def test_source_path_matches_p_path_for_bernoulli_engine(self):
        # Same seed, same stream: the p shorthand is the Bernoulli source.
        system = TreeSystem(4)
        via_p = stream_probes(ProbeTree(system), p=0.4, trials=500, seed=3).estimate
        via_source = stream_probes(
            ProbeTree(system), BernoulliSource(system.n, 0.4), trials=500, seed=3
        ).estimate
        assert via_p == via_source
