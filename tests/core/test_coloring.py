"""Tests for colorings and coloring distributions."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coloring import (
    Color,
    Coloring,
    ColoringDistribution,
    WeightedColoring,
    enumerate_colorings,
    enumerate_colorings_with_reds,
)


class TestColor:
    def test_flipped(self):
        assert Color.GREEN.flipped() is Color.RED
        assert Color.RED.flipped() is Color.GREEN

    def test_invert_operator(self):
        assert ~Color.GREEN is Color.RED
        assert ~Color.RED is Color.GREEN


class TestColoringConstruction:
    def test_basic_red_green_split(self):
        coloring = Coloring(5, red=[2, 4])
        assert coloring.red_elements == {2, 4}
        assert coloring.green_elements == {1, 3, 5}
        assert coloring[2] is Color.RED
        assert coloring[1] is Color.GREEN

    def test_all_green_and_all_red(self):
        assert Coloring.all_green(4).red_elements == frozenset()
        assert Coloring.all_red(4).red_elements == {1, 2, 3, 4}

    def test_element_outside_universe_rejected(self):
        with pytest.raises(ValueError):
            Coloring(3, red=[4])

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Coloring(-1)

    def test_from_mapping_roundtrip(self):
        original = Coloring(4, red=[1, 3])
        rebuilt = Coloring.from_mapping(dict(original.items()))
        assert rebuilt == original

    def test_from_mapping_requires_full_universe(self):
        with pytest.raises(ValueError):
            Coloring.from_mapping({1: Color.RED, 3: Color.GREEN})

    def test_random_respects_probability_extremes(self, rng):
        assert Coloring.random(10, 0.0, rng).red_elements == frozenset()
        assert Coloring.random(10, 1.0, rng).red_elements == frozenset(range(1, 11))

    def test_random_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            Coloring.random(5, 1.5)


class TestColoringQueries:
    def test_mapping_protocol(self):
        coloring = Coloring(3, red=[2])
        assert len(coloring) == 3
        assert list(coloring) == [1, 2, 3]
        assert coloring.get(2) is Color.RED

    def test_lookup_outside_universe(self):
        with pytest.raises(KeyError):
            Coloring(3)[4]

    def test_monochromatic(self):
        coloring = Coloring(5, red=[1, 2])
        assert coloring.monochromatic([1, 2]) is Color.RED
        assert coloring.monochromatic([3, 4]) is Color.GREEN
        assert coloring.monochromatic([1, 3]) is None
        assert coloring.monochromatic([]) is Color.GREEN

    def test_flip_and_inverted(self):
        coloring = Coloring(3, red=[1])
        assert coloring.flip(1).red_elements == frozenset()
        assert coloring.flip(2).red_elements == {1, 2}
        assert coloring.inverted().red_elements == {2, 3}

    def test_probability(self):
        coloring = Coloring(3, red=[1])
        assert math.isclose(coloring.probability(0.25), 0.25 * 0.75 * 0.75)

    def test_equality_and_hash(self):
        assert Coloring(3, [1]) == Coloring(3, [1])
        assert Coloring(3, [1]) != Coloring(3, [2])
        assert len({Coloring(3, [1]), Coloring(3, [1])}) == 1

    def test_repr_mentions_reds(self):
        assert "red={1,3}" in repr(Coloring(3, [1, 3]))


class TestEnumeration:
    def test_enumerate_all(self):
        colorings = list(enumerate_colorings(3))
        assert len(colorings) == 8
        assert len(set(colorings)) == 8

    def test_enumerate_with_reds(self):
        colorings = list(enumerate_colorings_with_reds(4, 2))
        assert len(colorings) == 6
        assert all(len(c.red_elements) == 2 for c in colorings)

    @given(n=st.integers(min_value=0, max_value=8))
    @settings(max_examples=9, deadline=None)
    def test_enumeration_count_matches_power_of_two(self, n):
        assert sum(1 for _ in enumerate_colorings(n)) == 2**n


class TestColoringDistribution:
    def test_product_distribution_probabilities_sum_to_one(self):
        dist = ColoringDistribution.product(3, 0.3)
        assert math.isclose(sum(w.probability for w in dist.support), 1.0)

    def test_product_distribution_matches_iid_probability(self):
        dist = ColoringDistribution.product(3, 0.3)
        lookup = {w.coloring: w.probability for w in dist.support}
        assert math.isclose(lookup[Coloring(3, [1])], 0.3 * 0.7 * 0.7)

    def test_exact_reds_distribution(self):
        dist = ColoringDistribution.exact_reds(5, 3)
        assert len(dist.support) == 10
        assert all(len(w.coloring.red_elements) == 3 for w in dist.support)

    def test_expectation(self):
        dist = ColoringDistribution.exact_reds(4, 2)
        mean_reds = dist.expectation(lambda c: len(c.red_elements))
        assert math.isclose(mean_reds, 2.0)

    def test_sampling_stays_in_support(self, rng):
        from repro.core.distributions import FiniteSource

        dist = ColoringDistribution.exact_reds(4, 1)
        support = {w.coloring for w in dist.support}
        for row in FiniteSource(dist).sample_matrix(4, 50, rng):
            assert Coloring.from_red_row(row) in support

    def test_normalization(self):
        items = [
            WeightedColoring(Coloring(2, []), 3.0),
            WeightedColoring(Coloring(2, [1]), 1.0),
        ]
        dist = ColoringDistribution(2, items)
        probs = sorted(w.probability for w in dist.support)
        assert math.isclose(probs[0], 0.25) and math.isclose(probs[1], 0.75)

    def test_empty_distribution_rejected(self):
        with pytest.raises(ValueError):
            ColoringDistribution(2, [])

    def test_mismatched_universe_rejected(self):
        with pytest.raises(ValueError):
            ColoringDistribution(3, [WeightedColoring(Coloring(2, []), 1.0)])

    def test_uniform_helper(self):
        dist = ColoringDistribution.uniform([Coloring(2, []), Coloring(2, [1])])
        assert all(math.isclose(w.probability, 0.5) for w in dist.support)

    def test_product_distribution_size_limit(self):
        with pytest.raises(ValueError):
            ColoringDistribution.product(25, 0.5)


class TestRandomColoringStatistics:
    def test_red_fraction_concentrates(self):
        rng = random.Random(7)
        total_red = sum(
            len(Coloring.random(50, 0.3, rng).red_elements) for _ in range(400)
        )
        fraction = total_red / (50 * 400)
        assert abs(fraction - 0.3) < 0.03

    @given(p=st.floats(min_value=0.0, max_value=1.0), seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_red_and_green_partition_universe(self, p, seed):
        coloring = Coloring.random(12, p, random.Random(seed))
        assert coloring.red_elements | coloring.green_elements == frozenset(range(1, 13))
        assert not coloring.red_elements & coloring.green_elements
