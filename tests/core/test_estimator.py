"""Tests for the Monte-Carlo estimate type and the engine's estimates.

Every estimate is one :func:`repro.core.engine.stream_probes` run; these
check its ``.estimate`` against exact values.
"""

from __future__ import annotations

import math

import pytest

from repro.algorithms.majority import ProbeMaj, RProbeMaj
from repro.algorithms.crumbling_walls import ProbeCW
from repro.core.coloring import Coloring, enumerate_colorings
from repro.core.distributions import AdversarialSource, FixedCountSource
from repro.core.engine import stream_probes
from repro.core.estimator import Estimate
from repro.core.exact import probabilistic_probe_complexity
from repro.systems import MajoritySystem, TriangSystem


class TestEstimate:
    def test_from_samples_basic_statistics(self):
        estimate = Estimate.from_samples([1.0, 2.0, 3.0, 4.0])
        assert math.isclose(estimate.mean, 2.5)
        assert estimate.trials == 4
        assert estimate.low < estimate.mean < estimate.high

    def test_single_sample_has_zero_std(self):
        estimate = Estimate.from_samples([5.0])
        assert estimate.std == 0.0
        assert estimate.stderr == 0.0

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            Estimate.from_samples([])

    def test_ci_shrinks_with_more_samples(self):
        narrow = Estimate(mean=10.0, std=2.0, trials=1000)
        wide = Estimate(mean=10.0, std=2.0, trials=10)
        assert narrow.ci95 < wide.ci95

    def test_str_contains_mean(self):
        assert "2.000" in str(Estimate.from_samples([2.0, 2.0]))


class TestAverageProbes:
    def test_seeded_runs_are_reproducible(self):
        algorithm = ProbeMaj(MajoritySystem(9))
        a = stream_probes(algorithm, p=0.5, trials=50, seed=3).estimate
        b = stream_probes(algorithm, p=0.5, trials=50, seed=3).estimate
        assert a.mean == b.mean

    def test_matches_exact_optimum_for_symmetric_majority(self):
        # For Majority any fixed order is optimal, so the estimate must agree
        # with the exact probabilistic probe complexity.
        system = MajoritySystem(7)
        algorithm = ProbeMaj(system)
        estimate = stream_probes(algorithm, p=0.5, trials=4000, seed=1).estimate
        exact = probabilistic_probe_complexity(system, 0.5)
        assert abs(estimate.mean - exact) < 3 * estimate.stderr + 0.05

    def test_requires_positive_trials(self):
        with pytest.raises(ValueError):
            stream_probes(ProbeMaj(MajoritySystem(3)), p=0.5, trials=0)


class TestExpectedProbesOnFixedInput:
    def test_deterministic_algorithm_has_zero_variance(self):
        system = TriangSystem(3)
        algorithm = ProbeCW(system)
        coloring = Coloring(system.n, red=[3])
        estimate = stream_probes(
            algorithm, AdversarialSource(system.n, [3]), trials=100, seed=1
        ).estimate
        assert estimate.std == 0.0
        assert estimate.mean == algorithm.run_on(coloring).probes

    def test_randomized_algorithm_matches_closed_form(self):
        # R_Probe_Maj on an input with exactly k+1 reds: expected probes are
        # n - (n-1)/(n+3) (Theorem 4.2).
        n = 7
        algorithm = RProbeMaj(MajoritySystem(n))
        estimate = stream_probes(
            algorithm, AdversarialSource(n, [1, 2, 3, 4]), trials=6000, seed=2
        ).estimate
        expected = n - (n - 1) / (n + 3)
        assert abs(estimate.mean - expected) < 4 * estimate.stderr + 0.05


class TestWorstCaseOverInputs:
    def test_identifies_hard_input_for_randomized_majority(self):
        system = MajoritySystem(5)
        algorithm = RProbeMaj(system)
        per_input = {
            coloring: stream_probes(
                algorithm,
                AdversarialSource(system.n, coloring.red_elements),
                trials=300,
                seed=5,
            ).estimate
            for coloring in enumerate_colorings(system.n)
        }
        worst = max(per_input, key=lambda c: per_input[c].mean)
        # Worst inputs have exactly k+1 = 3 red elements (or 3 green by symmetry).
        reds = len(worst.red_elements)
        assert reds in (2, 3)
        assert per_input[worst].mean <= system.n
        assert len(per_input) == 2**system.n


class TestAverageUnderASource:
    def test_source_driven_average(self):
        system = MajoritySystem(5)
        algorithm = ProbeMaj(system)
        estimate = stream_probes(
            algorithm, FixedCountSource(system.n, 3), trials=2000, seed=11
        ).estimate
        # Deterministic scan on 3-red inputs needs at least quorum size probes
        # and at most n.
        assert 3.0 <= estimate.mean <= 5.0
