"""Behavioral tests for the Majority probing algorithms (Prop. 3.2, Thm. 4.2)."""

from __future__ import annotations

import math
import random

from repro.algorithms.majority import ProbeMaj, RProbeMaj
from repro.analysis.walks import majority_expected_probes_exact
from repro.core.coloring import Coloring
from repro.core.distributions import AdversarialSource
from repro.core.engine import stream_probes
from repro.systems.majority import MajoritySystem


class TestProbeMaj:
    def test_stops_exactly_at_majority(self):
        system = MajoritySystem(7)
        algorithm = ProbeMaj(system)
        # First four elements green: stops after 4 probes with a green witness.
        run = algorithm.run_on(Coloring(7, red=[5, 6, 7]))
        assert run.probes == 4
        assert run.witness.is_green
        # First four elements red: stops after 4 probes with a red witness.
        run = algorithm.run_on(Coloring(7, red=[1, 2, 3, 4]))
        assert run.probes == 4
        assert run.witness.is_red

    def test_alternating_coloring_needs_all_probes(self):
        system = MajoritySystem(7)
        algorithm = ProbeMaj(system)
        run = algorithm.run_on(Coloring(7, red=[2, 4, 6]))
        assert run.probes == 7

    def test_custom_order_is_respected(self):
        system = MajoritySystem(5)
        algorithm = ProbeMaj(system, order=[5, 4, 3, 2, 1])
        run = algorithm.run_on(Coloring(5, red=[1, 2]))
        assert run.sequence[:3] == (5, 4, 3)
        assert run.probes == 3

    def test_average_matches_walk_analysis(self):
        # Prop. 3.2: the probe count is the grid-walk exit time with
        # N = (n+1)/2; the estimator must agree with the exact expectation.
        for n, p in ((21, 0.5), (21, 0.3), (41, 0.5)):
            algorithm = ProbeMaj(MajoritySystem(n))
            estimate = stream_probes(algorithm, p=p, trials=3000, seed=n).estimate
            exact = majority_expected_probes_exact(n, p)
            assert abs(estimate.mean - exact) < 4 * estimate.stderr + 0.1

    def test_biased_failure_probability_reduces_probes(self):
        algorithm = ProbeMaj(MajoritySystem(41))
        at_half = stream_probes(algorithm, p=0.5, trials=1500, seed=1).mean
        at_low = stream_probes(algorithm, p=0.1, trials=1500, seed=1).mean
        assert at_low < at_half


class TestRProbeMaj:
    def test_worst_case_expected_probes_match_theorem_4_2(self):
        n = 9
        system = MajoritySystem(n)
        algorithm = RProbeMaj(system)
        worst = AdversarialSource(n, range(1, (n + 1) // 2 + 1))  # k+1 reds
        estimate = stream_probes(algorithm, worst, trials=8000, seed=3).estimate
        expected = n - (n - 1) / (n + 3)
        assert abs(estimate.mean - expected) < 4 * estimate.stderr + 0.05

    def test_inputs_with_more_reds_are_easier(self):
        # Lemma 2.8: with r >= k+1 reds the expectation (k+1)(n+1)/(r+1)
        # decreases in r, so the all-red input is easier than the r=k+1 input.
        n = 9
        system = MajoritySystem(n)
        algorithm = RProbeMaj(system)
        k_plus_1 = (n + 1) // 2
        harder = stream_probes(
            algorithm, AdversarialSource(n, range(1, k_plus_1 + 1)), trials=4000, seed=5
        ).estimate
        easier = stream_probes(
            algorithm, AdversarialSource(n, range(1, n + 1)), trials=4000, seed=5
        ).estimate
        assert easier.mean < harder.mean

    def test_symmetric_colorings_have_symmetric_cost(self):
        n = 7
        algorithm = RProbeMaj(MajoritySystem(n))
        reds = stream_probes(
            algorithm, AdversarialSource(n, [1, 2, 3, 4]), trials=6000, seed=7
        ).estimate
        greens = stream_probes(
            algorithm, AdversarialSource(n, [5, 6, 7]), trials=6000, seed=8
        ).estimate
        assert math.isclose(reds.mean, greens.mean, rel_tol=0.05)

    def test_all_permutation_orders_possible(self):
        algorithm = RProbeMaj(MajoritySystem(3))
        rng = random.Random(11)
        first_probes = {
            algorithm.run_on(Coloring(3, red=[2]), rng=rng).sequence[0]
            for _ in range(100)
        }
        assert first_probes == {1, 2, 3}
