"""End-to-end integration tests crossing module boundaries.

These tests wire together systems + algorithms + analysis + the streaming
engine the way the experiments and examples do, and check the paper's claims at small
-to-medium scale with deterministic seeds.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.algorithms import (
    IRProbeHQS,
    ProbeCW,
    ProbeHQS,
    ProbeMaj,
    ProbeTree,
    RProbeMaj,
)
from repro.analysis.bounds import Direction, Model, bounds_for
from repro.analysis.walks import majority_expected_probes_exact
from repro.analysis.yao import majority_hard_distribution
from repro.core.coloring import Coloring, enumerate_colorings
from repro.core.engine import stream_probes
from repro.core.exact import ExactSolver
from repro.core.metrics import availability_exact
from repro.core.strategy_tree import strategy_tree_from_algorithm
from repro.systems import (
    HQS,
    CrumblingWall,
    MajoritySystem,
    TreeSystem,
    TriangSystem,
    WheelSystem,
)


class TestStrategyTreesOfPaperAlgorithms:
    """Extract explicit strategy trees from the paper's algorithms and check
    their costs against both the exact DP and the Monte-Carlo estimator."""

    @pytest.mark.parametrize(
        "system,algorithm_factory",
        [
            (MajoritySystem(5), ProbeMaj),
            (TriangSystem(3), ProbeCW),
            (WheelSystem(5), lambda s: ProbeCW(CrumblingWall([1, s.n - 1]))),
            (TreeSystem(2), ProbeTree),
            (HQS(2), ProbeHQS),
        ],
        ids=["Maj5", "Triang3", "Wheel5", "Tree2", "HQS2"],
    )
    def test_tree_extraction_costs_are_consistent(self, system, algorithm_factory):
        algorithm = algorithm_factory(system)
        tree = strategy_tree_from_algorithm(
            lambda oracle: algorithm.run(oracle).witness, algorithm.system
        )
        tree.validate()

        # (a) The tree's expected depth is an upper bound on the exact optimum.
        solver = ExactSolver(algorithm.system)
        assert tree.expected_depth(0.5) >= solver.probabilistic_probe_complexity(0.5) - 1e-9

        # (b) The tree's expected depth matches the Monte-Carlo estimate of
        #     the same algorithm.
        estimate = stream_probes(algorithm, p=0.5, trials=3000, seed=1).estimate
        assert abs(tree.expected_depth(0.5) - estimate.mean) < 4 * estimate.stderr + 0.05

        # (c) The tree never exceeds the deterministic worst case n.
        assert tree.depth() <= algorithm.system.n

    def test_probe_cw_tree_matches_theorem_3_3_for_all_p(self):
        wall = CrumblingWall([1, 2, 3])
        algorithm = ProbeCW(wall)
        tree = strategy_tree_from_algorithm(
            lambda oracle: algorithm.run(oracle).witness, wall
        )
        tree.validate()
        for p in (0.05, 0.2, 0.5, 0.8, 0.95):
            assert tree.expected_depth(p) <= 2 * wall.num_rows - 1 + 1e-9


class TestExactOptimaAgainstPaperBounds:
    """The exact optimum must respect every paper bound on small systems."""

    @pytest.mark.parametrize(
        "system",
        [MajoritySystem(7), TriangSystem(3), WheelSystem(6), TreeSystem(2), HQS(2)],
        ids=lambda s: s.name,
    )
    def test_exact_ppc_between_generic_bounds(self, system):
        solver = ExactSolver(system)
        value = solver.probabilistic_probe_complexity(0.5)
        c = system.min_quorum_size()
        lemma_3_1 = 2 * c - 2 * math.sqrt(c)
        assert value >= lemma_3_1 - 1e-9
        assert value <= system.n

    @pytest.mark.parametrize(
        "system",
        [MajoritySystem(7), TriangSystem(3), WheelSystem(6), TreeSystem(2)],
        ids=lambda s: s.name,
    )
    def test_paper_systems_are_evasive_but_cheap_on_average(self, system):
        solver = ExactSolver(system)
        assert solver.probe_complexity() == system.n  # Lemma 2.2
        assert solver.probabilistic_probe_complexity(0.5) < system.n

    def test_paper_upper_bounds_hold_for_exact_optimum(self):
        # Asymptotic bounds (Θ/O with instantiated constants) are not tight
        # at these tiny sizes, so only the finite-n formulas are asserted.
        cases = [MajoritySystem(7), TriangSystem(3), WheelSystem(6), HQS(2)]
        for system in cases:
            table = bounds_for(system)
            solver = ExactSolver(system)
            optimum = solver.probabilistic_probe_complexity(0.5)
            for direction in (Direction.UPPER, Direction.EXACT):
                bound = table.get(Model.PROBABILISTIC, direction)
                if bound is not None and not bound.asymptotic:
                    assert optimum <= bound.value(system.n, 0.5) + 1e-6


class TestRandomizedMajorityPinching:
    def test_upper_and_lower_meet(self):
        """Theorem 4.2 end-to-end: the measured algorithm (upper side), the
        Yao DP (lower side) and the closed form agree."""
        system = MajoritySystem(7)
        closed_form = 7 - 6 / 10
        yao = ExactSolver(system).best_deterministic_under(
            majority_hard_distribution(system)
        )
        assert math.isclose(yao, closed_form, rel_tol=1e-9)

        algorithm = RProbeMaj(system)
        rng = random.Random(0)
        worst = Coloring(7, red=[1, 2, 3, 4])
        samples = [algorithm.run_on(worst, rng=rng).probes for _ in range(8000)]
        measured = sum(samples) / len(samples)
        assert abs(measured - closed_form) < 0.1


class TestAvailabilityConsistencyAcrossLayers:
    def test_engine_failure_rate_matches_exact_availability(self):
        """Streaming-engine layer vs enumeration layer."""
        system = TreeSystem(2)
        exact = availability_exact(system, 0.3)
        result = stream_probes(ProbeTree(system), p=0.3, trials=3000, seed=3)
        assert abs(result.failure_rate - exact) < 0.03

    def test_witness_color_frequency_matches_availability_for_all_algorithms(self):
        system = HQS(2)
        exact = availability_exact(system, 0.5)
        for algorithm in (ProbeHQS(system), IRProbeHQS(system)):
            rng = random.Random(4)
            reds = 0
            trials = 2000
            for _ in range(trials):
                coloring = Coloring.random(system.n, 0.5, rng)
                run = algorithm.run_on(coloring, rng=rng)
                reds += 0 if run.witness.is_green else 1
            assert abs(reds / trials - exact) < 0.04


class TestExhaustiveCrossValidation:
    def test_all_algorithms_agree_with_reference_on_every_coloring(self):
        """For every coloring of small instances, every algorithm's witness
        color equals the ground truth (cross-validating systems, algorithms
        and witnesses in one sweep)."""
        cases = [
            (MajoritySystem(5), ProbeMaj),
            (TriangSystem(3), ProbeCW),
            (TreeSystem(2), ProbeTree),
            (HQS(2), ProbeHQS),
        ]
        rng = random.Random(12)
        for system, factory in cases:
            algorithm = factory(system)
            for coloring in enumerate_colorings(system.n):
                run = algorithm.run_on(coloring, rng=rng, validate=True)
                assert run.witness.is_green == system.has_live_quorum(coloring)

    def test_majority_exact_expectation_consistency(self):
        """Three independent derivations of E[probes] for Probe_Maj agree:
        the walk formula, the exact DP, and the extracted strategy tree."""
        system = MajoritySystem(7)
        walk_value = majority_expected_probes_exact(7, 0.5)
        dp_value = ExactSolver(system).probabilistic_probe_complexity(0.5)
        algorithm = ProbeMaj(system)
        tree = strategy_tree_from_algorithm(
            lambda oracle: algorithm.run(oracle).witness, system
        )
        assert math.isclose(walk_value, dp_value, rel_tol=1e-9)
        assert math.isclose(tree.expected_depth(0.5), dp_value, rel_tol=1e-9)
