"""Tests for the vectorized Monte-Carlo layer (:mod:`repro.core.batched`).

The deterministic kernels must reproduce the sequential algorithms
*trial-by-trial* on a shared input matrix; the randomized kernels must
match in distribution.  Engine estimates over the kernels are checked
against exact expectations.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.algorithms import ProbeCW, ProbeMaj, ProbeTree, RProbeCW, RProbeMaj, SequentialScan
from repro.core.batched import (
    batched_or_sequential_run,
    batched_run,
    kernel_for,
    register_kernel,
    supports_batched,
)
from repro.core.coloring import Coloring
from repro.core.distributions import AdversarialSource, sample_bernoulli_matrix
from repro.core.engine import stream_probes
from repro.analysis.lemmas import expected_trials_both_colors
from repro.analysis.walks import majority_expected_probes_exact
from repro.systems import CrumblingWall, MajoritySystem, TreeSystem, TriangSystem, uniform_wall


DETERMINISTIC_CASES = [
    (ProbeMaj(MajoritySystem(25)), 0.5),
    (ProbeMaj(MajoritySystem(101)), 0.3),
    (ProbeCW(TriangSystem(8)), 0.5),
    (ProbeCW(CrumblingWall([1, 3, 3, 3])), 0.7),
    (ProbeCW(uniform_wall(rows=5, width=10)), 0.2),
]


@pytest.mark.parametrize(
    "algorithm,p", DETERMINISTIC_CASES, ids=lambda case: getattr(case, "name", None)
)
class TestDeterministicKernelsMatchExactly:
    def test_trial_by_trial(self, algorithm, p):
        n = algorithm.system.n
        red = sample_bernoulli_matrix(n, p, 200, rng=42)
        probes, witness_green = batched_run(algorithm, red)
        for t in range(red.shape[0]):
            run = algorithm.run_on(Coloring.from_red_row(red[t]))
            assert run.probes == probes[t]
            assert run.witness.is_green == bool(witness_green[t])


class TestRandomizedKernelsMatchInDistribution:
    @pytest.mark.parametrize(
        "factory,system",
        [(RProbeMaj, MajoritySystem(51)), (RProbeCW, TriangSystem(8))],
        ids=["RProbeMaj", "RProbeCW"],
    )
    def test_means_agree(self, factory, system):
        algorithm = factory(system)
        red = sample_bernoulli_matrix(system.n, 0.5, 3000, rng=7)
        probes, _ = batched_run(algorithm, red, rng=np.random.default_rng(1))
        rng = random.Random(2)
        sequential = [
            algorithm.run_on(Coloring.from_red_row(red[t]), rng=rng).probes
            for t in range(1000)
        ]
        assert abs(float(np.mean(probes)) - float(np.mean(sequential))) < 1.5

    def test_rcw_witness_color_matches_system(self):
        system = TriangSystem(6)
        algorithm = RProbeCW(system)
        red = sample_bernoulli_matrix(system.n, 0.5, 300, rng=3)
        _, witness_green = batched_run(algorithm, red, rng=np.random.default_rng(4))
        for t in range(red.shape[0]):
            coloring = Coloring.from_red_row(red[t])
            assert bool(witness_green[t]) == system.has_live_quorum(coloring)


class TestDispatchAndFallback:
    def test_supports_batched(self):
        assert supports_batched(ProbeMaj(MajoritySystem(5)))
        assert supports_batched(RProbeCW(TriangSystem(3)))
        assert supports_batched(ProbeTree(TreeSystem(3)))
        assert not supports_batched(SequentialScan(MajoritySystem(5)))

    def test_unsupported_raises(self):
        with pytest.raises(TypeError):
            batched_run(SequentialScan(MajoritySystem(5)), np.zeros((2, 5), dtype=bool))

    def test_subclass_does_not_inherit_kernel(self):
        # Dispatch is by exact type: a subclass overrides probing behavior,
        # so it must register its own kernel.
        class TweakedProbeMaj(ProbeMaj):
            pass

        algorithm = TweakedProbeMaj(MajoritySystem(5))
        assert not supports_batched(algorithm)
        packed = kernel_for(ProbeMaj(MajoritySystem(5)), backend="bitpacked")
        register_kernel(TweakedProbeMaj, packed, backend="bitpacked")
        try:
            assert supports_batched(algorithm)
            red = sample_bernoulli_matrix(5, 0.5, 30, rng=1)
            probes, _ = batched_run(algorithm, red)
            reference, _ = batched_run(ProbeMaj(MajoritySystem(5)), red)
            assert (probes == reference).all()
        finally:
            from repro.core import batched

            del batched._KERNELS[(TweakedProbeMaj, "bitpacked")]

    def test_fallback_matches_sequential(self):
        algorithm = SequentialScan(TreeSystem(3))
        red = sample_bernoulli_matrix(15, 0.5, 50, rng=5)
        probes, witness_green = batched_or_sequential_run(algorithm, red)
        for t in range(red.shape[0]):
            run = algorithm.run_on(Coloring.from_red_row(red[t]))
            assert run.probes == probes[t]
            assert run.witness.is_green == bool(witness_green[t])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            batched_run(ProbeMaj(MajoritySystem(5)), np.zeros((3, 4), dtype=bool))


class TestEngineEstimates:
    def test_average_probes_matches_walk_analysis(self):
        algorithm = ProbeMaj(MajoritySystem(101))
        engine = stream_probes(algorithm, p=0.5, trials=4000, seed=1).estimate
        exact = majority_expected_probes_exact(101, 0.5)
        assert abs(engine.mean - exact) < 3 * engine.ci95

    def test_estimator_module_defines_only_estimate(self):
        # One Monte-Carlo entry point: stream_probes(...).estimate.  The
        # estimator module keeps only the result type.
        import repro.core.estimator as estimator

        defined = {
            name
            for name, value in vars(estimator).items()
            if getattr(value, "__module__", None) == estimator.__name__
        }
        assert defined == {"Estimate"}

    def test_expected_probes_on_fixed_input(self):
        # Wheel(8) with red {1, 5}: R_Probe_CW scans the mixed 7-element rim
        # in random order until it has seen both colors (Lemma 2.9), then
        # probes the hub.
        system = CrumblingWall([1, 7], name="Wheel(8)")
        algorithm = RProbeCW(system)
        engine = stream_probes(
            algorithm, AdversarialSource(8, [1, 5]), trials=4000, seed=11
        ).estimate
        exact = float(expected_trials_both_colors(1, 6)) + 1.0
        assert abs(engine.mean - exact) < 3 * engine.ci95

    def test_expected_probes_on_deterministic_is_exact(self):
        system = TriangSystem(4)
        algorithm = ProbeCW(system)
        coloring = Coloring(system.n, red=[2, 5, 9])
        engine = stream_probes(
            algorithm, AdversarialSource(system.n, [2, 5, 9]), trials=100, seed=1
        )
        assert engine.histogram[-1] == 100 and engine.std == 0.0
        assert engine.mean == float(algorithm.run_on(coloring).probes)


class TestSamplersAndFailureRate:
    def test_bernoulli_matrix_distribution(self):
        red = sample_bernoulli_matrix(200, 0.3, 500, rng=13)
        assert red.shape == (500, 200) and red.dtype == np.bool_
        assert abs(float(red.mean()) - 0.3) < 0.01

    def test_bernoulli_matrix_rejects_bad_p(self):
        with pytest.raises(ValueError):
            sample_bernoulli_matrix(10, 1.5, 4)

    def test_from_red_row_round_trip(self):
        rng = random.Random(17)
        coloring = Coloring.random(300, 0.4, rng)
        row = np.zeros(300, dtype=bool)
        for e in coloring.red_elements:
            row[e - 1] = True
        assert Coloring.from_red_row(row) == coloring

    def test_large_n_random_red_count(self):
        rng = random.Random(19)
        counts = [len(Coloring.random(2000, 0.25, rng).red_elements) for _ in range(30)]
        assert abs(float(np.mean(counts)) - 500.0) < 30.0

    def test_engine_failure_rate_matches_availability(self):
        algorithm = ProbeMaj(MajoritySystem(101))
        result = stream_probes(algorithm, p=0.3, trials=2000, seed=23)
        assert result.n_trials_used == 2000
        # At p = 0.3 a 101-element majority is almost surely alive.
        assert result.failure_rate < 0.01
        balanced = stream_probes(algorithm, p=0.5, trials=2000, seed=29)
        assert abs(balanced.failure_rate - 0.5) < 0.05


class TestEngineSources:
    def test_fixed_count_source_runs_batched(self):
        from repro.core.distributions import FixedCountSource

        system = MajoritySystem(15)
        result = stream_probes(
            ProbeMaj(system), FixedCountSource(15, 8), trials=400, seed=7
        )
        # 8 of 15 failed: no live quorum exists in any trial.
        assert result.failure_rate == 1.0
        assert result.n_trials_used == 400

    def test_source_path_matches_p_shorthand(self):
        from repro.core.distributions import BernoulliSource

        system = MajoritySystem(15)
        via_p = stream_probes(ProbeMaj(system), p=0.3, trials=300, seed=5)
        via_source = stream_probes(
            ProbeMaj(system), BernoulliSource(system.n, 0.3), trials=300, seed=5
        )
        assert via_p.histogram == via_source.histogram
        assert via_p.witness_red == via_source.witness_red

    def test_requires_p_or_source(self):
        with pytest.raises(ValueError):
            stream_probes(ProbeMaj(MajoritySystem(5)), trials=10)
