"""Tests for the streaming estimation engine (:mod:`repro.core.engine`).

The load-bearing claims:

* chunk invariance — for deterministic kernels under stream-aligned
  sources, the mean is byte-identical for any chunk size (1 trial, a
  prime, all-in-one) and equals the legacy one-shot batched path;
* shard invariance — sequential and ``jobs=N`` runs are byte-identical,
  in both stopping modes (including the adaptive stop point);
* the ``target_ci`` stopping rule honors tolerance and the
  min/max-trials guard;
* the kernel scratch caches reused across chunks do not change results.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.algorithms import (
    ProbeCW,
    ProbeHQS,
    ProbeMaj,
    ProbeTree,
    RProbeCW,
    RProbeMaj,
    RProbeTree,
)
from repro.core.batched import batched_or_sequential_run, batched_run
from repro.core.coloring import as_numpy_generator
from repro.core.distributions import (
    AdversarialSource,
    BernoulliSource,
    ColoringSource,
    FixedCountSource,
    build_source,
    sample_bernoulli_matrix,
)
from repro.core.engine import (
    ChunkStats,
    DEFAULT_MAX_TRIALS,
    MomentAccumulator,
    stream_probes,
)
from repro.core.estimator import Estimate
from repro.systems import HQS, MajoritySystem, TreeSystem, TriangSystem


def one_kernel_call(algorithm, source, trials, seed):
    """The whole run as one ``sample_matrix`` draw and one kernel call."""
    generator = as_numpy_generator(seed)
    red = source.sample_matrix(algorithm.system.n, trials, generator)
    probes, _ = batched_or_sequential_run(algorithm, red, generator)
    return Estimate.from_samples(probes)


class TestChunkInvariance:
    """Same seed ⇒ identical means across chunk layouts (aligned sources)."""

    @pytest.mark.parametrize("chunk_size", [1, 7, 37, 1000])
    def test_probe_maj_bernoulli(self, chunk_size):
        algorithm = ProbeMaj(MajoritySystem(101))
        source = BernoulliSource(101, 0.4)
        one_shot = one_kernel_call(algorithm, source, trials=37, seed=5)
        result = stream_probes(
            algorithm, source, trials=37, chunk_size=chunk_size, seed=5
        )
        assert result.mean == one_shot.mean
        assert result.n_trials_used == 37

    def test_chunked_histograms_identical(self):
        algorithm = ProbeTree(TreeSystem(4))
        source = BernoulliSource(31, 0.5)
        results = [
            stream_probes(algorithm, source, trials=53, chunk_size=c, seed=11)
            for c in (1, 13, 53)
        ]
        assert results[0].histogram == results[1].histogram == results[2].histogram
        assert results[0].std == results[1].std == results[2].std

    def test_fixed_count_source_aligned(self):
        algorithm = ProbeCW(TriangSystem(6))
        source = FixedCountSource(algorithm.system.n, 5)
        full = stream_probes(algorithm, source, trials=40, chunk_size=40, seed=3)
        chunked = stream_probes(algorithm, source, trials=40, chunk_size=9, seed=3)
        assert full.mean == chunked.mean
        assert full.histogram == chunked.histogram

    def test_unaligned_source_still_reproducible(self):
        # integers-based hard families declare no fixed consumption: the
        # chunk layout is part of the seed schedule, but a fixed layout
        # reproduces exactly.
        system = TreeSystem(3)
        source = build_source("tree_hard", system, 0.5)
        assert source.draws_per_word is None
        a = stream_probes(ProbeTree(system), source, trials=64, chunk_size=16, seed=7)
        b = stream_probes(ProbeTree(system), source, trials=64, chunk_size=16, seed=7)
        assert a.mean == b.mean and a.histogram == b.histogram

    def test_aligned_source_declarations(self):
        maj = MajoritySystem(21)
        # Bernoulli reads K(p) bit-planes of 21 draws per 64-trial word when
        # K(p) <= 10, else 10 dense planes and a 64 * 21-draw tail queue:
        # K(0.3) = 53 - tz(ceil(0.3 * 2^53)) = 52, K(1/2) = 1, K(0) = K(1) = 0.
        assert build_source("bernoulli", maj, 0.3).draws_per_word == (10 + 64) * 21
        assert build_source("bernoulli", maj, 0.5).draws_per_word == 21
        assert build_source("bernoulli", maj, 0.0).draws_per_word == 0
        assert build_source("bernoulli", maj, 1.0).draws_per_word == 0
        assert build_source("fixed_count", maj, 0.3).draws_per_word == 64 * 21
        assert build_source("adversarial", maj, 0.3).draws_per_word == 0
        groups = build_source("correlated_groups", maj, 0.3)
        assert groups.draws_per_word == 64 * len(groups.groups)
        # Degenerate exact counts never touch the generator.
        assert FixedCountSource(9, 0).draws_per_word == 0
        assert FixedCountSource(9, 9).draws_per_word == 0


class TestShardInvariance:
    """Sequential and ``jobs=N`` runs are byte-identical."""

    def test_fixed_mode_jobs(self):
        algorithm = ProbeMaj(MajoritySystem(101))
        sequential = stream_probes(algorithm, p=0.5, trials=400, chunk_size=32, seed=9)
        sharded = stream_probes(
            algorithm, p=0.5, trials=400, chunk_size=32, seed=9, jobs=4
        )
        assert sequential.mean == sharded.mean
        assert sequential.std == sharded.std
        assert sequential.histogram == sharded.histogram
        assert sequential.witness_red == sharded.witness_red

    def test_target_ci_stop_point_identical(self):
        algorithm = ProbeMaj(MajoritySystem(101))
        sequential = stream_probes(
            algorithm, p=0.5, target_ci=0.6, chunk_size=64, seed=13
        )
        sharded = stream_probes(
            algorithm, p=0.5, target_ci=0.6, chunk_size=64, seed=13, jobs=4
        )
        assert sequential.n_trials_used == sharded.n_trials_used
        assert sequential.mean == sharded.mean
        assert sequential.histogram == sharded.histogram

    def test_randomized_algorithm_jobs_invariant(self):
        algorithm = RProbeMaj(MajoritySystem(51))
        sequential = stream_probes(algorithm, p=0.5, trials=256, chunk_size=64, seed=2)
        sharded = stream_probes(
            algorithm, p=0.5, trials=256, chunk_size=64, seed=2, jobs=3
        )
        assert sequential.mean == sharded.mean
        assert sequential.histogram == sharded.histogram


class TestTargetCI:
    def test_zero_variance_stops_at_min_trials(self):
        system = MajoritySystem(21)
        algorithm = ProbeMaj(system)
        source = AdversarialSource(21, range(1, 12))
        result = stream_probes(
            algorithm, source, target_ci=0.1, chunk_size=50, min_trials=100
        )
        assert result.n_trials_used == 100
        assert result.reached_target is True
        assert result.std == 0.0 and result.ci95 == 0.0

    def test_tolerance_reached_within_cap(self):
        algorithm = ProbeMaj(MajoritySystem(101))
        result = stream_probes(
            algorithm, p=0.5, target_ci=0.8, chunk_size=128, seed=21
        )
        assert result.reached_target is True
        assert result.ci95 <= 0.8
        assert result.n_trials_used % 128 == 0
        assert result.mode == "target_ci"

    def test_max_trials_guard(self):
        algorithm = ProbeMaj(MajoritySystem(101))
        result = stream_probes(
            algorithm, p=0.5, target_ci=1e-6, chunk_size=128, max_trials=500, seed=4
        )
        assert result.n_trials_used == 500
        assert result.reached_target is False

    def test_looser_tolerance_uses_no_more_trials(self):
        algorithm = ProbeMaj(MajoritySystem(101))
        tight = stream_probes(algorithm, p=0.5, target_ci=0.4, chunk_size=64, seed=6)
        loose = stream_probes(algorithm, p=0.5, target_ci=0.9, chunk_size=64, seed=6)
        assert loose.n_trials_used <= tight.n_trials_used

    def test_adaptive_spends_fewer_trials_off_critical(self):
        # The motivating property: at the same tolerance, an easy cell
        # (low variance, p far from critical) stops well before the
        # near-critical cell.
        algorithm = ProbeMaj(MajoritySystem(101))
        critical = stream_probes(algorithm, p=0.5, target_ci=0.5, chunk_size=64, seed=8)
        easy = stream_probes(algorithm, p=0.1, target_ci=0.5, chunk_size=64, seed=8)
        assert easy.n_trials_used < critical.n_trials_used

    def test_parameter_validation(self):
        algorithm = ProbeMaj(MajoritySystem(5))
        with pytest.raises(ValueError):
            stream_probes(algorithm, p=0.5, target_ci=0.0)
        with pytest.raises(ValueError):
            stream_probes(algorithm, p=0.5, target_ci=0.5, trials=100)
        with pytest.raises(ValueError):
            stream_probes(algorithm, p=0.5, trials=0)
        with pytest.raises(ValueError):
            stream_probes(algorithm, p=0.5, trials=10, chunk_size=0)
        with pytest.raises(ValueError):
            stream_probes(
                algorithm, p=0.5, target_ci=0.5, min_trials=100, max_trials=50
            )
        with pytest.raises(ValueError):
            stream_probes(algorithm)  # no p, no source
        with pytest.raises(ValueError):
            stream_probes(algorithm, BernoulliSource(7, 0.5))  # n mismatch

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            stream_probes(ProbeMaj(MajoritySystem(5)), p=0.5, trials=10, jobs=jobs)

    def test_default_max_trials(self):
        assert DEFAULT_MAX_TRIALS == 1_000_000


class TestResultShape:
    def test_histogram_and_witnesses(self):
        algorithm = ProbeMaj(MajoritySystem(21))
        result = stream_probes(algorithm, p=1.0, trials=50, chunk_size=8, seed=1)
        assert sum(result.histogram) == 50
        # Every element red: no live quorum in any trial.
        assert result.witness_red == 50 and result.failure_rate == 1.0
        # All-red Maj(21) stops after quorum_size red probes.
        assert result.mean == 11.0

    def test_estimate_view(self):
        algorithm = ProbeTree(TreeSystem(3))
        result = stream_probes(algorithm, p=0.5, trials=100, chunk_size=32, seed=5)
        estimate = result.estimate
        assert isinstance(estimate, Estimate)
        assert estimate.mean == result.mean
        assert estimate.trials == result.n_trials_used == 100

    def test_moment_accumulator_matches_numpy(self):
        algorithm = ProbeHQS(HQS(3))
        result = stream_probes(algorithm, p=0.5, trials=300, chunk_size=64, seed=17)
        samples = np.repeat(
            np.arange(len(result.histogram)), np.asarray(result.histogram)
        )
        reference = Estimate.from_samples(samples)
        assert result.mean == reference.mean
        assert result.std == pytest.approx(reference.std, rel=1e-12)

    @pytest.mark.parametrize("count", [3, 2**40], ids=["int64", "past-int64"])
    def test_moment_sums_stay_exact_in_merge_and_load_state(self, count):
        # Σ count·v² of the second chunk passes 2^63 at count 2^40, where
        # the sums leave int64 for Python ints.
        histogram = np.zeros(5000, dtype=np.int64)
        histogram[[1, 4999]] = count
        total, total_sq = 5000 * count, (1 + 4999**2) * count
        accumulator = MomentAccumulator()
        for _ in range(2):
            accumulator.merge(ChunkStats(2 * count, histogram, 0))
        n = 4 * count
        expected_mean = 2 * total / n
        expected_std = math.sqrt((n * 2 * total_sq - 4 * total**2) / (n * (n - 1)))
        assert (accumulator.mean, accumulator.std) == (expected_mean, expected_std)
        loaded = MomentAccumulator()
        loaded.load_state(n, 0, accumulator.histogram.tolist())
        assert (loaded.mean, loaded.std, loaded.ci95) == (
            accumulator.mean, accumulator.std, accumulator.ci95
        )

    def test_empty_accumulator_rejects_mean(self):
        with pytest.raises(ValueError):
            MomentAccumulator().mean

    def test_negative_seed_rejected_like_one_shot_path(self):
        algorithm = ProbeMaj(MajoritySystem(11))
        with pytest.raises(ValueError, match="seed must be at least 0"):
            stream_probes(algorithm, p=0.5, trials=10, seed=-3)

    def test_large_seed_matches_one_shot_unmasked(self):
        # Seeds >= 2^64 must not be silently truncated: the engine's mean
        # must track the one-shot path at the SAME seed, not seed mod 2^64.
        algorithm = ProbeMaj(MajoritySystem(101))
        source = BernoulliSource(101, 0.4)
        big = 2**64 + 7
        engine = stream_probes(algorithm, source, trials=64, chunk_size=16, seed=big)
        one_shot = one_kernel_call(algorithm, source, trials=64, seed=big)
        low_bits = one_kernel_call(algorithm, source, trials=64, seed=7)
        assert engine.mean == one_shot.mean
        assert engine.mean != low_bits.mean

    def test_worker_pair_cache_reuses_objects(self):
        from repro.core import engine as engine_module
        from repro.core.batched import kernel_scratch

        algorithm = ProbeMaj(MajoritySystem(25))
        source = BernoulliSource(25, 0.5)
        blob, token = engine_module.ChunkTask(algorithm, source, 5).payload
        first = engine_module._run_chunk_task((blob, token, 5, 0, 16))
        cached_algorithm = engine_module.cached_pair(token, blob)[0]
        second = engine_module._run_chunk_task((blob, token, 5, 16, 16))
        # Same deserialized object served both chunks, so its kernel
        # scratch stays warm inside a worker.
        assert engine_module.cached_pair(token, blob)[0] is cached_algorithm
        assert "maj_columns" in kernel_scratch(cached_algorithm)
        assert first.trials == second.trials == 16

    def test_unseeded_run_works(self):
        algorithm = ProbeMaj(MajoritySystem(11))
        result = stream_probes(algorithm, p=0.5, trials=64, chunk_size=16)
        assert result.n_trials_used == 64


class TestEngineEstimate:
    def test_fixed_run_matches_one_kernel_call(self):
        algorithm = ProbeCW(TriangSystem(8))
        engine = stream_probes(algorithm, p=0.5, trials=500, seed=9).estimate
        one_shot = one_kernel_call(
            algorithm, BernoulliSource(algorithm.system.n, 0.5), trials=500, seed=9
        )
        assert engine.mean == one_shot.mean
        assert engine.trials == one_shot.trials == 500

    def test_target_ci_estimate(self):
        algorithm = ProbeMaj(MajoritySystem(101))
        estimate = stream_probes(
            algorithm, p=0.5, seed=3, target_ci=0.8, chunk_size=128
        ).estimate
        assert estimate.ci95 <= 0.8
        assert estimate.trials % 128 == 0

    def test_target_ci_failure_rate(self):
        algorithm = ProbeMaj(MajoritySystem(101))
        result = stream_probes(algorithm, p=0.5, target_ci=0.8, chunk_size=128, seed=7)
        assert result.ci95 <= 0.8
        assert result.estimate.trials == result.n_trials_used
        assert 0.3 < result.failure_rate < 0.7


class TestKernelScratch:
    """The cross-chunk precomputation caches must not change results."""

    @pytest.mark.parametrize(
        "factory,system",
        [
            (ProbeMaj, MajoritySystem(25)),
            (ProbeCW, TriangSystem(8)),
            (ProbeTree, TreeSystem(4)),
            (ProbeHQS, HQS(3)),
        ],
        ids=["ProbeMaj", "ProbeCW", "ProbeTree", "ProbeHQS"],
    )
    def test_cached_second_call_matches_fresh_instance(self, factory, system):
        warm = factory(system)
        red = sample_bernoulli_matrix(system.n, 0.5, 80, rng=31)
        first, _ = batched_run(warm, red)
        second, _ = batched_run(warm, red)  # scratch populated by call one
        fresh, _ = batched_run(factory(system), red)
        assert (first == second).all()
        assert (first == fresh).all()

    @pytest.mark.parametrize(
        "factory,system",
        [
            (RProbeMaj, MajoritySystem(25)),
            (RProbeCW, TriangSystem(6)),
            (RProbeTree, TreeSystem(4)),
        ],
        ids=["RProbeMaj", "RProbeCW", "RProbeTree"],
    )
    def test_randomized_cached_call_matches_fresh_instance(self, factory, system):
        red = sample_bernoulli_matrix(system.n, 0.5, 60, rng=37)
        warm = factory(system)
        batched_run(warm, red, rng=np.random.default_rng(1))  # warm the scratch
        cached, _ = batched_run(warm, red, rng=np.random.default_rng(2))
        fresh, _ = batched_run(factory(system), red, rng=np.random.default_rng(2))
        assert (cached == fresh).all()

    def test_scratch_is_per_instance(self):
        from repro.core.batched import kernel_scratch

        a = ProbeMaj(MajoritySystem(5))
        b = ProbeMaj(MajoritySystem(5))
        kernel_scratch(a)["maj_columns"] = "sentinel"
        assert "maj_columns" not in kernel_scratch(b)

    def test_varying_chunk_shapes_refresh_buffers(self):
        algorithm = RProbeMaj(MajoritySystem(25))
        for trials in (10, 64, 10):
            probes, _ = batched_run(
                algorithm,
                sample_bernoulli_matrix(25, 0.5, trials, rng=5),
                rng=np.random.default_rng(3),
            )
            assert probes.shape == (trials,)


class TestSourceContract:
    def test_custom_source_defaults_to_unaligned(self):
        class Custom(ColoringSource):
            name = "custom"

            @property
            def n(self):
                return 9

            def _sample_matrix(self, trials, generator):
                return generator.random((trials, 9)) < 0.5

        assert Custom().draws_per_word is None
        result = stream_probes(
            ProbeMaj(MajoritySystem(9)), Custom(), trials=40, chunk_size=8, seed=1
        )
        again = stream_probes(
            ProbeMaj(MajoritySystem(9)), Custom(), trials=40, chunk_size=8, seed=1
        )
        assert result.mean == again.mean
