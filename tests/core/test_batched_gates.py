"""Tests for the level-synchronous gate kernels (:mod:`repro.core.bitpacked`).

The deterministic Tree/HQS kernels must reproduce the recursive
implementations *trial-by-trial* on shared red matrices (identical probe
counts and witness colors per row); the randomized kernels draw from the
same distribution over probe orders, so their per-input probe-count
histograms and their means must agree with the sequential loops within
confidence bounds.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter

import numpy as np
import pytest

from repro.algorithms import (
    IRProbeHQS,
    ProbeHQS,
    ProbeTree,
    RProbeHQS,
    RProbeTree,
)
from repro.core.batched import batched_run, supports_batched
from repro.core.coloring import Coloring
from repro.core.distributions import sample_bernoulli_matrix
from repro.core.engine import stream_probes
from repro.experiments.hqs import HQSFamilyPSource
from repro.systems import HQS, TreeSystem


TREE_HEIGHTS = [0, 1, 2, 4, 6]
HQS_HEIGHTS = [0, 1, 2, 3]


@pytest.mark.parametrize("height", TREE_HEIGHTS)
def test_probe_tree_kernel_is_trial_exact(height):
    system = TreeSystem(height)
    algorithm = ProbeTree(system)
    red = sample_bernoulli_matrix(system.n, 0.5, 150, rng=height + 1)
    probes, witness_green = batched_run(algorithm, red)
    for t in range(red.shape[0]):
        run = algorithm.run_on(Coloring.from_red_row(red[t]))
        assert run.probes == probes[t]
        assert run.witness.is_green == bool(witness_green[t])


@pytest.mark.parametrize("height", HQS_HEIGHTS)
@pytest.mark.parametrize("p", [0.2, 0.5])
def test_probe_hqs_kernel_is_trial_exact(height, p):
    system = HQS(height)
    algorithm = ProbeHQS(system)
    red = sample_bernoulli_matrix(system.n, p, 150, rng=height + 7)
    probes, witness_green = batched_run(algorithm, red)
    rng = random.Random(0)
    for t in range(red.shape[0]):
        run = algorithm.run_on(Coloring.from_red_row(red[t]), rng=rng)
        assert run.probes == probes[t]
        assert run.witness.is_green == bool(witness_green[t])


class TestRandomizedKernelsMatchInDistribution:
    @pytest.mark.parametrize(
        "factory,system",
        [
            (RProbeTree, TreeSystem(5)),
            (RProbeHQS, HQS(3)),
            (IRProbeHQS, HQS(3)),
        ],
        ids=["RProbeTree", "RProbeHQS", "IRProbeHQS"],
    )
    def test_means_agree_on_random_inputs(self, factory, system):
        algorithm = factory(system)
        red = sample_bernoulli_matrix(system.n, 0.5, 4000, rng=11)
        probes, _ = batched_run(algorithm, red, rng=np.random.default_rng(12))
        rng = random.Random(13)
        sequential = [
            algorithm.run_on(Coloring.from_red_row(red[t]), rng=rng).probes
            for t in range(1500)
        ]
        batched_sem = float(np.std(probes)) / np.sqrt(len(probes))
        seq_sem = float(np.std(sequential)) / np.sqrt(len(sequential))
        tolerance = 4.0 * (batched_sem + seq_sem)
        assert abs(float(np.mean(probes)) - float(np.mean(sequential))) < tolerance

    @pytest.mark.parametrize(
        "factory", [RProbeHQS, IRProbeHQS], ids=["RProbeHQS", "IRProbeHQS"]
    )
    def test_fixed_input_histograms_agree(self, factory):
        """On one fixed family-P input the per-probe-count frequencies of the
        kernel and the sequential loop must agree bin by bin."""
        system = HQS(2)
        algorithm = factory(system)
        row = HQSFamilyPSource(system).sample_matrix(system.n, 1, rng=3)[0]
        coloring = Coloring.from_red_row(row)
        trials = 30000
        red = np.broadcast_to(row, (trials, system.n))
        probes, _ = batched_run(algorithm, red, rng=np.random.default_rng(4))
        rng = random.Random(5)
        sequential = [algorithm.run_on(coloring, rng=rng).probes for _ in range(trials)]
        batched_hist = Counter(probes.tolist())
        seq_hist = Counter(sequential)
        for k in set(batched_hist) | set(seq_hist):
            fb = batched_hist.get(k, 0) / trials
            fs = seq_hist.get(k, 0) / trials
            f = max(fb, fs)
            stderr = np.sqrt(2.0 * f * (1.0 - f) / trials)
            assert abs(fb - fs) < 5.0 * stderr + 1e-3, (k, fb, fs)

    @pytest.mark.parametrize("height", [1, 2, 3, 4])
    def test_witness_color_matches_system_truth(self, height):
        for factory, system in [
            (RProbeTree, TreeSystem(height)),
            (IRProbeHQS, HQS(height)),
        ]:
            algorithm = factory(system)
            red = sample_bernoulli_matrix(system.n, 0.5, 200, rng=height)
            _, witness_green = batched_run(
                algorithm, red, rng=np.random.default_rng(height)
            )
            for t in range(red.shape[0]):
                coloring = Coloring.from_red_row(red[t])
                assert bool(witness_green[t]) == system.has_live_quorum(coloring)

    def test_ir_does_not_exceed_r_on_family_p(self):
        """Theorem 4.10's point: the grandchild peek helps on family P."""
        system = HQS(4)
        source = HQSFamilyPSource(system)
        est_r = stream_probes(RProbeHQS(system), source, trials=6000, seed=21).estimate
        est_ir = stream_probes(IRProbeHQS(system), source, trials=6000, seed=22).estimate
        assert est_ir.mean <= est_r.mean + est_ir.ci95 + est_r.ci95


class TestEngineOnFamilyP:
    def test_matches_exact_value_on_family_p(self):
        # Every gate of a family-P input has exactly one minority child, so
        # R_Probe_HQS needs its third child unless the minority comes last
        # (probability 1/3): 8/3 children per gate, (8/3)^h probes in all.
        system = HQS(3)
        algorithm = RProbeHQS(system)
        batched = stream_probes(
            algorithm, HQSFamilyPSource(system), trials=4000, seed=31
        ).estimate
        assert abs(batched.mean - (8 / 3) ** system.height) < 2 * batched.ci95

    def test_rejects_zero_trials(self):
        system = HQS(1)
        with pytest.raises(ValueError):
            stream_probes(RProbeHQS(system), HQSFamilyPSource(system), trials=0)


class TestGateKernelRegistration:
    def test_all_gate_algorithms_supported(self):
        tree = TreeSystem(2)
        hqs = HQS(2)
        for algorithm in (
            ProbeTree(tree),
            RProbeTree(tree),
            ProbeHQS(hqs),
            RProbeHQS(hqs),
            IRProbeHQS(hqs),
        ):
            assert supports_batched(algorithm)

    def test_engine_routes_tree_to_kernel(self):
        algorithm = ProbeTree(TreeSystem(4))
        engine = stream_probes(algorithm, p=0.5, trials=300, seed=8)
        red = sample_bernoulli_matrix(algorithm.system.n, 0.5, 300, rng=8)
        probes, _ = batched_run(algorithm, red)
        assert engine.mean == float(probes.mean())


# blake2s-128 of ``probes`` (as int64) followed by ``witness_green`` (as
# bool) for each kernel on the fixed inputs below.  The randomized kernels
# are otherwise pinned only in distribution; these digests pin the exact
# order-choice draws (the raw-word stream of
# ``repro.core.bitpacked._order_choices``) and what each kernel makes of
# them, so a rewrite of a level step must consume the same raw words in the
# same order to keep them.  The deterministic digests date from the numpy
# kernels; the three randomized ones were regenerated with that stream.
GOLDEN_DIGESTS = {
    "ProbeTree": "a81eadbc01a1a505c7c64dfa5ef5d051",
    "RProbeTree": "dca6732110fb8a4affbf6a4a57ad37ab",
    "ProbeHQS": "6ecae0f0adc0e4482de82c94fbbbbfe7",
    "RProbeHQS": "06cb8e81dcb260ded653a18503724bce",
    "IRProbeHQS": "63bd5e7412d3291d3a456fdfebdfbd58",
}


@pytest.mark.parametrize(
    "factory,system",
    [
        (ProbeTree, TreeSystem(5)),
        (RProbeTree, TreeSystem(5)),
        (ProbeHQS, HQS(4)),
        (RProbeHQS, HQS(4)),
        (IRProbeHQS, HQS(4)),
    ],
    ids=list(GOLDEN_DIGESTS),
)
def test_kernel_output_matches_golden_digest(factory, system):
    red = np.random.default_rng(2026).random((1000, system.n)) < 0.4
    probes, witness_green = batched_run(
        factory(system), red, rng=np.random.default_rng(7)
    )
    digest = hashlib.blake2s(
        probes.astype(np.int64).tobytes() + witness_green.astype(bool).tobytes(),
        digest_size=16,
    ).hexdigest()
    assert digest == GOLDEN_DIGESTS[factory.__name__]


@pytest.mark.parametrize(
    "factory,system",
    [(RProbeTree, TreeSystem(3)), (RProbeHQS, HQS(2)), (IRProbeHQS, HQS(3))],
)
def test_kernels_return_int64_probes(factory, system):
    red = sample_bernoulli_matrix(system.n, 0.5, 64, rng=3)
    probes, witness_green = batched_run(factory(system), red, rng=np.random.default_rng(4))
    assert probes.dtype == np.int64 and witness_green.dtype == bool
    assert probes.shape == witness_green.shape == (64,)
