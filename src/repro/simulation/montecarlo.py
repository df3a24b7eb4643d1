"""Monte-Carlo trial runner over the simulated cluster.

Bridges the complexity experiments and the systems substrate: for each trial
a fresh failure snapshot is drawn, a cluster is configured accordingly, the
probing algorithm runs against a :class:`ClusterProbeOracle`, and the probe
count / elapsed simulated time / witness color are recorded.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.algorithms.base import ProbingAlgorithm
from repro.core.estimator import Estimate
from repro.core.seeding import cell_seed
from repro.simulation.cluster import ClusterProbeOracle, SimulatedCluster
from repro.simulation.failures import FailureModel
from repro.simulation.latency import ConstantLatency, LatencyModel


@dataclass(frozen=True)
class TrialResult:
    """One Monte-Carlo trial against the simulated cluster."""

    probes: int
    elapsed: float
    witness_green: bool


@dataclass(frozen=True)
class BatchResult:
    """Aggregated outcome of a Monte-Carlo batch."""

    probes: Estimate
    elapsed: Estimate
    availability_failure_rate: float
    trials: int

    def __str__(self) -> str:
        return (
            f"probes {self.probes}, time {self.elapsed}, "
            f"F_p ≈ {self.availability_failure_rate:.3f} over {self.trials} trials"
        )


def run_cluster_trials(
    algorithm: ProbingAlgorithm,
    failure_model: FailureModel,
    trials: int = 500,
    latency: LatencyModel | None = None,
    seed: int | None = None,
    validate: bool = False,
) -> BatchResult:
    """Run ``trials`` independent probing episodes against fresh clusters.

    Returns estimates of the probe count and elapsed simulated time, plus
    the empirical availability failure rate (fraction of trials whose
    witness was red), which should match ``F_p(S)``.

    Each trial derives its cluster seed and algorithm stream from the
    batch seed keyed by the trial index (:func:`repro.core.seeding.cell_seed`),
    so any single trial reproduces in isolation — cell-by-cell, like the
    experiment drivers — instead of depending on every earlier trial's
    draws.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    latency = latency or ConstantLatency(1.0)
    results: list[TrialResult] = []
    system = algorithm.system
    for trial in range(trials):
        cluster = SimulatedCluster(
            system.n,
            failure_model=failure_model,
            latency=latency,
            seed=cell_seed(seed, trial, "cluster"),
        )
        oracle = ClusterProbeOracle(cluster)
        rng = random.Random(cell_seed(seed, trial, "algorithm"))
        run = algorithm.run(oracle, rng=rng)
        if validate:
            run.witness.validate(system, cluster.snapshot_coloring())
        results.append(
            TrialResult(
                probes=oracle.probe_count,
                elapsed=oracle.elapsed,
                witness_green=run.witness.is_green,
            )
        )
    probes = Estimate.from_samples([r.probes for r in results])
    elapsed = Estimate.from_samples([r.elapsed for r in results])
    failure_rate = float(np.mean([0.0 if r.witness_green else 1.0 for r in results]))
    return BatchResult(
        probes=probes,
        elapsed=elapsed,
        availability_failure_rate=failure_rate,
        trials=trials,
    )
