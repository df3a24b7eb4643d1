"""Monte-Carlo estimation of probe complexities.

Large systems are out of reach of the exact solvers in
:mod:`repro.core.exact`, so the experiments estimate

* the **probabilistic probe complexity** of an algorithm — the expected
  number of probes when each element fails i.i.d. with probability ``p`` —
  by sampling colorings, and
* the **randomized worst-case probe complexity** — the maximum over inputs
  of the expected number of probes of a randomized algorithm — by estimating
  the expectation on each coloring of a supplied worst-case input family and
  taking the maximum.

All estimators are seeded and report normal-approximation confidence
intervals computed with numpy.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.algorithms.base import ProbingAlgorithm
from repro.core.coloring import Coloring


@dataclass(frozen=True)
class Estimate:
    """A Monte-Carlo estimate with uncertainty.

    ``mean`` is the point estimate, ``std`` the sample standard deviation,
    ``stderr`` the standard error of the mean and ``trials`` the sample
    size.  ``ci95`` is the half-width of the normal-approximation 95%
    confidence interval.
    """

    mean: float
    std: float
    trials: int

    @property
    def stderr(self) -> float:
        if self.trials <= 1:
            return float("inf") if self.trials == 0 else 0.0
        return self.std / np.sqrt(self.trials)

    @property
    def ci95(self) -> float:
        return 1.96 * self.stderr

    @property
    def low(self) -> float:
        """Lower end of the 95% confidence interval."""
        return self.mean - self.ci95

    @property
    def high(self) -> float:
        """Upper end of the 95% confidence interval."""
        return self.mean + self.ci95

    def __str__(self) -> str:
        return f"{self.mean:.3f} ± {self.ci95:.3f} (n={self.trials})"

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "Estimate":
        array = np.asarray(list(samples), dtype=float)
        if array.size == 0:
            raise ValueError("cannot build an estimate from zero samples")
        std = float(array.std(ddof=1)) if array.size > 1 else 0.0
        return cls(mean=float(array.mean()), std=std, trials=int(array.size))


def estimate_average_probes(
    algorithm: ProbingAlgorithm,
    p: float | None = None,
    trials: int = 1000,
    seed: int | None = None,
    validate: bool = False,
    source=None,
) -> Estimate:
    """Estimate the expected probe count under an input distribution, one
    trial at a time.

    With a bare ``p``, each trial draws a fresh coloring from the i.i.d.
    model (every element red with probability ``p``) and a fresh stream of
    algorithm randomness — the historical behavior, seeded-stream
    compatible with every earlier release.  Passing a
    :class:`~repro.core.distributions.ColoringSource` as ``source``
    instead draws the trial inputs from that source, so any registered
    scenario (exact-count, correlated groups, the Yao hard families)
    estimates through the same entry point; ``p`` is ignored then.

    This is the per-trial reference path.  Batched, chunked, adaptive or
    sharded estimation goes through the streaming engine
    (:func:`repro.core.engine.stream_probes` and its ``.estimate``), which
    draws the same distribution from its own per-chunk streams.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if source is None and p is None:
        raise ValueError("pass a failure probability p or a ColoringSource")
    if source is not None:
        from repro.core.coloring import as_numpy_generator

        if source.n != algorithm.system.n:
            raise ValueError(
                f"source draws over n={source.n}, "
                f"algorithm runs on n={algorithm.system.n}"
            )
        generator = as_numpy_generator(seed)
        algorithm_rng = random.Random(int(generator.integers(2**63)))
        samples = []
        for _ in range(trials):
            run = algorithm.run_on(
                source.sample(generator), rng=algorithm_rng, validate=validate
            )
            samples.append(run.probes)
        return Estimate.from_samples(samples)
    rng = random.Random(seed)
    samples = []
    n = algorithm.system.n
    for _ in range(trials):
        coloring = Coloring.random(n, p, rng)
        run = algorithm.run_on(coloring, rng=rng, validate=validate)
        samples.append(run.probes)
    return Estimate.from_samples(samples)


def estimate_expected_probes_on(
    algorithm: ProbingAlgorithm,
    coloring: Coloring,
    trials: int = 1000,
    seed: int | None = None,
    validate: bool = False,
) -> Estimate:
    """Estimate the expected probe count of a randomized algorithm on one
    fixed input coloring.

    For a deterministic algorithm a single trial suffices and the estimate
    is exact (zero variance).
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if not algorithm.randomized:
        run = algorithm.run_on(coloring, validate=validate)
        return Estimate(mean=float(run.probes), std=0.0, trials=1)
    rng = random.Random(seed)
    samples = []
    for _ in range(trials):
        run = algorithm.run_on(coloring, rng=rng, validate=validate)
        samples.append(run.probes)
    return Estimate.from_samples(samples)


@dataclass(frozen=True)
class WorstCaseEstimate:
    """Worst observed expected probe count over an input family."""

    worst_coloring: Coloring
    estimate: Estimate
    per_input: dict[Coloring, Estimate]


def estimate_worst_case_expected(
    algorithm: ProbingAlgorithm,
    colorings: Iterable[Coloring],
    trials_per_input: int = 500,
    seed: int | None = None,
) -> WorstCaseEstimate:
    """Estimate ``max_c E[probes on c]`` over a family of input colorings.

    This is how the randomized worst-case probe complexity (PCR) of an
    algorithm is measured empirically: the expectation is over the
    algorithm's randomness, the maximum over the supplied inputs (typically
    the paper's own worst-case families, or all colorings for small n).
    """
    colorings = list(colorings)
    if not colorings:
        raise ValueError("need at least one input coloring")
    per_input: dict[Coloring, Estimate] = {}
    master = random.Random(seed)
    for coloring in colorings:
        per_input[coloring] = estimate_expected_probes_on(
            algorithm,
            coloring,
            trials=trials_per_input,
            seed=master.randrange(2**63),
        )
    worst = max(per_input, key=lambda c: per_input[c].mean)
    return WorstCaseEstimate(worst, per_input[worst], per_input)


def estimate_average_under(
    algorithm: ProbingAlgorithm,
    sampler,
    trials: int = 1000,
    seed: int | None = None,
) -> Estimate:
    """Estimate expected probes when inputs come from an arbitrary sampler.

    ``sampler(rng)`` must return a :class:`Coloring`; used for the hard
    input distributions of the Yao-style lower-bound experiments.  Every
    such family is also a registered
    :class:`~repro.core.distributions.ColoringSource`; pass that to
    :func:`repro.core.engine.stream_probes` to run the whole batch through
    the algorithm's vectorized kernel.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = random.Random(seed)
    samples = []
    for _ in range(trials):
        coloring = sampler(rng)
        run = algorithm.run_on(coloring, rng=rng)
        samples.append(run.probes)
    return Estimate.from_samples(samples)
