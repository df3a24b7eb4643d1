"""First-exit random-walk processes (Lemma 2.4 and Proposition 3.2).

The expected probe count of majority-style probing is governed by a
two-dimensional random walk: probing a green element is a step right,
probing a red element is a step up, and the process stops when either
coordinate reaches the target ``N`` (a monochromatic set of size ``N`` has
been collected).  This module provides a simulator for the process and exact
/ asymptotic expectations, used both to validate Lemma 2.4 and to predict
the Majority results of Proposition 3.2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.analysis.lemmas import binomial_pmf, grid_walk_exit_time_exact
from repro.core.estimator import Estimate


@dataclass(frozen=True)
class WalkOutcome:
    """Result of one grid-walk run: exit time and which border was hit."""

    steps: int
    exited_right: bool

    @property
    def exited_top(self) -> bool:
        return not self.exited_right


class GridRandomWalk:
    """The ``N × N`` first-exit walk of Lemma 2.4.

    At each step the walk moves right with probability ``p`` (collecting a
    green element) and up with probability ``q = 1 − p`` (collecting a red
    element); it stops when either coordinate reaches ``N``.
    """

    def __init__(self, n: int, p: float) -> None:
        if n < 1:
            raise ValueError("grid size must be at least 1")
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"step probability must be in [0, 1], got {p}")
        self._n = n
        self._p = p

    @property
    def n(self) -> int:
        return self._n

    @property
    def p(self) -> float:
        return self._p

    def run(self, rng: random.Random | None = None) -> WalkOutcome:
        """Simulate one walk until exit."""
        rng = rng or random.Random()
        right = 0
        up = 0
        steps = 0
        while right < self._n and up < self._n:
            steps += 1
            if rng.random() < self._p:
                right += 1
            else:
                up += 1
        return WalkOutcome(steps=steps, exited_right=right >= self._n)

    def simulate_expected_exit_time(
        self, trials: int = 2000, seed: int | None = None
    ) -> Estimate:
        """Monte-Carlo estimate of the expected exit time."""
        if trials < 1:
            raise ValueError("need at least one trial")
        rng = random.Random(seed)
        samples = [self.run(rng).steps for _ in range(trials)]
        return Estimate.from_samples(samples)

    def expected_exit_time_exact(self) -> float:
        """Exact expectation (Lemma 2.4 ground truth)."""
        return grid_walk_exit_time_exact(self._n, self._p)


def majority_expected_probes_exact(n: int, p: float) -> float:
    """Exact expected probes of (R_)Probe_Maj in the i.i.d. model.

    Probing stops when ``(n + 1) / 2`` elements of one color have been
    collected; because every element is i.i.d., the probe count is exactly
    the exit time of the grid walk with ``N = (n + 1)/2``, *truncated at n
    probes* (the universe is finite, so the walk can never take more than
    ``n`` steps).  The truncation is handled by noting that after ``n``
    probes one color always has at least ``(n+1)/2`` elements.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError("Majority requires an odd universe size")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"failure probability must be in [0, 1], got {p}")
    target = (n + 1) // 2
    q = 1.0 - p
    # E[T] = sum_{t>=0} P(T > t); T > t iff after t probes both color counts
    # are below the target.  For t >= n this is impossible.
    expectation = 0.0
    for t in range(min(2 * target - 1, n)):
        low = max(0, t - (target - 1))
        high = min(target - 1, t)
        prob_alive = 0.0
        for greens in range(low, high + 1):
            prob_alive += binomial_pmf(t, greens, q)
        expectation += prob_alive
    return expectation


def majority_expected_probes_bound(n: int, p: float) -> float:
    """Proposition 3.2's closed form: ``n − Θ(√n)`` at ``p = 1/2``, else ``n/(2q)``."""
    if n < 1 or n % 2 == 0:
        raise ValueError("Majority requires an odd universe size")
    q = 1.0 - p
    if abs(p - 0.5) < 1e-12:
        return n - np.sqrt(n)
    if p < 0.5:
        return n / (2.0 * q)
    return n / (2.0 * p)


