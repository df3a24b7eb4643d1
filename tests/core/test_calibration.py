"""Ground-truth calibration of the Monte-Carlo entry point.

The other engine tests pin backends, chunk layouts and transports against
each other.  These check :func:`repro.core.engine.stream_probes` against the
exact expectation ``E_p[probes]``, computed independently of every kernel by
enumerating all ``2^n`` colorings through ``algorithm.run_on`` and weighting
each by ``p^r (1 - p)^(n - r)``.  Over 200 fixed seeds the engine's 95%
confidence interval must cover that value at close to its nominal rate.
"""

from __future__ import annotations

import pytest

from repro.algorithms import ProbeMaj, ProbeTree
from repro.core.coloring import Coloring
from repro.core.engine import stream_probes
from repro.systems import MajoritySystem, TreeSystem

SEEDS = range(200)
TRIALS = 400


def exact_expected_probes(algorithm, p: float) -> float:
    """``E_p[probes]`` of a deterministic algorithm by full enumeration."""
    n = algorithm.system.n
    total = 0.0
    for mask in range(1 << n):
        reds = mask.bit_count()
        weight = p**reds * (1.0 - p) ** (n - reds)
        total += weight * algorithm.run_on(Coloring.from_red_mask(n, mask)).probes
    return total


CASES = [
    pytest.param(ProbeMaj(MajoritySystem(15)), 0.45, 12.73681, id="ProbeMaj-Maj15-p0.45"),
    pytest.param(ProbeTree(TreeSystem(3)), 0.4, 7.78995, id="ProbeTree-h3-p0.4"),
]


@pytest.mark.parametrize("algorithm,p,approx", CASES)
def test_ci95_covers_the_exact_expectation(algorithm, p, approx):
    exact = exact_expected_probes(algorithm, p)
    assert exact == pytest.approx(approx, abs=1e-5)
    covered = 0
    for seed in SEEDS:
        result = stream_probes(algorithm, p=p, trials=TRIALS, seed=seed)
        assert result.n_trials_used == TRIALS
        covered += abs(result.mean - exact) <= result.ci95
    coverage = covered / len(SEEDS)
    assert 0.90 <= coverage <= 0.99, coverage
