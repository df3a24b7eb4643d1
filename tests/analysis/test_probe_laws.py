"""Exact probe-count laws of the gate algorithms, against the engine.

:func:`~repro.analysis.availability.r_probe_tree_probe_law` and
:func:`~repro.analysis.availability.hqs_probe_law` give the whole law of a
run's probe count jointly with its witness color.  Their first moments
must equal the ``O(h)`` expectation recursions, their red mass the exact
availability, and the HQS law must equal enumeration through
``ProbeHQS.run_on`` on HQS(2).  Then the engine's full-size histograms must
fit them: a seeded chi-square goodness-of-fit test of the
:func:`~repro.core.engine.stream_probes` histogram (bins pooled to at
least 5 expected trials, Wilson–Hilferty tail) and a 4-sigma check of the
red-witness count, at Tree(h=9) and HQS(6).

Detection limit: these fits catch errors in the shape of the law, not
every defect.  A mean-preserving spread that moves the probe count of 5%
of R_Probe_Tree(h=9) trials by ±10 (the law's standard deviation is about
64) was not flagged by the chi-square at 2 x 10^5 trials (p = 0.74).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.algorithms import ProbeHQS, RProbeHQS, RProbeTree
from repro.analysis.availability import (
    hqs_availability,
    hqs_expected_probes,
    hqs_probe_law,
    r_probe_tree_expected_probes,
    r_probe_tree_probe_law,
    tree_availability,
)
from repro.core.coloring import Coloring
from repro.core.engine import stream_probes
from repro.systems import HQS, TreeSystem

PS = [0.0, 0.3, 0.5, 0.8, 1.0]

LAWS = {
    "tree": (r_probe_tree_probe_law, r_probe_tree_expected_probes, tree_availability, 10),
    "hqs": (hqs_probe_law, hqs_expected_probes, hqs_availability, 7),
}


@pytest.mark.parametrize("p", PS)
@pytest.mark.parametrize("family", list(LAWS))
def test_law_moments_match_the_recursions(family, p):
    law, expected, availability, heights = LAWS[family]
    for height in range(heights):
        red, green = law(height, p)
        probes = np.arange(len(red))
        assert (red + green).sum() == pytest.approx(1.0, abs=1e-12)
        assert probes @ (red + green) == pytest.approx(expected(height, p), abs=1e-9)
        assert red.sum() == pytest.approx(availability(height, p), abs=1e-12)


@pytest.mark.parametrize("p", [0.3, 0.5])
def test_hqs_law_equals_enumeration(p):
    algorithm = ProbeHQS(HQS(2))
    n = algorithm.system.n
    red_law, green_law = np.zeros(n + 1), np.zeros(n + 1)
    for mask in range(1 << n):
        reds = mask.bit_count()
        run = algorithm.run_on(Coloring.from_red_mask(n, mask))
        law = green_law if run.witness.is_green else red_law
        law[run.probes] += p**reds * (1.0 - p) ** (n - reds)
    red, green = hqs_probe_law(2, p)
    np.testing.assert_allclose(red, red_law, atol=1e-15)
    np.testing.assert_allclose(green, green_law, atol=1e-15)


def test_laws_reject_bad_arguments():
    with pytest.raises(ValueError):
        r_probe_tree_probe_law(-1, 0.5)
    with pytest.raises(ValueError):
        hqs_probe_law(2, 1.5)


TRIALS = 200_000


def pooled_chi_square(histogram: np.ndarray, probabilities: np.ndarray) -> tuple[float, int]:
    """Chi-square statistic and degrees of freedom after pooling adjacent
    probe counts until each bin expects at least 5 trials."""
    observed = np.zeros(len(probabilities))
    observed[: len(histogram)] = histogram
    bins_o, bins_e = [], []
    o = e = 0.0
    for count, probability in zip(observed, probabilities * observed.sum()):
        o, e = o + count, e + probability
        if e >= 5.0:
            bins_o.append(o)
            bins_e.append(e)
            o = e = 0.0
    bins_o[-1] += o
    bins_e[-1] += e
    bins_o, bins_e = np.array(bins_o), np.array(bins_e)
    return float(((bins_o - bins_e) ** 2 / bins_e).sum()), len(bins_o) - 1


@pytest.mark.parametrize(
    "algorithm,p,seed",
    [
        pytest.param(RProbeTree(TreeSystem(9)), 0.3, 1, id="RProbeTree-h9-p0.3"),
        pytest.param(RProbeTree(TreeSystem(9)), 0.5, 2, id="RProbeTree-h9-p0.5"),
        pytest.param(RProbeHQS(HQS(6)), 0.5, 3, id="RProbeHQS-h6-p0.5"),
        pytest.param(ProbeHQS(HQS(6)), 0.5, 4, id="ProbeHQS-h6-p0.5"),
    ],
)
def test_engine_histograms_fit_the_exact_law(algorithm, p, seed, chi_square_p_value):
    height = algorithm.system.height
    law = r_probe_tree_probe_law if isinstance(algorithm, RProbeTree) else hqs_probe_law
    red, green = law(height, p)
    result = stream_probes(algorithm, p=p, trials=TRIALS, seed=seed)
    statistic, df = pooled_chi_square(np.asarray(result.histogram), red + green)
    assert chi_square_p_value(statistic, df) > 1e-3, (statistic, df)
    red_mass = red.sum()
    sigma = math.sqrt(TRIALS * red_mass * (1.0 - red_mass))
    assert abs(result.witness_red - TRIALS * red_mass) <= 4.0 * sigma
