"""Exact probe-count laws of the gate algorithms, against the engine.

:func:`~repro.analysis.availability.probe_tree_probe_law`,
:func:`~repro.analysis.availability.r_probe_tree_probe_law` and
:func:`~repro.analysis.availability.hqs_probe_law` give the whole law of a
run's probe count jointly with its witness color.  Their first moments
must equal the ``O(h)`` expectation recursions (R_Probe_Tree, HQS, and
for Probe_Tree the subtree recursion written out in its test), their
red mass the exact availability, swapping p and 1 - p must swap their
colors, and the Probe_Tree and HQS laws must equal enumeration through
``ProbeTree.run_on`` on Tree(h <= 2) and ``ProbeHQS.run_on`` on HQS(2).  Then the engine's full-size histograms
must fit them: a seeded chi-square goodness-of-fit test of the
:func:`~repro.core.engine.stream_probes` histogram (bins pooled to at
least 5 expected trials, Wilson–Hilferty tail) and a 4-sigma check of the
red-witness count, for Probe_Tree and R_Probe_Tree at Tree(h=9) and for
Probe_HQS and R_Probe_HQS at HQS(6).

Detection limit: these fits catch errors in the shape of the law, not
every defect.  A mean-preserving spread that moves the probe count of 5%
of R_Probe_Tree(h=9) trials by ±10 (the law's standard deviation is about
64) was not flagged by the chi-square at 2 x 10^5 trials (p = 0.74).  The
same spread applied to the seeded Probe_Tree(h=9) histograms (standard
deviation 30 at p = 0.3, 61 at p = 0.5) was flagged at p = 0.3
(p = 2 x 10^-4, under the 10^-3 threshold) but not at p = 0.5
(p = 0.012), and a ±5 spread was flagged at neither (0.014, 0.081).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.algorithms import ProbeHQS, ProbeTree, RProbeHQS, RProbeTree
from repro.analysis.availability import (
    hqs_availability,
    hqs_expected_probes,
    hqs_probe_law,
    probe_tree_probe_law,
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


def enumerated_law(algorithm, p: float) -> tuple[np.ndarray, np.ndarray]:
    """``(red, green)`` probe-count law of a deterministic algorithm, by
    running it on every coloring of its system."""
    n = algorithm.system.n
    red_law, green_law = np.zeros(n + 1), np.zeros(n + 1)
    for mask in range(1 << n):
        reds = mask.bit_count()
        run = algorithm.run_on(Coloring.from_red_mask(n, mask))
        law = green_law if run.witness.is_green else red_law
        law[run.probes] += p**reds * (1.0 - p) ** (n - reds)
    return red_law, green_law


@pytest.mark.parametrize("p", [0.3, 0.5])
def test_hqs_law_equals_enumeration(p):
    red_law, green_law = enumerated_law(ProbeHQS(HQS(2)), p)
    red, green = hqs_probe_law(2, p)
    np.testing.assert_allclose(red, red_law, atol=1e-15)
    np.testing.assert_allclose(green, green_law, atol=1e-15)


@pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.8])
@pytest.mark.parametrize("height", [0, 1, 2])
def test_probe_tree_law_equals_enumeration(height, p):
    red_law, green_law = enumerated_law(ProbeTree(TreeSystem(height)), p)
    red, green = probe_tree_probe_law(height, p)
    np.testing.assert_allclose(red, red_law, atol=1e-15)
    np.testing.assert_allclose(green, green_law, atol=1e-15)


@pytest.mark.parametrize("p", PS)
def test_probe_tree_law_red_mass_is_the_availability(p):
    for height in range(10):
        red, green = probe_tree_probe_law(height, p)
        assert (red + green).sum() == pytest.approx(1.0, abs=1e-12)
        assert red.sum() == pytest.approx(tree_availability(height, p), abs=1e-12)


@pytest.mark.parametrize("p", PS)
def test_probe_tree_law_mean_follows_the_subtree_recursion(p):
    # Probe_Tree probes the root and one subtree, then the other subtree
    # when the first differs from the root, which happens with probability
    # q = p (1 - f) + (1 - p) f for a subtree of availability f; the
    # subtrees are i.i.d., so E_h = 1 + (1 + q) E_{h-1} with E_0 = 1.
    mean = 1.0
    for height in range(10):
        if height:
            f = tree_availability(height - 1, p)
            mean = 1.0 + (1.0 + p * (1.0 - f) + (1.0 - p) * f) * mean
        red, green = probe_tree_probe_law(height, p)
        assert np.arange(len(red)) @ (red + green) == pytest.approx(mean, abs=1e-9)


def test_probe_tree_law_support_runs_from_a_path_to_the_whole_tree():
    # At least one node per level (each subtree agreeing with its root),
    # at most all 2^(h+1) - 1 nodes; both ends occur when 0 < p < 1.
    for height in range(10):
        red, green = probe_tree_probe_law(height, 0.3)
        total = red + green
        support = np.nonzero(total)[0]
        assert len(total) == 2 ** (height + 1)
        assert (support.min(), support.max()) == (height + 1, 2 ** (height + 1) - 1)


ALL_LAWS = {
    "probe_tree": (probe_tree_probe_law, 10),
    "r_probe_tree": (r_probe_tree_probe_law, 10),
    "hqs": (hqs_probe_law, 7),
}


@pytest.mark.parametrize("p", [0.1, 0.3, 0.5])
@pytest.mark.parametrize("family", list(ALL_LAWS))
def test_laws_are_symmetric_under_swapping_the_colors(family, p):
    # Every gate algorithm only compares colors, so recoloring every
    # element swaps the witness color and keeps the probe count.
    law, heights = ALL_LAWS[family]
    for height in range(heights):
        red, green = law(height, p)
        swapped_red, swapped_green = law(height, 1.0 - p)
        np.testing.assert_allclose(red, swapped_green, atol=1e-12)
        np.testing.assert_allclose(green, swapped_red, atol=1e-12)


def test_laws_reject_bad_arguments():
    with pytest.raises(ValueError):
        r_probe_tree_probe_law(-1, 0.5)
    with pytest.raises(ValueError):
        probe_tree_probe_law(-1, 0.5)
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
        pytest.param(ProbeTree(TreeSystem(9)), 0.3, 5, id="ProbeTree-h9-p0.3"),
        pytest.param(ProbeTree(TreeSystem(9)), 0.5, 6, id="ProbeTree-h9-p0.5"),
    ],
)
def test_engine_histograms_fit_the_exact_law(algorithm, p, seed, chi_square_p_value):
    height = algorithm.system.height
    law = {
        ProbeTree: probe_tree_probe_law,
        RProbeTree: r_probe_tree_probe_law,
        ProbeHQS: hqs_probe_law,
        RProbeHQS: hqs_probe_law,
    }[type(algorithm)]
    red, green = law(height, p)
    result = stream_probes(algorithm, p=p, trials=TRIALS, seed=seed)
    statistic, df = pooled_chi_square(np.asarray(result.histogram), red + green)
    assert chi_square_p_value(statistic, df) > 1e-3, (statistic, df)
    red_mass = red.sum()
    sigma = math.sqrt(TRIALS * red_mass * (1.0 - red_mass))
    assert abs(result.witness_red - TRIALS * red_mass) <= 4.0 * sigma
