"""Behavioral tests for the Tree probing algorithms (Prop. 3.6, Thm. 4.7/4.8)."""

from __future__ import annotations

import numpy as np

from repro.algorithms.tree import ProbeTree, RProbeTree
from repro.core.coloring import Coloring
from repro.core.distributions import AdversarialSource
from repro.core.engine import stream_probes
from repro.analysis.yao import TreeHardSource, tree_lower_bound
from repro.systems.tree import TreeSystem


def probe_tree_recursion_value(height: int, p: float) -> float:
    """The exact expected probes of Probe_Tree from the Prop. 3.6 recursion."""
    from repro.analysis.availability import tree_availability

    q = 1.0 - p
    t = 1.0
    for h in range(1, height + 1):
        f = tree_availability(h - 1, p)
        t = 1.0 + (1.0 + q * f + p * (1.0 - f)) * t
    return t


class TestProbeTree:
    def test_all_green_probes_a_root_leaf_path(self):
        tree = TreeSystem(3)
        run = ProbeTree(tree).run_on(Coloring.all_green(tree.n), validate=True)
        assert run.probes == tree.height + 1
        assert run.witness.is_green
        assert len(run.witness.elements) == tree.height + 1

    def test_all_red_probes_a_root_leaf_path(self):
        tree = TreeSystem(3)
        run = ProbeTree(tree).run_on(Coloring.all_red(tree.n), validate=True)
        assert run.probes == tree.height + 1
        assert run.witness.is_red

    def test_single_node_tree(self):
        tree = TreeSystem(0)
        run = ProbeTree(tree).run_on(Coloring(1, red=[1]), validate=True)
        assert run.probes == 1
        assert run.witness.is_red

    def test_average_matches_recursion(self):
        for height, p in ((4, 0.5), (5, 0.5), (4, 0.3)):
            tree = TreeSystem(height)
            estimate = stream_probes(
                ProbeTree(tree), p=p, trials=4000, seed=height
            ).estimate
            expected = probe_tree_recursion_value(height, p)
            assert abs(estimate.mean - expected) < 4 * estimate.stderr + 0.1

    def test_sublinear_growth(self):
        # Doubling the tree (h=5 -> h=8 multiplies n by ~8) should grow the
        # probe count by roughly 1.5^3 ≈ 3.4, far below 8x.
        small = stream_probes(ProbeTree(TreeSystem(5)), p=0.5, trials=2000, seed=1).estimate
        large = stream_probes(ProbeTree(TreeSystem(8)), p=0.5, trials=2000, seed=1).estimate
        ratio = large.mean / small.mean
        assert 2.5 < ratio < 4.5


class TestRProbeTree:
    def test_hard_distribution_bracketed_by_paper_bounds(self):
        tree = TreeSystem(4)
        n = tree.n
        estimate = stream_probes(
            RProbeTree(tree), TreeHardSource(tree), trials=4000, seed=3
        ).estimate
        assert estimate.mean >= tree_lower_bound(n) - 4 * estimate.stderr
        assert estimate.mean <= 5 * n / 6 + 1 / 6 + 4 * estimate.stderr

    def test_beats_deterministic_on_hard_inputs(self):
        tree = TreeSystem(4)
        source = TreeHardSource(tree)
        randomized = stream_probes(RProbeTree(tree), source, trials=3000, seed=5).estimate
        deterministic = stream_probes(ProbeTree(tree), source, trials=3000, seed=5).estimate
        # Probe_Tree's fixed right-then-left order can be forced to probe
        # nearly everything; the randomized version stays near 5n/6.
        assert randomized.mean <= deterministic.mean + 3 * randomized.stderr

    def test_worst_single_input_below_bound(self):
        tree = TreeSystem(3)
        algorithm = RProbeTree(tree)
        red = TreeHardSource(tree).sample_matrix(tree.n, 10, rng=7)
        worst = 0.0
        for row in red:
            coloring = AdversarialSource(tree.n, np.flatnonzero(row) + 1)
            estimate = stream_probes(algorithm, coloring, trials=2500, seed=11).estimate
            worst = max(worst, estimate.mean)
        assert worst <= 5 * tree.n / 6 + 1 / 6 + 0.5

    def test_all_green_needs_few_probes(self):
        tree = TreeSystem(4)
        estimate = stream_probes(
            RProbeTree(tree), AdversarialSource(tree.n, ()), trials=2000, seed=13
        ).estimate
        # On the all-green input every strategy finds a witness quickly
        # (at most all leaves of one subtree path mix); well below n.
        assert estimate.mean < tree.n / 2
