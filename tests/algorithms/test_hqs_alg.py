"""Behavioral tests for the HQS probing algorithms (Thm. 3.8/3.9, Prop. 4.9,
Thm. 4.10)."""

from __future__ import annotations

import random

from repro.algorithms.hqs import IRProbeHQS, ProbeHQS, RProbeHQS
from repro.core.coloring import Coloring
from repro.core.distributions import AdversarialSource
from repro.core.engine import stream_probes
from repro.core.exact import ExactSolver
from repro.experiments.hqs import HQSFamilyPSource, probe_hqs_expected_exact
from repro.systems.hqs import HQS


class TestProbeHQS:
    def test_all_green_probes_exactly_a_quorum(self):
        hqs = HQS(3)
        run = ProbeHQS(hqs).run_on(Coloring.all_green(hqs.n), validate=True)
        assert run.probes == hqs.quorum_size  # 2 leaves per gate suffice
        assert run.witness.is_green

    def test_all_red_probes_exactly_a_quorum(self):
        hqs = HQS(3)
        run = ProbeHQS(hqs).run_on(Coloring.all_red(hqs.n), validate=True)
        assert run.probes == hqs.quorum_size
        assert run.witness.is_red

    def test_third_child_probed_only_on_disagreement(self):
        hqs = HQS(1)
        # Leaves 1 green, 2 green: stops after two probes.
        run = ProbeHQS(hqs).run_on(Coloring(3, red=[3]))
        assert run.probes == 2
        # Leaves 1 green, 2 red: needs the third leaf.
        run = ProbeHQS(hqs).run_on(Coloring(3, red=[2]))
        assert run.probes == 3

    def test_left_to_right_order(self):
        hqs = HQS(2)
        run = ProbeHQS(hqs).run_on(Coloring.all_green(hqs.n))
        assert run.sequence == (1, 2, 4, 5)

    def test_average_matches_recursion_value(self):
        for height, p in ((3, 0.5), (4, 0.5), (3, 0.25)):
            hqs = HQS(height)
            estimate = stream_probes(
                ProbeHQS(hqs), p=p, trials=4000, seed=height
            ).estimate
            expected = probe_hqs_expected_exact(height, p)
            assert abs(estimate.mean - expected) < 4 * estimate.stderr + 0.2

    def test_recursion_value_at_half_is_2_5_power_h(self):
        for height in range(6):
            assert probe_hqs_expected_exact(height, 0.5) == 2.5**height

    def test_optimality_against_exact_solver(self):
        """Theorem 3.9 cross-check at p = 1/2.

        At height 1 the exact optimum equals Probe_HQS's 2.5.  At height 2
        the exact optimum (6.140625) is slightly *below* Probe_HQS's
        2.5^2 = 6.25 — the directional algorithm is not exactly optimal,
        a small measured deviation from the paper's claim (documented in
        ``repro.experiments.hqs.run_probe_hqs_optimality``).  What must
        always hold is optimum <= 2.5^h.
        """
        optimum_h1 = ExactSolver(HQS(1)).probabilistic_probe_complexity(0.5)
        assert abs(optimum_h1 - 2.5) < 1e-9
        optimum_h2 = ExactSolver(HQS(2)).probabilistic_probe_complexity(0.5)
        assert optimum_h2 <= 2.5**2 + 1e-9
        assert abs(optimum_h2 - 6.140625) < 1e-9

    def test_biased_p_needs_fewer_probes_than_half(self):
        hqs = HQS(4)
        at_half = stream_probes(ProbeHQS(hqs), p=0.5, trials=2000, seed=1).mean
        at_low = stream_probes(ProbeHQS(hqs), p=0.2, trials=2000, seed=1).mean
        assert at_low < at_half


class TestRandomizedHQS:
    def test_worst_case_family_has_uniform_probe_distribution(self):
        """On the family P every gate needs its third child with the same
        probability regardless of which children are evaluated first."""
        hqs = HQS(2)
        red = HQSFamilyPSource(hqs).sample_matrix(hqs.n, 20, rng=3)
        rng = random.Random(3)
        for row in red:
            coloring = Coloring.from_red_row(row)
            # Each input in P admits a witness; both algorithms must agree
            # with the ground-truth availability.
            for algorithm in (RProbeHQS(hqs), IRProbeHQS(hqs)):
                run = algorithm.run_on(coloring, rng=rng, validate=True)
                assert run.witness.is_green == hqs.has_live_quorum(coloring)

    def test_ir_does_not_exceed_r_on_worst_case_family(self):
        hqs = HQS(3)
        source = HQSFamilyPSource(hqs)
        r_est = stream_probes(RProbeHQS(hqs), source, trials=5000, seed=5).estimate
        ir_est = stream_probes(IRProbeHQS(hqs), source, trials=5000, seed=5).estimate
        assert ir_est.mean <= r_est.mean + 2 * (r_est.stderr + ir_est.stderr)

    def test_randomized_algorithms_probe_fewer_than_n_on_family_p(self):
        hqs = HQS(3)
        source = HQSFamilyPSource(hqs)
        for algorithm in (RProbeHQS(hqs), IRProbeHQS(hqs)):
            estimate = stream_probes(algorithm, source, trials=2000, seed=7).estimate
            assert estimate.mean < hqs.n

    def test_all_green_input_needs_only_a_quorum_worth_of_probes(self):
        hqs = HQS(3)
        for algorithm in (RProbeHQS(hqs), IRProbeHQS(hqs)):
            estimate = stream_probes(
                algorithm, AdversarialSource(hqs.n, ()), trials=500, seed=9
            ).estimate
            assert estimate.mean == hqs.quorum_size

    def test_ir_falls_back_to_r_at_height_one(self):
        hqs = HQS(1)
        rng = random.Random(11)
        for red in ([], [1], [1, 2], [1, 2, 3]):
            coloring = Coloring(3, red=red)
            run = IRProbeHQS(hqs).run_on(coloring, rng=rng, validate=True)
            assert 2 <= run.probes <= 3

    def test_lower_bound_exponent_dominates(self):
        """Corollary 4.13: no randomized algorithm beats 2.5^h on the worst
        case, so on the hard family the measured cost at p=1/2-style inputs
        stays above the quorum size 2^h."""
        hqs = HQS(3)
        source = HQSFamilyPSource(hqs)
        for algorithm in (RProbeHQS(hqs), IRProbeHQS(hqs)):
            estimate = stream_probes(algorithm, source, trials=3000, seed=13).estimate
            assert estimate.mean > hqs.quorum_size
