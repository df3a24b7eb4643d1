"""Behavioral tests for the crumbling-wall algorithms (Thm. 3.3, Thm. 4.4)."""

from __future__ import annotations

import random

import pytest

from repro.algorithms.crumbling_walls import ProbeCW, RProbeCW, probe_cw_row_bound
from repro.analysis.lemmas import expected_trials_both_colors
from repro.core.coloring import Coloring
from repro.core.distributions import AdversarialSource
from repro.core.engine import stream_probes
from repro.systems.crumbling_walls import CrumblingWall, TriangSystem, uniform_wall


class TestProbeCWBehaviour:
    def test_all_green_probes_one_per_row(self):
        wall = CrumblingWall([1, 3, 4, 2])
        run = ProbeCW(wall).run_on(Coloring.all_green(wall.n))
        assert run.probes == wall.num_rows
        assert run.witness.is_green

    def test_all_red_probes_one_per_row(self):
        wall = CrumblingWall([1, 3, 4, 2])
        run = ProbeCW(wall).run_on(Coloring.all_red(wall.n))
        assert run.probes == wall.num_rows
        assert run.witness.is_red

    def test_mode_flip_on_opposite_row(self):
        # Row 1 green, row 2 entirely red: the algorithm scans all of row 2,
        # flips to red mode, and needs one red element in row 3.
        wall = CrumblingWall([1, 2, 2])
        coloring = Coloring(wall.n, red=[2, 3, 4])
        run = ProbeCW(wall).run_on(coloring, validate=True)
        assert run.witness.is_red
        assert run.witness.elements == {2, 3, 4}
        assert run.probes == 1 + 2 + 1

    def test_witness_structure_full_row_plus_representatives(self):
        wall = TriangSystem(4)
        rng = random.Random(17)
        for _ in range(50):
            coloring = Coloring.random(wall.n, 0.5, rng)
            run = ProbeCW(wall).run_on(coloring, validate=True)
            # The witness contains a full row j and one element from each
            # row below j (so it is a quorum of the wall).
            assert wall.find_quorum_within(run.witness.elements) is not None

    def test_requires_unit_first_row(self):
        with pytest.raises(ValueError):
            ProbeCW(CrumblingWall([2, 3]))

    def test_invalid_row_order_option(self):
        with pytest.raises(ValueError):
            ProbeCW(TriangSystem(3), within_row_order="sorted")


class TestTheorem33Bound:
    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_average_probes_at_most_2k_minus_1(self, p):
        wall = TriangSystem(7)
        estimate = stream_probes(ProbeCW(wall), p=p, trials=1500, seed=19).estimate
        assert estimate.mean <= 2 * wall.num_rows - 1 + 3 * estimate.stderr

    def test_bound_independent_of_row_width(self):
        # Same number of rows, widths growing by 25x: average probes stay put.
        narrow = uniform_wall(rows=6, width=4)
        wide = uniform_wall(rows=6, width=100)
        narrow_est = stream_probes(ProbeCW(narrow), p=0.5, trials=1500, seed=23).estimate
        wide_est = stream_probes(ProbeCW(wide), p=0.5, trials=1500, seed=23).estimate
        assert abs(narrow_est.mean - wide_est.mean) < 1.0
        assert wide_est.mean <= 11 + 3 * wide_est.stderr

    def test_wheel_corollary_three_probes(self):
        wall = CrumblingWall([1, 99])
        estimate = stream_probes(ProbeCW(wall), p=0.5, trials=2000, seed=29).estimate
        assert estimate.mean <= 3.0 + 3 * estimate.stderr


class TestRProbeCW:
    def test_monochromatic_bottom_row_stops_immediately(self):
        wall = CrumblingWall([1, 3, 4])
        # Bottom row (elements 5..8) all green: the scan never leaves it.
        coloring = Coloring(wall.n, red=[2, 3, 4])
        run = RProbeCW(wall).run_on(coloring, rng=random.Random(1), validate=True)
        assert run.probes == 4
        assert run.witness.elements == {5, 6, 7, 8}

    def test_stops_at_first_monochromatic_row(self):
        wall = CrumblingWall([1, 2, 2])
        # Bottom row mixed, middle row all red, so the scan stops at row 2.
        coloring = Coloring(wall.n, red=[2, 3, 4])
        run = RProbeCW(wall).run_on(coloring, rng=random.Random(2), validate=True)
        assert run.witness.is_red
        assert {2, 3} <= run.witness.elements

    def test_row_expected_probes_match_lemma_2_9(self):
        # A single row with r reds and g greens: expected probes until both
        # colors are seen must match Lemma 2.9 (plus the width-1 top row).
        wall = CrumblingWall([1, 8])
        algorithm = RProbeCW(wall)
        coloring = AdversarialSource(wall.n, [2, 3, 4])  # bottom row: 3 red, 5 green
        estimate = stream_probes(algorithm, coloring, trials=6000, seed=31).estimate
        expected_row = float(expected_trials_both_colors(3, 5))
        assert abs(estimate.mean - (expected_row + 1)) < 4 * estimate.stderr + 0.05

    def test_theorem_4_4_row_bound_formula(self):
        assert probe_cw_row_bound([1, 2]) == pytest.approx(max(1 + 1.5 + 0.5, 2))
        triang = TriangSystem(5)
        bound = probe_cw_row_bound(triang.widths)
        n, k = triang.n, 5
        assert bound <= (triang.max_row_width() + n + 2 * k) / 2

    def test_worst_case_expected_probes_within_theorem_4_4(self):
        triang = TriangSystem(5)
        algorithm = RProbeCW(triang)
        bound = probe_cw_row_bound(triang.widths)
        rng = random.Random(37)
        # Sample several adversarial-ish inputs (one green per row).
        for _ in range(5):
            green = {rng.choice(sorted(row)) for row in triang.rows}
            coloring = AdversarialSource(triang.n, triang.universe - green)
            estimate = stream_probes(algorithm, coloring, trials=3000, seed=41).estimate
            assert estimate.mean <= bound + 4 * estimate.stderr
