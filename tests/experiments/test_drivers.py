"""Smoke and consistency tests for the experiment drivers.

Each driver is run at a reduced size and checked for (a) structural sanity
of the returned rows and (b) the absence of violations of the paper
relations it asserts (``<=``, ``>=``, ``==``).  The ``*_shape`` tests run a
driver at its paper-sized parameters and seed and check the shape claims
beyond the per-row relations: who wins, exponents in range and ordered
across p, and fit quality.
"""

from __future__ import annotations

import math

import pytest

from repro.experiments import (
    Table1Sizes,
    maj3_strategy_tree_summary,
    render_table1,
    run_availability_experiment,
    run_cw_independence_of_n,
    run_cw_order_ablation,
    run_deterministic_vs_randomized_tree,
    run_generic_baseline_ablation,
    run_hqs_ablation,
    run_maj3_experiment,
    run_probabilistic_majority,
    run_probe_cw_bound,
    run_probe_hqs_optimality,
    run_probe_hqs_scaling,
    run_probe_tree_scaling,
    run_randomized_cw,
    run_randomized_hqs,
    run_randomized_majority,
    run_randomized_tree,
    run_table1,
    run_urn_experiment,
    run_walk_experiment,
    run_wheel_and_triang_corollaries,
    violations,
)
from repro.analysis.bounds import HQS_PPC_EXPONENT
from repro.analysis.yao import majority_lower_bound
from repro.experiments.majority import majority_sqrt_deficit_fit
from repro.systems import TriangSystem


class TestMaj3Experiment:
    def test_all_relations_hold_exactly(self):
        rows = run_maj3_experiment()
        assert len(rows) == 4
        assert not violations(rows)
        assert all(row.satisfied for row in rows)
        values = {row.quantity: row.measured for row in rows}
        assert values["PC (deterministic worst case)"] == 3.0
        assert math.isclose(values["PPC at p=1/2"], 2.5)
        assert math.isclose(values["PCR upper (random permutation alg.)"], 8 / 3)
        assert math.isclose(values["PCR lower (Yao, Thm 4.2 distribution)"], 8 / 3)

    def test_strategy_tree_summary(self):
        summary = maj3_strategy_tree_summary()
        assert summary["depth"] == 3.0
        assert math.isclose(summary["expected_depth_half"], 2.5)


class TestMajorityExperiments:
    def test_probabilistic_rows_track_exact_values(self):
        rows = run_probabilistic_majority(sizes=(11, 25), ps=(0.5, 0.3), trials=800, seed=1)
        assert len(rows) == 4
        for row in rows:
            assert abs(row.measured - row.paper) / row.paper < 0.1

    def test_probabilistic_rows_shape(self):
        sizes = (11, 25, 51, 101)
        rows = run_probabilistic_majority(sizes=sizes, ps=(0.5, 0.3, 0.1), trials=600, seed=2001)
        for row in rows:
            assert abs(row.measured - row.paper) / row.paper < 0.10
        # Smaller p means fewer probes at every n.
        for n in sizes:
            per_p = {row.params["p"]: row.measured for row in rows if row.params["n"] == n}
            assert per_p[0.1] < per_p[0.3] < per_p[0.5] + 1e-9

    def test_sqrt_deficit_fit_positive_coefficient(self):
        fit = majority_sqrt_deficit_fit(sizes=(25, 51, 101), trials=800, seed=2)
        assert 0.3 < fit.sqrt_coefficient < 2.5

    def test_sqrt_deficit_fit_shape(self):
        # The deficit n - E[probes] is of sqrt(n) order, and the fit explains it.
        fit = majority_sqrt_deficit_fit(sizes=(25, 51, 101, 201), trials=1200, seed=7)
        assert 0.3 < fit.sqrt_coefficient < 2.5
        assert fit.r_squared > 0.9

    def test_randomized_rows_near_theorem_value(self):
        rows = run_randomized_majority(sizes=(9, 21), trials=1500, seed=3)
        for row in rows:
            assert abs(row.measured - row.paper) / row.paper < 0.1

    def test_randomized_rows_shape(self):
        # Worst input (upper side) and hard distribution (Yao lower side)
        # both land within 5% of PCR(Maj) = n - (n-1)/(n+3).
        rows = run_randomized_majority(sizes=(5, 9, 21, 51), trials=2400, seed=4002)
        for row in rows:
            exact = majority_lower_bound(row.params["n"])
            assert abs(row.measured - exact) / exact < 0.05


class TestCrumblingWallExperiments:
    def test_probe_cw_bound_rows(self):
        rows = run_probe_cw_bound(
            walls=[TriangSystem(5)], ps=(0.3, 0.5), trials=600, seed=4
        )
        assert not violations(rows)

    def test_corollaries(self):
        rows = run_wheel_and_triang_corollaries(trials=800, seed=5)
        assert not violations(rows)

    def test_independence_of_n(self):
        rows = run_cw_independence_of_n(widths_per_row=(5, 50), rows_count=6, trials=500, seed=6)
        assert not violations(rows)
        measured = [row.measured for row in rows]
        assert max(measured) - min(measured) < 1.5

    def test_independence_of_n_shape(self):
        # Growing n by 100x moves the average probe count by under one probe.
        rows = run_cw_independence_of_n(
            widths_per_row=(5, 20, 100, 500), rows_count=8, trials=600, seed=17
        )
        assert not violations(rows)
        measured = [row.measured for row in rows]
        assert max(measured) - min(measured) < 1.0

    def test_randomized_cw(self):
        rows = run_randomized_cw(depths=(4, 6), trials=800, seed=7)
        assert not violations(rows)

    def test_randomized_cw_shape(self):
        # On Triang the hard-input cost is Theta(n/2), unlike the O(k) of
        # the probabilistic model.
        rows = run_randomized_cw(depths=(5, 8, 12), trials=1200, seed=19)
        assert not violations(rows)
        triang = [r for r in rows if r.system.startswith("Triang") and r.relation == ">="]
        assert triang
        for row in triang:
            assert row.measured > 0.45 * row.params["n"]


class TestTreeExperiments:
    def test_scaling_exponent_close_to_paper(self):
        rows, fits = run_probe_tree_scaling(heights=(3, 4, 5, 6, 7), ps=(0.5,), trials=600, seed=8)
        assert not violations(rows)
        assert abs(fits[0.5].exponent - math.log2(1.5)) < 0.12

    def test_scaling_shape(self):
        # Sublinear near log2(1.5) at p = 1/2, lower when p is biased, and
        # every fit explains its points.
        rows, fits = run_probe_tree_scaling(
            heights=(3, 4, 5, 6, 7, 8), ps=(0.5, 0.3, 0.1), trials=600, seed=23
        )
        assert not violations(rows)
        assert abs(fits[0.5].exponent - math.log2(1.5)) < 0.12
        assert fits[0.5].exponent < 0.75
        assert fits[0.1].exponent < fits[0.3].exponent < fits[0.5].exponent + 0.02
        for fit in fits.values():
            assert fit.r_squared > 0.98

    def test_randomized_tree_bracketed(self):
        rows = run_randomized_tree(heights=(3, 5), trials=800, seed=9)
        assert not violations(rows)

    def test_randomized_tree_shape(self):
        # Linear in n, with a slope between the paper's 2/3 and 5/6.
        rows = run_randomized_tree(heights=(3, 5, 7, 9), trials=1200, seed=29)
        assert not violations(rows)
        upper = [r for r in rows if r.relation == "<="]
        assert upper
        for row in upper:
            n = row.params["n"]
            assert 0.60 * n <= row.measured <= 0.88 * n

    def test_randomized_beats_deterministic_on_hard_inputs(self):
        # Section 4's motivation: on the Theorem 4.8 inputs the fixed-order
        # algorithm pays strictly more than the randomized one.
        rows = run_deterministic_vs_randomized_tree(heights=(3, 5, 7), trials=1200, seed=31)
        assert len(rows) == 3
        for row in rows:
            assert row.measured > 1.05


class TestHQSExperiments:
    def test_scaling_matches_recursion(self):
        rows, fits = run_probe_hqs_scaling(heights=(2, 3, 4), ps=(0.5,), trials=600, seed=10)
        assert not violations(rows)
        assert abs(fits[0.5].exponent - math.log(2.5, 3)) < 0.1

    def test_scaling_shape(self):
        # The p = 1/2 exponent is log3(2.5), clearly above the quorum-size
        # exponent log3(2), and a biased p lowers it.
        rows, fits = run_probe_hqs_scaling(
            heights=(2, 3, 4, 5), ps=(0.5, 0.25), trials=600, seed=37
        )
        assert not violations(rows)
        assert abs(fits[0.5].exponent - math.log(2.5, 3)) < 0.05
        assert fits[0.5].exponent > math.log(2.0, 3) + 0.1
        assert fits[0.25].exponent < fits[0.5].exponent

    def test_randomized_shape(self):
        # Both exponents sit between the Cor. 4.13 lower bound (up to
        # finite-size slack) and ~0.9, and IR scales no worse than R.
        rows = run_randomized_hqs(heights=(2, 3, 4, 5), trials=600, seed=41)
        assert not violations(rows)
        fits = {row.quantity: row.measured for row in rows if row.system == "HQS (fit)"}
        r_exponent = fits["fitted exponent, R_Probe_HQS on P"]
        ir_exponent = fits["fitted exponent, IR_Probe_HQS on P"]
        for exponent in (r_exponent, ir_exponent):
            assert HQS_PPC_EXPONENT - 0.06 <= exponent <= 0.93
        assert ir_exponent <= r_exponent + 0.02

    def test_optimality_rows(self):
        rows = run_probe_hqs_optimality(heights=(1, 2))
        assert not violations(rows)
        assert all(row.satisfied for row in rows)


class TestLemmaAndAvailabilityExperiments:
    def test_walk_rows(self):
        rows = run_walk_experiment(sizes=(20, 100), ps=(0.5, 0.3), trials=600, seed=11)
        for row in rows:
            assert abs(row.measured - row.paper) / row.paper < 0.1

    def test_walk_shape(self):
        # At p = 1/2 the exit time approaches 2N from below; for p < 1/2 it
        # approaches N/q.
        rows = run_walk_experiment(sizes=(10, 50, 200, 1000), ps=(0.5, 0.3), trials=1200, seed=43)
        for row in rows:
            n, p = row.params["N"], row.params["p"]
            assert abs(row.measured - row.paper) / row.paper < 0.05
            if p == 0.5:
                assert 1.6 * n <= row.measured <= 2.0 * n
            else:
                assert abs(row.measured - n / (1 - p)) < 0.15 * n

    def test_urn_rows(self):
        rows = run_urn_experiment(cases=((3, 5), (10, 10)), trials=1500, seed=12)
        for row in rows:
            assert abs(row.measured - row.paper) / row.paper < 0.1

    def test_urn_shape(self):
        rows = run_urn_experiment(cases=((3, 5), (10, 10), (20, 5), (1, 30)), trials=2400, seed=59)
        for row in rows:
            assert abs(row.measured - row.paper) / row.paper < 0.05

    def test_availability_rows(self):
        rows = run_availability_experiment(ps=(0.3, 0.5), trials=800, seed=13)
        assert not violations(rows)

    def test_availability_shape(self):
        # The Monte-Carlo rows track the exact availability.
        rows = run_availability_experiment(ps=(0.1, 0.3, 0.5), trials=1200, seed=61)
        assert not violations(rows)
        monte_carlo = [r for r in rows if "Monte-Carlo" in r.quantity]
        assert monte_carlo
        for row in monte_carlo:
            assert abs(row.measured - row.paper) < 0.05


class TestAblations:
    def test_cw_order_ablation_runs(self):
        rows = run_cw_order_ablation(depth=6, ps=(0.5,), trials=400, seed=14)
        # The paper algorithm's row must respect 2k-1; the scans need not.
        paper_rows = [r for r in rows if "paper" in r.quantity]
        assert paper_rows and all(r.measured <= 11 + 1 for r in paper_rows)

    def test_cw_order_ablation_shape(self):
        # The top-down structure is what matters: a random within-row order
        # changes nothing measurable, while the bottom-up scan and the
        # generic scan pay Theta(n) instead of Theta(k).
        rows = run_cw_order_ablation(depth=12, ps=(0.1, 0.3, 0.5), trials=600, seed=67)
        at_half = {row.quantity: row.measured for row in rows if row.params["p"] == 0.5}
        paper = at_half["avg probes [Probe_CW (paper, lexicographic rows)]"]
        random_rows = at_half["avg probes [Probe_CW (random within-row order)]"]
        bottom_up = at_half["avg probes [R_Probe_CW (bottom-up randomized)]"]
        sequential = at_half["avg probes [SequentialScan (element order)]"]
        assert abs(paper - random_rows) < 1.5
        assert paper <= 2 * 12 - 1 + 0.5
        assert bottom_up > paper + 3.0
        assert sequential > 1.5 * paper

    def test_hqs_ablation_eager_probes_everything(self):
        rows = run_hqs_ablation(heights=(2,), trials=300, seed=15)
        eager = [r for r in rows if "Eager" in r.quantity][0]
        lazy = [r for r in rows if "lazy" in r.quantity][0]
        assert math.isclose(eager.measured, 9.0)
        assert lazy.measured < eager.measured

    def test_hqs_ablation_shape(self):
        # Skipping the third child when two agree saves (2.5/3)^h.
        rows = run_hqs_ablation(heights=(2, 3, 4), p=0.5, trials=600, seed=71)
        for height in (2, 3, 4):
            values = {row.quantity: row.measured for row in rows if row.params["h"] == height}
            lazy = values["avg probes [Probe_HQS (lazy, paper)]"]
            eager = values["avg probes [EagerProbeHQS (no short-circuit)]"]
            assert lazy < eager
            assert abs(eager - 3.0**height) < 1e-9
            assert abs(lazy - 2.5**height) / 2.5**height < 0.1

    def test_generic_baseline_rows(self):
        rows = run_generic_baseline_ablation(trials=300, seed=16)
        assert len(rows) == 4
        assert all(row.paper is not None for row in rows)

    def test_generic_baseline_shape(self):
        # The structural algorithms never do much worse (within 2x) than
        # universal candidate-quorum probing on their own systems.
        rows = run_generic_baseline_ablation(trials=600, seed=73)
        assert len(rows) == 4
        for row in rows:
            assert row.measured <= 2.0 * row.paper + 2.0

    def test_every_variant_of_a_cell_sees_identical_colorings(self, monkeypatch):
        # The variants of one ablation cell share a seed, and the engine
        # draws colorings apart from algorithm randomness: the witness
        # color depends on the coloring alone, so each variant must report
        # the same witness_red, whatever kernel or fallback ran it.
        from repro.core.engine import stream_probes
        from repro.experiments import ablations

        runs: dict[int, list[tuple[str, int]]] = {}

        def recording(algorithm, *args, **kwargs):
            result = stream_probes(algorithm, *args, **kwargs)
            runs.setdefault(kwargs["seed"], []).append((algorithm.name, result.witness_red))
            return result

        monkeypatch.setattr(ablations, "stream_probes", recording)
        run_cw_order_ablation(depth=6, ps=(0.3, 0.5), trials=300, seed=14)
        run_hqs_ablation(heights=(2, 3), trials=300, seed=15)
        run_generic_baseline_ablation(trials=300, seed=16)
        assert len(runs) == 2 + 2 + 4
        for cell in runs.values():
            assert len(cell) >= 2
            assert len({witness_red for _, witness_red in cell}) == 1, cell


class TestTable1:
    @pytest.fixture(scope="class")
    def table1_rows(self):
        sizes = Table1Sizes(maj_n=51, triang_depth=8, tree_height=5, hqs_height=3)
        return run_table1(sizes=sizes, trials=700, seed=17)

    def test_has_all_sixteen_cells(self, table1_rows):
        assert len(table1_rows) == 16
        assert {row.system for row in table1_rows} == {"Maj", "Triang", "Tree", "HQS"}

    def test_no_violated_relations(self, table1_rows):
        assert not violations(table1_rows)

    def test_shape_rows_are_close_to_paper_values(self, table1_rows):
        for row in table1_rows:
            if row.relation == "~" and row.paper is not None:
                assert abs(row.measured - row.paper) / row.paper < 0.15

    def test_rendering(self, table1_rows):
        text = render_table1(table1_rows)
        assert "Table 1" in text
        assert "Maj" in text and "HQS" in text

    def test_probabilistic_column_shape(self):
        # In the probabilistic model the wall is the cheapest, the tree is
        # sublinear, and HQS and the tree both stay below Majority's ~n.
        sizes = Table1Sizes(maj_n=101, triang_depth=10, tree_height=6, hqs_height=4)
        rows = run_table1(sizes=sizes, trials=600, seed=1001)
        assert not violations(rows)
        cells = {(r.system, r.quantity): r.measured for r in rows}
        maj = cells[("Maj", "probabilistic p=1/2 (lower n-Θ(√n))")]
        triang = cells[("Triang", "probabilistic p=1/2 (upper 2k-1)")]
        tree = cells[("Tree", "probabilistic p=1/2 (upper O(n^0.585))")]
        hqs = cells[("HQS", "probabilistic p=1/2 (upper O(n^0.834))")]
        assert triang < tree < maj
        assert hqs < maj
