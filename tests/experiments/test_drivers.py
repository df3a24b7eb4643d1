"""Smoke and consistency tests for the experiment drivers.

Each driver is run at a reduced size and checked for (a) structural sanity
of the returned rows and (b) the absence of violations of the paper
relations it asserts (``<=``, ``>=``, ``==``).
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
    run_generic_baseline_ablation,
    run_hqs_ablation,
    run_maj3_experiment,
    run_probabilistic_majority,
    run_probe_cw_bound,
    run_probe_hqs_optimality,
    run_probe_hqs_scaling,
    run_probe_tree_scaling,
    run_randomized_cw,
    run_randomized_majority,
    run_randomized_tree,
    run_table1,
    run_urn_experiment,
    run_walk_experiment,
    run_wheel_and_triang_corollaries,
    violations,
)
from repro.experiments.majority import majority_sqrt_deficit_fit
from repro.systems import TriangSystem


class TestMaj3Experiment:
    def test_all_relations_hold_exactly(self):
        rows = run_maj3_experiment()
        assert len(rows) == 4
        assert not violations(rows)
        assert all(row.satisfied for row in rows)

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

    def test_sqrt_deficit_fit_positive_coefficient(self):
        fit = majority_sqrt_deficit_fit(sizes=(25, 51, 101), trials=800, seed=2)
        assert 0.3 < fit.sqrt_coefficient < 2.5

    def test_randomized_rows_near_theorem_value(self):
        rows = run_randomized_majority(sizes=(9, 21), trials=1500, seed=3)
        for row in rows:
            assert abs(row.measured - row.paper) / row.paper < 0.1


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

    def test_randomized_cw(self):
        rows = run_randomized_cw(depths=(4, 6), trials=800, seed=7)
        assert not violations(rows)


class TestTreeExperiments:
    def test_scaling_exponent_close_to_paper(self):
        rows, fits = run_probe_tree_scaling(heights=(3, 4, 5, 6, 7), ps=(0.5,), trials=600, seed=8)
        assert not violations(rows)
        assert abs(fits[0.5].exponent - math.log2(1.5)) < 0.12

    def test_randomized_tree_bracketed(self):
        rows = run_randomized_tree(heights=(3, 5), trials=800, seed=9)
        assert not violations(rows)


class TestHQSExperiments:
    def test_scaling_matches_recursion(self):
        rows, fits = run_probe_hqs_scaling(heights=(2, 3, 4), ps=(0.5,), trials=600, seed=10)
        assert not violations(rows)
        assert abs(fits[0.5].exponent - math.log(2.5, 3)) < 0.1

    def test_optimality_rows(self):
        rows = run_probe_hqs_optimality(heights=(1, 2))
        assert not violations(rows)
        assert all(row.satisfied for row in rows)


class TestLemmaAndAvailabilityExperiments:
    def test_walk_rows(self):
        rows = run_walk_experiment(sizes=(20, 100), ps=(0.5, 0.3), trials=600, seed=11)
        for row in rows:
            assert abs(row.measured - row.paper) / row.paper < 0.1

    def test_urn_rows(self):
        rows = run_urn_experiment(cases=((3, 5), (10, 10)), trials=1500, seed=12)
        for row in rows:
            assert abs(row.measured - row.paper) / row.paper < 0.1

    def test_availability_rows(self):
        rows = run_availability_experiment(ps=(0.3, 0.5), trials=800, seed=13)
        assert not violations(rows)


class TestAblations:
    def test_cw_order_ablation_runs(self):
        rows = run_cw_order_ablation(depth=6, ps=(0.5,), trials=400, seed=14)
        # The paper algorithm's row must respect 2k-1; the scans need not.
        paper_rows = [r for r in rows if "paper" in r.quantity]
        assert paper_rows and all(r.measured <= 11 + 1 for r in paper_rows)

    def test_hqs_ablation_eager_probes_everything(self):
        rows = run_hqs_ablation(heights=(2,), trials=300, seed=15)
        eager = [r for r in rows if "Eager" in r.quantity][0]
        lazy = [r for r in rows if "lazy" in r.quantity][0]
        assert math.isclose(eager.measured, 9.0)
        assert lazy.measured < eager.measured

    def test_generic_baseline_rows(self):
        rows = run_generic_baseline_ablation(trials=300, seed=16)
        assert len(rows) == 4
        assert all(row.paper is not None for row in rows)

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
