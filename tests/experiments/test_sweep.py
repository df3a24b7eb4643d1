"""Tests for the batched ``(p, n)`` sweep runner and its JSON artifact."""

from __future__ import annotations

import json

import pytest

from repro.experiments.sweep import (
    load_sweep_artifact,
    render_sweep,
    run_sweep,
    write_sweep_artifact,
)


class TestRunSweep:
    def test_grid_shape_and_cell_lookup(self):
        result = run_sweep("tree", sizes=(3, 5), ps=(0.3, 0.5), trials=300, seed=1)
        assert len(result.cells) == 4
        assert result.algorithm == "ProbeTree"
        cell = result.cell(5, 0.5)
        assert cell.n == 63 and cell.trials == 300 and cell.batched_kernel
        with pytest.raises(KeyError):
            result.cell(4, 0.5)

    def test_means_grow_with_size_and_p(self):
        result = run_sweep("hqs", sizes=(2, 4), ps=(0.25, 0.5), trials=600, seed=2)
        assert result.cell(4, 0.5).mean > result.cell(2, 0.5).mean
        assert result.cell(4, 0.5).mean > result.cell(4, 0.25).mean

    def test_per_cell_streams_are_deterministic_and_independent(self):
        full = run_sweep("tree", sizes=(3, 5), ps=(0.3, 0.5), trials=400, seed=3)
        again = run_sweep("tree", sizes=(3, 5), ps=(0.3, 0.5), trials=400, seed=3)
        assert [c.mean for c in full.cells] == [c.mean for c in again.cells]
        # Any sub-grid — prefix or not — reproduces its cells: streams are
        # keyed by the cell's (size, p) values, not by grid position.
        sub = run_sweep("tree", sizes=(5,), ps=(0.5,), trials=400, seed=3)
        assert sub.cell(5, 0.5).mean == full.cell(5, 0.5).mean
        prefix = run_sweep("tree", sizes=(3,), ps=(0.3, 0.5), trials=400, seed=3)
        assert prefix.cell(3, 0.3).mean == full.cell(3, 0.3).mean
        assert prefix.cell(3, 0.5).mean == full.cell(3, 0.5).mean

    def test_negative_seed_refused(self):
        # The engine's seed check: the service refuses seed -1 too.
        with pytest.raises(ValueError, match="seed must be at least 0"):
            run_sweep("tree", sizes=(3,), ps=(0.5,), trials=100, seed=-1)

    def test_randomized_flag_selects_randomized_algorithm(self):
        result = run_sweep("tree", sizes=(3,), ps=(0.5,), trials=200, seed=4, randomized=True)
        assert result.algorithm == "RProbeTree"
        assert result.randomized

    def test_cells_record_the_derived_backend(self):
        for randomized in (False, True):
            packed = run_sweep(
                "tree", sizes=(3,), ps=(0.5,), trials=100, seed=4, randomized=randomized,
                backend="numpy",
            )
            assert [cell.backend for cell in packed.cells] == ["bitpacked"]
        accepted = run_sweep(
            "hqs", sizes=(2,), ps=(0.5,), trials=100, seed=4, randomized=True,
            backend="bitpacked",
        )
        assert [(cell.status, cell.backend) for cell in accepted.cells] == [("ok", "bitpacked")]
        numpy = run_sweep("maj", sizes=(5,), ps=(0.5,), trials=100, seed=4, randomized=True)
        assert [cell.backend for cell in numpy.cells] == ["numpy"]
        refused = run_sweep(
            "maj", sizes=(5,), ps=(0.5,), trials=100, seed=4, randomized=True,
            backend="bitpacked",
        )
        assert refused.cells[0].status == "failed"
        assert "randomized" in refused.cells[0].error

    def test_fallback_for_systems_without_kernel(self):
        result = run_sweep("wheel", sizes=(6,), ps=(0.5,), trials=50, seed=5)
        assert not result.cells[0].batched_kernel
        assert result.cells[0].mean > 0

    def test_rejects_empty_grid_and_zero_trials(self):
        with pytest.raises(ValueError):
            run_sweep("tree", sizes=(), ps=(0.5,))
        with pytest.raises(ValueError):
            run_sweep("tree", sizes=(3,), ps=(0.5,), trials=0)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_rejects_jobs_below_one(self, jobs):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            run_sweep("tree", sizes=(2,), ps=(0.5,), trials=10, jobs=jobs)


class TestSweepArtifact:
    def test_round_trip(self, tmp_path):
        result = run_sweep("hqs", sizes=(1, 2), ps=(0.5,), trials=200, seed=6)
        path = write_sweep_artifact(result, tmp_path / "sweep.json")
        payload = json.loads(path.read_text())
        assert payload["kind"] == "p_sweep"
        assert "created" in payload
        loaded = load_sweep_artifact(path)
        assert loaded == result

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"kind": "bench"}))
        with pytest.raises(ValueError):
            load_sweep_artifact(path)

    def test_render_mentions_every_size(self):
        result = run_sweep("tree", sizes=(3, 4), ps=(0.5,), trials=200, seed=7)
        text = render_sweep(result)
        assert "Tree(h=3)" in text and "Tree(h=4)" in text
        assert "vectorized kernel" in text


class TestSweepCLI:
    def test_cli_sweep_writes_artifact(self, tmp_path, capsys):
        from repro.cli import main

        output = tmp_path / "cli_sweep.json"
        code = main(
            [
                "sweep",
                "--system",
                "hqs",
                "--sizes",
                "1,2",
                "--ps",
                "0.3,0.5",
                "--trials",
                "150",
                "--seed",
                "9",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "HQS(h=2)" in out and str(output) in out
        loaded = load_sweep_artifact(output)
        assert len(loaded.cells) == 4


class TestSweepDistributions:
    def test_non_iid_sweep_runs_batched(self):
        result = run_sweep(
            "tree",
            sizes=(3, 4),
            ps=(0.3, 0.5),
            trials=200,
            seed=6,
            distribution="fixed_count",
        )
        assert result.distribution == "fixed_count"
        assert all(cell.batched_kernel for cell in result.cells)
        # fixed_count at higher p fails more nodes -> more probes on Tree.
        assert result.cell(4, 0.5).mean > result.cell(4, 0.3).mean

    def test_hard_family_sweep_ignores_p_axis(self):
        result = run_sweep(
            "tree", sizes=(3,), ps=(0.2, 0.5), trials=300, seed=7,
            distribution="tree_hard",
        )
        low, high = result.cell(3, 0.2), result.cell(3, 0.5)
        # The Thm 4.8 distribution has no p knob: both cells draw the same
        # family (different streams), so the means must agree statistically.
        assert abs(low.mean - high.mean) < low.ci95 + high.ci95 + 0.5

    def test_unknown_distribution_rejected(self):
        with pytest.raises(ValueError, match="coloring source"):
            run_sweep("tree", sizes=(3,), ps=(0.5,), trials=50, distribution="nope")

    def test_artifact_roundtrip_preserves_distribution(self, tmp_path):
        result = run_sweep(
            "hqs", sizes=(2,), ps=(0.5,), trials=100, seed=8,
            distribution="hqs_family_p",
        )
        path = write_sweep_artifact(result, tmp_path / "sweep.json")
        loaded = load_sweep_artifact(path)
        assert loaded == result
        assert loaded.distribution == "hqs_family_p"

    def test_legacy_artifact_without_distribution_field_loads(self, tmp_path):
        result = run_sweep("tree", sizes=(3,), ps=(0.5,), trials=50, seed=9)
        path = write_sweep_artifact(result, tmp_path / "legacy.json")
        payload = json.loads(path.read_text())
        del payload["distribution"]
        path.write_text(json.dumps(payload))
        loaded = load_sweep_artifact(path)
        assert loaded.distribution == "bernoulli"
        assert loaded.cells == result.cells

    def test_bernoulli_sweep_unchanged_by_distribution_layer(self):
        # The default distribution reproduces the historical stream.
        explicit = run_sweep(
            "tree", sizes=(3,), ps=(0.5,), trials=200, seed=3,
            distribution="bernoulli",
        )
        default = run_sweep("tree", sizes=(3,), ps=(0.5,), trials=200, seed=3)
        assert explicit.cell(3, 0.5).mean == default.cell(3, 0.5).mean

    def test_alias_normalizes_to_canonical_name(self):
        # "iid" is the bernoulli alias: same stream, canonical artifact name.
        aliased = run_sweep(
            "tree", sizes=(3,), ps=(0.5,), trials=200, seed=3, distribution="iid"
        )
        default = run_sweep("tree", sizes=(3,), ps=(0.5,), trials=200, seed=3)
        assert aliased.distribution == "bernoulli"
        assert aliased.cell(3, 0.5).mean == default.cell(3, 0.5).mean


class TestSweepStreaming:
    def test_cells_record_n_trials_used(self):
        result = run_sweep("tree", sizes=(3,), ps=(0.5,), trials=200, seed=1)
        cell = result.cell(3, 0.5)
        assert cell.n_trials_used == cell.trials == 200
        assert result.target_ci is None

    def test_target_ci_mode_stops_adaptively(self):
        result = run_sweep(
            "tree", sizes=(3, 5), ps=(0.5,), seed=2,
            target_ci=0.5, chunk_size=128, max_trials=100_000,
        )
        assert result.target_ci == 0.5
        for cell in result.cells:
            assert cell.ci95 <= 0.5
            assert cell.n_trials_used % 128 == 0
        # The larger tree has higher variance: it needs at least as many
        # trials to hit the same tolerance.
        assert (
            result.cell(5, 0.5).n_trials_used >= result.cell(3, 0.5).n_trials_used
        )

    def test_explicit_trials_with_target_ci_rejected(self):
        with pytest.raises(ValueError, match="not both"):
            run_sweep("tree", sizes=(3,), ps=(0.5,), trials=100, target_ci=0.5)

    def test_adaptive_cells_record_consistent_counts(self):
        result = run_sweep(
            "tree", sizes=(3,), ps=(0.5,), seed=2, target_ci=0.5, chunk_size=128
        )
        cell = result.cell(3, 0.5)
        # No count was requested: the cell's trials IS the evaluated count.
        assert cell.trials == cell.n_trials_used > 0
        assert result.trials == 0

    def test_jobs_byte_identical_to_sequential(self):
        sequential = run_sweep(
            "hqs", sizes=(2, 3), ps=(0.5,), trials=256, seed=3, chunk_size=64
        )
        sharded = run_sweep(
            "hqs", sizes=(2, 3), ps=(0.5,), trials=256, seed=3, chunk_size=64, jobs=2
        )
        assert [c.mean for c in sequential.cells] == [c.mean for c in sharded.cells]
        assert [c.std for c in sequential.cells] == [c.std for c in sharded.cells]

    def test_chunking_does_not_change_deterministic_cells(self):
        one_shot = run_sweep("tree", sizes=(4,), ps=(0.3,), trials=300, seed=4)
        chunked = run_sweep(
            "tree", sizes=(4,), ps=(0.3,), trials=300, seed=4, chunk_size=37
        )
        assert one_shot.cell(4, 0.3).mean == chunked.cell(4, 0.3).mean

    def test_artifact_round_trip_with_engine_fields(self, tmp_path):
        result = run_sweep(
            "tree", sizes=(3,), ps=(0.5,), seed=5,
            target_ci=0.6, chunk_size=128, max_trials=50_000,
        )
        path = write_sweep_artifact(result, tmp_path / "adaptive.json")
        loaded = load_sweep_artifact(path)
        assert loaded == result
        assert loaded.target_ci == 0.6
        assert loaded.cells[0].n_trials_used == result.cells[0].n_trials_used

    def test_legacy_artifact_without_engine_fields_loads(self, tmp_path):
        result = run_sweep("tree", sizes=(3,), ps=(0.5,), trials=50, seed=9)
        path = write_sweep_artifact(result, tmp_path / "legacy.json")
        payload = json.loads(path.read_text())
        del payload["target_ci"]
        for cell in payload["cells"]:
            del cell["n_trials_used"]
        path.write_text(json.dumps(payload))
        loaded = load_sweep_artifact(path)
        assert loaded.target_ci is None
        assert loaded.cells[0].n_trials_used == loaded.cells[0].trials == 50

    def test_render_mentions_adaptive_budget(self):
        result = run_sweep(
            "tree", sizes=(3,), ps=(0.5,), seed=6, target_ci=0.7, chunk_size=128
        )
        text = render_sweep(result)
        assert "target ci95 0.7" in text
        assert "adaptive stopping used" in text
