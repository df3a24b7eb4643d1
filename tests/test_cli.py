"""Tests for the command-line interface."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments.registry import experiment_ids
from repro.systems import (
    HQS,
    CrumblingWall,
    GridSystem,
    MajoritySystem,
    TreeSystem,
    TriangSystem,
    WheelSystem,
    build_system,
)


class TestBuildSystem:
    def test_known_names(self):
        assert isinstance(build_system("maj", 9), MajoritySystem)
        assert isinstance(build_system("majority", 9), MajoritySystem)
        assert isinstance(build_system("wheel", 6), WheelSystem)
        assert isinstance(build_system("triang", 5), TriangSystem)
        assert isinstance(build_system("cw", 4), CrumblingWall)
        assert isinstance(build_system("tree", 3), TreeSystem)
        assert isinstance(build_system("hqs", 2), HQS)
        assert isinstance(build_system("grid", 3), GridSystem)

    def test_majority_size_rounded_to_odd(self):
        assert build_system("maj", 10).n == 11

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            build_system("fpp", 7)

    def test_size_knob_semantics(self):
        assert build_system("triang", 5).num_rows == 5
        assert build_system("tree", 3).height == 3
        assert build_system("hqs", 2).height == 2
        assert build_system("grid", 4).n == 16


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_probe_defaults(self):
        args = build_parser().parse_args(["probe"])
        args_dict = vars(args)
        assert args_dict["system"] == "triang"
        assert args_dict["p"] == 0.5
        assert not args_dict["randomized"]

    def test_run_accepts_any_registered_id(self):
        parser = build_parser()
        for experiment_id in experiment_ids():
            args = parser.parse_args(["run", experiment_id])
            assert args.ids == [experiment_id]

    def test_run_unknown_id_rejected_at_dispatch(self):
        with pytest.raises(SystemExit):
            main(["run", "nonexistent"])

    def test_run_requires_a_selection(self):
        with pytest.raises(SystemExit):
            main(["run"])

    def test_run_rejects_unknown_param_for_single_spec(self):
        with pytest.raises(SystemExit):
            main(["run", "lemmas", "--param", "bogus=1"])

    def test_shared_flags_ignored_by_specs_without_them(self, capsys):
        # maj3 declares neither trials nor seed; the shared flags must not
        # make the single-spec run fail (parity with the old CLI).
        assert main(["run", "maj3", "--trials", "50", "--seed", "7"]) == 0
        assert "consistent with the paper" in capsys.readouterr().out

    def test_run_bad_param_value_exits_cleanly(self):
        with pytest.raises(SystemExit):
            main(["run", "maj3", "lemmas", "--param", "trials=abc"])

    def test_run_many_rejects_json_output_path(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["run", "maj3", "lemmas", "--output", str(tmp_path / "out.json")])


class TestCommands:
    def test_systems_listing(self, capsys):
        assert main(["systems"]) == 0
        out = capsys.readouterr().out
        assert "Maj(9)" in out and "HQS(h=2)" in out

    def test_figures(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out and "Figure 3" in out

    def test_maj3(self, capsys):
        assert main(["maj3"]) == 0
        out = capsys.readouterr().out
        assert "PC (deterministic worst case)" in out
        assert "2.667" in out

    def test_probe_deterministic(self, capsys):
        assert main(["probe", "--system", "triang", "--size", "5", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Triang(5)" in out and "witness" in out

    def test_probe_randomized(self, capsys):
        assert main(
            ["probe", "--system", "hqs", "--size", "2", "--seed", "4", "--randomized"]
        ) == 0
        out = capsys.readouterr().out
        assert "IRProbeHQS" in out

    def test_estimate_with_bounds(self, capsys):
        code = main(
            [
                "estimate",
                "--system", "triang",
                "--size", "6",
                "--p", "0.5",
                "--trials", "200",
                "--seed", "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "avg probes" in out
        assert "estimator : streaming (vectorized kernel" in out
        assert "Theorem 3.3" in out or "Corollary 3.5" in out

    def test_estimate_without_paper_bounds(self, capsys):
        code = main(
            ["estimate", "--system", "grid", "--size", "3", "--trials", "100", "--seed", "6"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "none stated" in out
        # No kernel for Grid: the engine runs its per-trial fallback.
        assert "estimator : streaming (per-trial fallback" in out

    def test_table1_small(self, capsys):
        code = main(
            [
                "table1",
                "--maj-n", "21",
                "--triang-depth", "5",
                "--tree-height", "4",
                "--hqs-height", "2",
                "--trials", "150",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Triang" in out

    def test_list_shows_registered_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for experiment_id in experiment_ids():
            assert experiment_id in out

    def test_list_tag_filter(self, capsys):
        assert main(["list", "--tag", "scaling"]) == 0
        out = capsys.readouterr().out
        assert "tree" in out and "maj3" not in out

    def test_run_maj3(self, capsys):
        assert main(["run", "maj3"]) == 0
        out = capsys.readouterr().out
        assert "consistent with the paper" in out

    def test_run_lemmas_with_trials(self, capsys):
        assert main(["run", "lemmas", "--trials", "300"]) == 0
        out = capsys.readouterr().out
        assert "lemma2.4-walk" in out

    def test_run_writes_artifact(self, tmp_path, capsys):
        output = tmp_path / "lemmas.json"
        assert main(
            ["run", "lemmas", "--trials", "100", "--seed", "7", "--output", str(output)]
        ) == 0
        assert "wrote" in capsys.readouterr().out
        from repro.experiments.runner import load_artifact

        result = load_artifact(output)
        assert result.spec_id == "lemmas"
        assert result.params["seed"] == 7 and result.params["trials"] == 100
        assert result.rows

    def test_run_seed_changes_measurements(self, tmp_path):
        from repro.experiments.runner import load_artifact

        paths = []
        for seed in (1, 2):
            path = tmp_path / f"lemmas-{seed}.json"
            main(["run", "lemmas", "--trials", "60", "--seed", str(seed), "--output", str(path)])
            paths.append(path)
        first, second = (load_artifact(path) for path in paths)
        assert [row.measured for row in first.rows] != [row.measured for row in second.rows]

    def test_run_many_with_output_directory(self, tmp_path, capsys):
        code = main(
            [
                "run", "maj3", "lemmas",
                "--trials", "80",
                "--output", str(tmp_path / "artifacts"),
            ]
        )
        assert code == 0
        assert (tmp_path / "artifacts" / "maj3.json").exists()
        assert (tmp_path / "artifacts" / "lemmas.json").exists()

    def test_run_tag_selection(self, capsys):
        assert main(["run", "--tag", "worked-example"]) == 0
        out = capsys.readouterr().out
        assert "Maj3 worked example" in out

    def test_experiment_subcommand_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["experiment", "maj3"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'experiment'" in capsys.readouterr().err

    def test_estimate_reports_the_derived_backend(self, capsys):
        for system, size, randomized, backend in (
            ("tree", "3", False, "bitpacked"),
            ("tree", "3", True, "bitpacked"),
            ("maj", "5", True, "numpy"),
        ):
            argv = ["estimate", "--system", system, "--size", size, "--p", "0.4",
                    "--trials", "100", "--seed", "2"]
            assert main(argv + ["--randomized"] * randomized) == 0
            assert f"backend   : {backend}" in capsys.readouterr().out

    def test_estimate_batched_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["estimate", "--batched"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --batched" in capsys.readouterr().err


class TestDistributionsCLI:
    def test_distributions_listing(self, capsys):
        assert main(["distributions"]) == 0
        out = capsys.readouterr().out
        for name in ("bernoulli", "fixed_count", "cw_hard", "hqs_family_p"):
            assert name in out

    def test_estimate_with_distribution(self, capsys):
        code = main(
            [
                "estimate", "--system", "maj", "--size", "21", "--p", "0.4",
                "--trials", "200", "--seed", "1",
                "--distribution", "fixed_count",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "inputs    : fixed_count" in out
        assert "i.i.d. model only" in out

    def test_estimate_unknown_distribution_exits_cleanly(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "estimate", "--system", "maj", "--size", "9",
                    "--distribution", "unknown_source",
                ]
            )

    def test_sweep_with_distribution(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(
            [
                "sweep", "--system", "tree", "--sizes", "3", "--ps", "0.5",
                "--trials", "100", "--seed", "2",
                "--distribution", "tree_hard",
                "--output", str(tmp_path / "s.json"),
            ]
        )
        assert code == 0
        assert "tree_hard inputs" in capsys.readouterr().out

    def test_sweep_default_artifact_name_encodes_distribution(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        args = ["sweep", "--system", "tree", "--sizes", "3", "--ps", "0.5", "--trials", "50"]
        assert main(args) == 0
        assert main(args + ["--distribution", "tree_hard"]) == 0
        capsys.readouterr()
        # A non-bernoulli sweep must not clobber the default artifact.
        assert (tmp_path / "sweep_tree.json").exists()
        assert (tmp_path / "sweep_tree_tree_hard.json").exists()

    def test_run_experiment_with_distribution_param(self, capsys):
        code = main(
            [
                "run", "sweep-tree", "--trials", "50",
                "--param", "sizes=3", "--param", "ps=0.5",
                "--param", "distribution=fixed_count",
            ]
        )
        assert code == 0


class TestStreamingEngineCLI:
    @pytest.mark.parametrize("command", ["estimate", "sweep"])
    def test_jobs_below_one_exits_with_a_message(self, command):
        args = [command, "--system", "maj", "--trials", "10", "--jobs", "-2"]
        with pytest.raises(SystemExit, match="jobs must be at least 1"):
            main(args)

    def test_estimate_target_ci_reports_stopping(self, capsys):
        code = main(
            [
                "estimate", "--system", "maj", "--size", "101", "--p", "0.5",
                "--seed", "1",
                "--target-ci", "0.8", "--chunk-size", "128",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "estimator : streaming" in out
        assert "target ci95 0.8 reached" in out

    def test_estimate_chunked_matches_one_shot_mean(self, capsys):
        args = [
            "estimate", "--system", "triang", "--size", "8", "--p", "0.5",
            "--trials", "300", "--seed", "4",
        ]
        assert main(args) == 0
        one_shot = capsys.readouterr().out
        assert main(args + ["--chunk-size", "64"]) == 0
        chunked = capsys.readouterr().out
        line = next(l for l in one_shot.splitlines() if "avg probes" in l)
        assert line in chunked

    def test_estimate_max_trials_cap_not_reached(self, capsys):
        code = main(
            [
                "estimate", "--system", "maj", "--size", "101", "--p", "0.5",
                "--seed", "2", "--target-ci", "0.0001",
                "--chunk-size", "128", "--max-trials", "512",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "NOT reached" in out and "512 trials" in out

    def test_trials_with_target_ci_rejected(self, capsys):
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(
                [
                    "estimate", "--system", "maj", "--size", "21", "--p", "0.5",
                    "--trials", "500", "--target-ci", "0.5",
                ]
            )
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(
                [
                    "sweep", "--system", "tree", "--sizes", "3", "--ps", "0.5",
                    "--trials", "100", "--target-ci", "0.5",
                ]
            )

    def test_sweep_target_ci_artifact(self, capsys, tmp_path):
        output = tmp_path / "adaptive.json"
        code = main(
            [
                "sweep", "--system", "tree", "--sizes", "3,4", "--ps", "0.5",
                "--seed", "3", "--target-ci", "0.5", "--chunk-size", "128",
                "--jobs", "2", "--output", str(output),
            ]
        )
        assert code == 0
        from repro.experiments.sweep import load_sweep_artifact

        loaded = load_sweep_artifact(output)
        assert loaded.target_ci == 0.5
        assert all(cell.ci95 <= 0.5 for cell in loaded.cells)

    def test_run_sweep_spec_with_target_ci_param(self, capsys):
        code = main(
            [
                "run", "sweep-tree",
                "--param", "sizes=3", "--param", "ps=0.5",
                "--param", "target_ci=0.6", "--param", "chunk_size=128",
                "--seed", "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "adaptive stopping" in out


class TestSweepResumeCLI:
    def test_sweep_resume_flag_round_trips(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        grid = ["sweep", "--system", "tree", "--sizes", "2", "--ps", "0.5",
                "--trials", "64", "--seed", "3"]
        main([*grid, "--checkpoint", "ckpt"])
        first = capsys.readouterr().out
        assert [path.name for path in (tmp_path / "ckpt").iterdir()] == ["cell-2-0.5.ckpt"]
        # The resume repeats the sweep's grid flags.
        main([*grid, "--resume", "ckpt"])
        resumed = capsys.readouterr().out

        def table(text):
            return [
                line for line in text.splitlines()
                if not line.startswith(("artifact", "4 cells", "1 cells"))
            ]

        assert table(resumed) == table(first)

    def test_estimate_resume_continues_an_interrupted_run(self, capsys, tmp_path):
        from repro.testing import faults
        from repro.testing.faults import Fault

        command = ["estimate", "--system", "tree", "--size", "3", "--p", "0.3",
                   "--trials", "512", "--chunk-size", "64", "--seed", "5"]
        checkpoint = str(tmp_path / "e.ckpt")
        assert main(command) == 0
        uninterrupted = capsys.readouterr().out
        with pytest.raises(KeyboardInterrupt):
            with faults.active_plan([Fault("merge", 3, "interrupt")], tmp_path / "plan"):
                main([*command, "--checkpoint", checkpoint])
        capsys.readouterr()
        assert main([*command, "--resume", checkpoint]) == 0
        resumed = capsys.readouterr().out
        assert resumed == uninterrupted
        assert "avg probes" in resumed
        # The resumed run kept writing to the checkpoint, now complete; the
        # seed and stopping flags may be left out, taking the checkpoint's.
        assert main(command[:-4] + ["--resume", checkpoint]) == 0
        mean_line = [line for line in resumed.splitlines() if line.startswith("avg probes")]
        assert mean_line[0] in capsys.readouterr().out

    def test_sweep_resume_refusals_exit_naming_the_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        grid = ["sweep", "--system", "tree", "--sizes", "2", "--ps", "0.5",
                "--trials", "64", "--seed", "3"]
        Path("old.ckpt").write_text('{"kind": "sweep_checkpoint", "schema": 4}')
        with pytest.raises(SystemExit, match=r"old\.ckpt: .*start afresh"):
            main([*grid, "--resume", "old.ckpt"])
        main([*grid, "--checkpoint", "ckpt"])
        with pytest.raises(SystemExit, match=r"cell-2-0\.5\.ckpt: written by another run"):
            main([*grid, "--randomized", "--resume", "ckpt"])

    def test_sweep_with_a_bad_setting_exits_before_any_cell(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit, match="chunk_size must be at least 1"):
            main(["sweep", "--system", "tree", "--sizes", "2,3", "--ps", "0.3,0.5",
                  "--chunk-size", "0", "--output", "out.json"])
        assert list(tmp_path.iterdir()) == []

    def test_sweep_resume_missing_checkpoint_exits_cleanly(self):
        # Both resumable commands exit with a message naming the file.
        for command in ("sweep", "estimate"):
            with pytest.raises(SystemExit) as exited:
                main([command, "--resume", "/nonexistent/x.ckpt"])
            assert "/nonexistent/x.ckpt" in str(exited.value.code)
