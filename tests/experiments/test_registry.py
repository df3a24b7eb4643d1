"""Tests for the experiment registry and the unified runner.

Covers the declarative layer introduced by the scenario-registry refactor:
spec lookup and parameter resolution, every registered spec running at tiny
trial counts, registry-vs-direct-driver row parity, artifact round trips
and ``jobs``-parallel determinism.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.registry import (
    DriverResult,
    ExperimentSpec,
    ParamSpec,
    all_specs,
    all_tags,
    experiment_ids,
    get_spec,
    parse_param_value,
    specs_for_tag,
)
from repro.experiments.runner import (
    ARTIFACT_SCHEMA_VERSION,
    load_artifact,
    run_experiment,
    run_experiments,
    write_artifact,
    write_artifacts,
)
from repro.core.seeding import cell_generator, cell_seed

#: Former hard-wired CLI ids that must all be registered.
LEGACY_EXPERIMENT_IDS = (
    "maj3",
    "majority",
    "crumbling-walls",
    "tree",
    "hqs",
    "randomized",
    "lemmas",
    "availability",
    "ablations",
)

#: Shared tiny-override set; specs ignore undeclared names (strict=False).
TINY = {"trials": 15, "sizes": (2, 3), "ps": (0.5,), "heights": (2, 3)}


class TestRegistry:
    def test_legacy_ids_all_registered(self):
        ids = experiment_ids()
        for experiment_id in LEGACY_EXPERIMENT_IDS:
            assert experiment_id in ids
        assert "table1" in ids
        assert "sweep-tree" in ids and "sweep-hqs" in ids

    def test_get_spec_unknown_id(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            get_spec("nope")

    def test_specs_sorted_and_tagged(self):
        specs = all_specs()
        assert [spec.id for spec in specs] == sorted(spec.id for spec in specs)
        assert {spec.id for spec in specs_for_tag("scaling")} >= {"tree", "hqs"}
        assert "scaling" in all_tags()

    def test_resolve_params_defaults_and_overrides(self):
        spec = get_spec("lemmas")
        assert spec.resolve_params()["trials"] == 800
        assert spec.resolve_params({"trials": 50})["trials"] == 50
        # CLI-style string values are coerced by declared kind.
        assert spec.resolve_params({"trials": "50"})["trials"] == 50
        with pytest.raises(KeyError):
            spec.resolve_params({"bogus": 1})
        assert "bogus" not in spec.resolve_params({"bogus": 1}, strict=False)

    def test_parse_param_value_kinds(self):
        assert parse_param_value(ParamSpec("t", "int", 0), "7") == 7
        assert parse_param_value(ParamSpec("p", "float", 0.0), "0.25") == 0.25
        assert parse_param_value(ParamSpec("s", "int_list", ()), "3,5,7") == (3, 5, 7)
        assert parse_param_value(ParamSpec("q", "float_list", ()), "0.1,0.5") == (0.1, 0.5)
        assert parse_param_value(ParamSpec("r", "bool", False), "true") is True
        with pytest.raises(ValueError):
            parse_param_value(ParamSpec("r", "bool", False), "maybe")

    def test_param_spec_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ParamSpec("x", "complex", 0)

    def test_driver_result_normalizes_to_tuples(self):
        result = DriverResult(rows=[], extra=["a"])
        assert result.rows == () and result.extra == ("a",)


@pytest.mark.parametrize("experiment_id", sorted(set(experiment_ids())))
def test_every_registered_spec_runs_tiny(experiment_id):
    result = run_experiment(experiment_id, TINY, strict=False)
    assert result.spec_id == experiment_id
    assert result.rows, f"{experiment_id} produced no rows"
    assert result.environment["python"]
    # Deterministic re-run: same params, same rows.
    again = run_experiment(experiment_id, TINY, strict=False)
    assert again.rows == result.rows


class TestRegistryDriverParity:
    def test_majority_rows_match_direct_driver_call(self):
        from repro.experiments.majority import run_probabilistic_majority

        via_registry = run_experiment("majority", {"trials": 40, "seed": 9})
        direct = run_probabilistic_majority(trials=40, seed=9)
        assert list(via_registry.rows) == direct

    def test_lemmas_rows_match_direct_driver_call(self):
        from repro.experiments.lemmas import run_urn_experiment, run_walk_experiment

        via_registry = run_experiment("lemmas", {"trials": 60, "seed": 3})
        direct = run_walk_experiment(trials=60, seed=3) + run_urn_experiment(trials=60, seed=3)
        assert list(via_registry.rows) == direct

    def test_default_seed_matches_driver_historic_default(self):
        from repro.experiments.lemmas import run_urn_experiment, run_walk_experiment

        via_registry = run_experiment("lemmas", {"trials": 60})
        direct = run_walk_experiment(trials=60) + run_urn_experiment(trials=60)
        assert list(via_registry.rows) == direct


class TestRunner:
    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            run_experiments(["maj3"], TINY, jobs=jobs)

    def test_parallel_matches_sequential(self):
        ids = ["maj3", "lemmas", "availability"]
        sequential = run_experiments(ids, TINY, jobs=1)
        parallel = run_experiments(ids, TINY, jobs=2)
        assert [r.spec_id for r in parallel] == ids
        for seq, par in zip(sequential, parallel):
            assert seq.rows == par.rows
            assert seq.params == par.params

    def test_parallel_artifacts_byte_identical(self, tmp_path):
        ids = ["maj3", "lemmas"]
        seq_dir, par_dir = tmp_path / "seq", tmp_path / "par"
        write_artifacts(run_experiments(ids, TINY, jobs=1), seq_dir)
        write_artifacts(run_experiments(ids, TINY, jobs=2), par_dir)
        for experiment_id in ids:
            seq_bytes = (seq_dir / f"{experiment_id}.json").read_bytes()
            par_bytes = (par_dir / f"{experiment_id}.json").read_bytes()
            assert seq_bytes == par_bytes

    def test_unknown_id_fails_fast(self):
        with pytest.raises(KeyError):
            run_experiments(["maj3", "nope"], jobs=2)

    def test_artifact_round_trip(self, tmp_path):
        result = run_experiment("tree", {"trials": 15}, strict=False)
        path = write_artifact(result, tmp_path / "tree.json")
        payload = json.loads(path.read_text())
        assert payload["kind"] == "experiment" and payload["id"] == "tree"
        assert payload["schema"] == ARTIFACT_SCHEMA_VERSION
        assert isinstance(payload["violations"], int)
        loaded = load_artifact(path)
        assert loaded.rows == result.rows
        assert loaded.params == result.params
        assert loaded.extra == result.extra

    def test_artifact_round_trip_preserves_markdown(self, tmp_path):
        from repro.experiments.writer import rows_to_markdown

        result = run_experiment("tree", {"trials": 15}, strict=False)
        path = write_artifact(result, tmp_path / "tree.json")
        loaded = load_artifact(path)
        assert rows_to_markdown(loaded.rows, result.title) == rows_to_markdown(
            result.rows, result.title
        )

    def test_load_rejects_foreign_artifact(self, tmp_path):
        path = tmp_path / "foreign.json"
        path.write_text(json.dumps({"kind": "p_sweep"}))
        with pytest.raises(ValueError):
            load_artifact(path)

    def test_custom_spec_registration_and_run(self):
        from repro.experiments import registry
        from repro.experiments.report import Row

        spec = ExperimentSpec(
            id="__test-custom",
            title="custom",
            driver=lambda trials: DriverResult(
                rows=[Row("custom", "s", "q", measured=float(trials))]
            ),
            params=(ParamSpec("trials", "int", 3),),
            tags=("test",),
        )
        registry.register(spec)
        try:
            result = run_experiment("__test-custom", {"trials": 5})
            assert result.rows[0].measured == 5.0
            with pytest.raises(ValueError):
                registry.register(spec)
        finally:
            registry._REGISTRY.pop("__test-custom", None)


class TestSeeding:
    def test_cell_seed_deterministic_and_distinct(self):
        assert cell_seed(1, 10, 0.5) == cell_seed(1, 10, 0.5)
        assert cell_seed(1, 10, 0.5) != cell_seed(1, 10, 0.3)
        assert cell_seed(1, 10, 0.5) != cell_seed(2, 10, 0.5)
        assert cell_seed(1, "a") != cell_seed(1, "b")

    def test_cell_seed_none_passthrough(self):
        assert cell_seed(None, 10, 0.5) is None

    def test_negative_seed_accepted(self):
        assert cell_seed(-1, 3, 0.5) == cell_seed(-1, 3, 0.5)

    def test_cell_generator_matches_sweep_streams(self):
        first = cell_generator(3, 5, 0.5).random(4)
        second = cell_generator(3, 5, 0.5).random(4)
        assert (first == second).all()

    def test_rejects_unhashable_key_types(self):
        with pytest.raises(TypeError):
            cell_seed(1, object())

    def test_majority_cells_are_grid_independent(self):
        from repro.experiments.majority import run_probabilistic_majority

        full = run_probabilistic_majority(sizes=(11, 25), ps=(0.5, 0.3), trials=50, seed=1)
        single = run_probabilistic_majority(sizes=(25,), ps=(0.3,), trials=50, seed=1)
        full_cell = [r for r in full if r.params["n"] == 25 and r.params["p"] == 0.3]
        assert full_cell[0].measured == single[0].measured


class TestRecoveryAccounting:
    """``run_experiment`` sums engine recovery counters into the artifact."""

    def test_collect_recovery_sums_engine_runs(self, tmp_path, monkeypatch):
        from repro.algorithms import ProbeTree
        from repro.core import engine
        from repro.core.engine import collect_recovery, stream_probes
        from repro.systems import build_system
        from repro.testing import faults
        from repro.testing.faults import ANY_KEY, Fault

        monkeypatch.setattr(engine, "_sleep", lambda seconds: None)
        algorithm = ProbeTree(build_system("tree", 2))
        with faults.active_plan([Fault("chunk", ANY_KEY, "raise")], tmp_path):
            with collect_recovery() as totals:
                stream_probes(algorithm, p=0.2, trials=64, chunk_size=16, seed=7)
                stream_probes(algorithm, p=0.3, trials=64, chunk_size=16, seed=8)
        assert totals["retries_used"] == 1  # once-only fault, summed once
        assert set(totals) == {"retries_used", "pool_respawns"}

    def test_collectors_do_not_count_other_threads_runs(self, tmp_path, monkeypatch):
        import threading

        from repro.algorithms import ProbeTree
        from repro.core import engine
        from repro.core.engine import collect_recovery, stream_probes
        from repro.systems import build_system
        from repro.testing import faults
        from repro.testing.faults import ANY_KEY, Fault

        monkeypatch.setattr(engine, "_sleep", lambda seconds: None)
        algorithm = ProbeTree(build_system("tree", 2))
        collecting, ran = threading.Event(), threading.Event()
        totals_by_thread: dict[str, dict] = {}

        def observer():
            with collect_recovery() as totals:
                collecting.set()
                ran.wait(timeout=60)
            totals_by_thread["observer"] = dict(totals)

        def runner():
            collecting.wait(timeout=60)
            with collect_recovery() as totals:
                stream_probes(algorithm, p=0.2, trials=64, chunk_size=16, seed=7)
            totals_by_thread["runner"] = dict(totals)
            ran.set()

        with faults.active_plan([Fault("chunk", ANY_KEY, "raise")], tmp_path):
            threads = [threading.Thread(target=observer), threading.Thread(target=runner)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        assert totals_by_thread["runner"]["retries_used"] == 1
        assert totals_by_thread["observer"] == dict.fromkeys(engine.RECOVERY_KEYS, 0)

    def test_run_experiment_records_recovery_in_artifact(self, tmp_path, monkeypatch):
        from repro.core import engine
        from repro.testing import faults
        from repro.testing.faults import ANY_KEY, Fault

        monkeypatch.setattr(engine, "_sleep", lambda seconds: None)
        with faults.active_plan([Fault("chunk", ANY_KEY, "raise")], tmp_path):
            result = run_experiment("tree", TINY, strict=False)
        assert result.recovery["retries_used"] >= 1
        path = write_artifact(result, tmp_path / "tree.json")
        loaded = load_artifact(path)
        assert loaded.recovery == result.recovery
        # The recovered rows are byte-identical to a fault-free run's.
        clean = run_experiment("tree", TINY, strict=False)
        assert clean.recovery.get("retries_used", 0) == 0
        assert loaded.rows == clean.rows

    def test_artifact_drops_the_backend_field(self, tmp_path):
        # Since schema 6 each algorithm has one kernel, so an experiment
        # records no backend; schema-4/5 artifacts that carry one still load.
        result = run_experiment("tree", {"trials": 15}, strict=False)
        payload = result.to_dict()
        assert "backend" not in payload and payload["schema"] == ARTIFACT_SCHEMA_VERSION
        payload.update(schema=5, backend="auto")
        path = tmp_path / "schema5.json"
        path.write_text(json.dumps(payload))
        assert load_artifact(path).rows == result.rows

    def test_legacy_artifact_without_recovery_loads_empty(self, tmp_path):
        result = run_experiment("tree", {"trials": 15}, strict=False)
        payload = result.to_dict()
        del payload["recovery"]
        payload["schema"] = 2
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(payload))
        loaded = load_artifact(path)
        assert loaded.recovery == {}
        assert loaded.rows == result.rows
