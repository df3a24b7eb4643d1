"""Fault tolerance of the streaming engine: retries, recovery, resume.

The load-bearing claims (ISSUE 6):

* recovery invariance — under an injected worker kill, a kernel
  exception or a chunk timeout, a recovered run's statistics are
  byte-identical to a fault-free run's;
* bounded budgets — a persistently failing chunk exhausts its retry
  budget and re-raises the *original* error, with no futures left live
  on a shared pool (the stranded-speculative-futures fix);
* interruption semantics — ``KeyboardInterrupt`` mid-run leaves a
  loadable checkpoint whose resume is bit-for-bit identical to an
  uninterrupted run, across stopping modes, chunk layouts and job
  counts; a run killed without cleanup (``os._exit``, like SIGKILL)
  resumes the same way.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
import threading
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro.algorithms import ProbeTree
from repro.core import engine
from repro.core.checkpoint import (
    CheckpointRefused,
    load_engine_checkpoint,
)
from repro.core.engine import (
    ChunkLedger,
    ChunkPool,
    RunSpec,
    stream_probes,
)
from repro.systems import build_system
from repro.testing import faults
from repro.testing.faults import KILL_EXIT_CODE, Fault, FaultInjected


@pytest.fixture(autouse=True)
def _fast_backoff(monkeypatch):
    """Retries shouldn't sleep for real in tests."""
    monkeypatch.setattr(engine, "_sleep", lambda seconds: None)


#: The run every test here measures: Probe_Tree on Tree(h=2) at p = 0.2.
RUN = RunSpec("tree", 2, 0.2)


def _baseline(**kwargs):
    return stream_probes(RUN, trials=64, chunk_size=16, seed=7, **kwargs)


def _same_statistics(a, b) -> bool:
    return (
        a.mean == b.mean
        and a.std == b.std
        and a.histogram == b.histogram
        and a.witness_red == b.witness_red
        and a.n_trials_used == b.n_trials_used
        and a.chunks == b.chunks
    )


class TestLedger:
    def test_budget_exhaustion_reraises_original_error(self):
        ledger = ChunkLedger(retries=2)
        boom = RuntimeError("boom")
        ledger.record_failure(0, boom)
        ledger.record_failure(0, boom)
        with pytest.raises(RuntimeError, match="boom"):
            ledger.record_failure(0, boom)
        assert ledger.failures == 3

    def test_budgets_are_per_chunk(self):
        ledger = ChunkLedger(retries=1)
        ledger.record_failure(0, RuntimeError())
        ledger.record_failure(16, RuntimeError())  # different chunk: fine

    def test_backoff_grows_exponentially(self):
        ledger = ChunkLedger(retries=10)
        assert ledger.backoff_seconds(0) == 0.0
        for doublings in range(3):
            ledger.record_failure(0, RuntimeError())
            assert ledger.backoff_seconds(0) == pytest.approx(
                engine.DEFAULT_RETRY_BACKOFF * 2**doublings
            )

    def test_zero_retries_fails_on_first_error(self):
        ledger = ChunkLedger(retries=0)
        with pytest.raises(ValueError, match="first"):
            ledger.record_failure(0, ValueError("first"))


class TestRecoveryInvariance:
    def test_sequential_kernel_error_retries_byte_identically(self, tmp_path):
        base = _baseline()
        with faults.active_plan([Fault("chunk", 32, "raise")], tmp_path):
            result = _baseline()
        assert _same_statistics(result, base)
        assert result.retries_used == 1

    def test_worker_kill_respawns_and_recovers(self, tmp_path):
        base = _baseline()
        with faults.active_plan([Fault("chunk", 16, "kill")], tmp_path):
            result = _baseline(jobs=2)
        assert _same_statistics(result, base)
        assert result.pool_respawns == 1
        assert result.retries_used >= 1

    def test_chunk_timeout_respawns_and_recovers(self, tmp_path):
        base = _baseline()
        with faults.active_plan([Fault("chunk", 0, "delay", seconds=5.0)], tmp_path):
            result = _baseline(jobs=2, chunk_timeout=0.25)
        assert _same_statistics(result, base)
        assert result.pool_respawns == 1

    def test_adaptive_run_recovers_to_same_stop_point(self, tmp_path):
        kwargs = dict(target_ci=0.2, chunk_size=32, seed=11, max_trials=4096)
        base = stream_probes(RUN, **kwargs)
        with faults.active_plan([Fault("chunk", 64, "kill")], tmp_path):
            result = stream_probes(RUN, jobs=2, **kwargs)
        assert _same_statistics(result, base)

    def test_fault_free_runs_report_zero_recovery(self):
        result = _baseline(jobs=2)
        assert result.retries_used == 0
        assert result.pool_respawns == 0


class TestFailurePaths:
    def test_persistent_error_exhausts_budget_sequentially(self, tmp_path):
        plan = [Fault("chunk", 16, "raise", once=False)]
        with faults.active_plan(plan, tmp_path):
            with pytest.raises(FaultInjected):
                _baseline(retries=1)

    def test_raising_kernel_on_shared_pool_cancels_speculative_futures(
        self, tmp_path
    ):
        """Satellite 2: error under jobs=4 strands no futures, error survives."""
        submitted = []
        with ChunkPool(4) as pool:
            original_submit = pool.submit

            def recording_submit(fn, /, *args):
                future = original_submit(fn, *args)
                submitted.append(future)
                return future

            pool.submit = recording_submit
            # Key 4 exists only in the chunk_size=4 layout, so workers that
            # inherited the plan env at fork time cannot re-fire it during
            # the chunk_size=16 reuse run below.
            plan = [Fault("chunk", 4, "raise", once=False)]
            with faults.active_plan(plan, tmp_path):
                with pytest.raises(FaultInjected):
                    stream_probes(
                        RUN, trials=64, chunk_size=4,
                        seed=7, jobs=4, executor=pool, retries=0,
                    )
            pool.submit = original_submit
            assert submitted, "sharded run must have submitted chunks"
            # The engine's cleanup cancels its not-yet-started speculative
            # futures; already-running ones finish their short chunk.  Either
            # way nothing stays live.
            from concurrent.futures import wait

            done, not_done = wait(submitted, timeout=30)
            assert not not_done
            assert all(future.done() for future in submitted)
            # The shared pool is still usable and still byte-identical.
            after = _baseline(jobs=4, executor=pool)
        assert _same_statistics(after, _baseline())

    def test_raw_executor_is_rejected_naming_chunk_pool(self):
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=1) as raw:
            with pytest.raises(TypeError, match="ChunkPool"):
                _baseline(jobs=2, executor=raw)

    def test_pool_break_on_retry_resubmit_is_recovered(self):
        """A pool that breaks while a failed chunk is re-dispatched goes
        through the same recovery as any other pool break: charge every
        lease in flight, respawn, re-run — byte-identically."""

        class BreaksOnResubmit(ChunkPool):
            def __init__(self) -> None:
                super().__init__(2)
                self.first_chunk_submits = 0

            def submit(self, fn, payload):
                if payload[3] == 0:
                    self.first_chunk_submits += 1
                    if self.first_chunk_submits == 1:
                        failed = Future()
                        failed.set_exception(RuntimeError("task failed"))
                        return failed
                    if self.first_chunk_submits == 2:
                        raise BrokenProcessPool("pool broke during re-submit")
                return super().submit(fn, payload)

        with BreaksOnResubmit() as pool:
            result = _baseline(jobs=2, executor=pool, retries=2)
        assert _same_statistics(result, _baseline())
        assert result.pool_respawns == 1
        # The task failure, then the break charged all four leases in flight.
        assert result.retries_used == 5

    def test_invalid_fault_tolerance_arguments(self):
        with pytest.raises(ValueError, match="chunk_timeout"):
            _baseline(chunk_timeout=0.0)
        with pytest.raises(ValueError, match="retries"):
            _baseline(retries=-1)


def _interrupt_case(tmp_path, *, jobs, checkpoint, plan_dir, **kwargs):
    try:
        with faults.active_plan([Fault("merge", 1, "interrupt")], plan_dir):
            stream_probes(
                RUN, seed=7, jobs=jobs, checkpoint_path=checkpoint, **kwargs,
            )
    except KeyboardInterrupt:
        return True
    return False


class TestInterruptionSemantics:
    """Satellite 4: interrupt → loadable checkpoint → bit-for-bit resume."""

    @pytest.mark.parametrize("jobs", [1, 4])
    @pytest.mark.parametrize(
        "mode_kwargs",
        [
            {"trials": 12, "chunk_size": 1},
            {"trials": 12, "chunk_size": 5},       # prime, not dividing 12
            {"trials": 12, "chunk_size": 12},      # all-in-one
            {"target_ci": 0.5, "chunk_size": 1, "max_trials": 48},
            {"target_ci": 0.5, "chunk_size": 5, "max_trials": 48},
            {"target_ci": 0.5, "chunk_size": 48, "max_trials": 48},
        ],
        ids=[
            "fixed-chunk1", "fixed-prime", "fixed-whole",
            "adaptive-chunk1", "adaptive-prime", "adaptive-whole",
        ],
    )
    def test_resume_is_bit_identical(self, tmp_path, monkeypatch, jobs, mode_kwargs):
        base = stream_probes(RUN, seed=7, **mode_kwargs)
        checkpoint = tmp_path / "run.ckpt"
        interrupted = _interrupt_case(
            tmp_path,
            jobs=jobs,
            checkpoint=checkpoint,
            plan_dir=tmp_path / "plan",
            **mode_kwargs,
        )
        assert interrupted, "the injected interrupt must fire"
        state = load_engine_checkpoint(checkpoint)
        assert state.chunks_merged == 1
        assert state.next_start % mode_kwargs["chunk_size"] == 0
        resumed = stream_probes(RUN, resume=checkpoint, jobs=jobs, checkpoint_path=checkpoint)
        assert _same_statistics(resumed, base)
        # Resuming the final checkpoint runs no chunk and returns the same
        # statistics: the settings and the position say the run finished.
        ran = []
        monkeypatch.setattr(engine, "_run_chunk", lambda *args: ran.append(args))
        again = stream_probes(RUN, resume=checkpoint)
        assert ran == []
        assert _same_statistics(again, base)

    def test_resume_rejects_conflicting_configuration(self, tmp_path):
        checkpoint = tmp_path / "run.ckpt"
        _baseline(checkpoint_path=checkpoint)
        with pytest.raises(
            CheckpointRefused, match=r"run\.ckpt: .*trials=10 .*seed=3 \(checkpoint: 7\)"
        ):
            stream_probes(RUN, resume=checkpoint, trials=10, seed=3)

    def test_resume_with_the_runs_own_settings_is_bit_identical(self, tmp_path):
        # The same call plus resume=: every setting equals the checkpoint's.
        checkpoint = self._interrupted(tmp_path, RUN)
        resumed = stream_probes(RUN, trials=64, chunk_size=16, seed=7, resume=checkpoint)
        assert _same_statistics(resumed, _baseline())

    def test_a_hand_built_pair_neither_checkpoints_nor_resumes(self, tmp_path):
        checkpoint = tmp_path / "run.ckpt"
        algorithm = ProbeTree(build_system("tree", 2))
        with pytest.raises(ValueError, match="RunSpec"):
            stream_probes(algorithm, p=0.2, trials=64, checkpoint_path=checkpoint)
        assert not checkpoint.exists()
        _baseline(checkpoint_path=checkpoint)
        with pytest.raises(ValueError, match="RunSpec"):
            stream_probes(algorithm, p=0.2, resume=checkpoint)

    def test_a_run_spec_takes_no_source_or_p(self):
        with pytest.raises(ValueError, match="RunSpec names its own source and p"):
            stream_probes(RUN, p=0.2, trials=64)

    @staticmethod
    def _interrupted(tmp_path, run):
        """A checkpoint of a 64-trial run of ``run``, stopped after one merge."""
        checkpoint = tmp_path / "run.ckpt"
        with pytest.raises(KeyboardInterrupt):
            with faults.active_plan([Fault("merge", 1, "interrupt")], tmp_path / "plan"):
                stream_probes(run, trials=64, chunk_size=16, seed=7,
                              checkpoint_path=checkpoint)
        return checkpoint

    @pytest.mark.parametrize(
        "run",
        [RunSpec("tree", 3, 0.3, distribution="correlated_groups"), RunSpec("wheel", 3, 0.3)],
        ids=["correlated_groups-source", "per-trial-algorithm"],
    )
    def test_other_sources_and_the_per_trial_fallback_resume_bit_identically(
        self, tmp_path, run
    ):
        base = stream_probes(run, trials=64, chunk_size=16, seed=7)
        resumed = stream_probes(run, resume=self._interrupted(tmp_path, run))
        assert _same_statistics(resumed, base)

    def test_resume_never_unpickles(self, tmp_path, monkeypatch):
        checkpoint = self._interrupted(tmp_path, RUN)
        assert load_engine_checkpoint(checkpoint).chunks_merged == 1

        def refuse(*args, **kwargs):
            raise AssertionError("a resume unpickled bytes")

        monkeypatch.setattr(pickle, "loads", refuse)
        resumed = stream_probes(RUN, resume=checkpoint)
        assert _same_statistics(resumed, _baseline())

    @pytest.mark.parametrize(
        "schema,drawn",
        [
            (1, "Bernoulli colorings as floats"),
            (2, "order choices with generator.integers"),
            (3, "Bernoulli colorings from the sampler stream 'bitplane-v2'"),
        ],
    )
    def test_checkpoint_of_an_older_draw_stream_fails_loudly(self, tmp_path, schema, drawn):
        checkpoint = tmp_path / "run.ckpt"
        _baseline(checkpoint_path=checkpoint)
        payload = json.loads(checkpoint.read_text())
        payload["schema"] = schema
        checkpoint.write_text(json.dumps(payload))
        with pytest.raises(
            CheckpointRefused, match=f"run.ckpt.*{drawn}.*sampler stream 'bitplane-v3'"
        ):
            stream_probes(RUN, resume=checkpoint)


class TestCrashResume:
    def test_process_killed_without_cleanup_resumes_byte_identically(self, tmp_path):
        """A run dying like SIGKILL resumes from its last durable chunk."""
        checkpoint = tmp_path / "run.ckpt"
        plan_path = faults.write_plan([Fault("merge", 2, "kill")], tmp_path / "plan")
        script = (
            "from repro.core.engine import RunSpec, stream_probes\n"
            "stream_probes(RunSpec('tree', 2, 0.2), trials=64,\n"
            f"    chunk_size=16, seed=7, checkpoint_path={str(checkpoint)!r})\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH", "")])
        )
        env[faults.ENV_VAR] = str(plan_path)
        process = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
            timeout=120,
        )
        assert process.returncode == KILL_EXIT_CODE
        state = load_engine_checkpoint(checkpoint)
        assert state.chunks_merged == 1  # durable point before the kill
        resumed = stream_probes(RUN, resume=checkpoint)
        assert _same_statistics(resumed, _baseline())


class TestCheckpointWrites:
    """Every merge writes the checkpoint once; the end of a run writes only
    when its call merged no chunk and the file does not already hold the
    state."""

    @pytest.fixture
    def writes(self, monkeypatch):
        from repro.core import checkpoint as checkpoint_module

        written: list = []
        real = checkpoint_module.save_engine_checkpoint

        def counting(path, state):
            written.append(Path(path).name)
            return real(path, state)

        monkeypatch.setattr(checkpoint_module, "save_engine_checkpoint", counting)
        return written

    @pytest.mark.parametrize(
        "mode_kwargs",
        [{"trials": 64}, {"trials": 60}, {"target_ci": 0.5, "max_trials": 64}],
        ids=["fixed", "fixed-short-tail", "adaptive"],
    )
    def test_n_merged_chunks_give_n_writes(self, tmp_path, writes, mode_kwargs):
        result = stream_probes(
            RUN, chunk_size=16, seed=7, checkpoint_path=tmp_path / "run.ckpt", **mode_kwargs,
        )
        assert result.chunks >= 2
        assert writes == ["run.ckpt"] * result.chunks

    def test_a_stopped_run_writes_once_per_merge(self, tmp_path, writes):
        event = threading.Event()
        event.set()
        with pytest.raises(engine.RunInterrupted):
            _baseline(checkpoint_path=tmp_path / "run.ckpt", stop_event=event)
        assert writes == ["run.ckpt"]

    def test_a_finished_run_resumed_into_its_own_file_writes_nothing(
        self, tmp_path, writes
    ):
        checkpoint = tmp_path / "run.ckpt"
        base = _baseline(checkpoint_path=checkpoint)
        before = checkpoint.read_bytes()
        writes.clear()
        again = stream_probes(RUN, resume=checkpoint, checkpoint_path=checkpoint)
        assert writes == []
        assert checkpoint.read_bytes() == before
        assert _same_statistics(again, base)

    def test_a_finished_run_resumed_into_a_new_path_writes_it_once(
        self, tmp_path, writes
    ):
        checkpoint = tmp_path / "run.ckpt"
        base = _baseline(checkpoint_path=checkpoint)
        writes.clear()
        again = stream_probes(RUN, resume=checkpoint, checkpoint_path=tmp_path / "copy.ckpt")
        assert writes == ["copy.ckpt"]
        assert load_engine_checkpoint(tmp_path / "copy.ckpt") == load_engine_checkpoint(
            checkpoint
        )
        assert _same_statistics(again, base)
