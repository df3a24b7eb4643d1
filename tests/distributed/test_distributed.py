"""The networked chunk-lease backend: byte-identity under every failure shape.

The load-bearing claims (ISSUE 7):

* a distributed run — healthy, or recovering from a worker kill, a kernel
  error, a dropped connection, a corrupt frame or a hung worker (missed
  heartbeats) — is byte-identical to ``jobs=1``, in both stopping modes;
* losing every worker degrades to the in-process fallback (still
  byte-identical), or fails loudly with ``AllWorkersLostError`` when the
  fallback is disabled;
* a coordinator killed mid-run resumes from its engine checkpoint
  bit-for-bit, distributed or not.

Most tests run workers as in-process threads (cheap, and ``run_worker``
is transport-identical either way); the kill-worker and coordinator-crash
tests use real spawned processes, because dying without cleanup is the
point.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from contextlib import contextmanager

import pytest

from repro.algorithms import ProbeMaj, ProbeTree
from repro.core import engine
from repro.core.checkpoint import load_engine_checkpoint
from repro.core.distributions import BernoulliSource
from repro.core.engine import resume_stream, stream_probes
from repro.distributed import (
    AllWorkersLostError,
    Coordinator,
    WorkerChunkError,
    protocol,
    run_worker,
    shutdown_workers,
    spawn_local_workers,
)
from repro.systems import build_system
from repro.testing import faults
from repro.testing.faults import KILL_EXIT_CODE, Fault


@pytest.fixture(autouse=True)
def _fast_backoff(monkeypatch):
    """Retries shouldn't sleep for real in tests."""
    monkeypatch.setattr(engine, "_sleep", lambda seconds: None)


def _algorithm():
    return ProbeTree(build_system("tree", 2))


def _baseline(**kwargs):
    return stream_probes(_algorithm(), p=0.2, trials=64, chunk_size=16, seed=7, **kwargs)


def _same_statistics(a, b) -> bool:
    return (
        a.mean == b.mean
        and a.std == b.std
        and a.histogram == b.histogram
        and a.witness_red == b.witness_red
        and a.n_trials_used == b.n_trials_used
        and a.chunks == b.chunks
    )


@contextmanager
def _cluster(count: int = 2, *, heartbeat_interval: float = 0.05, **coordinator_kwargs):
    """A coordinator plus ``count`` in-thread workers, torn down on exit."""
    with Coordinator(**coordinator_kwargs) as coordinator:
        threads = [
            threading.Thread(
                target=run_worker,
                args=(coordinator.addresses[0],),
                kwargs={
                    "heartbeat_interval": heartbeat_interval,
                    "reconnect_for": 5.0,
                    "name": f"test-worker-{index}",
                },
                daemon=True,
            )
            for index in range(count)
        ]
        for thread in threads:
            thread.start()
        if count:
            coordinator.wait_for_workers(count, timeout=30.0)
        yield coordinator


class TestByteIdentity:
    def test_fixed_mode_matches_sequential(self):
        base = _baseline()
        with _cluster(2) as coordinator:
            result = _baseline(coordinator=coordinator)
        assert _same_statistics(result, base)
        assert result.worker_reassignments == 0

    def test_adaptive_mode_stops_at_the_sequential_point(self):
        algorithm = _algorithm()
        kwargs = dict(p=0.2, target_ci=0.2, chunk_size=32, seed=11, max_trials=4096)
        base = stream_probes(algorithm, **kwargs)
        with _cluster(3) as coordinator:
            result = stream_probes(algorithm, coordinator=coordinator, **kwargs)
        assert _same_statistics(result, base)

    def test_coordinator_outlives_runs_and_filters_stale_results(self):
        # Back-to-back adaptive runs on one coordinator: speculative leases
        # of run 1 may complete during run 2, tagged with the old run id.
        algorithm = _algorithm()
        kwargs = dict(p=0.2, target_ci=0.2, chunk_size=32, seed=11, max_trials=4096)
        base = stream_probes(algorithm, **kwargs)
        with _cluster(2) as coordinator:
            first = stream_probes(algorithm, coordinator=coordinator, **kwargs)
            second = stream_probes(algorithm, coordinator=coordinator, **kwargs)
        assert _same_statistics(first, base)
        assert _same_statistics(second, base)

    def test_single_worker_matches_many(self):
        base = _baseline()
        with _cluster(1) as coordinator:
            result = _baseline(coordinator=coordinator)
        assert _same_statistics(result, base)

    def test_coordinator_excludes_process_pool(self):
        with Coordinator() as coordinator:
            with pytest.raises(ValueError, match="coordinator"):
                _baseline(coordinator=coordinator, jobs=2)


class TestWorkerFailures:
    def test_kernel_error_is_retried_byte_identically(self, tmp_path):
        base = _baseline()
        with faults.active_plan([Fault("chunk", 32, "raise")], tmp_path):
            with _cluster(2) as coordinator:
                result = _baseline(coordinator=coordinator)
        assert _same_statistics(result, base)
        assert result.retries_used == 1

    def test_persistent_kernel_error_exhausts_budget(self, tmp_path):
        plan = [Fault("chunk", 16, "raise", once=False)]
        with faults.active_plan(plan, tmp_path):
            with _cluster(2) as coordinator:
                with pytest.raises(WorkerChunkError, match="injected fault"):
                    _baseline(coordinator=coordinator, retries=1)

    def test_dropped_connection_reassigns_the_lease(self, tmp_path):
        base = _baseline()
        with faults.active_plan([Fault("worker-send", 16, "drop")], tmp_path):
            with _cluster(2) as coordinator:
                result = _baseline(coordinator=coordinator)
        assert _same_statistics(result, base)
        assert result.worker_reassignments >= 1

    def test_corrupt_frame_drops_the_worker(self, tmp_path):
        base = _baseline()
        with faults.active_plan([Fault("worker-send", 16, "corrupt")], tmp_path):
            with _cluster(2) as coordinator:
                result = _baseline(coordinator=coordinator)
        assert _same_statistics(result, base)
        assert result.worker_reassignments >= 1

    def test_missed_heartbeats_expire_the_lease(self, tmp_path):
        # The chunk hangs for longer than the lease timeout while its
        # heartbeats are suppressed: partition/hang, not death.  The
        # coordinator must reassign rather than wait.
        base = _baseline()
        plan = [
            Fault("chunk", 16, "delay", seconds=2.0),
            Fault("worker-heartbeat", 16, "delay", seconds=4.0),
        ]
        with faults.active_plan(plan, tmp_path):
            with _cluster(2, lease_timeout=0.4) as coordinator:
                result = _baseline(coordinator=coordinator)
        assert _same_statistics(result, base)
        assert result.worker_reassignments >= 1

    def test_killed_worker_process_reassigns_byte_identically(self, tmp_path):
        # A real worker process dying without cleanup (os._exit, like
        # SIGKILL): the coordinator sees the connection drop and re-leases.
        base = _baseline()
        with faults.active_plan([Fault("chunk", 32, "kill")], tmp_path):
            with Coordinator() as coordinator:
                processes = spawn_local_workers(
                    2, coordinator.addresses[0], reconnect_for=2.0
                )
                try:
                    coordinator.wait_for_workers(2, timeout=30.0)
                    result = _baseline(coordinator=coordinator)
                finally:
                    coordinator.close()
                    shutdown_workers(processes)
        assert _same_statistics(result, base)
        assert result.worker_reassignments >= 1
        assert KILL_EXIT_CODE in [process.returncode for process in processes]


class TestDegradation:
    def test_no_workers_falls_back_to_local_execution(self):
        base = _baseline()
        with Coordinator() as coordinator:
            result = _baseline(coordinator=coordinator)
        assert _same_statistics(result, base)

    def test_no_workers_without_fallback_raises_named_error(self):
        with Coordinator(local_fallback=False) as coordinator:
            with pytest.raises(AllWorkersLostError):
                _baseline(coordinator=coordinator)

    def test_all_workers_dying_mid_run_falls_back(self, tmp_path):
        base = _baseline()
        plan = [
            Fault("chunk", 0, "kill"),
            Fault("chunk", 16, "kill"),
        ]
        with faults.active_plan(plan, tmp_path):
            with Coordinator() as coordinator:
                processes = spawn_local_workers(
                    2, coordinator.addresses[0], reconnect_for=0.5
                )
                try:
                    coordinator.wait_for_workers(2, timeout=30.0)
                    # Let both workers die on their first leases, then the
                    # drive loop must finish the run in-process.
                    result = _baseline(coordinator=coordinator)
                finally:
                    coordinator.close()
                    shutdown_workers(processes)
        assert _same_statistics(result, base)

    def test_wait_for_workers_times_out_loudly(self):
        with Coordinator() as coordinator:
            with pytest.raises(TimeoutError, match="only 0 connected"):
                coordinator.wait_for_workers(1, timeout=0.2)

    def test_lease_timeout_must_be_positive(self):
        with pytest.raises(ValueError, match="lease_timeout"):
            Coordinator(lease_timeout=0.0)


class TestCoordinatorCrashResume:
    def test_interrupt_mid_run_resumes_distributed(self, tmp_path):
        base = _baseline()
        checkpoint = tmp_path / "run.ckpt"
        with faults.active_plan([Fault("merge", 2, "interrupt")], tmp_path / "plan"):
            with _cluster(2) as coordinator:
                with pytest.raises(KeyboardInterrupt):
                    _baseline(coordinator=coordinator, checkpoint_path=checkpoint)
        state = load_engine_checkpoint(checkpoint)
        assert not state.complete
        with _cluster(2) as coordinator:
            resumed = resume_stream(checkpoint, coordinator=coordinator)
        assert _same_statistics(resumed, base)

    def test_coordinator_killed_without_cleanup_resumes_bit_for_bit(self, tmp_path):
        """The acceptance shape: SIGKILL the coordinator process mid-run."""
        checkpoint = tmp_path / "run.ckpt"
        plan_path = faults.write_plan(
            [Fault("merge", 2, "kill")], tmp_path / "plan"
        )
        script = (
            "from repro.core.engine import stream_probes\n"
            "from repro.distributed import Coordinator, spawn_local_workers\n"
            "from repro.algorithms import ProbeTree\n"
            "from repro.systems import build_system\n"
            "coordinator = Coordinator()\n"
            "processes = spawn_local_workers(2, coordinator.addresses[0],\n"
            "    reconnect_for=1.0)\n"
            "coordinator.wait_for_workers(2, timeout=30.0)\n"
            "stream_probes(ProbeTree(build_system('tree', 2)), p=0.2, trials=64,\n"
            f"    chunk_size=16, seed=7, checkpoint_path={str(checkpoint)!r},\n"
            "    coordinator=coordinator)\n"
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
        assert not state.complete
        assert state.chunks_merged == 1  # durable point before the kill
        resumed = resume_stream(checkpoint)
        assert _same_statistics(resumed, _baseline())


class TestHandshake:
    @pytest.mark.parametrize("version", [1, 2])
    def test_older_version_hello_is_refused(self, version):
        # Version 2 changed the ``pair`` frame: it carries (algorithm,
        # source) without the backend.  Version 3 workers draw the gate
        # order choices as bit-planes, so a version-2 worker would merge
        # chunks of the integers stream.  Either is turned away.
        import socket

        with Coordinator() as coordinator:
            with socket.create_connection(coordinator.addresses[0], timeout=10.0) as sock:
                hello = {**protocol.hello_message("old-worker"), "protocol": version}
                protocol.send_message(sock, hello)
                try:
                    answer = protocol.recv_message(sock)
                except OSError:  # a FrameError or a reset: refused either way
                    answer = None
            assert answer is None
            assert coordinator.worker_count == 0


class TestWorkerPairCache:
    """Networked workers keep pairs in the engine's one bounded cache."""

    @pytest.fixture(autouse=True)
    def _fresh_cache(self, monkeypatch):
        monkeypatch.setattr(engine, "_pair_cache", threading.local())

    @staticmethod
    def _serve(frames: list[dict]) -> list[dict]:
        """Feed ``frames`` (then ``shutdown``) to one worker connection."""
        import socket

        from repro.distributed.worker import _serve

        coordinator_end, worker_end = socket.socketpair()
        with coordinator_end, worker_end:
            writer = threading.Thread(
                target=lambda: [
                    protocol.send_message(coordinator_end, frame)
                    for frame in [*frames, protocol.shutdown_message()]
                ]
            )
            writer.start()
            _serve(worker_end, 60.0)
            writer.join()
            worker_end.shutdown(socket.SHUT_WR)
            replies = []
            while (reply := protocol.recv_message(coordinator_end)) is not None:
                replies.append(reply)
        return replies

    def test_pair_frames_fill_the_pool_workers_cache(self):
        task = engine.ChunkTask(_algorithm(), BernoulliSource(_algorithm().system.n, 0.2), 7)
        blob, token = task.payload
        (reply,) = self._serve(
            [
                protocol.pair_message(token, blob),
                protocol.lease_message(1, token, task.entropy, 16, 16),
            ]
        )
        expected = task.run(16, 16)
        assert reply["type"] == "result"
        assert reply["histogram"] == [int(count) for count in expected.histogram]
        assert reply["witness_red"] == expected.witness_red
        # A pool task on the same thread finds the pair without its blob.
        pooled = engine._run_chunk_task((b"", token, task.entropy, 16, 16))
        assert pooled.histogram.tolist() == expected.histogram.tolist()

    def test_cache_bound_holds_for_pair_frames(self):
        tokens, frames = [], []
        for size in range(engine.PAIR_CACHE_MAX + 2):
            system = build_system("maj", 2 * size + 3)
            blob, token = engine.ChunkTask(
                ProbeMaj(system), BernoulliSource(system.n, 0.5), 1
            ).payload
            tokens.append(token)
            frames.append(protocol.pair_message(token, blob))
        frames.append(protocol.lease_message(1, tokens[0], 1, 0, 8))
        (reply,) = self._serve(frames)
        assert list(engine._pair_cache.pairs) == tokens[2:]
        assert reply["type"] == "error" and "unknown pair token" in reply["error"]


class TestWorkerLifecycle:
    def test_worker_exits_cleanly_on_shutdown_frame(self):
        with Coordinator() as coordinator:
            address = coordinator.addresses[0]
            codes = []
            thread = threading.Thread(
                target=lambda: codes.append(
                    run_worker(address, reconnect_for=5.0, heartbeat_interval=0.05)
                )
            )
            thread.start()
            coordinator.wait_for_workers(1, timeout=30.0)
            coordinator.close()
            thread.join(timeout=30.0)
        assert codes == [0]

    def test_worker_that_never_connects_exits_nonzero(self):
        # Nothing is listening on a fresh ephemeral port we immediately free.
        import socket

        probe = socket.create_server(("127.0.0.1", 0))
        address = probe.getsockname()[:2]
        probe.close()
        assert run_worker(address, reconnect_for=0.3) == 1

    def test_worker_started_first_keeps_dialing_until_coordinator_appears(self):
        # The reconnect window covers failed dials: a worker started
        # before (or orphaned by) its coordinator keeps trying the
        # address until one binds, then serves normally.
        import socket

        probe = socket.create_server(("127.0.0.1", 0))
        address = probe.getsockname()[:2]
        probe.close()
        thread = threading.Thread(
            target=run_worker,
            args=(address,),
            kwargs={"reconnect_for": 30.0, "heartbeat_interval": 0.05},
            daemon=True,
        )
        thread.start()
        time.sleep(0.5)  # let a few dials fail first
        with Coordinator(bind=[address]) as coordinator:
            coordinator.wait_for_workers(1, timeout=30.0)
            result = _baseline(coordinator=coordinator)
        assert _same_statistics(result, _baseline())
