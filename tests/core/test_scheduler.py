"""The engine's one lease/merge loop and the transports it drives.

:class:`repro.core.engine._Scheduler` keeps a window of leases in absolute
chunk order, merges only at the head, charges every failure a transport
reports to the :class:`ChunkLedger` and cancels its own speculative
leases on every exit path.  These tests drive it with scripted transports
(which finish leases out of order, fail them on cue and record what the
scheduler asked of them) and check the two shipped transports — inline
and :class:`ChunkPool` — against the :class:`Transport` contract, without
spawning worker processes.
"""

from __future__ import annotations

import pickle
import random
import threading
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.algorithms import ProbeMaj, RProbeMaj
from repro.core import engine
from repro.core.batched import resolve_backend
from repro.core.distributions import BernoulliSource
from repro.core.engine import (
    ChunkLedger,
    ChunkPool,
    ChunkTask,
    Lease,
    LeaseFailure,
    RunDeadlineExceeded,
    RunInterrupted,
    Transport,
    _InlineTransport,
    _PoolTransport,
    RunSettings,
    RunSpec,
    _Scheduler,
    stream_probes,
)
from repro.systems import MajoritySystem


@pytest.fixture(autouse=True)
def _no_backoff_sleep(monkeypatch):
    """Record retry backoffs instead of sleeping them."""
    slept: list[float] = []
    monkeypatch.setattr(engine, "_sleep", slept.append)
    return slept


ALGORITHM = ProbeMaj(MajoritySystem(25))
P = 0.4
ENTROPY = 13


#: One algorithm per kernel input form: packed words and a bool matrix.
FORMS = {"bitpacked": ALGORITHM, "numpy": RProbeMaj(MajoritySystem(25))}


def _task(algorithm=ALGORITHM, entropy=ENTROPY) -> ChunkTask:
    return ChunkTask(algorithm, BernoulliSource(algorithm.system.n, P), entropy)


def _scheduler(
    *,
    trials: int | None = 300,
    chunk_size: int = 32,
    target_ci: float | None = None,
    max_trials: int = 4096,
    retries: int = 2,
    state=None,
    stop_event=None,
    run_timeout: float | None = None,
) -> _Scheduler:
    return _Scheduler(
        RunSettings(trials, target_ci, chunk_size, min(chunk_size, max_trials), max_trials),
        ChunkLedger(retries),
        state=state,
        checkpoint_path=None,
        checkpoint_config={},
        saved=False,
        stop_event=stop_event,
        run_timeout=run_timeout,
    )


def _reference(algorithm=ALGORITHM, **kwargs):
    """The inline engine run the scheduled runs must reproduce bit for bit."""
    kwargs.setdefault("trials", 300)
    kwargs.setdefault("chunk_size", 32)
    return stream_probes(algorithm, p=P, seed=ENTROPY, **kwargs)


def _matches(scheduler: _Scheduler, result) -> bool:
    accumulator = scheduler.accumulator
    return (
        tuple(int(c) for c in accumulator.histogram) == result.histogram
        and accumulator.witness_red == result.witness_red
        and accumulator.count == result.n_trials_used
        and accumulator.mean == result.mean
        and accumulator.std == result.std
        and scheduler.chunks_merged == result.chunks
    )


class ScriptedTransport(Transport):
    """Computes leases in process, one per step, in a chosen order.

    ``order`` picks which unfinished lease completes next ("head", "tail"
    or a seeded "random" pick); ``fail`` maps a chunk start to the
    failures to report for it, one per attempt, as ``(error, respawn)``
    pairs (a respawning failure reports every pending lease, as a pool
    break does).
    """

    def __init__(self, task, *, window=3, order="head", fail=None, seed=0):
        self.task = task
        self.windows = window if callable(window) else (lambda step: window)
        self.order = order
        self.fail = {start: list(plan) for start, plan in (fail or {}).items()}
        self.rng = random.Random(seed)
        self.steps = 0
        self.dispatched: list[int] = []
        self.completed: list[int] = []
        self.cancelled: list[int] = []
        self.respawned_with: list[list[int]] = []
        self.max_pending = 0
        self.window_sizes: list[int] = []

    def window(self) -> int:
        size = self.windows(self.steps)
        self.window_sizes.append(size)
        return size

    def advance(self, pending):
        self.steps += 1
        self.max_pending = max(self.max_pending, len(pending))
        for lease in pending:
            if lease.handle is None and lease.stats is None:
                lease.handle = "leased"
                self.dispatched.append(lease.start)
        unfinished = [lease for lease in pending if lease.stats is None]
        if self.order == "tail":
            lease = unfinished[-1]
        elif self.order == "random":
            lease = self.rng.choice(unfinished)
        else:
            lease = unfinished[0]
        plan = self.fail.get(lease.start)
        if plan:
            error, respawn = plan.pop(0)
            leases = tuple(pending) if respawn else (lease,)
            for failed in leases:
                failed.handle = None
            return [LeaseFailure(error, leases, respawn=respawn)]
        lease.stats = self.task.run(lease.start, lease.size)
        self.completed.append(lease.start)
        return []

    def respawn(self, pending):
        self.respawns += 1
        self.respawned_with.append([lease.start for lease in pending])
        for lease in pending:
            lease.handle = None

    def cancel(self, lease):
        self.cancelled.append(lease.start)


def _spy_merges(monkeypatch, scheduler: _Scheduler) -> list[int]:
    """Record the start of every lease the scheduler merges, in order."""
    merged: list[int] = []
    merge = scheduler._merge

    def spy(lease):
        merged.append(lease.start)
        return merge(lease)

    monkeypatch.setattr(scheduler, "_merge", spy)
    return merged


# -- chunk tasks ------------------------------------------------------------------


class TestChunkTask:
    def test_payload_is_serialized_once(self):
        task = _task()
        assert task.payload is task.payload

    def test_payload_token_is_a_content_hash(self):
        first, second = _task(), _task()
        assert first.payload == second.payload
        assert _task(FORMS["numpy"]).payload[1] != first.payload[1]

    def test_entropy_stays_out_of_the_payload(self):
        # Workers cache pairs by token across runs: two seeds of the same
        # pair must share it, the entropy rides with each lease instead.
        assert _task(entropy=1).payload == _task(entropy=2).payload

    def test_payload_unpickles_to_exactly_the_pair(self):
        pair = pickle.loads(_task().payload[0])
        assert type(pair) is tuple and len(pair) == 2
        algorithm, source = pair
        assert type(algorithm) is ProbeMaj and type(source) is BernoulliSource

    def test_token_is_the_blake2s_digest_of_the_blob(self):
        import hashlib

        blob, token = _task().payload
        assert token == hashlib.blake2s(blob, digest_size=16).hexdigest()

    @pytest.mark.parametrize("form", FORMS)
    def test_run_matches_worker_entry_point(self, form):
        assert resolve_backend(FORMS[form]) == form
        task = _task(FORMS[form])
        blob, token = task.payload
        local = task.run(64, 50)
        remote = engine._run_chunk_task((blob, token, task.entropy, 64, 50))
        assert local.trials == remote.trials == 50
        assert local.witness_red == remote.witness_red
        np.testing.assert_array_equal(local.histogram, remote.histogram)

    def test_worker_pair_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(engine, "_pair_cache", threading.local())
        tokens = []
        for entropy in range(engine.PAIR_CACHE_MAX + 3):
            algorithm = ProbeMaj(MajoritySystem(2 * entropy + 3))
            blob, token = _task(algorithm).payload
            engine._run_chunk_task((blob, token, entropy, 0, 8))
            tokens.append(token)
        assert list(engine._pair_cache.pairs) == tokens[3:]

    def test_worker_pair_cache_is_per_thread(self):
        # In-process worker threads must not share algorithm objects: their
        # kernel scratch holds buffers a kernel writes on every call.
        blob, token = _task().payload
        mine = engine.cached_pair(token, blob)
        theirs = []
        thread = threading.Thread(
            target=lambda: theirs.append(engine.cached_pair(token, blob))
        )
        thread.start()
        thread.join()
        assert theirs[0][0] is not mine[0]
        assert engine.cached_pair(token, blob) is mine

    @pytest.mark.parametrize("split", [1, 31, 64, 150])
    def test_chunks_compose_to_the_whole_run(self, split):
        # Trial-aligned streams: any split of [0, 300) reproduces the run.
        task = _task()
        head, tail = task.run(0, split), task.run(split, 300 - split)
        whole = task.run(0, 300)
        assert head.witness_red + tail.witness_red == whole.witness_red
        width = max(head.histogram.size, tail.histogram.size)
        summed = np.zeros(width, dtype=np.int64)
        summed[: head.histogram.size] += head.histogram
        summed[: tail.histogram.size] += tail.histogram
        np.testing.assert_array_equal(np.trim_zeros(summed, "b"), whole.histogram)


# -- the scheduler over scripted transports ---------------------------------------


class TestMergeOrder:
    @pytest.mark.parametrize("window", [1, 2, 3, 8])
    @pytest.mark.parametrize("order", ["head", "tail", "random"])
    def test_out_of_order_completion_is_byte_identical(self, window, order):
        scheduler = _scheduler()
        transport = ScriptedTransport(_task(), window=window, order=order, seed=window)
        scheduler.drive(transport)
        assert _matches(scheduler, _reference())

    @pytest.mark.parametrize("order", ["tail", "random"])
    def test_merges_happen_only_at_the_head(self, monkeypatch, order):
        scheduler = _scheduler()
        merged = _spy_merges(monkeypatch, scheduler)
        transport = ScriptedTransport(_task(), window=4, order=order, seed=3)
        scheduler.drive(transport)
        assert merged == list(range(0, 300, 32))
        assert transport.completed != merged  # finished out of order, all the same

    def test_randomized_algorithm_is_identical_out_of_order(self):
        algorithm = RProbeMaj(MajoritySystem(25))
        scheduler = _scheduler()
        scheduler.drive(ScriptedTransport(_task(algorithm), window=5, order="tail"))
        assert _matches(scheduler, _reference(algorithm))

    @pytest.mark.parametrize("form", FORMS)
    def test_every_backend_through_a_wide_window(self, form):
        scheduler = _scheduler()
        scheduler.drive(ScriptedTransport(_task(FORMS[form]), window=6, order="random"))
        assert _matches(scheduler, _reference(FORMS[form]))


class TestWindow:
    @pytest.mark.parametrize("window", [1, 2, 5])
    def test_window_bounds_the_outstanding_leases(self, window):
        transport = ScriptedTransport(_task(), window=window, order="tail")
        _scheduler().drive(transport)
        assert transport.max_pending == window

    def test_window_is_asked_once_per_run(self):
        # Both shipped transports have a fixed window, so the scheduler
        # reads it once; a changing answer would go unseen.
        transport = ScriptedTransport(_task(), window=lambda step: 1 + step % 4)
        scheduler = _scheduler()
        scheduler.drive(transport)
        assert transport.window_sizes == [1] and transport.max_pending == 1
        assert _matches(scheduler, _reference())

    def test_leases_are_dispatched_in_absolute_chunk_order(self):
        transport = ScriptedTransport(_task(), window=4, order="random", seed=9)
        _scheduler().drive(transport)
        assert transport.dispatched == list(range(0, 300, 32))

    def test_final_lease_is_the_remainder(self, monkeypatch):
        scheduler = _scheduler(trials=100, chunk_size=32)
        sizes = []
        merge = scheduler._merge
        monkeypatch.setattr(
            scheduler, "_merge", lambda lease: sizes.append(lease.size) or merge(lease)
        )
        scheduler.drive(ScriptedTransport(_task(), window=3))
        assert sizes == [32, 32, 32, 4]

    @staticmethod
    def _state(chunks: int):
        """The checkpoint of the 300-trial reference run after ``chunks``
        chunks of 32 (the last one short)."""
        from repro.core.checkpoint import EngineCheckpoint

        scheduler = _scheduler(trials=min(300, 32 * chunks))
        scheduler.drive(ScriptedTransport(_task(), window=3))
        accumulator = scheduler.accumulator
        return EngineCheckpoint(
            entropy=ENTROPY, trials=300, target_ci=None,
            chunk_size=32, min_trials=32, max_trials=4096,
            run=RunSpec("maj", 25, P), count=accumulator.count,
            witness_red=accumulator.witness_red,
            histogram=tuple(int(c) for c in accumulator.histogram),
            chunks_merged=scheduler.chunks_merged, next_start=scheduler.next_start,
        )

    def test_resumed_state_starts_at_its_next_chunk(self):
        scheduler = _scheduler(state=self._state(1))
        transport = ScriptedTransport(_task(), window=3)
        scheduler.drive(transport)
        assert transport.dispatched[0] == 32
        assert _matches(scheduler, _reference())

    def test_complete_state_never_touches_the_transport(self):
        # A finished checkpoint needs no marker: its schedule is empty.
        scheduler = _scheduler(state=self._state(10))

        class Untouchable(Transport):
            def window(self):
                return 3

            def advance(self, pending):
                raise AssertionError("a finished run asked for a chunk")

        scheduler.drive(Untouchable())
        assert scheduler.chunks_merged == 10
        assert _matches(scheduler, _reference())


class TestFailureCharging:
    def test_single_failure_is_retried_identically(self):
        scheduler = _scheduler()
        transport = ScriptedTransport(
            _task(), fail={64: [(RuntimeError("boom"), False)]}
        )
        scheduler.drive(transport)
        assert scheduler.ledger.failures == 1
        assert transport.respawns == 0
        assert _matches(scheduler, _reference())

    def test_respawning_failure_charges_every_pending_lease(self):
        scheduler = _scheduler()
        transport = ScriptedTransport(
            _task(), window=3, fail={0: [(BrokenProcessPool("lost"), True)]}
        )
        scheduler.drive(transport)
        assert scheduler.ledger.failures == 3
        assert transport.respawned_with == [[0, 32, 64]]
        assert transport.respawns == 1
        assert _matches(scheduler, _reference())

    def test_respawned_leases_are_dispatched_again(self):
        transport = ScriptedTransport(
            _task(), window=3, fail={0: [(BrokenProcessPool("lost"), True)]}
        )
        _scheduler().drive(transport)
        assert transport.dispatched[:6] == [0, 32, 64, 0, 32, 64]

    def test_exhausted_budget_reraises_the_original_error(self):
        error = RuntimeError("persistent")
        transport = ScriptedTransport(
            _task(), window=3, fail={32: [(error, False)] * 3}
        )
        scheduler = _scheduler(retries=2)
        with pytest.raises(RuntimeError) as raised:
            scheduler.drive(transport)
        assert raised.value is error
        assert scheduler.ledger.failures == 3

    def test_zero_retries_fail_on_the_first_error(self):
        transport = ScriptedTransport(_task(), fail={0: [(ValueError("x"), False)]})
        with pytest.raises(ValueError, match="x"):
            _scheduler(retries=0).drive(transport)

    def test_backoff_doubles_per_attempt(self, _no_backoff_sleep):
        transport = ScriptedTransport(
            _task(), fail={32: [(RuntimeError("a"), False), (RuntimeError("b"), False)]}
        )
        _scheduler().drive(transport)
        assert _no_backoff_sleep == [engine.DEFAULT_RETRY_BACKOFF, 2 * engine.DEFAULT_RETRY_BACKOFF]

    def test_backoff_follows_the_first_reported_lease(self, _no_backoff_sleep):
        # A pool break charges all pending leases once; the sleep is the
        # head's first-attempt backoff, not one sleep per lease.
        transport = ScriptedTransport(
            _task(), window=3, fail={0: [(BrokenProcessPool("lost"), True)]}
        )
        _scheduler().drive(transport)
        assert _no_backoff_sleep == [engine.DEFAULT_RETRY_BACKOFF]


class TestExitPaths:
    def test_fixed_run_leaves_nothing_to_cancel(self):
        transport = ScriptedTransport(_task(), window=4, order="tail")
        _scheduler().drive(transport)
        assert transport.cancelled == []

    def test_adaptive_stop_cancels_the_speculative_leases(self):
        scheduler = _scheduler(trials=None, target_ci=0.5, chunk_size=64)
        transport = ScriptedTransport(_task(), window=4)
        scheduler.drive(transport)
        stop = scheduler.next_start
        assert transport.cancelled == [stop, stop + 64, stop + 128]
        reference = _reference(trials=None, target_ci=0.5, chunk_size=64, max_trials=4096)
        assert _matches(scheduler, reference)

    def test_exhausted_budget_cancels_the_window(self):
        transport = ScriptedTransport(
            _task(), window=3, fail={0: [(RuntimeError("x"), False)] * 3}
        )
        with pytest.raises(RuntimeError):
            _scheduler().drive(transport)
        assert transport.cancelled == [0, 32, 64]

    def test_keyboard_interrupt_checkpoints_and_cancels(self, monkeypatch):
        scheduler = _scheduler()
        saved = []
        monkeypatch.setattr(
            scheduler, "checkpoint", lambda: saved.append(scheduler.next_start)
        )
        transport = ScriptedTransport(_task(), window=3)
        advance = transport.advance

        def interrupting(pending):
            if pending[0].start == 96:
                raise KeyboardInterrupt
            return advance(pending)

        transport.advance = interrupting
        with pytest.raises(KeyboardInterrupt):
            scheduler.drive(transport)
        assert saved[-1] == scheduler.next_start == 96
        assert transport.cancelled == [96, 128, 160]

    def test_stop_event_halts_after_the_merge(self):
        stop = threading.Event()
        scheduler = _scheduler(stop_event=stop)
        transport = ScriptedTransport(_task(), window=3)
        advance = transport.advance

        def stopping(pending):
            failures = advance(pending)
            if transport.completed == [0]:
                stop.set()
            return failures

        transport.advance = stopping
        with pytest.raises(RunInterrupted, match="trial 32"):
            scheduler.drive(transport)
        assert scheduler.chunks_merged == 1
        assert transport.cancelled == [32, 64]

    def test_run_timeout_halts_on_a_chunk_boundary(self, monkeypatch):
        scheduler = _scheduler(run_timeout=10.0)
        monkeypatch.setattr(scheduler, "_deadline_at", 0.0)
        transport = ScriptedTransport(_task(), window=2)
        with pytest.raises(RunDeadlineExceeded, match="at trial 32"):
            scheduler.drive(transport)
        assert scheduler.chunks_merged == 1
        assert transport.cancelled == [32]


# -- the inline transport ---------------------------------------------------------


class TestInlineTransport:
    def test_window_is_one(self):
        assert _InlineTransport(_task()).window() == 1

    def test_computes_only_the_head(self):
        transport = _InlineTransport(_task())
        pending = [Lease(0, 32), Lease(32, 32)]
        assert transport.advance(pending) == []
        assert pending[0].stats is not None and pending[1].stats is None

    def test_reports_a_failure_without_respawn(self, tmp_path):
        from repro.testing import faults
        from repro.testing.faults import Fault, FaultInjected

        transport = _InlineTransport(_task())
        lease = Lease(0, 32)
        with faults.active_plan([Fault("chunk", 0, "raise")], tmp_path / "plan"):
            (failure,) = transport.advance([lease])
        assert isinstance(failure.error, FaultInjected)
        assert failure.leases == (lease,) and not failure.respawn
        assert lease.stats is None

    def test_stream_probes_counts_no_respawns_inline(self):
        result = _reference()
        assert result.pool_respawns == 0


# -- the ChunkPool transport ------------------------------------------------------


class InProcessPool:
    """A ChunkPool stand-in that runs each task as it is submitted.

    Starts in ``hold`` get a future that never completes; ``break_at``
    makes the n-th submission raise ``BrokenProcessPool``.
    """

    def __init__(self, max_workers=2, *, hold=(), break_at=None):
        self.max_workers = max_workers
        self.hold = set(hold)
        self.break_at = break_at
        self.payloads: list[tuple] = []
        self.futures: dict[int, Future] = {}
        self.respawns = 0

    def submit(self, fn, payload):
        self.payloads.append(payload)
        if len(self.payloads) == self.break_at:
            raise BrokenProcessPool("pool broke at submit")
        future = Future()
        self.futures[payload[3]] = future
        if payload[3] not in self.hold:
            try:
                future.set_result(fn(payload))
            except Exception as error:
                future.set_exception(error)
        return future

    def respawn(self):
        self.respawns += 1


class TestPoolTransport:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_window_is_twice_the_workers(self, workers):
        transport = _PoolTransport(InProcessPool(workers), _task(), None)
        assert transport.window() == 2 * workers

    def test_dispatches_every_unleased_lease_with_the_pair_blob_first(self):
        pool = InProcessPool()
        task = _task()
        transport = _PoolTransport(pool, task, None)
        pending = [Lease(0, 32), Lease(32, 32), Lease(64, 32)]
        assert transport.advance(pending) == []
        assert [payload[3] for payload in pool.payloads] == [0, 32, 64]
        assert all(payload[0] is task.payload[0] for payload in pool.payloads)
        assert pending[0].stats is not None
        transport.advance(pending[1:])
        assert len(pool.payloads) == 3  # leased once, not re-submitted

    def test_break_at_dispatch_fails_every_lease_and_asks_for_respawn(self):
        pool = InProcessPool(break_at=2)
        transport = _PoolTransport(pool, _task(), None)
        pending = [Lease(0, 32), Lease(32, 32)]
        (failure,) = transport.advance(pending)
        assert isinstance(failure.error, BrokenProcessPool)
        assert failure.leases == tuple(pending) and failure.respawn

    def test_break_at_the_head_result_fails_every_lease(self):
        transport = _PoolTransport(InProcessPool(), _task(), None)
        pending = [Lease(0, 32), Lease(32, 32)]
        for lease in pending:
            lease.handle = Future()
        pending[0].handle.set_exception(BrokenProcessPool("worker died"))
        (failure,) = transport.advance(pending)
        assert failure.leases == tuple(pending) and failure.respawn

    def test_task_error_fails_only_the_head(self, tmp_path):
        from repro.testing import faults
        from repro.testing.faults import Fault, FaultInjected

        transport = _PoolTransport(InProcessPool(), _task(), None)
        pending = [Lease(0, 32), Lease(32, 32)]
        with faults.active_plan([Fault("chunk", 0, "raise")], tmp_path / "plan"):
            (failure,) = transport.advance(pending)
        assert isinstance(failure.error, FaultInjected)
        assert failure.leases == (pending[0],) and not failure.respawn
        assert pending[0].handle is None and pending[1].handle is not None

    def test_chunk_timeout_fails_the_head_and_asks_for_respawn(self):
        transport = _PoolTransport(InProcessPool(hold={0}), _task(), 0.01)
        pending = [Lease(0, 32), Lease(32, 32)]
        (failure,) = transport.advance(pending)
        assert isinstance(failure.error, TimeoutError)
        assert "chunk_timeout=0.01s" in str(failure.error)
        assert failure.leases == (pending[0],) and failure.respawn

    def test_task_raising_timeout_error_is_a_task_failure(self):
        # Only a head that misses the deadline is a chunk timeout; a task
        # whose own code raises TimeoutError leaves the pool alone.
        transport = _PoolTransport(InProcessPool(), _task(), 5.0)
        head = Lease(0, 32)
        head.handle = Future()
        head.handle.set_exception(TimeoutError("raised by the task"))
        (failure,) = transport.advance([head])
        assert str(failure.error) == "raised by the task"
        assert not failure.respawn

    def test_respawn_detaches_every_lease(self):
        pool = InProcessPool()
        transport = _PoolTransport(pool, _task(), None)
        pending = [Lease(0, 32), Lease(32, 32)]
        for lease in pending:
            lease.handle = Future()
        transport.respawn(pending)
        assert pool.respawns == 1 and transport.respawns == 1
        assert all(lease.handle is None for lease in pending)

    def test_cancel_cancels_the_future(self):
        transport = _PoolTransport(InProcessPool(), _task(), None)
        lease = Lease(0, 32)
        lease.handle = Future()
        transport.cancel(lease)
        assert lease.handle.cancelled()
        transport.cancel(Lease(32, 32))  # never dispatched: nothing to do

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_scheduler_over_the_pool_transport_is_identical(self, workers):
        scheduler = _scheduler()
        scheduler.drive(_PoolTransport(InProcessPool(workers), _task(), None))
        assert _matches(scheduler, _reference())

    def test_scheduler_recovers_from_a_break_at_dispatch(self):
        pool = InProcessPool(2, break_at=3)
        transport = _PoolTransport(pool, _task(), None)
        scheduler = _scheduler()
        scheduler.drive(transport)
        assert pool.respawns == 1
        assert _matches(scheduler, _reference())

    def test_in_process_chunk_pool_subclass_through_stream_probes(self):
        class InlineChunkPool(ChunkPool):
            def submit(self, fn, payload):
                future = Future()
                future.set_result(fn(payload))
                return future

        with InlineChunkPool(2) as pool:
            result = _reference(executor=pool)
        reference = _reference()
        assert result.histogram == reference.histogram
        assert (result.mean, result.std) == (reference.mean, reference.std)


# -- removed options --------------------------------------------------------------


class TestRemovedOptions:
    def test_compiled_backend_is_unknown(self):
        with pytest.raises(ValueError, match="compiled"):
            resolve_backend(ProbeMaj(MajoritySystem(9)), "compiled")
        with pytest.raises(ValueError, match="compiled"):
            stream_probes(ProbeMaj(MajoritySystem(9)), p=0.5, trials=64, backend="compiled")

    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", "--system", "maj", "--size", "9", "--backend", "compiled"],
            ["sweep", "--backend", "compiled"],
            ["run", "table1", "--backend", "compiled"],
            ["estimate", "--system", "maj", "--auto-backend-min-trials", "10"],
            ["run", "table1", "--auto-backend-min-trials", "10"],
            ["estimate", "--system", "maj", "--size", "9", "--backend", "bitpacked"],
            ["sweep", "--backend", "numpy"],
            ["run", "table1", "--backend", "auto"],
            ["estimate", "--system", "maj", "--size", "9", "--workers", "127.0.0.1:0"],
            ["sweep", "--spawn-workers", "2"],
            ["estimate", "--system", "maj", "--size", "9", "--spawn-workers", "2"],
            ["estimate", "--system", "maj", "--size", "9", "--min-workers", "2"],
            ["estimate", "--system", "maj", "--size", "9", "--lease-timeout", "2.5"],
            ["sweep", "--workers", "127.0.0.1:0"],
            ["sweep", "--min-workers", "2"],
            ["sweep", "--lease-timeout", "2.5"],
        ],
        ids=["estimate-compiled", "sweep-compiled", "run-compiled",
             "estimate-threshold", "run-threshold",
             "estimate-backend", "sweep-backend", "run-backend",
             "estimate-workers", "sweep-spawn-workers",
             "estimate-spawn-workers", "estimate-min-workers", "estimate-lease-timeout",
             "sweep-workers", "sweep-min-workers", "sweep-lease-timeout"],
    )
    def test_cli_rejects_removed_flags(self, argv, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        error = capsys.readouterr().err
        assert "unrecognized arguments" in error and argv[-2] in error

    @pytest.mark.parametrize("command", ["estimate", "sweep"])
    def test_cli_rejects_the_removed_fallback_switch(self, command, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exited:
            main([command, "--no-local-fallback"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --no-local-fallback" in capsys.readouterr().err

    def test_cli_has_no_worker_subcommand(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exited:
            main(["worker", "--connect", "127.0.0.1:9999"])
        assert exited.value.code == 2
        assert "invalid choice: 'worker'" in capsys.readouterr().err

    @pytest.mark.parametrize("entry_point", ["stream_probes", "run_sweep"])
    def test_entry_points_take_no_coordinator(self, entry_point):
        from repro.experiments import sweep

        call = {
            "stream_probes": lambda **kw: stream_probes(
                ProbeMaj(MajoritySystem(9)), p=0.5, trials=64, **kw
            ),
            "run_sweep": lambda **kw: sweep.run_sweep("tree", (2,), (0.5,), trials=64, **kw),
        }[entry_point]
        with pytest.raises(TypeError, match="coordinator"):
            call(coordinator=None)

    def test_raw_executor_names_chunk_pool(self):
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=1) as raw:
            with pytest.raises(TypeError, match="ChunkPool"):
                _reference(executor=raw)
