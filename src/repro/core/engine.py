"""Streaming estimation engine: chunked adaptive Monte-Carlo over kernels.

The batched layer (:mod:`repro.core.batched`) evaluates one ``(trials, n)``
matrix per call, which caps trial counts by RAM and fixes precision up
front.  This module drives any (algorithm kernel × coloring source) pair in
fixed-size *trial chunks* instead: each chunk is sampled, run through the
algorithm's one kernel — packed (:func:`repro.core.bitpacked.run_packed`)
for the deterministic and randomized gate algorithms, numpy
(:func:`repro.core.batched.batched_or_sequential_run`) for the other
randomized ones and the per-trial fallback — and folded into an exact running
accumulator, so memory stays ``O(chunk_size · n)`` while the
trial count scales to ``10^7`` and beyond.

Two stopping modes are supported:

* **fixed** — run exactly ``trials`` trials (the default), chunked;
* **target_ci** — keep adding chunks until the normal-approximation 95%
  confidence half-width falls below ``target_ci``, guarded by
  ``min_trials``/``max_trials``.  Near a phase transition (e.g. the
  critical ``p`` of a probe-complexity curve) variance spikes and fixed
  trial counts sized for the hard cell waste work everywhere else; the
  adaptive mode spends trials only where the tolerance demands them.

Accumulation is a mergeable Welford/Chan-style moment accumulator
specialized to the domain: probe counts are small nonnegative integers, so
the engine accumulates an exact probe-count *histogram* per chunk
(:class:`MomentAccumulator`) and derives mean/variance from exact integer
sums.  Merged means are therefore bit-identical no matter how the trials
are chunked or which worker computed which chunk — no floating-point
summation-order drift.

Seeding guarantees (the "seed schedule"):

* Every chunk draws from streams derived only from ``(seed, start)`` where
  ``start`` is the chunk's absolute first trial index — never from which
  worker ran it or how many chunks preceded it.  Sequential and
  ``jobs=N`` runs are therefore byte-identical.
* Sources that declare a fixed RNG consumption per 64-trial word
  (:attr:`~repro.core.distributions.ColoringSource.draws_per_word`) are
  sampled *word-aligned*: the chunk starting at trial ``s`` uses a
  ``PCG64(seed)`` stream advanced by ``(s // 64) × draws_per_word`` draws,
  draws ``s % 64 + size`` trials and drops the leading ``s % 64``, so
  trial ``t`` sees exactly the draws it would see in a single one-shot
  ``sample_matrix`` call from ``default_rng(seed)`` (a Bernoulli word owns
  ``K(p) · n`` bit-plane draws, or ``(10 + 64) · n`` with its tail queue
  when ``K(p) > 10``).  For these
  sources the sampled inputs — and hence the means of algorithms
  whose kernels consume no randomness — are byte-identical to one kernel
  call over that single matrix *and* invariant under the chunk size.
* Sources with data-dependent consumption (the ``integers``-based hard
  families) fall back to a per-chunk spawned stream keyed by ``start``:
  still deterministic and jobs-invariant, but the chunk layout becomes
  part of the schedule.
* Algorithm randomness (randomized kernels, the per-trial fallback) always
  comes from its own per-chunk stream keyed by ``start`` — never from the
  sample stream, so a chunk's algorithm draws cannot correlate with a
  later chunk's inputs.  Randomized algorithms are distribution-identical
  across chunk layouts (same caveat as batched-vs-sequential before).

A run is described by a :class:`RunSpec`, which builds its ``(algorithm,
source)`` pair (a hand-built pair runs too, but never checkpoints).  A
chunk is described by the pickled pair and the run's entropy
(:class:`ChunkTask`), the pickle's digest being only the pool workers'
pair-cache token; which input the kernel takes, packed words or a bool
matrix, is asked of :func:`repro.core.batched.resolve_backend` wherever
the chunk runs.

Execution is one scheduler over *chunk leases*, whichever transport runs
the chunks: inline in the caller (``jobs=1``) or a respawnable process
pool (:class:`ChunkPool`, ``jobs > 1``).  The scheduler keeps a window of
leases in absolute chunk order and merges only at its head, evaluating the
``target_ci`` stopping rule after each in-order merge, so speculative
chunks computed past the stopping point are discarded and every transport
stops where the sequential run stops.

Fault tolerance: a :class:`ChunkLedger` gives every chunk a bounded retry
budget with exponential backoff; a worker exception re-runs just that
chunk, a lost worker (``BrokenProcessPool``) or an expired per-chunk
``chunk_timeout`` respawns the pool (:meth:`ChunkPool.respawn`) and
re-dispatches only the unmerged chunks.  Because chunks are keyed by
``(seed, start)`` and merged in absolute order, a recovered run is
byte-identical to a fault-free one.  ``checkpoint_path`` serializes the
exact-integer accumulator plus the lease position durably (tmp + fsync +
``os.replace``) after every merge — and on ``KeyboardInterrupt`` — so
:func:`stream_probes` called again with ``resume=`` continues a killed run
byte-identically from the last durable chunk boundary.  A checkpoint
names its run by its :class:`RunSpec`, never by a pickle, and only the
bytes a pool worker gets from this process are ever unpickled.  The fault
paths are exercised, not just claimed:
:mod:`repro.testing.faults` injects worker kills, delays, kernel errors and interrupts at the
``"chunk"``/``"merge"`` sites wired into :func:`_run_chunk` and the merge
step.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import pickle
import threading
import time
from collections import OrderedDict
from collections.abc import Iterator
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from repro.algorithms import default_deterministic_algorithm, default_randomized_algorithm
from repro.algorithms.base import ProbingAlgorithm
from repro.core.distributions import (
    BernoulliSource,
    ColoringSource,
    build_source,
    canonical_source_name,
)
from repro.core.estimator import Estimate
from repro.core.seeding import cell_sequence
from repro.systems.factory import build_system, canonical_system_name
from repro.testing.faults import fire_fault

#: Default number of trials per chunk: large enough to amortize numpy call
#: overhead, small enough that a chunk's ``(chunk, n)`` matrix stays cache-
#: and RAM-friendly at n ≈ 10^3.
DEFAULT_CHUNK_TRIALS = 4096

#: Default ``max_trials`` guard of the ``target_ci`` stopping mode.
DEFAULT_MAX_TRIALS = 1_000_000

#: Default per-chunk retry budget: a chunk may fail (worker exception,
#: lost worker, timeout) this many times before the run gives up.
DEFAULT_RETRIES = 2

#: Base of the exponential retry backoff, in seconds: attempt ``k`` of a
#: chunk sleeps ``backoff * 2^(k-1)`` before re-running.
DEFAULT_RETRY_BACKOFF = 0.05

#: Indirection for tests: retry backoff sleeps go through this hook.
_sleep = time.sleep


class RunInterrupted(RuntimeError):
    """A run stopped cooperatively at a chunk boundary (``stop_event``).

    Raised by :func:`stream_probes` after the current chunk's statistics
    are merged and — when ``checkpoint_path`` is set — a durable
    checkpoint is written, so the run resumes byte-identically.  This is
    the graceful-drain primitive: a serving layer sets the event on
    SIGTERM and every in-flight run lands on a resumable checkpoint
    instead of being torn mid-chunk.
    """


class RunDeadlineExceeded(TimeoutError):
    """A run outlived its ``run_timeout`` wall-clock budget.

    Like :class:`RunInterrupted`, raised only at a chunk boundary after a
    durable checkpoint, so a deadline-killed run is still resumable.
    """


@dataclass(frozen=True)
class ChunkStats:
    """Sufficient statistics of one evaluated chunk (what workers return)."""

    trials: int
    #: ``histogram[v]`` = number of trials whose probe count was ``v``.
    histogram: np.ndarray
    witness_red: int


class MomentAccumulator:
    """Mergeable running moments over integer probe counts.

    A Welford/Chan-style parallel accumulator specialized to the engine's
    domain: samples are small nonnegative integers, so instead of floating
    ``(count, mean, M2)`` triples it merges exact probe-count histograms
    and computes mean/variance from exact Python-integer sums.  The merge
    is associative and exact, which is what makes chunked, sharded and
    one-shot runs agree on the mean to the last bit.
    """

    __slots__ = ("count", "witness_red", "_histogram", "_total", "_total_sq")

    def __init__(self) -> None:
        self.count = 0
        self.witness_red = 0
        self._histogram = np.zeros(0, dtype=np.int64)
        # Exact ``Σ probes`` and ``Σ probes²`` as arbitrary-precision ints.
        self._total = 0
        self._total_sq = 0

    def merge(self, chunk: ChunkStats) -> None:
        """Fold one chunk's statistics into the running totals."""
        hist = np.asarray(chunk.histogram, dtype=np.int64)
        if hist.size > self._histogram.size:
            grown = np.zeros(hist.size, dtype=np.int64)
            grown[: self._histogram.size] = self._histogram
            self._histogram = grown
        self._histogram[: hist.size] += hist
        self._add_sums(hist)
        self.count += int(chunk.trials)
        self.witness_red += int(chunk.witness_red)

    def _add_sums(self, hist: np.ndarray) -> None:
        """Add ``hist``'s exact ``Σ v`` and ``Σ v²``: in int64 while
        ``Σ count · v²`` cannot reach 2^63, through Python ints beyond."""
        exact = int(hist.sum()) * hist.size**2 < 2**63
        values = np.arange(hist.size, dtype=np.int64 if exact else object)
        weighted = hist * values
        self._total += int(weighted.sum())
        self._total_sq += int(weighted @ values)

    @property
    def histogram(self) -> np.ndarray:
        """The accumulated probe-count histogram (index = probe count)."""
        return self._histogram

    def load_state(
        self, count: int, witness_red: int, histogram: "Iterator[int] | tuple[int, ...]"
    ) -> None:
        """Restore checkpointed totals (resume path); exact, like merging."""
        self.count = int(count)
        self.witness_red = int(witness_red)
        self._histogram = np.asarray(tuple(histogram), dtype=np.int64)
        self._total = self._total_sq = 0
        self._add_sums(self._histogram)

    @property
    def mean(self) -> float:
        """Exact sample mean (one correctly-rounded division)."""
        if self.count == 0:
            raise ValueError("no trials accumulated")
        return self._total / self.count

    @property
    def std(self) -> float:
        """Sample standard deviation (ddof=1) from exact integer sums."""
        if self.count <= 1:
            return 0.0
        numerator = self.count * self._total_sq - self._total * self._total
        return math.sqrt(numerator / (self.count * (self.count - 1)))

    @property
    def ci95(self) -> float:
        """Half-width of the normal-approximation 95% confidence interval."""
        if self.count <= 1:
            return float("inf")
        return 1.96 * self.std / math.sqrt(self.count)


@dataclass(frozen=True)
class StreamResult:
    """Outcome of one streaming estimation run.

    ``n_trials_used`` is the number of trials actually evaluated — equal to
    the requested ``trials`` in fixed mode, chosen by the stopping rule in
    ``target_ci`` mode.  ``histogram[v]`` counts trials with probe count
    ``v`` (exact).  ``seconds`` is wall clock and excluded from every
    determinism claim, as are the fault-recovery counters
    ``retries_used``/``pool_respawns`` — a recovered run reports how bumpy
    the ride was, but its statistics are byte-identical to a fault-free
    run's.
    """

    algorithm: str
    source: str
    mode: str
    mean: float
    std: float
    n_trials_used: int
    chunk_size: int
    chunks: int
    witness_red: int
    histogram: tuple[int, ...]
    target_ci: float | None
    reached_target: bool | None
    seconds: float
    retries_used: int = 0
    pool_respawns: int = 0
    #: The kernel backend the run executed on, derived from the algorithm
    #: (:func:`repro.core.batched.resolve_backend`): "bitpacked" or "numpy".
    backend: str = "numpy"

    @property
    def estimate(self) -> Estimate:
        """The run as a plain :class:`~repro.core.estimator.Estimate`."""
        return Estimate(mean=self.mean, std=self.std, trials=self.n_trials_used)

    @property
    def ci95(self) -> float:
        return self.estimate.ci95

    @property
    def stderr(self) -> float:
        return self.estimate.stderr

    @property
    def failure_rate(self) -> float:
        """Fraction of trials whose witness was red (no live quorum)."""
        return self.witness_red / self.n_trials_used


class _ThreadCollectors(threading.local):
    """Per-thread stack of active recovery collectors (:func:`collect_recovery`)."""

    def __init__(self) -> None:
        self.stack: list[dict] = []


#: Every finished :func:`stream_probes` run adds its counters to each
#: collector active on the thread it ran on.
_RECOVERY_COLLECTORS = _ThreadCollectors()

#: Counter keys a recovery collector accumulates.
RECOVERY_KEYS = ("retries_used", "pool_respawns")


@contextmanager
def collect_recovery() -> Iterator[dict]:
    """Accumulate recovery counters of every engine run inside the block.

    Yields a dict with :data:`RECOVERY_KEYS`; each :func:`stream_probes`
    completion on the calling thread adds its ``retries_used``/
    ``pool_respawns`` into it.  Used by the experiment and sweep runners
    to persist recovery statistics in artifacts without threading the
    counters through every ``ExperimentSpec.run`` signature.  Collectors
    are per thread, so runs on other threads (the service's workers)
    never count here.
    """
    totals = dict.fromkeys(RECOVERY_KEYS, 0)
    _RECOVERY_COLLECTORS.stack.append(totals)
    try:
        yield totals
    finally:
        _RECOVERY_COLLECTORS.stack.remove(totals)


# -- chunk execution --------------------------------------------------------------


def _chunk_sample_generator(
    source: ColoringSource, entropy: int, start: int
) -> tuple[np.random.Generator, int]:
    """The sampling stream of the chunk starting at absolute trial ``start``
    and the number of leading trials to draw and drop (``start % 64``).

    Word-aligned (``PCG64(entropy)`` advanced past the preceding words'
    draws) when the source declares a fixed per-word consumption; a
    per-chunk spawned stream otherwise.
    """
    per_word = source.draws_per_word
    if per_word is None:
        return np.random.default_rng(cell_sequence(entropy, "engine-sample", start)), 0
    word, lead = divmod(start, 64)
    bit_generator = np.random.PCG64(entropy)
    if word and per_word:
        bit_generator.advance(word * per_word)
    return np.random.Generator(bit_generator), lead


def _chunk_algorithm_generator(entropy: int, start: int) -> np.random.Generator:
    """The algorithm-randomness stream of the chunk starting at ``start``."""
    return np.random.default_rng(cell_sequence(entropy, "engine-algorithm", start))


def _run_chunk(
    algorithm: ProbingAlgorithm,
    source: ColoringSource,
    entropy: int,
    start: int,
    size: int,
) -> ChunkStats:
    """Sample and evaluate one chunk; returns O(n) sufficient statistics.

    The kernel registry (:func:`repro.core.batched.resolve_backend`) says
    which input the algorithm's kernel takes.  A packed kernel gets the
    chunk drawn directly into bit-planes from the same word-aligned stream
    (the very colorings ``sample_matrix`` would return); every other
    algorithm gets a bool matrix.
    """
    from repro.core.batched import batched_or_sequential_run, resolve_backend

    fire_fault("chunk", start)
    sample_rng, lead = _chunk_sample_generator(source, entropy, start)
    if resolve_backend(algorithm) == "bitpacked":
        from repro.core.bitpacked import drop_lanes, run_packed, sample_packed

        packed = drop_lanes(sample_packed(source, source.n, lead + size, sample_rng), lead)
        probes, witness_green = run_packed(
            algorithm, packed, _chunk_algorithm_generator(entropy, start)
        )
    else:
        red = source.sample_matrix(source.n, lead + size, sample_rng)[lead:]
        probes, witness_green = batched_or_sequential_run(
            algorithm, red, _chunk_algorithm_generator(entropy, start)
        )
    return ChunkStats(
        trials=size,
        histogram=np.bincount(probes),
        witness_red=size - int(np.count_nonzero(witness_green)),
    )


@dataclass(frozen=True)
class ChunkTask:
    """What every chunk of one run evaluates, whichever transport runs it."""

    algorithm: ProbingAlgorithm
    source: ColoringSource
    entropy: int

    @cached_property
    def payload(self) -> tuple[bytes, str]:
        """The pickled ``(algorithm, source)`` pair plus its digest,
        serialized once per run.

        The same bytes ship with every pool task; workers deserialize once
        per digest (:func:`cached_pair`) and then reuse the *same* objects
        for all their chunks, so the per-algorithm kernel scratch
        (:func:`repro.core.batched.kernel_scratch`) stays warm inside
        workers exactly as it does inline.  The digest never leaves the
        process: a checkpoint names its run by its :class:`RunSpec`.
        """
        blob = pickle.dumps(
            (self.algorithm, self.source), protocol=pickle.HIGHEST_PROTOCOL
        )
        return blob, hashlib.blake2s(blob, digest_size=16).hexdigest()

    def run(self, start: int, size: int) -> ChunkStats:
        """Evaluate the chunk ``[start, start + size)`` in this process."""
        return _run_chunk(self.algorithm, self.source, self.entropy, start, size)


#: Deserialized pairs a worker keeps (least recently used out first).
PAIR_CACHE_MAX = 8

#: The worker-side pair cache, one per thread: in-process worker threads
#: must not share algorithm objects, whose kernel scratch holds buffers.
_pair_cache = threading.local()


def cached_pair(token: str, blob: bytes) -> tuple[ProbingAlgorithm, ColoringSource]:
    """The pair a pool worker cached under ``token``, deserializing
    ``blob`` on a miss.  The blob is the :attr:`ChunkTask.payload` that the
    parent process pickled; no other bytes reach here."""
    pairs = getattr(_pair_cache, "pairs", None)
    if pairs is None:
        pairs = _pair_cache.pairs = OrderedDict()
    pair = pairs.get(token)
    if pair is not None:
        pairs.move_to_end(token)
    else:
        pair = pairs[token] = pickle.loads(blob)
        while len(pairs) > PAIR_CACHE_MAX:
            pairs.popitem(last=False)
    return pair


def _run_chunk_task(payload) -> ChunkStats:
    """Top-level worker entry point (must be picklable for process pools)."""
    blob, token, entropy, start, size = payload
    algorithm, source = cached_pair(token, blob)
    return _run_chunk(algorithm, source, entropy, start, size)


# -- fault-tolerant pool + chunk leases -------------------------------------------


class ChunkPool:
    """A respawnable worker pool for engine chunks.

    ``ProcessPoolExecutor`` is permanently broken once any worker dies —
    every in-flight and future submission raises ``BrokenProcessPool``.
    Recovery therefore means *replacing* the executor, which only the
    object that owns it can do; this wrapper owns it.  Share one
    ``ChunkPool`` across many engine runs (``run_sweep`` shares one per
    grid) and a crash recovered in one cell leaves the pool usable by the
    next.
    """

    def __init__(self, max_workers: int) -> None:
        if max_workers < 1:
            raise ValueError("ChunkPool needs at least one worker")
        self.max_workers = max_workers
        self.respawns = 0
        self._executor = ProcessPoolExecutor(max_workers=max_workers)

    def submit(self, fn, /, *args):
        return self._executor.submit(fn, *args)

    def respawn(self) -> None:
        """Replace the executor: terminate stragglers, spawn fresh workers.

        Used after ``BrokenProcessPool`` (the old pool is unusable) and
        after a chunk timeout (a worker may be hung on the chunk and must
        be killed, or it would keep a core busy forever).
        """
        old = self._executor
        old.shutdown(wait=False, cancel_futures=True)
        for process in list((getattr(old, "_processes", None) or {}).values()):
            try:
                if process.is_alive():
                    process.terminate()
            except (OSError, ValueError):  # pragma: no cover - already dead
                pass
        self.respawns += 1
        self._executor = ProcessPoolExecutor(max_workers=self.max_workers)

    def shutdown(self, wait: bool = True) -> None:
        self._executor.shutdown(wait=wait, cancel_futures=True)

    def __enter__(self) -> "ChunkPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


class ChunkLedger:
    """Chunk-lease bookkeeping: bounded retries with exponential backoff.

    Every chunk — keyed by its absolute start trial — may fail at most
    ``retries`` times; a failure is a worker exception, a lost worker
    (``BrokenProcessPool`` charges all in-flight leases, since any of them
    may have killed the worker) or an expired chunk timeout.  Exhausting a
    budget re-raises the original error unchanged.  Attempt ``k`` of a
    chunk backs off ``DEFAULT_RETRY_BACKOFF * 2^(k-1)`` seconds.
    """

    def __init__(self, retries: int) -> None:
        self.retries = retries
        self.failures = 0
        self._attempts: dict[int, int] = {}

    def record_failure(self, start: int, error: BaseException) -> None:
        """Charge one failed lease for the chunk at ``start``.

        Raises ``error`` itself once the chunk's budget is exhausted, so
        callers see the true cause (a ``FaultInjected``, the original
        ``BrokenProcessPool``, ...) rather than a wrapper.
        """
        count = self._attempts.get(start, 0) + 1
        self._attempts[start] = count
        self.failures += 1
        if count > self.retries:
            raise error

    def backoff_seconds(self, start: int) -> float:
        """Exponential backoff before the chunk's next attempt."""
        count = self._attempts.get(start, 0)
        if count == 0:
            return 0.0
        return DEFAULT_RETRY_BACKOFF * (2 ** (count - 1))


class Lease:
    """One chunk ``[start, start + size)`` in the scheduler's window.

    ``handle`` is the transport's claim on the running chunk (a future)
    and ``None`` while the chunk awaits dispatch; ``stats`` holds the
    result once it arrived, merged when the lease reaches the head.
    """

    __slots__ = ("start", "size", "handle", "stats")

    def __init__(self, start: int, size: int) -> None:
        self.start = start
        self.size = size
        self.handle = None
        self.stats: ChunkStats | None = None


@dataclass(frozen=True)
class LeaseFailure:
    """A transport's report that ``leases`` failed with ``error``.

    The scheduler charges every listed lease to the :class:`ChunkLedger`
    (which re-raises ``error`` once a budget runs out), calls
    :meth:`Transport.respawn` when ``respawn`` is set, then backs off by
    the first lease's attempt count.
    """

    error: BaseException
    leases: tuple[Lease, ...]
    respawn: bool = False


class Transport:
    """How one run's leases get computed; the scheduler's only dependency.

    * ``window()`` — how many leases may be outstanding (asked once per
      run);
    * ``advance(pending)`` — dispatch every lease whose ``handle`` is
      ``None``, wait for progress, set ``stats`` on finished leases and
      return this step's failures, detaching (``handle = None``) each lease
      it reports;
    * ``respawn(pending)`` — replace lost workers; every lease is then
      detached and re-dispatched;
    * ``cancel(lease)`` — drop a speculative lease when the run ends.

    ``respawns`` counts the pool respawns the run reports.
    """

    respawns = 0

    def window(self) -> int:
        raise NotImplementedError

    def advance(self, pending: list[Lease]) -> list[LeaseFailure]:
        raise NotImplementedError

    def respawn(self, pending: list[Lease]) -> None:
        raise NotImplementedError

    def cancel(self, lease: Lease) -> None:
        pass


class _InlineTransport(Transport):
    """Runs the head chunk in the caller: window 1, nothing speculative."""

    def __init__(self, task: ChunkTask) -> None:
        self._task = task

    def window(self) -> int:
        return 1

    def advance(self, pending: list[Lease]) -> list[LeaseFailure]:
        head = pending[0]
        try:
            head.stats = self._task.run(head.start, head.size)
        except Exception as error:
            return [LeaseFailure(error, (head,))]
        return []


class _PoolTransport(Transport):
    """Shards leases over a :class:`ChunkPool`: window 2 × workers.

    Three failure shapes: a task exception fails just the head lease (the
    pool is healthy); a pool break — whether the head's future or any
    dispatch reports it — fails every lease in flight, since any of them
    may have killed the worker; a head missing ``chunk_timeout`` fails the
    head.  The last two respawn the pool, because only killing the
    workers reclaims a dead or hung pool.
    """

    def __init__(
        self, pool: ChunkPool, task: ChunkTask, chunk_timeout: float | None
    ) -> None:
        self._pool = pool
        self._task = task
        self._chunk_timeout = chunk_timeout

    def window(self) -> int:
        return 2 * self._pool.max_workers

    def advance(self, pending: list[Lease]) -> list[LeaseFailure]:
        blob, token = self._task.payload
        head = pending[0]
        try:
            for lease in pending:
                if lease.handle is None:
                    lease.handle = self._pool.submit(
                        _run_chunk_task,
                        (blob, token, self._task.entropy, lease.start, lease.size),
                    )
        except BrokenExecutor as error:
            return [LeaseFailure(error, tuple(pending), respawn=True)]
        if not futures_wait([head.handle], timeout=self._chunk_timeout).done:
            error = TimeoutError(
                f"chunk at trial {head.start} exceeded "
                f"chunk_timeout={self._chunk_timeout}s"
            )
            return [LeaseFailure(error, (head,), respawn=True)]
        try:
            head.stats = head.handle.result()
        except BrokenExecutor as error:
            return [LeaseFailure(error, tuple(pending), respawn=True)]
        except Exception as error:
            head.handle = None
            return [LeaseFailure(error, (head,))]
        return []

    def respawn(self, pending: list[Lease]) -> None:
        self._pool.respawn()
        self.respawns += 1
        for lease in pending:
            lease.handle = None

    def cancel(self, lease: Lease) -> None:
        if lease.handle is not None:
            lease.handle.cancel()


# -- scheduling -------------------------------------------------------------------


@dataclass(frozen=True)
class RunSettings:
    """A run's stopping rule and chunking with every default filled in, as
    an engine checkpoint records them (:func:`check_run_settings`)."""

    trials: int | None
    target_ci: float | None
    chunk_size: int
    min_trials: int
    max_trials: int

    def chunk_starts(self, first: int = 0) -> Iterator[tuple[int, int]]:
        """Yield ``(start, size)`` chunks in absolute order.

        ``first`` resumes the schedule at that absolute trial index; it is
        always a multiple of ``chunk_size`` (checkpoints land on chunk
        boundaries), so the resumed layout equals the uninterrupted one.
        """
        total = self.trials if self.target_ci is None else self.max_trials
        for start in range(first, total, self.chunk_size):
            yield start, min(self.chunk_size, total - start)

    def should_stop(self, accumulator: MomentAccumulator) -> bool:
        """Evaluate after each in-order merge (``target_ci`` mode only)."""
        if self.target_ci is None or accumulator.count < self.min_trials:
            return False
        return accumulator.ci95 <= self.target_ci


@dataclass(frozen=True)
class RunSpec:
    """What a run measures, the paper's triple: a quorum system
    (:func:`repro.systems.factory.build_system`'s name and size), its
    deterministic or ``randomized`` probing algorithm, and the registered
    coloring source ``distribution`` at ``p``.  Fields are canonical (one
    name per alias, ``size`` an ``int``, ``p`` a ``float``), so two specs
    of one run are equal; an engine checkpoint records them as JSON.
    """

    system: str
    size: int
    p: float
    randomized: bool = False
    distribution: str = "bernoulli"

    def __post_init__(self) -> None:
        if isinstance(self.size, bool) or not isinstance(self.size, numbers.Integral):
            raise ValueError(f"size must be an integer, got {self.size!r}")
        canonical = (
            canonical_system_name(self.system), int(self.size), float(self.p),
            bool(self.randomized), canonical_source_name(self.distribution),
        )
        for field, value in zip(fields(self), canonical):
            object.__setattr__(self, field.name, value)

    @property
    def name(self) -> str:
        """A short label of the run, e.g. ``tree(2) p=0.2``."""
        label = f"{self.system}({self.size}) p={self.p:g}" + " randomized" * self.randomized
        return label if self.distribution == "bernoulli" else f"{label} {self.distribution}"

    def build(self) -> tuple[ProbingAlgorithm, ColoringSource]:
        """A fresh ``(algorithm, source)`` pair: the one place a run's pair
        is built."""
        system = build_system(self.system, self.size)
        algorithm = (
            default_randomized_algorithm(system)
            if self.randomized
            else default_deterministic_algorithm(system)
        )
        return algorithm, build_source(self.distribution, system, self.p)


def check_run_settings(
    trials: int | None = None,
    target_ci: float | None = None,
    chunk_size: int | None = None,
    min_trials: int | None = None,
    max_trials: int | None = None,
    *,
    seed: int | None = None,
    jobs: int = 1,
    retries: int | None = None,
    chunk_timeout: float | None = None,
    run_timeout: float | None = None,
) -> RunSettings:
    """The one check of a run's arguments, raising ``ValueError`` naming
    the first bad one, and the resolved stopping rule and chunking.

    :func:`stream_probes` calls it per run, ``run_sweep`` once before any
    cell or file, the service's normalizers per request and
    ``ProbeService`` for its engine options.  Integer settings must be
    ints (a bool or a float is refused, never truncated) — ``retries`` and
    ``seed`` ≥ 0, the others ≥ 1 — ``target_ci`` and the timeouts positive
    finite numbers; ``trials`` excludes ``target_ci`` and ``min_trials``
    must not exceed ``max_trials``.  Unset values take the defaults
    (``trials`` 1000 in fixed mode, ``chunk_size``
    :data:`DEFAULT_CHUNK_TRIALS` or ``trials`` if fewer, ``max_trials``
    :data:`DEFAULT_MAX_TRIALS`, ``min_trials`` one chunk).
    """
    for name, value, minimum in (
        ("trials", trials, 1),
        ("chunk_size", chunk_size, 1),
        ("min_trials", min_trials, 1),
        ("max_trials", max_trials, 1),
        ("seed", seed, 0),
        ("jobs", jobs, 1),
        ("retries", retries, 0),
    ):
        if value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < minimum:
            raise ValueError(f"{name} must be at least {minimum}, got {value}")
    for name, value in (
        ("target_ci", target_ci),
        ("chunk_timeout", chunk_timeout),
        ("run_timeout", run_timeout),
    ):
        if value is not None and (
            isinstance(value, bool)
            or not isinstance(value, numbers.Real)
            or not 0 < value < math.inf
        ):
            raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    if target_ci is not None and trials is not None:
        raise ValueError(
            "trials and target_ci are mutually exclusive: pass either trials "
            "(fixed mode) or target_ci (adaptive mode), not both; use max_trials "
            "to cap an adaptive run"
        )
    if target_ci is None and trials is None:
        trials = 1000
    if chunk_size is None:
        chunk_size = DEFAULT_CHUNK_TRIALS if trials is None else min(
            trials, DEFAULT_CHUNK_TRIALS
        )
    if max_trials is None:
        max_trials = DEFAULT_MAX_TRIALS
    if min_trials is None:
        min_trials = min(chunk_size, max_trials)
    if min_trials > max_trials:
        raise ValueError(
            f"min_trials ({min_trials}) must not exceed max_trials ({max_trials})"
        )
    # Plain ints, so a numpy integer setting still serializes to JSON.
    return RunSettings(
        None if trials is None else int(trials),
        target_ci,
        int(chunk_size),
        int(min_trials),
        int(max_trials),
    )


class _Scheduler:
    """The one lease/merge loop, and the run state it merges into.

    :meth:`drive` keeps a window of leases in absolute chunk order (the
    transport sizes it) and merges only at its head, so statistics fold in
    sequential order whichever worker finishes when and however often a
    chunk is retried.  It charges every failure a transport reports to the
    :class:`ChunkLedger` and sleeps its backoff, checkpoints after every
    merge, honours ``stop_event``/``run_timeout``/``KeyboardInterrupt`` at
    chunk boundaries, and cancels its own speculative leases on every exit
    path.
    """

    def __init__(
        self,
        run: RunSettings,
        ledger: ChunkLedger,
        *,
        state,
        checkpoint_path: str | Path | None,
        checkpoint_config: dict,
        saved: bool,
        stop_event,
        run_timeout: float | None,
    ) -> None:
        self.run = run
        self.ledger = ledger
        self.accumulator = MomentAccumulator()
        self.chunks_merged = 0
        self.next_start = 0
        if state is not None:
            self.accumulator.load_state(state.count, state.witness_red, state.histogram)
            self.chunks_merged = state.chunks_merged
            self.next_start = state.next_start
        self._checkpoint_path = checkpoint_path
        self._checkpoint_config = checkpoint_config
        # Whether the checkpoint file already holds the state in memory, as
        # the file a run resumed from does until its next merge.
        self._saved = saved
        self._stop_event = stop_event
        self._run_timeout = run_timeout
        self._deadline_at = (
            None if run_timeout is None else time.monotonic() + run_timeout
        )

    def checkpoint(self) -> None:
        """Persist the run at the current chunk boundary, unless there is
        no checkpoint file or it already holds this state."""
        if self._checkpoint_path is None or self._saved:
            return
        from repro.core.checkpoint import EngineCheckpoint, save_engine_checkpoint

        save_engine_checkpoint(
            self._checkpoint_path,
            EngineCheckpoint(
                **self._checkpoint_config,
                count=self.accumulator.count,
                witness_red=self.accumulator.witness_red,
                histogram=tuple(self.accumulator.histogram.tolist()),
                chunks_merged=self.chunks_merged,
                next_start=self.next_start,
            ),
        )
        self._saved = True

    def drive(self, transport: Transport) -> None:
        # A resumed run may have stopped already: a finished schedule has no
        # chunk left, and an adaptive run may meet its tolerance at the
        # restored state (the interrupted run stopped at that very merge).
        if self.run.should_stop(self.accumulator):
            return
        schedule = self.run.chunk_starts(first=self.next_start)
        pending: list[Lease] = []
        exhausted = False
        window = transport.window()
        try:
            while True:
                while pending and pending[0].stats is not None:
                    if self._merge(pending.pop(0)):
                        return
                while not exhausted and len(pending) < window:
                    item = next(schedule, None)
                    if item is None:
                        exhausted = True
                        break
                    pending.append(Lease(*item))
                if not pending:
                    return
                for failure in transport.advance(pending):
                    for lease in failure.leases:
                        self.ledger.record_failure(lease.start, failure.error)
                    if failure.respawn:
                        transport.respawn(pending)
                    _sleep(self.ledger.backoff_seconds(failure.leases[0].start))
        except KeyboardInterrupt:
            # Leave a durable resume point before propagating the interrupt.
            self.checkpoint()
            raise
        finally:
            # Orphaned speculative chunks would otherwise keep running (or
            # hold queue slots on a shared pool) after this run is gone.
            for lease in pending:
                transport.cancel(lease)

    def _merge(self, lease: Lease) -> bool:
        """Fold the head lease; True when the stopping rule says stop."""
        self.accumulator.merge(lease.stats)
        self.chunks_merged += 1
        self.next_start = lease.start + lease.size
        self._saved = False
        fire_fault("merge", self.chunks_merged)
        self.checkpoint()
        if self.run.should_stop(self.accumulator):
            return True
        # Cooperative control lands exactly here — after the merge and its
        # checkpoint, so the durable file holds every finished chunk and
        # resume continues byte-identically from this boundary.
        if self._stop_event is not None and self._stop_event.is_set():
            self._halt(
                RunInterrupted,
                f"run stopped at trial {self.next_start} (stop_event set)",
                "no checkpoint_path, progress discarded",
            )
        if self._deadline_at is not None and time.monotonic() > self._deadline_at:
            self._halt(
                RunDeadlineExceeded,
                f"run exceeded run_timeout={self._run_timeout}s "
                f"at trial {self.next_start}",
            )
        return False

    def _halt(self, error_type: type, message: str, unsaved: str = "") -> None:
        """Raise ``error_type`` saying where the progress is."""
        if self._checkpoint_path is not None:
            message += f"; checkpoint durable at {self._checkpoint_path}"
        elif unsaved:
            message += f"; {unsaved}"
        raise error_type(message)


def _check_same_run(resume, state, spec: RunSpec, settings: dict) -> None:
    """Refuse to continue ``state`` unless the caller describes its run.

    ``settings`` holds the caller's stopping-mode and seed arguments; an
    unset one (``None``) takes the checkpoint's value.  Every field of
    ``spec`` must equal the checkpoint's ``run``.
    """
    recorded = {name: getattr(state, "entropy" if name == "seed" else name) for name in settings}
    recorded.update(asdict(state.run))
    differ = [
        f"{name}={value!r} (checkpoint: {recorded[name]!r})"
        for name, value in {**settings, **asdict(spec)}.items()
        if value is not None and value != recorded[name]
    ]
    if differ:
        from repro.core.checkpoint import CheckpointRefused

        where = "checkpoint" if resume is state else str(resume)
        raise CheckpointRefused(
            f"{where}: written by another run; these settings differ: "
            + ", ".join(differ)
        )


def stream_probes(
    algorithm: ProbingAlgorithm | RunSpec,
    source: ColoringSource | None = None,
    *,
    p: float | None = None,
    trials: int | None = None,
    target_ci: float | None = None,
    chunk_size: int | None = None,
    min_trials: int | None = None,
    max_trials: int | None = None,
    seed: int | None = None,
    jobs: int = 1,
    executor: ChunkPool | None = None,
    retries: int | None = None,
    chunk_timeout: float | None = None,
    checkpoint_path: str | Path | None = None,
    resume=None,
    backend: str | None = None,
    stop_event=None,
    run_timeout: float | None = None,
) -> StreamResult:
    """Run the streaming engine for one (algorithm, source) pair, or for the
    pair a :class:`RunSpec` passed in place of ``algorithm`` builds (then
    ``source`` and ``p`` stay unset).

    The kernel backend follows from the algorithm
    (:func:`repro.core.batched.resolve_backend`: packed when a packed
    kernel runs it, numpy otherwise) and is recorded on
    ``StreamResult.backend``.  A ``backend`` argument is validated but
    chooses nothing: an unknown name raises, and so does ``"bitpacked"``
    for an algorithm without a packed kernel (R_Probe_Maj, R_Probe_CW,
    the random-order Probe_CW and the generic algorithms).

    Exactly one of the stopping modes applies: with ``target_ci=None``
    (fixed mode) exactly ``trials`` trials run; with a ``target_ci``
    tolerance the engine adds chunks until the 95% CI half-width is at most
    the tolerance, evaluating the rule only after ``min_trials`` (default:
    one full chunk) and giving up at ``max_trials`` (default ``10^6``;
    ``reached_target`` reports which way it ended).  ``source`` defaults to
    the i.i.d. model at ``p``.  Every run argument goes through
    :func:`check_run_settings` before any chunk runs: a bool or float where
    an integer belongs, a negative seed or a non-finite ``target_ci``
    raises ``ValueError`` naming the field.

    Where chunks run is the transport, and every transport is
    byte-identical to ``jobs=1`` (see the module docstring for the seeding
    contract): inline by default; ``jobs > 1`` shards chunks over a
    :class:`ChunkPool` of that many processes; callers issuing many engine
    runs (e.g. the sweep grid) may pass a shared ``executor`` — a
    :class:`ChunkPool`, which the engine respawns after a worker crash but
    never shuts down — so worker processes are spawned once, not per run.

    Fault tolerance: each chunk has a retry budget of ``retries``
    (default :data:`DEFAULT_RETRIES`) with exponential backoff
    (:data:`DEFAULT_RETRY_BACKOFF` base seconds); worker deaths and chunks
    that miss ``chunk_timeout`` seconds respawn the pool and re-run only
    the lost chunks, byte-identically.  ``checkpoint_path`` persists the
    run state atomically after every merged chunk and on
    ``KeyboardInterrupt``; a call that merges no chunk (a finished run
    resumed) writes it once at its end, unless ``checkpoint_path`` is the
    file it resumed from.  ``resume`` (a checkpoint path or loaded
    :class:`~repro.core.checkpoint.EngineCheckpoint`) continues such a run
    from its last durable chunk boundary; a finished run resumes with no
    chunk to run and returns its statistics.  Only a run described by a
    :class:`RunSpec` checkpoints or resumes; a hand-built pair with either
    argument raises ``ValueError``.  The arguments still describe the run:
    an unset stopping-mode or seed argument takes the checkpoint's value, a
    set one must equal it, and so must every field of the spec.  A
    checkpoint of an older draw stream or schema, or of another run, raises
    :class:`~repro.core.checkpoint.CheckpointRefused` (a ``ValueError``)
    naming it and every setting that differs.

    Cooperative control: ``stop_event`` (a ``threading.Event``-alike) is
    polled after every merged chunk and its checkpoint — once set, the run
    raises :class:`RunInterrupted`;
    ``run_timeout`` bounds this call's wall-clock seconds the same way,
    raising :class:`RunDeadlineExceeded`.  Both land on a chunk boundary,
    so the interrupted run is exactly as resumable as a ``KeyboardInterrupt``.
    """
    spec = algorithm if isinstance(algorithm, RunSpec) else None
    if spec is not None:
        if source is not None or p is not None:
            raise ValueError("a RunSpec names its own source and p; pass neither")
        algorithm, source = spec.build()
    elif checkpoint_path is not None or resume is not None:
        raise ValueError("a hand-built pair neither checkpoints nor resumes; pass a RunSpec")
    elif source is None:
        if p is None:
            raise ValueError("pass a failure probability p or a ColoringSource")
        source = BernoulliSource(algorithm.system.n, p)
    if source.n != algorithm.system.n:
        raise ValueError(
            f"source draws over n={source.n}, "
            f"algorithm runs on n={algorithm.system.n}"
        )
    settings = dict(
        trials=trials,
        target_ci=target_ci,
        chunk_size=chunk_size,
        min_trials=min_trials,
        max_trials=max_trials,
        seed=seed,
    )
    state = None
    if resume is not None:
        from repro.core.checkpoint import EngineCheckpoint, load_engine_checkpoint

        state = (
            resume
            if isinstance(resume, EngineCheckpoint)
            else load_engine_checkpoint(resume)
        )
        _check_same_run(resume, state, spec, settings)
        settings = {
            name: getattr(state, "entropy" if name == "seed" else name)
            if value is None
            else value
            for name, value in settings.items()
        }
    run = check_run_settings(
        **settings,
        jobs=jobs,
        retries=retries,
        chunk_timeout=chunk_timeout,
        run_timeout=run_timeout,
    )
    if executor is not None and not isinstance(executor, ChunkPool):
        raise TypeError(
            f"executor must be a repro.core.engine.ChunkPool, not "
            f"{type(executor).__name__}; a ChunkPool can be respawned after "
            "a worker crash, a raw executor cannot"
        )
    from repro.core.batched import resolve_backend

    backend = resolve_backend(algorithm, backend)
    if state is not None:
        seed = state.entropy
    elif seed is None:
        # The checked seed is used verbatim: PCG64(seed) must match the
        # one-shot path's default_rng(seed); unseeded runs draw OS entropy.
        seed = int(np.random.SeedSequence().generate_state(1, np.uint64)[0])
    task = ChunkTask(algorithm, source, int(seed))
    scheduler = _Scheduler(
        run,
        ChunkLedger(DEFAULT_RETRIES if retries is None else retries),
        state=state,
        checkpoint_path=checkpoint_path,
        checkpoint_config=dict(entropy=task.entropy, **asdict(run), run=spec),
        # A run resumed into the file it read from finds that file current.
        saved=(
            state is not resume
            and checkpoint_path is not None
            and Path(resume).resolve() == Path(checkpoint_path).resolve()
        ),
        stop_event=stop_event,
        run_timeout=run_timeout,
    )

    start_time = time.perf_counter()
    owned = ChunkPool(jobs) if jobs > 1 and executor is None else None
    if executor is not None or owned is not None:
        transport = _PoolTransport(executor or owned, task, chunk_timeout)
    else:
        transport = _InlineTransport(task)
    try:
        scheduler.drive(transport)
    finally:
        if owned is not None:
            owned.shutdown(wait=False)
    # Every merge wrote the checkpoint; a call that merged no chunk writes
    # it here, unless the file is the one it resumed from.
    scheduler.checkpoint()
    seconds = time.perf_counter() - start_time
    accumulator = scheduler.accumulator
    result = StreamResult(
        algorithm=algorithm.name,
        source=source.name,
        mode="fixed" if run.target_ci is None else "target_ci",
        mean=accumulator.mean,
        std=accumulator.std,
        n_trials_used=accumulator.count,
        chunk_size=run.chunk_size,
        chunks=scheduler.chunks_merged,
        witness_red=accumulator.witness_red,
        histogram=tuple(accumulator.histogram.tolist()),
        target_ci=run.target_ci,
        reached_target=None if run.target_ci is None else accumulator.ci95 <= run.target_ci,
        seconds=seconds,
        retries_used=scheduler.ledger.failures,
        pool_respawns=transport.respawns,
        backend=backend,
    )
    for totals in _RECOVERY_COLLECTORS.stack:
        for key in RECOVERY_KEYS:
            totals[key] += getattr(result, key)
    return result

