"""Coordinator side of the networked chunk-lease protocol.

A :class:`Coordinator` listens for workers (they dial in with
``repro-probe worker --connect HOST:PORT``) and hands the streaming engine
a :class:`~repro.core.engine.Transport` over them — the third one beside
inline and :class:`~repro.core.engine.ChunkPool`.  The engine's one
scheduler keeps the lease window, merge order, ``ChunkLedger``
retry/backoff, stopping rules and checkpoints, so a distributed run is
byte-identical to ``jobs=1``.

Concurrency model: one daemon accept thread per listening socket and one
daemon reader thread per worker push events (``connect``/``disconnect``/
``result``/``error``/``heartbeat``) onto a queue; the engine's scheduler
— the caller's thread, inside :func:`repro.core.engine.stream_probes` — is
the only consumer and the only place leases are granted, expired, merged
or retried.  All determinism-relevant state is therefore single-threaded.

Failure handling, per lease:

* worker ``error`` frame — charge that chunk's retry budget, re-lease it;
* worker disconnect (EOF, reset, corrupt frame) — charge and re-lease
  every chunk that worker held;
* missed heartbeats (``lease_timeout`` with no beat) — the worker is hung
  or partitioned: drop its connection and re-lease its chunks (if it was
  merely partitioned it reconnects as a fresh worker);
* all workers gone — compute chunks locally in-process
  (``local_fallback``, the default) so the run degrades down to
  ``jobs=1`` behavior instead of dying; with the fallback disabled, raise
  :class:`AllWorkersLostError`.

Late or duplicated results are harmless: results are keyed by the run id
and the chunk's absolute start trial, chunks are deterministic in
``(seed, start)``, and a result for an unknown or already-completed lease
is discarded.
"""

from __future__ import annotations

import itertools
import queue
import socket
import threading
import time

import numpy as np

from repro.core.engine import ChunkStats, ChunkTask, Lease, LeaseFailure, Transport
from repro.distributed import protocol


class DistributedError(RuntimeError):
    """Base class of coordinator-side distributed-execution failures."""


class AllWorkersLostError(DistributedError):
    """Every worker is gone and the local fallback is disabled."""


class WorkerChunkError(DistributedError):
    """A worker's kernel raised while computing a leased chunk."""


class WorkerLink:
    """One connected worker: socket, reader thread, per-connection state."""

    def __init__(
        self,
        sock: socket.socket,
        name: str,
        ident: int,
        coordinator: "Coordinator",
    ) -> None:
        self._sock = sock
        self.name = name
        self.ident = ident
        self._coordinator = coordinator
        self._send_lock = threading.Lock()
        #: Pair tokens already shipped over this connection.
        self.tokens: set[str] = set()
        self._reader = threading.Thread(
            target=self._read_loop, name=f"repro-worker-link-{ident}", daemon=True
        )

    def start_reader(self) -> None:
        self._reader.start()

    def _read_loop(self) -> None:
        while True:
            try:
                message = protocol.recv_message(self._sock)
            except (OSError, protocol.FrameError) as error:
                self._coordinator._reader_lost(self, error)
                return
            if message is None:
                self._coordinator._reader_lost(
                    self, ConnectionError(f"worker {self.name} closed its connection")
                )
                return
            self._coordinator._events.put((message["type"], self, message))

    def send(self, message: dict) -> bool:
        """Send one frame; on failure close the link (the reader then
        reports the disconnect) and return False."""
        try:
            with self._send_lock:
                protocol.send_message(self._sock, message)
            return True
        except OSError:
            self.close()
            return False

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - double close
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<WorkerLink {self.ident} {self.name}>"


#: Default seconds a lease may go without a heartbeat before its worker is
#: declared hung/partitioned and the chunk is reassigned.
DEFAULT_LEASE_TIMEOUT = 10.0


class Coordinator:
    """Accept workers and own the connection state shared across runs.

    Like :class:`~repro.core.engine.ChunkPool`, one coordinator is meant to
    outlive many engine runs (a sweep reuses it for every cell); run ids
    keep late results of finished runs from leaking into the next one.
    ``bind`` is one ``(host, port)`` pair, a ``"HOST:PORT"`` string, or a
    list of either (one listening socket per address; port 0 binds an
    ephemeral port — read the chosen one back from :attr:`addresses`).
    """

    def __init__(
        self,
        bind=None,
        *,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        local_fallback: bool = True,
    ) -> None:
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive")
        self.lease_timeout = lease_timeout
        self.local_fallback = local_fallback
        #: Leases revoked and reassigned because their worker died, hung or
        #: partitioned (cumulative across runs; the engine diffs it per run).
        self.reassignments = 0
        self._events: "queue.Queue[tuple]" = queue.Queue()
        self._lock = threading.Lock()
        self._workers: dict[int, WorkerLink] = {}
        self._idents = itertools.count(1)
        self._runs = itertools.count(1)
        self._closed = False
        binds = bind if isinstance(bind, list) else [bind or ("127.0.0.1", 0)]
        self._listeners: list[socket.socket] = []
        try:
            for entry in binds:
                address = (
                    protocol.parse_hostport(entry) if isinstance(entry, str) else entry
                )
                listener = socket.create_server(address, backlog=16)
                # A blocking accept() would pin the kernel-side socket (and
                # its port) past close(); wake periodically so the accept
                # thread exits and the port is actually released.
                listener.settimeout(0.25)
                self._listeners.append(listener)
        except BaseException:
            self.close()
            raise
        #: The actually-bound ``(host, port)`` addresses (ports resolved).
        self.addresses = [sock.getsockname()[:2] for sock in self._listeners]
        self._accepters = [
            threading.Thread(
                target=self._accept_loop,
                args=(listener,),
                name="repro-coordinator-accept",
                daemon=True,
            )
            for listener in self._listeners
        ]
        for thread in self._accepters:
            thread.start()

    # -- worker membership (thread-safe) ------------------------------------------

    @property
    def worker_count(self) -> int:
        with self._lock:
            return len(self._workers)

    def live_workers(self) -> list[WorkerLink]:
        with self._lock:
            return list(self._workers.values())

    def wait_for_workers(self, count: int, timeout: float = 60.0) -> None:
        """Block until ``count`` workers are connected.

        Raises ``TimeoutError`` naming the shortfall — starting a
        distributed run with fewer workers than expected should be a
        decision, not an accident.
        """
        deadline = time.monotonic() + timeout
        while self.worker_count < count:
            if self._closed:
                raise DistributedError("coordinator is closed")
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"waited {timeout:g}s for {count} worker(s); "
                    f"only {self.worker_count} connected"
                )
            time.sleep(0.05)

    def _accept_loop(self, listener: socket.socket) -> None:
        while not self._closed:
            try:
                sock, _ = listener.accept()
            except TimeoutError:
                continue  # periodic wake-up to observe close()
            except OSError:
                return  # listener closed
            try:
                sock.settimeout(5.0)
                hello = protocol.recv_message(sock)
                if (
                    hello is None
                    or hello.get("type") != "hello"
                    or hello.get("protocol") != protocol.PROTOCOL_VERSION
                ):
                    raise protocol.FrameError("bad handshake")
                protocol.send_message(sock, protocol.welcome_message())
                sock.settimeout(None)
            except (OSError, protocol.FrameError):
                try:
                    sock.close()
                except OSError:  # pragma: no cover
                    pass
                continue
            link = WorkerLink(
                sock, str(hello.get("worker", "?")), next(self._idents), self
            )
            with self._lock:
                if self._closed:
                    link.close()
                    return
                self._workers[link.ident] = link
            self._events.put(("connect", link, None))
            link.start_reader()

    def _reader_lost(self, link: WorkerLink, error: BaseException) -> None:
        self._discard(link)
        self._events.put(("disconnect", link, error))

    def _discard(self, link: WorkerLink) -> None:
        with self._lock:
            self._workers.pop(link.ident, None)
        link.close()

    def transport(self, task: ChunkTask, fallback: Transport) -> Transport:
        """The engine's transport for one run over this coordinator's
        workers; ``fallback`` computes the head chunk when none is live."""
        return _CoordinatorTransport(self, task, fallback)

    def close(self) -> None:
        """Shut down: tell workers to exit, close every socket."""
        self._closed = True
        for listener in getattr(self, "_listeners", ()):
            try:
                listener.close()
            except OSError:  # pragma: no cover
                pass
        for link in self.live_workers():
            link.send(protocol.shutdown_message())
            self._discard(link)

    def __enter__(self) -> "Coordinator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _stats_from_result(payload: dict) -> ChunkStats:
    """Validate a ``result`` frame into :class:`~repro.core.engine.ChunkStats`."""
    try:
        trials = int(payload["trials"])
        witness_red = int(payload["witness_red"])
        histogram = np.asarray(
            [int(count) for count in payload["histogram"]], dtype=np.int64
        )
    except (KeyError, TypeError, ValueError) as error:
        raise ValueError(f"malformed chunk result: {error}") from None
    if (
        trials < 1
        or not 0 <= witness_red <= trials
        or histogram.size == 0
        or bool((histogram < 0).any())
        or int(histogram.sum()) != trials
    ):
        raise ValueError(
            f"inconsistent chunk result for trial {payload.get('start')}: "
            f"trials={trials}, witness_red={witness_red}, "
            f"histogram sum={int(histogram.sum()) if histogram.size else 0}"
        )
    return ChunkStats(trials=trials, histogram=histogram, witness_red=witness_red)


class _CoordinatorTransport(Transport):
    """One engine run's leases over the coordinator's workers.

    The window is 2 × live workers + 2.  Unleased chunks go to the
    least-loaded live worker; a lease's ``handle`` is its
    :class:`WorkerLink` and its ``deadline`` the heartbeat expiry.  With
    no live worker the ``fallback`` transport computes the head chunk in
    process.
    """

    def __init__(self, coordinator: Coordinator, task: ChunkTask, fallback: Transport) -> None:
        self._coordinator = coordinator
        self._task = task
        self._fallback = fallback
        self._run = next(coordinator._runs)
        self._workers: list[WorkerLink] = []

    def window(self) -> int:
        # The scheduler asks once per step, right before ``advance``; that
        # step then assigns to the same workers the window was sized for.
        self._workers = self._coordinator.live_workers()
        return 2 * max(1, len(self._workers)) + 2

    def advance(self, pending: list[Lease]) -> list[LeaseFailure]:
        if self._workers:
            self._assign(pending)
        elif pending[0].handle is None:
            # Every worker is gone and the head chunk is unowned: degrade
            # to in-process execution (or fail loudly when asked to).
            if not self._coordinator.local_fallback:
                raise AllWorkersLostError(
                    "all distributed workers are gone and the local fallback "
                    f"is disabled; {self._coordinator.reassignments} lease(s) "
                    "were reassigned before the pool emptied"
                )
            return self._fallback.advance(pending)
        # Wait for the next protocol event, bounded by the nearest lease
        # deadline so expiries are noticed promptly.
        now = time.monotonic()
        nearest = min(
            (lease.deadline - now for lease in pending if lease.deadline is not None),
            default=0.25,
        )
        failures = []
        try:
            kind, link, payload = self._coordinator._events.get(
                timeout=min(0.25, max(0.02, nearest))
            )
        except queue.Empty:
            pass
        else:
            failures += self._on_event(kind, link, payload, pending)
        # Expire leases whose worker missed its heartbeats: hung or
        # partitioned — only dropping the connection reclaims the chunk.
        now = time.monotonic()
        for lease in pending:
            if lease.handle is not None and now > lease.deadline:
                failures += self._drop(
                    lease.handle,
                    TimeoutError(
                        f"lease for chunk at trial {lease.start} missed "
                        f"heartbeats for {self._coordinator.lease_timeout:g}s"
                    ),
                    pending,
                )
        return failures

    def _assign(self, pending: list[Lease]) -> None:
        load = {link.ident: 0 for link in self._workers}
        by_ident = {link.ident: link for link in self._workers}
        for lease in pending:
            if lease.handle is not None and lease.handle.ident in load:
                load[lease.handle.ident] += 1
        for lease in pending:
            if lease.stats is not None or lease.handle is not None:
                continue
            ident = min(load, key=lambda i: (load[i], i))
            if not self._send_lease(by_ident[ident], lease):
                break  # link just died; its disconnect event is queued
            load[ident] += 1

    def _send_lease(self, link: WorkerLink, lease: Lease) -> bool:
        """Grant ``lease`` to ``link`` (shipping the pair first if new)."""
        blob, token = self._task.payload
        if token not in link.tokens:
            if not link.send(protocol.pair_message(token, blob)):
                return False
            link.tokens.add(token)
        if not link.send(
            protocol.lease_message(
                self._run, token, self._task.entropy, lease.start, lease.size
            )
        ):
            return False
        lease.handle = link
        lease.deadline = time.monotonic() + self._coordinator.lease_timeout
        return True

    def _on_event(self, kind: str, link: WorkerLink, payload, pending) -> list[LeaseFailure]:
        if kind == "disconnect":
            return self._drop(link, payload, pending)
        if kind not in ("result", "error", "heartbeat") or payload.get("run") != self._run:
            return []  # "connect" needs nothing: the next step assigns
        lease = next((lease for lease in pending if lease.start == payload.get("start")), None)
        if lease is None or lease.stats is not None:
            return []
        if kind == "heartbeat":
            if lease.handle is link:
                lease.deadline = time.monotonic() + self._coordinator.lease_timeout
            return []
        if kind == "error":
            lease.handle = lease.deadline = None
            error = WorkerChunkError(
                f"worker {link.name} failed chunk at trial {lease.start}: "
                f"{payload.get('error', 'unknown error')}"
            )
            return [LeaseFailure(error, (lease,))]
        try:
            lease.stats = _stats_from_result(payload)
        except ValueError as error:
            return self._drop(link, DistributedError(str(error)), pending)
        lease.handle = lease.deadline = None
        return []

    def _drop(self, link: WorkerLink, error: BaseException, pending) -> list[LeaseFailure]:
        """Disconnect ``link`` and fail every lease it held."""
        self._coordinator._discard(link)
        lost = tuple(lease for lease in pending if lease.handle is link)
        for lease in lost:
            lease.handle = lease.deadline = None
        self.reassignments += len(lost)
        self._coordinator.reassignments += len(lost)
        return [LeaseFailure(error, lost)] if lost else []
