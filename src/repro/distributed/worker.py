"""Networked chunk-lease worker.

A worker dials the coordinator (``repro-probe worker --connect
HOST:PORT``), then serves leases until the coordinator says ``shutdown``
or disappears: for every ``lease`` frame it runs the exact same
:meth:`repro.core.engine.ChunkTask.run` the inline and process-pool
transports run — same ``(seed, start)``-keyed streams, same histogram
reduction — so a chunk's bytes do not depend on which machine computed it.
While a chunk computes, a daemon thread heartbeats the lease so the
coordinator can tell "slow" from "dead".

Failure behavior mirrors the fault model the reproduction studies:

* a kernel exception is reported as an ``error`` frame (the coordinator
  charges the chunk's retry budget and re-leases it);
* a lost/corrupt connection triggers reconnection with a bounded window
  (``reconnect_for`` seconds of failed attempts before giving up), and the
  worker keeps its deserialized pair cache
  (:func:`repro.core.engine.cached_pair`) across reconnects;
* fault injection (:mod:`repro.testing.faults`) reaches every interesting
  point: ``"chunk"`` faults fire inside the kernel (``kill`` = worker
  crash), ``"worker-heartbeat"`` delays suppress heartbeats (partition/
  hang), ``"worker-send"`` drops the connection or corrupts the result
  frame.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.core.engine import ChunkTask, cached_pair
from repro.distributed import protocol
from repro.testing.faults import take_fault

#: Default seconds between lease heartbeats while a chunk computes.
DEFAULT_HEARTBEAT_INTERVAL = 1.0

#: Default window of failed (re)connection attempts before the worker
#: gives up, in seconds.  Reset after every successful connect.
DEFAULT_RECONNECT_FOR = 10.0


def default_worker_name() -> str:
    return f"{socket.gethostname()}:{os.getpid()}"


def run_worker(
    address: tuple[str, int] | str,
    *,
    heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
    reconnect_for: float = DEFAULT_RECONNECT_FOR,
    connect_timeout: float = 5.0,
    name: str | None = None,
) -> int:
    """Serve chunk leases to the coordinator at ``address``; returns an exit code.

    0 — served until a clean shutdown (a ``shutdown`` frame or the
    coordinator closing the connection at a frame boundary), or the
    reconnect window ran out after having served;
    1 — never managed to connect at all.
    """
    if isinstance(address, str):
        address = protocol.parse_hostport(address)
    if heartbeat_interval <= 0:
        raise ValueError("heartbeat_interval must be positive")
    name = name or default_worker_name()
    from repro.signals import trap_as_keyboard_interrupt

    with trap_as_keyboard_interrupt():
        return _run_worker_loop(
            address, heartbeat_interval, reconnect_for, connect_timeout, name
        )


def _run_worker_loop(
    address: tuple[str, int],
    heartbeat_interval: float,
    reconnect_for: float,
    connect_timeout: float,
    name: str,
) -> int:
    """The dial/serve/reconnect loop of :func:`run_worker`.

    Runs under a SIGTERM/SIGINT trap: a supervisor's stop request raises
    ``KeyboardInterrupt`` out of whatever blocking call is active, the
    ``finally`` below closes the socket cleanly (the coordinator sees EOF
    at a frame boundary, not a silent lease-expiry timeout), and the
    worker exits 0 like a served-to-completion run.
    """
    connected_once = False
    window_end = time.monotonic() + max(0.0, reconnect_for)
    while True:
        try:
            sock = socket.create_connection(address, timeout=connect_timeout)
        except OSError:
            if time.monotonic() >= window_end:
                return 0 if connected_once else 1
            time.sleep(0.1)
            continue
        try:
            sock.settimeout(None)
            protocol.send_message(sock, protocol.hello_message(name))
            welcome = protocol.recv_message(sock)
            if welcome is None or welcome.get("type") != "welcome":
                raise protocol.FrameError(
                    f"coordinator at {address[0]}:{address[1]} did not welcome us"
                )
            connected_once = True
            # A successful connect restores the full reconnect budget.
            window_end = time.monotonic() + max(0.0, reconnect_for)
            _serve(sock, heartbeat_interval)
            return 0
        except KeyboardInterrupt:
            return 0
        except (OSError, protocol.FrameError):
            if time.monotonic() >= window_end:
                return 0 if connected_once else 1
            time.sleep(0.1)
        finally:
            try:
                sock.close()
            except OSError:  # pragma: no cover - close() on a dead socket
                pass


def _serve(sock: socket.socket, interval: float) -> None:
    """One connection's serve loop; returns on shutdown or clean EOF."""
    send_lock = threading.Lock()
    while True:
        message = protocol.recv_message(sock)
        if message is None or message["type"] == "shutdown":
            return
        kind = message["type"]
        if kind == "pair":
            cached_pair(message["token"], protocol.pair_blob(message))
        elif kind == "lease":
            _serve_lease(sock, send_lock, message, interval)
        # Unknown frame types are ignored: a newer coordinator may add
        # advisory messages without breaking older workers.


def _serve_lease(
    sock: socket.socket,
    send_lock: threading.Lock,
    message: dict,
    interval: float,
) -> None:
    run = int(message["run"])
    start = int(message["start"])
    size = int(message["size"])
    pair = cached_pair(message["token"])
    if pair is None:
        # Protocol breach (the coordinator sends the pair before its first
        # lease); report instead of guessing.
        with send_lock:
            protocol.send_message(
                sock,
                protocol.error_message(
                    run, start, f"unknown pair token {message['token']!r}"
                ),
            )
        return
    task = ChunkTask(*pair, entropy=int(message["entropy"]))
    stop = threading.Event()
    beat = threading.Thread(
        target=_heartbeat_loop,
        args=(sock, send_lock, run, start, interval, stop),
        daemon=True,
    )
    beat.start()
    try:
        # The same chunk evaluation every backend runs — including its
        # "chunk"-site faults, so an injected kill dies here like SIGKILL.
        stats = task.run(start, size)
    except Exception as error:
        stop.set()
        beat.join()
        with send_lock:
            protocol.send_message(
                sock,
                protocol.error_message(run, start, f"{type(error).__name__}: {error}"),
            )
        return
    finally:
        stop.set()
    beat.join()
    fault = take_fault("worker-send", start)
    if fault is not None and fault.action == "drop":
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        raise ConnectionResetError(
            f"injected drop-connection fault before sending chunk {start}"
        )
    result = protocol.result_message(
        run,
        start,
        int(stats.trials),
        [int(count) for count in stats.histogram],
        int(stats.witness_red),
    )
    with send_lock:
        if fault is not None and fault.action == "corrupt":
            protocol.send_corrupt_message(sock, result)
        else:
            protocol.send_message(sock, result)


def _heartbeat_loop(
    sock: socket.socket,
    send_lock: threading.Lock,
    run: int,
    start: int,
    interval: float,
    stop: threading.Event,
) -> None:
    while not stop.wait(interval):
        fault = take_fault("worker-heartbeat", start, actions=("delay",))
        if fault is not None and stop.wait(fault.seconds):
            return  # beats suppressed for the fault window; chunk finished
        try:
            with send_lock:
                protocol.send_message(sock, protocol.heartbeat_message(run, start))
        except OSError:
            return


# -- loopback helpers (CLI --spawn-workers, tests, CI) ----------------------------


def spawn_local_workers(
    count: int,
    address: tuple[str, int],
    *,
    heartbeat_interval: float | None = None,
    reconnect_for: float | None = None,
) -> list[subprocess.Popen]:
    """Spawn ``count`` loopback worker processes dialing ``address``.

    The workers inherit the environment — including an active
    ``REPRO_FAULTS`` plan, so injected worker faults fire inside real
    processes — with ``PYTHONPATH`` extended so the spawned interpreter
    finds this package even when it is not installed.
    """
    if count < 1:
        raise ValueError("need at least one worker to spawn")
    package_root = Path(__file__).resolve().parent.parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(package_root), env.get("PYTHONPATH", "")])
    )
    command = [
        sys.executable,
        "-m",
        "repro.cli",
        "worker",
        "--connect",
        f"{address[0]}:{address[1]}",
    ]
    if heartbeat_interval is not None:
        command += ["--heartbeat-interval", repr(float(heartbeat_interval))]
    if reconnect_for is not None:
        command += ["--reconnect-for", repr(float(reconnect_for))]
    return [subprocess.Popen(command, env=env) for _ in range(count)]


def shutdown_workers(processes: list[subprocess.Popen], timeout: float = 10.0) -> None:
    """Reap spawned workers: wait briefly for a clean exit, then terminate."""
    deadline = time.monotonic() + timeout
    for process in processes:
        try:
            process.wait(timeout=max(0.1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            process.terminate()
            try:
                process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - last resort
                process.kill()
                process.wait()
