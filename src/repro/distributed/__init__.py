"""Networked chunk-lease execution: coordinator/worker protocol over TCP.

The distributed backend generalizes ``jobs=N`` across machines while
keeping the engine's determinism contract: a distributed run is
byte-identical to ``jobs=1`` under worker crashes, hangs, partitions and
corrupt frames.  See the README's "Distributed workers" section for the
wire format and failure matrix.
"""

from repro.distributed.coordinator import (
    DEFAULT_LEASE_TIMEOUT,
    AllWorkersLostError,
    Coordinator,
    DistributedError,
    WorkerChunkError,
)
from repro.distributed.protocol import PROTOCOL_VERSION, FrameError, parse_hostport
from repro.distributed.worker import (
    DEFAULT_HEARTBEAT_INTERVAL,
    DEFAULT_RECONNECT_FOR,
    run_worker,
    shutdown_workers,
    spawn_local_workers,
)

__all__ = [
    "AllWorkersLostError",
    "Coordinator",
    "DEFAULT_HEARTBEAT_INTERVAL",
    "DEFAULT_LEASE_TIMEOUT",
    "DEFAULT_RECONNECT_FOR",
    "DistributedError",
    "FrameError",
    "PROTOCOL_VERSION",
    "WorkerChunkError",
    "parse_hostport",
    "run_worker",
    "shutdown_workers",
    "spawn_local_workers",
]
