"""Graceful SIGTERM/SIGINT handling for the long-lived processes.

Supervisors (systemd, Kubernetes, a shell ``timeout``) stop a process with
SIGTERM and expect it to wind down: deregister, close sockets, flush
state.  Python's default reaction to SIGTERM is immediate termination with
no cleanup — ``finally`` blocks don't run and daemons leave jobs marked
running.  :func:`trap_to_callback` turns those signals into something the
process can unwind: SIGTERM/SIGINT invoke a callback instead of killing
the process; the first signal triggers it, a second one falls back to
``KeyboardInterrupt`` so a wedged drain can still be escaped.  The
estimation service uses it, because its drain (stop intake, checkpoint
in-flight jobs, exit) is event-driven rather than exception-driven.

It is a no-op off the main thread (``signal.signal`` is main-thread only)
and restores the previous handlers on exit, so nesting and test suites
stay safe.
"""

from __future__ import annotations

import signal
import threading
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager

#: The signals supervisors use to stop a service.
STOP_SIGNALS = (signal.SIGTERM, signal.SIGINT)


def _on_main_thread() -> bool:
    return threading.current_thread() is threading.main_thread()


@contextmanager
def trap_to_callback(
    callback: Callable[[int], None],
    signals: Sequence[signal.Signals] = STOP_SIGNALS,
) -> Iterator[None]:
    """Invoke ``callback(signum)`` on the first stop signal in the block.

    The callback runs in the main thread's signal context, so it must be
    quick and reentrancy-safe — typically it just sets events (the
    service's drain flag).  A *second* signal raises
    ``KeyboardInterrupt``: if the graceful path wedges, the operator's
    repeated Ctrl-C still gets out.  Previous handlers are restored on
    exit; no-op off the main thread.
    """
    if not _on_main_thread():
        yield
        return
    fired = False

    def handler(signum, frame):
        nonlocal fired
        if fired:
            raise KeyboardInterrupt(f"second stop signal {signum}")
        fired = True
        callback(signum)

    previous = {}
    for signum in signals:
        previous[signum] = signal.signal(signum, handler)
    try:
        yield
    finally:
        for signum, handler_ in previous.items():
            signal.signal(signum, handler_)
