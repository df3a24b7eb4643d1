"""Signal trapping: SIGTERM/SIGINT invoke a callback."""

from __future__ import annotations

import os
import signal
import threading

import pytest

from repro.signals import STOP_SIGNALS, trap_to_callback


def test_stop_signals_cover_term_and_int():
    assert signal.SIGTERM in STOP_SIGNALS
    assert signal.SIGINT in STOP_SIGNALS


def test_previous_handler_restored_after_trap():
    previous = signal.getsignal(signal.SIGTERM)
    with trap_to_callback(lambda signum: None):
        assert signal.getsignal(signal.SIGTERM) is not previous
    assert signal.getsignal(signal.SIGTERM) is previous


def test_first_signal_invokes_callback_second_interrupts():
    received = []
    with trap_to_callback(received.append):
        os.kill(os.getpid(), signal.SIGTERM)
        assert received == [signal.SIGTERM]
        with pytest.raises(KeyboardInterrupt):
            os.kill(os.getpid(), signal.SIGTERM)
    assert received == [signal.SIGTERM]


@pytest.mark.parametrize("signum", STOP_SIGNALS, ids=lambda s: signal.Signals(s).name)
def test_each_stop_signal_reaches_the_callback_and_is_restored(signum):
    previous = signal.getsignal(signum)
    received = []
    with trap_to_callback(received.append):
        os.kill(os.getpid(), signum)
        assert received == [signum]
    assert signal.getsignal(signum) is previous


def test_traps_are_no_ops_off_the_main_thread():
    outcome = {}

    def worker():
        with trap_to_callback(lambda signum: None):
            outcome["handler"] = signal.getsignal(signal.SIGTERM)

    before = signal.getsignal(signal.SIGTERM)
    thread = threading.Thread(target=worker)
    thread.start()
    thread.join()
    assert outcome["handler"] is before  # unchanged: not the main thread
