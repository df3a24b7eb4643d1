"""Randomized fault-plan soak: recovery is byte-exact under *any* plan.

The targeted fault tests pin one failure shape each; this suite draws
small fault plans at random (seeded, so failures reproduce) and asserts
the one invariant that must hold for every plan, stopping mode and
backend: the recovered run's statistics are byte-identical to a clean
run's.  Each backend draws from the fault pool it can actually survive —
``kill`` needs a respawnable process (the pool backend), never the
caller's own process.
"""

from __future__ import annotations

import random

import pytest

from repro.algorithms import ProbeTree
from repro.core import engine
from repro.core.engine import stream_probes
from repro.systems import build_system
from repro.testing import faults
from repro.testing.faults import Fault


@pytest.fixture(autouse=True)
def _fast_backoff(monkeypatch):
    monkeypatch.setattr(engine, "_sleep", lambda seconds: None)


MODES = {
    "fixed": dict(trials=64, chunk_size=16),
    "adaptive": dict(target_ci=0.2, chunk_size=32, max_trials=4096),
}

#: (site, action, seconds) pools per backend.  Delays are short — the
#: soak exercises ordering and retry paths, not wall-clock behavior.
_COMMON = [
    ("chunk", "raise", 0.0),
    ("chunk", "delay", 0.05),
]
_POOLS = {
    "sequential": _COMMON,
    "pool": _COMMON + [("chunk", "kill", 0.0)],
}


def _algorithm():
    return ProbeTree(build_system("tree", 2))


def _run(mode: str, **kwargs):
    return stream_probes(
        _algorithm(), p=0.2, seed=7, retries=5, **MODES[mode], **kwargs
    )


def _random_plan(backend: str, mode: str, seed: int) -> list[Fault]:
    rng = random.Random(seed)
    chunk = MODES[mode]["chunk_size"]
    starts = [index * chunk for index in range(4)]
    plan = []
    for _ in range(rng.randint(1, 2)):
        site, action, seconds = rng.choice(_POOLS[backend])
        plan.append(Fault(site, rng.choice(starts), action, seconds=seconds))
    return plan


def _same_statistics(a, b) -> bool:
    return (
        a.mean == b.mean
        and a.std == b.std
        and a.histogram == b.histogram
        and a.witness_red == b.witness_red
        and a.n_trials_used == b.n_trials_used
        and a.chunks == b.chunks
    )


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("seed", [0, 1, 2])
class TestSoak:
    def test_sequential(self, mode, seed, tmp_path):
        clean = _run(mode)
        plan = _random_plan("sequential", mode, seed)
        with faults.active_plan(plan, tmp_path):
            faulted = _run(mode)
        assert _same_statistics(faulted, clean), f"plan {plan} broke identity"

    def test_process_pool(self, mode, seed, tmp_path):
        clean = _run(mode)
        plan = _random_plan("pool", mode, seed)
        with faults.active_plan(plan, tmp_path):
            faulted = _run(mode, jobs=2)
        assert _same_statistics(faulted, clean), f"plan {plan} broke identity"
