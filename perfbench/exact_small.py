"""exact-small: the exact solvers (``core.exact``) on small systems.

One unit is a round of six calls, each with a fresh ``ExactSolver`` and
timed on its own: on CW(1,2,3,3,3) (n = 12) and Maj(11), the trit-table
route's ``probe_complexity`` and ``probabilistic_probe_complexity(0.5)``,
and the word-batched mask-DP through ``packed_probe_complexity``, which
``probe_complexity`` takes for 16 <= n <= 21.  Calls of a tenth to a
fifth of a second keep the units short (one n = 16 packed solve takes
about ten seconds).  The solver is deterministic, so the seed only orders
the calls.  PPC above n = 15 goes through the dict DP, which takes
minutes at n = 16, so that route is not measured.
"""

from __future__ import annotations

import random
import time
from functools import lru_cache

from common import SETUP_REPEATS, Metric, Outcome, median, quiet_level
from harness import cold_setup, measure
from repro.core.exact import ExactSolver
from repro.systems import CrumblingWall, MajoritySystem

P = 0.5
#: The calls timed: PC by its route for n <= 15, PC by the packed route, PPC.
KINDS = ("pc", "packed", "ppc")


def majority_ppc(n: int, p: float) -> float:
    """Expected probes of a majority scan; optimal, as elements are alike."""
    need = n // 2 + 1

    @lru_cache(maxsize=None)
    def value(green: int, red: int) -> float:
        if green >= need or red >= need:
            return 0.0
        return 1.0 + (1 - p) * value(green + 1, red) + p * value(green, red + 1)

    return value(0, 0)


def build() -> list:
    """(system, expected PC, expected PPC at p = 1/2), after a tiny warm-up
    solve on each route."""
    warm = ExactSolver(MajoritySystem(5))
    warm.probe_complexity()
    warm.packed_probe_complexity()
    warm.probabilistic_probe_complexity(P)
    return [
        # PC = n: both systems are evasive.  The CW value is the solver's
        # own, pinned; CW(1,3,3,3,3) is checked against 6.8359375 in run().
        (CrumblingWall([1, 2, 3, 3, 3]), 12, 6.765625),
        (MajoritySystem(11), 11, majority_ppc(11, P)),
    ]


def solve(outcome: Outcome, kind: str, system, expected) -> float:
    """Seconds of one call on a fresh solver; a wrong value fails."""
    start = time.perf_counter()
    solver = ExactSolver(system)
    if kind == "pc":
        value = solver.probe_complexity()
    elif kind == "packed":
        value = solver.packed_probe_complexity()
    else:
        value = solver.probabilistic_probe_complexity(P)
    taken = time.perf_counter() - start
    ok = value == expected if kind != "ppc" else abs(value - expected) <= 1e-9
    outcome.attempt(kind, ok, f"{system.name}: {value}, expected {expected}")
    return taken


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    outcome.metrics["setup_s"] = Metric(cold_setup(__name__), "s", SETUP_REPEATS)
    systems = build()
    wall = CrumblingWall([1, 3, 3, 3, 3])
    solve(outcome, "pc", wall, 13)
    solve(outcome, "ppc", wall, 6.8359375)
    rng = random.Random(seed)
    calls = [
        (kind, system, expected_ppc if kind == "ppc" else expected_pc)
        for system, expected_pc, expected_ppc in systems
        for kind in KINDS
    ]

    def one_round() -> list[float]:
        """Seconds of each call, in :data:`calls` order; run shuffled."""
        order = list(range(len(calls)))
        rng.shuffle(order)
        taken = [0.0] * len(calls)
        for index in order:
            taken[index] = solve(outcome, *calls[index])
        return taken

    def total(rounds, kinds, level) -> float:
        """Seconds of the ``kinds`` calls, each at ``level`` of its times."""
        return sum(
            level([entry[index] for entry in rounds])
            for index, (kind, _, _) in enumerate(calls)
            if kind in kinds
        )

    def primary(rounds) -> float:
        return total(rounds, ("pc", "packed"), median)

    rounds = measure(
        outcome, f"exact-small-{seed}", seconds, trace, one_round, primary,
        min_units=10, trace_units=4,
    )
    count = len(rounds)
    outcome.samples = {
        f"{kind}_{system.name}_s": [entry[index] for entry in rounds]
        for index, (kind, system, _) in enumerate(calls)
    }
    outcome.metrics["primary_s"] = Metric(
        total(rounds, ("pc", "packed"), quiet_level), "s", count,
        "pc_s: table and packed PC calls, each at its fastest",
    )
    outcome.metrics["secondary_s"] = Metric(
        total(rounds, ("ppc",), quiet_level), "s", count,
        "ppc_s: PPC calls, each at its fastest",
    )
    outcome.extra["pc_p50_s"] = Metric(primary(rounds), "s", count, "each call at its median")
    outcome.extra["ppc_p50_s"] = Metric(
        total(rounds, ("ppc",), median), "s", count, "each call at its median"
    )
    return outcome
