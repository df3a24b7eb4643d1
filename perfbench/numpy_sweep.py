"""numpy-sweep: an adaptive R_Probe_Tree sweep on the numpy backend.

One unit is ``run_sweep("tree", heights (7, 9), p (0.3, 0.5),
randomized=True, target_ci=TARGET_CI, backend="numpy", jobs=2)``: every
cell stops once its 95% CI half-width reaches :data:`TARGET_CI`, and the
chunks of each cell run on the sweep's shared ``ChunkPool``.  The seed
sets the sweep seed, from which every cell's engine seed derives; every
unit of a run repeats the same sweep, so their trial counts must agree.
The numpy kernel dominates each chunk here, sampling is small.
"""

from __future__ import annotations

import random
import time

from common import SETUP_REPEATS, Metric, Outcome, median
from harness import cold_setup, measure
from repro.experiments import sweep

HEIGHTS = (7, 9)
PS = (0.3, 0.5)
TARGET_CI = 1.0
CHUNK = 2048
JOBS = 2


def run_grid(seed: int, **stopping):
    return sweep.run_sweep(
        "tree",
        HEIGHTS,
        PS,
        seed=seed,
        randomized=True,
        backend="numpy",
        jobs=JOBS,
        chunk_size=CHUNK,
        **stopping,
    )


def build():
    """One small sweep: builds the systems and spawns and warms a pool."""
    return run_grid(0, trials=CHUNK)


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    outcome.metrics["setup_s"] = Metric(cold_setup(__name__), "s", SETUP_REPEATS)
    build()
    sweep_seed = random.Random(seed).randrange(2**32)
    trials_of: dict[tuple, int] = {}

    def one_sweep() -> tuple[float, int]:
        start = time.perf_counter()
        result = run_grid(sweep_seed, target_ci=TARGET_CI)
        seconds_taken = time.perf_counter() - start
        for cell in result.cells:
            key = (cell.size, cell.p)
            outcome.attempt(
                "cell",
                cell.status == "ok" and cell.ci95 <= TARGET_CI,
                f"h={cell.size} p={cell.p}: {cell.status} ci95={cell.ci95:.4f}",
            )
            expected = trials_of.setdefault(key, cell.n_trials_used)
            outcome.attempt(
                "determinism",
                cell.n_trials_used == expected,
                f"h={cell.size} p={cell.p}: {cell.n_trials_used} trials, "
                f"earlier sweep used {expected}",
            )
        return seconds_taken, sum(cell.n_trials_used for cell in result.cells)

    def primary(sweeps) -> float:
        return median([taken for taken, _ in sweeps])

    sweeps = measure(
        outcome, f"numpy-sweep-{seed}", seconds, trace, one_sweep, primary,
        min_units=3, trace_units=1,
    )
    count = len(sweeps)
    outcome.samples = {"sweep_s": [taken for taken, _ in sweeps]}
    outcome.metrics["primary_s"] = Metric(primary(sweeps), "s", count, "sweep_s")
    outcome.metrics["secondary_s"] = Metric(
        median([taken / trials * 1e5 for taken, trials in sweeps]),
        "s",
        count,
        "seconds per 100,000 merged trials",
    )
    outcome.extra["trials_per_s"] = Metric(
        sum(trials for _, trials in sweeps) / sum(taken for taken, _ in sweeps),
        "trials/s",
        count,
    )
    outcome.extra["trials_per_sweep"] = Metric(sweeps[0][1], "trials", count)
    return outcome
