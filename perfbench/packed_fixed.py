"""packed-fixed: bitpacked streaming estimates at a fixed trial count.

One unit is a round of eight in-process ``stream_probes(backend=
"bitpacked", jobs=1)`` runs of :data:`TRIALS` trials each, every run timed
on its own: ProbeMaj on Maj(1001), ProbeCW on Triang(45), ProbeTree on
Tree(h=9) and ProbeHQS on HQS(6), each at p = 0.5 and p = 0.3.  The seed
draws every run's engine seed.  Sampling is most of each chunk here: all
but a few percent on ProbeTree and ProbeHQS, about half on ProbeMaj.
"""

from __future__ import annotations

import random
import time

from common import SETUP_REPEATS, Metric, Outcome, median, quiet_level
from harness import cold_setup, measure
from repro.algorithms import default_deterministic_algorithm
from repro.core import engine
from repro.systems import HQS, MajoritySystem, TreeSystem, TriangSystem

SYSTEMS = (
    lambda: MajoritySystem(1001),
    lambda: TriangSystem(45),
    lambda: TreeSystem(9),
    lambda: HQS(6),
)
PS = (0.5, 0.3)
#: Trials per timed run: one chunk of the engine's default size
#: (``engine.DEFAULT_CHUNK_TRIALS``), one slab of the bitpacked sampler.
TRIALS = 4096
#: Trials of the chunk compared against the numpy backend during set-up.
CHECK_TRIALS = 2048


def build() -> list:
    """Systems and algorithms, plus a first chunk to warm kernel scratch."""
    algorithms = [default_deterministic_algorithm(make()) for make in SYSTEMS]
    for algorithm in algorithms:
        engine.stream_probes(algorithm, p=0.5, trials=64, seed=0, backend="bitpacked")
    return algorithms


def check_against_numpy(algorithms, rng: random.Random, outcome: Outcome) -> None:
    """The bitpacked histogram and witness tally equal numpy's on one chunk."""
    for algorithm in algorithms:
        for p in PS:
            seed = rng.randrange(2**32)
            runs = [
                engine.stream_probes(
                    algorithm, p=p, trials=CHECK_TRIALS, seed=seed, backend=backend
                )
                for backend in ("bitpacked", "numpy")
            ]
            same = (runs[0].histogram, runs[0].witness_red) == (
                runs[1].histogram,
                runs[1].witness_red,
            )
            outcome.attempt(
                "check", same, f"{algorithm.name} p={p}: bitpacked differs from numpy"
            )


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    outcome.metrics["setup_s"] = Metric(cold_setup(__name__), "s", SETUP_REPEATS)
    algorithms = build()
    rng = random.Random(seed)
    check_against_numpy(algorithms, rng, outcome)
    combos = [(algorithm, p) for p in PS for algorithm in algorithms]

    def one_round() -> list[float]:
        """Seconds of each (algorithm, p) run, in :data:`combos` order."""
        taken = []
        for algorithm, p in combos:
            start = time.perf_counter()
            result = engine.stream_probes(
                algorithm,
                p=p,
                trials=TRIALS,
                seed=rng.randrange(2**32),
                backend="bitpacked",
                jobs=1,
            )
            taken.append(time.perf_counter() - start)
            outcome.attempt(
                "run",
                result.n_trials_used == TRIALS
                and sum(result.histogram) == TRIALS
                and result.backend == "bitpacked",
                f"{algorithm.name} p={p}: wrong trial count or backend",
            )
        return taken

    def half_pass(rounds, p: float, level) -> float:
        """Seconds of the four runs at ``p``, each at ``level`` of its times."""
        return sum(
            level([entry[index] for entry in rounds])
            for index, (_, combo_p) in enumerate(combos)
            if combo_p == p
        )

    def primary(rounds) -> float:
        """The p = 1/2 half-pass at the run's medians, for the tracing overhead."""
        return half_pass(rounds, 0.5, median)

    rounds = measure(
        outcome, f"packed-fixed-{seed}", seconds, trace, one_round, primary,
        min_units=10, trace_units=8,
    )
    count = len(rounds)
    outcome.samples = {
        f"{algorithm.name}_p{p}_s": [entry[index] for entry in rounds]
        for index, (algorithm, p) in enumerate(combos)
    }
    for name, p in (("primary_s", 0.5), ("secondary_s", 0.3)):
        outcome.metrics[name] = Metric(
            half_pass(rounds, p, quiet_level), "s", count,
            f"p={p} half-pass (4 x {TRIALS} trials), each run at its fastest",
        )
        outcome.extra[f"half_pass_p50_s.p{p}"] = Metric(
            half_pass(rounds, p, median), "s", count, "each run at its median"
        )
    total_s = sum(sum(entry) for entry in rounds)
    outcome.extra["trials_per_s"] = Metric(
        count * len(combos) * TRIALS / total_s, "trials/s", count
    )
    return outcome
