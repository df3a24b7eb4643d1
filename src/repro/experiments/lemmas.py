"""Experiments for the technical lemmas (Lemma 2.4, 2.8, 2.9).

These back the ``lemma2.4-walk`` and ``lemma2.8-2.9-urn`` experiment ids:
simulate the random-walk and urn processes, compare against both the exact
expectations and the paper's closed forms.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from repro.analysis.lemmas import (
    expected_trials_both_colors,
    expected_trials_jth_red,
    grid_walk_exit_time_bound,
    grid_walk_exit_time_exact,
)
from repro.analysis.walks import GridRandomWalk
from repro.core.estimator import Estimate
from repro.core.seeding import cell_seed
from repro.experiments.report import Row


def run_walk_experiment(
    sizes: Sequence[int] = (10, 50, 200, 1000),
    ps: Sequence[float] = (0.5, 0.3),
    trials: int = 2000,
    seed: int = 43,
) -> list[Row]:
    """Lemma 2.4: simulated grid-walk exit times vs exact and closed form."""
    rows: list[Row] = []
    for n in sizes:
        for p in ps:
            walk = GridRandomWalk(n, p)
            simulated = walk.simulate_expected_exit_time(
                trials=trials, seed=cell_seed(seed, n, p)
            )
            exact = grid_walk_exit_time_exact(n, p)
            rows.append(
                Row(
                    experiment="lemma2.4-walk",
                    system="grid walk",
                    quantity="E[exit time]",
                    measured=simulated.mean,
                    paper=exact,
                    relation="~",
                    params={"N": n, "p": p},
                    note=f"closed form {grid_walk_exit_time_bound(n, p):.2f}, ±{simulated.ci95:.2f}",
                )
            )
    return rows


def simulate_urn_jth_red(
    r: int, g: int, j: int, trials: int = 4000, seed: int = 47
) -> Estimate:
    """Simulate Lemma 2.8's urn process: draws until the j-th red element."""
    rng = random.Random(seed)
    population = ["red"] * r + ["green"] * g
    samples = []
    for _ in range(trials):
        order = population[:]
        rng.shuffle(order)
        reds_seen = 0
        for position, color in enumerate(order, start=1):
            if color == "red":
                reds_seen += 1
                if reds_seen == j:
                    samples.append(position)
                    break
    return Estimate.from_samples(samples)


def simulate_urn_both_colors(
    r: int, g: int, trials: int = 4000, seed: int = 53
) -> Estimate:
    """Simulate Lemma 2.9's urn process: draws until both colors appear."""
    rng = random.Random(seed)
    population = ["red"] * r + ["green"] * g
    samples = []
    for _ in range(trials):
        order = population[:]
        rng.shuffle(order)
        first = order[0]
        for position, color in enumerate(order, start=1):
            if color != first:
                samples.append(position)
                break
        else:
            samples.append(len(order))
    return Estimate.from_samples(samples)


def run_urn_experiment(
    cases: Sequence[tuple[int, int]] = ((3, 5), (10, 10), (20, 5), (1, 30)),
    trials: int = 4000,
    seed: int = 59,
) -> list[Row]:
    """Lemmas 2.8 and 2.9: simulated urn expectations vs closed forms."""
    rows: list[Row] = []
    for r, g in cases:
        j = (r + 1) // 2
        sim_j = simulate_urn_jth_red(
            r, g, j, trials=trials, seed=cell_seed(seed, r, g, "jth")
        )
        rows.append(
            Row(
                experiment="lemma2.8-2.9-urn",
                system="urn",
                quantity=f"E[draws to {j}th red]",
                measured=sim_j.mean,
                paper=float(expected_trials_jth_red(r, g, j)),
                relation="~",
                params={"r": r, "g": g, "j": j},
                note=f"±{sim_j.ci95:.2f}",
            )
        )
        sim_both = simulate_urn_both_colors(
            r, g, trials=trials, seed=cell_seed(seed, r, g, "both")
        )
        rows.append(
            Row(
                experiment="lemma2.8-2.9-urn",
                system="urn",
                quantity="E[draws to see both colors]",
                measured=sim_both.mean,
                paper=float(expected_trials_both_colors(r, g)),
                relation="~",
                params={"r": r, "g": g},
                note=f"±{sim_both.ci95:.2f}",
            )
        )
    return rows
