"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables/figures (see the
experiment registry, ``repro-probe list``), asserts the *shape* claims (who
wins, bound satisfied, exponent in range) and prints the regenerated rows
so the numbers can be compared against the paper.

The experiment drivers are deliberately run once per benchmark round
(``rounds=1``) — the quantity being benchmarked is the experiment itself,
and its statistical quality comes from its internal Monte-Carlo trials, not
from repeating the whole driver.
"""

from __future__ import annotations

import pytest

from repro.experiments.report import Row, render_table, violations


def run_experiment_once(benchmark, func, *args, **kwargs):
    """Run an experiment driver under pytest-benchmark (single round)."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


def report(rows: list[Row], title: str) -> None:
    """Print the regenerated table and fail on any violated paper relation."""
    print()
    print(render_table(rows, title))
    bad = violations(rows)
    assert not bad, f"{len(bad)} rows violate their paper relation:\n{render_table(bad)}"


@pytest.fixture
def fast_trials() -> int:
    """Trial count used by the benchmark-sized experiment runs."""
    return 600
