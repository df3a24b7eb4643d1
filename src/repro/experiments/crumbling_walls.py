"""Crumbling-wall experiments: Theorem 3.3 (Probe_CW), Corollaries 3.4/3.5,
Theorem 4.4 / Corollary 4.5 (R_Probe_CW) and the Yao bound of Theorem 4.6.

The headline claim reproduced here is that the probabilistic probe
complexity of a crumbling wall depends only on the number of rows ``k`` and
not on the number of elements ``n`` (≤ 2k − 1 probes on average), even
though the deterministic worst-case probe complexity is ``n``.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.algorithms.crumbling_walls import ProbeCW, RProbeCW, probe_cw_row_bound
from repro.analysis.bounds import generic_lower_bound_ppc
from repro.analysis.yao import CWHardSource, cw_lower_bound
from repro.core.distributions import AdversarialSource
from repro.core.engine import stream_probes
from repro.core.seeding import cell_seed
from repro.experiments.report import Row
from repro.systems.crumbling_walls import CrumblingWall, TriangSystem, uniform_wall


def run_probe_cw_bound(
    walls: Sequence[CrumblingWall] | None = None,
    ps: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
    trials: int = 2000,
    seed: int = 11,
) -> list[Row]:
    """Measured average probes of Probe_CW versus the ``2k − 1`` bound."""
    if walls is None:
        walls = [
            CrumblingWall([1, 3, 3, 3]),
            TriangSystem(8),
            TriangSystem(15),
            uniform_wall(rows=10, width=20),
            uniform_wall(rows=10, width=100),
        ]
    rows: list[Row] = []
    for wall in walls:
        algorithm = ProbeCW(wall)
        k = wall.num_rows
        for p in ps:
            estimate = stream_probes(
                algorithm, p=p, trials=trials, seed=cell_seed(seed, wall.name, wall.n, p)
            ).estimate
            rows.append(
                Row(
                    experiment="thm3.3-cw",
                    system=wall.name,
                    quantity="avg probes (Probe_CW)",
                    measured=estimate.mean,
                    paper=2.0 * k - 1.0,
                    relation="<=",
                    params={"n": wall.n, "k": k, "p": p},
                    note=f"±{estimate.ci95:.2f}",
                    tolerance=estimate.ci95,
                )
            )
    return rows


def run_wheel_and_triang_corollaries(trials: int = 4000, seed: int = 13) -> list[Row]:
    """Corollary 3.4 (Wheel ≤ 3) and Corollary 3.5 (Triang vs. lower bound)."""
    rows: list[Row] = []
    for n in (10, 50, 200):
        wall = CrumblingWall([1, n - 1], name=f"Wheel({n})")
        estimate = stream_probes(
            ProbeCW(wall), p=0.5, trials=trials, seed=cell_seed(seed, wall.name, n)
        ).estimate
        rows.append(
            Row(
                experiment="thm3.3-cw",
                system=f"Wheel({n})",
                quantity="avg probes (Probe_CW)",
                measured=estimate.mean,
                paper=3.0,
                relation="<=",
                params={"n": n, "p": 0.5},
                note="Corollary 3.4",
                tolerance=estimate.ci95,
            )
        )
    for depth in (8, 15, 25):
        triang = TriangSystem(depth)
        estimate = stream_probes(
            ProbeCW(triang), p=0.5, trials=trials, seed=cell_seed(seed, triang.name, depth)
        ).estimate
        rows.append(
            Row(
                experiment="thm3.3-cw",
                system=triang.name,
                quantity="avg probes (Probe_CW)",
                measured=estimate.mean,
                paper=2.0 * depth - 1.0,
                relation="<=",
                params={"n": triang.n, "k": depth, "p": 0.5},
                note="Corollary 3.5 upper",
                tolerance=estimate.ci95,
            )
        )
        rows.append(
            Row(
                experiment="thm3.3-cw",
                system=triang.name,
                quantity="avg probes (Probe_CW)",
                measured=estimate.mean,
                paper=generic_lower_bound_ppc(depth, 0.5),
                relation=">=",
                params={"n": triang.n, "k": depth, "p": 0.5},
                note="Lemma 3.1 lower (2k - 2sqrt(k))",
            )
        )
    return rows


def run_cw_independence_of_n(
    widths_per_row: Sequence[int] = (5, 20, 100, 500),
    rows_count: int = 8,
    trials: int = 1500,
    seed: int = 17,
) -> list[Row]:
    """Fix the number of rows, grow the row width: average probes stay flat."""
    rows: list[Row] = []
    for width in widths_per_row:
        wall = uniform_wall(rows=rows_count, width=width)
        estimate = stream_probes(
            ProbeCW(wall), p=0.5, trials=trials, seed=cell_seed(seed, rows_count, width)
        ).estimate
        rows.append(
            Row(
                experiment="thm3.3-cw",
                system=wall.name,
                quantity="avg probes (Probe_CW), fixed k",
                measured=estimate.mean,
                paper=2.0 * rows_count - 1.0,
                relation="<=",
                params={"n": wall.n, "k": rows_count, "width": width, "p": 0.5},
                note="independent of n",
                tolerance=estimate.ci95,
            )
        )
    return rows


def run_randomized_cw(
    depths: Sequence[int] = (5, 8, 12),
    trials: int = 2000,
    seed: int = 19,
) -> list[Row]:
    """R_Probe_CW versus Theorem 4.4 / Corollary 4.5 / Theorem 4.6."""
    rows: list[Row] = []
    for depth in depths:
        triang = TriangSystem(depth)
        algorithm = RProbeCW(triang)
        n, k = triang.n, depth

        # Upper bound: worst case is attained on the hard inputs with one
        # green per row (forcing the scan to climb to the top row).
        hard_estimate = stream_probes(
            algorithm,
            CWHardSource(triang),
            trials=trials,
            seed=cell_seed(seed, triang.name, depth),
        ).estimate
        row_bound = probe_cw_row_bound(triang.widths)
        rows.append(
            Row(
                experiment="thm4.4-cw-rand",
                system=triang.name,
                quantity="E[probes] on hard inputs (R_Probe_CW)",
                measured=hard_estimate.mean,
                paper=row_bound,
                relation="<=",
                params={"n": n, "k": k},
                note=f"Thm 4.4 row bound; Cor 4.5 bound {(n + k) / 2 + _log2(k):.2f}",
                tolerance=hard_estimate.ci95,
            )
        )
        rows.append(
            Row(
                experiment="thm4.4-cw-rand",
                system=triang.name,
                quantity="E[probes] on hard inputs (R_Probe_CW)",
                measured=hard_estimate.mean,
                paper=cw_lower_bound(triang),
                relation=">=",
                params={"n": n, "k": k},
                note="Thm 4.6 Yao lower bound (n+k)/2",
            )
        )

    # Corollary 4.5(2): Wheel has PCR = n - 1; the worst input for
    # R_Probe_CW is all elements green except the hub (forcing the rim scan).
    for n in (8, 16, 32):
        wheel_wall = CrumblingWall([1, n - 1], name=f"Wheel({n})")
        estimate = stream_probes(
            RProbeCW(wheel_wall),
            AdversarialSource(n, [1]),
            trials=trials,
            seed=cell_seed(seed, "wheel", n),
        ).estimate
        rows.append(
            Row(
                experiment="thm4.4-cw-rand",
                system=f"Wheel({n})",
                quantity="E[probes], hub failed (R_Probe_CW)",
                measured=estimate.mean,
                paper=float(n - 1),
                relation="~",
                params={"n": n},
                note="Corollary 4.5(2): PCR(Wheel) = n - 1",
            )
        )

    return rows


def _log2(value: float) -> float:
    import math

    return math.log2(value)
