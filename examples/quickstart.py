"""Quickstart: build quorum systems, probe them, and compare against the paper.

Run with::

    python examples/quickstart.py

The script walks through the library's main concepts:

1. construct the coteries studied in the paper (Majority, Wheel, Triang,
   Tree, HQS) and inspect their structure;
2. draw a random failure pattern (the paper's probabilistic model) and run
   the paper's probing algorithm to find a witness;
3. estimate average probe complexities with the streaming Monte-Carlo
   engine and compare them against the paper's closed-form bounds;
4. compute the exact probe complexities of the Maj3 worked example
   (PC = 3, PPC = 5/2, PCR = 8/3).
"""

from __future__ import annotations

import random

from repro import (
    Coloring,
    MajoritySystem,
    ProbeCW,
    ProbeHQS,
    ProbeTree,
    TreeSystem,
    TriangSystem,
    HQS,
)
from repro.algorithms import ProbeMaj
from repro.analysis import majority_expected_probes_exact
from repro.core.engine import stream_probes
from repro.core.exact import ExactSolver, permutation_algorithm_worst_expected
from repro.core.metrics import quorum_size_statistics
from repro.experiments.figures import render_all_figures
from repro.systems import WheelSystem


def section(title: str) -> None:
    print()
    print(title)
    print("-" * len(title))


def main() -> None:
    rng = random.Random(2001)

    section("1. The coteries studied in the paper")
    systems = [
        MajoritySystem(9),
        WheelSystem(8),
        TriangSystem(4),
        TreeSystem(2),
        HQS(2),
    ]
    for system in systems:
        stats = quorum_size_statistics(system)
        print(
            f"{system.name:<12} n={system.n:>3}  quorums={int(stats['count']):>4}  "
            f"quorum sizes {int(stats['min'])}..{int(stats['max'])}  "
            f"nondominated={system.is_nondominated()}"
        )
    print()
    print(render_all_figures())

    section("2. Probing for a witness under random failures (p = 1/2)")
    triang = TriangSystem(6)
    coloring = Coloring.random(triang.n, p=0.5, rng=rng)
    run = ProbeCW(triang).run_on(coloring, validate=True)
    print(f"failure pattern: {sorted(coloring.red_elements)} failed out of {triang.n}")
    print(
        f"Probe_CW probed {run.probes} elements (sequence {list(run.sequence)}) "
        f"and found a {run.witness.color.value} witness: {sorted(run.witness.elements)}"
    )

    section("3. Average probe complexity vs the paper's bounds")
    cases = [
        (f"Maj(101), Prop 3.2: exact {majority_expected_probes_exact(101, 0.5):.2f}",
         ProbeMaj(MajoritySystem(101)), 0.5),
        ("Triang(12), Thm 3.3: ≤ 2k - 1 = 23",
         ProbeCW(TriangSystem(12)), 0.5),
        ("Tree(h=7, n=255), Prop 3.6 recursion ≈ 49 = O(n^0.585)",
         ProbeTree(TreeSystem(7)), 0.5),
        ("HQS(h=4, n=81), Thm 3.8: 2.5^4 = 39.1",
         ProbeHQS(HQS(4)), 0.5),
    ]
    for label, algorithm, p in cases:
        estimate = stream_probes(algorithm, p=p, trials=800, seed=1).estimate
        print(f"{label:<50} measured {estimate.mean:7.2f} ± {estimate.ci95:.2f}")

    section("4. The Maj3 worked example (Section 2.3 / Fig. 4)")
    maj3 = MajoritySystem(3)
    solver = ExactSolver(maj3)
    print(f"PC(Maj3)      = {solver.probe_complexity()}          (paper: 3)")
    print(f"PPC_1/2(Maj3) = {solver.probabilistic_probe_complexity(0.5)}        (paper: 2.5)")
    print(f"PCR(Maj3)     = {permutation_algorithm_worst_expected(maj3):.4f}     (paper: 8/3 ≈ 2.6667)")


if __name__ == "__main__":
    main()
