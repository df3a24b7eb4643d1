"""Design-choice ablations.

The paper's algorithms embody specific design decisions — Probe_CW scans
top-down and keeps a single representative per row, Probe_HQS evaluates only
two children when they agree, IR_Probe_HQS peeks at a grandchild before
committing to a child.  These ablations quantify how much each choice
matters by comparing the paper's algorithm against natural alternatives
under the same workloads:

* ``ablation-cw-order``   — Probe_CW vs a randomized within-row order vs the
  bottom-up R_Probe_CW vs generic sequential/random scans, all in the
  probabilistic model;
* ``ablation-hqs``        — Probe_HQS (lazy third child) vs a naive
  evaluate-all-three-children strategy vs the two randomized variants;
* ``ablation-generic``    — the universal candidate-quorum baseline vs the
  specialised algorithms, showing why per-structure algorithms matter.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.algorithms.crumbling_walls import ProbeCW, RProbeCW
from repro.algorithms.generic import CandidateQuorumProbe, RandomScan, SequentialScan
from repro.algorithms.hqs import IRProbeHQS, ProbeHQS, RProbeHQS
from repro.algorithms.base import ProbeRun, ProbingAlgorithm
from repro.core.engine import stream_probes
from repro.core.oracle import ProbeOracle
from repro.core.witness import Witness
from repro.core.coloring import Color
from repro.core.seeding import cell_seed
from repro.experiments.report import Row
from repro.systems.crumbling_walls import TriangSystem
from repro.systems.hqs import HQS


class EagerProbeHQS(ProbingAlgorithm):
    """Ablation baseline: evaluate *all three* children of every gate.

    This removes Probe_HQS's laziness (skipping the third child when the
    first two agree); it always probes every leaf, i.e. ``n`` probes, and
    serves as the "no short-circuit" control.
    """

    def __init__(self, system: HQS) -> None:
        if not isinstance(system, HQS):
            raise TypeError("EagerProbeHQS requires an HQS system")
        super().__init__(system)

    def run(self, oracle: ProbeOracle, rng=None) -> ProbeRun:
        system: HQS = self._system
        probes = 0
        sequence = []

        def evaluate(node: int) -> tuple[Color, frozenset[int]]:
            nonlocal probes
            if system.is_leaf_node(node):
                element = system.leaf_to_element(node)
                color = oracle.probe(element)
                probes += 1
                sequence.append(element)
                return color, frozenset({element})
            children = [evaluate(child) for child in system.children(node)]
            greens = [c for c in children if c[0] is Color.GREEN]
            reds = [c for c in children if c[0] is Color.RED]
            winners = greens if len(greens) >= 2 else reds
            value = winners[0][0]
            support = winners[0][1] | winners[1][1]
            return value, support

        value, support = evaluate(system.root)
        return ProbeRun(Witness(value, support), probes, tuple(sequence))


def run_cw_order_ablation(
    depth: int = 12,
    ps: Sequence[float] = (0.1, 0.3, 0.5),
    trials: int = 1500,
    seed: int = 67,
) -> list[Row]:
    """Probe_CW vs alternative probing orders on Triang(depth)."""
    system = TriangSystem(depth)
    variants: list[tuple[str, ProbingAlgorithm]] = [
        ("Probe_CW (paper, lexicographic rows)", ProbeCW(system)),
        ("Probe_CW (random within-row order)", ProbeCW(system, within_row_order="random")),
        ("R_Probe_CW (bottom-up randomized)", RProbeCW(system)),
        ("SequentialScan (element order)", SequentialScan(system)),
        ("RandomScan (uniform order)", RandomScan(system)),
    ]
    rows: list[Row] = []
    for p in ps:
        # One seed per (p) cell, shared by all variants: the engine draws
        # colorings apart from algorithm randomness, so every variant sees
        # the same colorings while cells stay independent of each other.
        p_seed = cell_seed(seed, system.n, p)
        for label, algorithm in variants:
            estimate = stream_probes(algorithm, p=p, trials=trials, seed=p_seed).estimate
            rows.append(
                Row(
                    experiment="ablation-cw-order",
                    system=system.name,
                    quantity=f"avg probes [{label}]",
                    measured=estimate.mean,
                    paper=2.0 * depth - 1.0,
                    relation="~",
                    params={"n": system.n, "k": depth, "p": p},
                    note=f"±{estimate.ci95:.2f}; paper bound applies to Probe_CW only",
                )
            )
    return rows


def run_hqs_ablation(
    heights: Sequence[int] = (2, 3, 4),
    p: float = 0.5,
    trials: int = 1500,
    seed: int = 71,
) -> list[Row]:
    """Probe_HQS vs the eager baseline and the randomized variants."""
    rows: list[Row] = []
    for height in heights:
        system = HQS(height)
        variants: list[tuple[str, ProbingAlgorithm, float | None]] = [
            ("Probe_HQS (lazy, paper)", ProbeHQS(system), 2.5**height),
            ("EagerProbeHQS (no short-circuit)", EagerProbeHQS(system), float(system.n)),
            ("R_Probe_HQS (random 2-of-3)", RProbeHQS(system), None),
            ("IR_Probe_HQS (grandchild peek)", IRProbeHQS(system), None),
        ]
        height_seed = cell_seed(seed, height, p)
        for label, algorithm, paper_value in variants:
            estimate = stream_probes(
                algorithm, p=p, trials=trials, seed=height_seed
            ).estimate
            rows.append(
                Row(
                    experiment="ablation-hqs",
                    system=system.name,
                    quantity=f"avg probes [{label}]",
                    measured=estimate.mean,
                    paper=paper_value,
                    relation="~",
                    params={"n": system.n, "h": height, "p": p},
                    note=f"±{estimate.ci95:.2f}",
                )
            )
    return rows


def run_generic_baseline_ablation(
    trials: int = 1000,
    seed: int = 73,
) -> list[Row]:
    """The universal candidate-quorum strategy vs the specialised algorithms."""
    rows: list[Row] = []
    cases: list[tuple[ProbingAlgorithm, ProbingAlgorithm]] = [
        (ProbeCW(TriangSystem(10)), CandidateQuorumProbe(TriangSystem(10))),
        (ProbeHQS(HQS(3)), CandidateQuorumProbe(HQS(3))),
    ]
    for specialised, generic in cases:
        for p in (0.3, 0.5):
            pair_seed = cell_seed(seed, specialised.system.name, p)
            spec = stream_probes(specialised, p=p, trials=trials, seed=pair_seed).estimate
            gen = stream_probes(generic, p=p, trials=trials, seed=pair_seed).estimate
            rows.append(
                Row(
                    experiment="ablation-generic",
                    system=specialised.system.name,
                    quantity=f"{specialised.name} vs CandidateQuorumProbe",
                    measured=spec.mean,
                    paper=gen.mean,
                    relation="~",
                    params={"p": p},
                    note=f"generic baseline {gen.mean:.1f} ± {gen.ci95:.1f}",
                )
            )
    return rows
