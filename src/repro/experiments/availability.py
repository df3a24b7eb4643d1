"""Availability experiments (Fact 2.3 and the per-system recursions).

These back the ``availability`` experiment id: exact availability (by
enumeration on small systems and by the system-specific recursions on large
ones) versus Monte-Carlo measurement, plus the Fact 2.3 identities that the
paper's analyses rely on.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.analysis.availability import (
    crumbling_wall_availability,
    hqs_availability,
    hqs_availability_bound,
    majority_availability,
    tree_availability,
    tree_availability_bound,
)
from repro.core.metrics import availability_exact, availability_monte_carlo
from repro.core.seeding import cell_seed
from repro.experiments.report import Row
from repro.systems.crumbling_walls import TriangSystem
from repro.systems.hqs import HQS
from repro.systems.majority import MajoritySystem
from repro.systems.tree import TreeSystem
from repro.systems.wheel import WheelSystem


def run_availability_experiment(
    ps: Sequence[float] = (0.1, 0.3, 0.5),
    trials: int = 4000,
    seed: int = 61,
) -> list[Row]:
    """Availability of every paper system: recursion vs enumeration vs MC.

    The Monte-Carlo estimates read the witness color of the streaming
    engine's probing runs (witness red ⇔ no live quorum).
    """
    rows: list[Row] = []

    small_systems = [
        MajoritySystem(9),
        WheelSystem(8),
        TriangSystem(4),
        TreeSystem(2),
        HQS(2),
    ]
    for system in small_systems:
        for p in ps:
            exact = availability_exact(system, p)
            mc = availability_monte_carlo(
                system, p, trials=trials, seed=cell_seed(seed, system.name, p)
            )
            rows.append(
                Row(
                    experiment="availability",
                    system=system.name,
                    quantity="F_p (Monte-Carlo vs enumeration)",
                    measured=mc.mean,
                    paper=exact,
                    relation="~",
                    params={"n": system.n, "p": p},
                    note=f"±{mc.ci95:.3f}",
                )
            )
            if p <= 0.5:
                rows.append(
                    Row(
                        experiment="availability",
                        system=system.name,
                        quantity="Fact 2.3(1): F_p <= p",
                        measured=exact,
                        paper=p,
                        relation="<=",
                        params={"n": system.n, "p": p},
                    )
                )
            dual = availability_exact(system, 1.0 - p)
            rows.append(
                Row(
                    experiment="availability",
                    system=system.name,
                    quantity="Fact 2.3(2): F_p + F_{1-p}",
                    measured=exact + dual,
                    paper=1.0,
                    relation="==",
                    params={"n": system.n, "p": p},
                )
            )

    # Closed-form recursions vs exhaustive enumeration on small instances.
    for p in ps:
        rows.append(
            Row(
                experiment="availability",
                system="Maj(9)",
                quantity="binomial formula vs enumeration",
                measured=majority_availability(9, p),
                paper=availability_exact(MajoritySystem(9), p),
                relation="==",
                params={"p": p},
            )
        )
        rows.append(
            Row(
                experiment="availability",
                system="Triang(4)",
                quantity="CW row recursion vs enumeration",
                measured=crumbling_wall_availability(TriangSystem(4).widths, p),
                paper=availability_exact(TriangSystem(4), p),
                relation="==",
                params={"p": p},
            )
        )
        rows.append(
            Row(
                experiment="availability",
                system="Tree(h=2)",
                quantity="tree recursion vs enumeration",
                measured=tree_availability(2, p),
                paper=availability_exact(TreeSystem(2), p),
                relation="==",
                params={"p": p},
            )
        )
        rows.append(
            Row(
                experiment="availability",
                system="HQS(h=2)",
                quantity="HQS recursion vs enumeration",
                measured=hqs_availability(2, p),
                paper=availability_exact(HQS(2), p),
                relation="==",
                params={"p": p},
            )
        )

    # The availability bounds actually used inside the paper's proofs.
    for height in (3, 6, 9):
        for p in (0.1, 0.3, 0.45):
            rows.append(
                Row(
                    experiment="availability",
                    system=f"Tree(h={height})",
                    quantity="F_p vs (p+1/2)^h bound",
                    measured=tree_availability(height, p),
                    paper=tree_availability_bound(height, p),
                    relation="<=",
                    params={"h": height, "p": p},
                    note="bound used in Prop. 3.6",
                )
            )
            rows.append(
                Row(
                    experiment="availability",
                    system=f"HQS(h={height})",
                    quantity="F_p vs p(3p-2p^2)^h bound",
                    measured=hqs_availability(height, p),
                    paper=hqs_availability_bound(height, p),
                    relation="<=",
                    params={"h": height, "p": p},
                    note="bound used in Thm. 3.8",
                )
            )
    return rows
