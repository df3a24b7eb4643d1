"""Regeneration of the paper's Table 1.

Table 1 summarizes, for Maj, Triang, Tree and HQS, the lower and upper
bounds on probe complexity in (a) the probabilistic model at ``p = 1/2`` and
(b) the worst-case model with randomized algorithms.  This driver measures
our implementation of the paper's algorithm for every cell —

* probabilistic model: average probes over i.i.d. colorings at ``p = 1/2``;
* randomized model: expected probes on the paper's worst-case / hard input
  family for that system —

and reports the measurement next to the paper's lower and upper bound
formulas instantiated at the same ``n``, so every cell of the table can be
checked for the *shape* claim (measurement sandwiched between the bounds, or
matching the exact expression).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algorithms.crumbling_walls import ProbeCW, RProbeCW, probe_cw_row_bound
from repro.algorithms.hqs import IRProbeHQS, ProbeHQS
from repro.algorithms.majority import ProbeMaj, RProbeMaj
from repro.algorithms.tree import ProbeTree, RProbeTree
from repro.analysis.bounds import generic_lower_bound_ppc
from repro.analysis.walks import majority_expected_probes_exact
from repro.analysis.yao import (
    CWHardSource,
    MajorityHardSource,
    TreeHardSource,
    cw_lower_bound,
    majority_lower_bound,
    tree_lower_bound,
)
from repro.core.engine import stream_probes
from repro.core.seeding import cell_seed
from repro.experiments.hqs import HQSFamilyPSource, probe_hqs_expected_exact
from repro.experiments.report import Row
from repro.systems.crumbling_walls import TriangSystem
from repro.systems.hqs import HQS
from repro.systems.majority import MajoritySystem
from repro.systems.tree import TreeSystem


@dataclass(frozen=True)
class Table1Sizes:
    """Instance sizes used for the Table 1 regeneration."""

    maj_n: int = 101
    triang_depth: int = 12
    tree_height: int = 7
    hqs_height: int = 5


def run_table1(
    sizes: Table1Sizes | None = None,
    trials: int = 2000,
    seed: int = 1001,
) -> list[Row]:
    """Regenerate every cell of Table 1 at the configured sizes."""
    sizes = sizes or Table1Sizes()
    rows: list[Row] = []
    rows.extend(_maj_cells(sizes, trials, seed))
    rows.extend(_triang_cells(sizes, trials, seed))
    rows.extend(_tree_cells(sizes, trials, seed))
    rows.extend(_hqs_cells(sizes, trials, seed))
    return rows


def _maj_cells(sizes: Table1Sizes, trials: int, seed: int) -> list[Row]:
    n = sizes.maj_n
    system = MajoritySystem(n)
    ppc = stream_probes(
        ProbeMaj(system), p=0.5, trials=trials, seed=cell_seed(seed, "maj-ppc", n)
    ).estimate
    pcr = stream_probes(
        RProbeMaj(system),
        MajorityHardSource(system),
        trials=trials,
        seed=cell_seed(seed, "maj-pcr", n),
    ).estimate
    exact_ppc = majority_expected_probes_exact(n, 0.5)
    exact_pcr = majority_lower_bound(n)
    return [
        Row("table1", "Maj", "probabilistic p=1/2 (lower n-Θ(√n))", ppc.mean,
            paper=exact_ppc, relation="~", params={"n": n},
            note="lower/upper coincide: n - Θ(√n)"),
        Row("table1", "Maj", "probabilistic p=1/2 (upper n-Θ(√n))", ppc.mean,
            paper=float(n), relation="<=", params={"n": n},
            note=f"exact finite-n value {exact_ppc:.2f}"),
        Row("table1", "Maj", "randomized (lower n-1+o(1))", pcr.mean,
            paper=exact_pcr, relation="~", params={"n": n},
            note="n-(n-1)/(n+3), Thm 4.2"),
        Row("table1", "Maj", "randomized (upper n-1+o(1))", pcr.mean,
            paper=float(n), relation="<=", params={"n": n},
            tolerance=pcr.ci95),
    ]


def _triang_cells(sizes: Table1Sizes, trials: int, seed: int) -> list[Row]:
    depth = sizes.triang_depth
    system = TriangSystem(depth)
    n, k = system.n, depth
    ppc = stream_probes(
        ProbeCW(system), p=0.5, trials=trials, seed=cell_seed(seed, "triang-ppc", n)
    ).estimate
    pcr = stream_probes(
        RProbeCW(system),
        CWHardSource(system),
        trials=trials,
        seed=cell_seed(seed, "triang-pcr", n),
    ).estimate
    return [
        Row("table1", "Triang", "probabilistic p=1/2 (lower 2k-Θ(√k))", ppc.mean,
            paper=generic_lower_bound_ppc(k, 0.5), relation=">=",
            params={"n": n, "k": k}, tolerance=ppc.ci95),
        Row("table1", "Triang", "probabilistic p=1/2 (upper 2k-1)", ppc.mean,
            paper=2.0 * k - 1.0, relation="<=", params={"n": n, "k": k},
            tolerance=ppc.ci95),
        Row("table1", "Triang", "randomized (lower (n+k)/2)", pcr.mean,
            paper=cw_lower_bound(system), relation=">=", params={"n": n, "k": k},
            tolerance=pcr.ci95),
        Row("table1", "Triang", "randomized (upper (n+k)/2+log k)", pcr.mean,
            paper=probe_cw_row_bound(system.widths), relation="<=",
            params={"n": n, "k": k},
            note="Thm 4.4 per-row bound (≤ (n+k)/2 + log k)",
            tolerance=pcr.ci95),
    ]


def _tree_cells(sizes: Table1Sizes, trials: int, seed: int) -> list[Row]:
    height = sizes.tree_height
    system = TreeSystem(height)
    n = system.n
    ppc = stream_probes(
        ProbeTree(system), p=0.5, trials=trials, seed=cell_seed(seed, "tree-ppc", n)
    ).estimate
    pcr = stream_probes(
        RProbeTree(system),
        TreeHardSource(system),
        trials=trials,
        seed=cell_seed(seed, "tree-pcr", n),
    ).estimate
    return [
        Row("table1", "Tree", "probabilistic p=1/2 (no lower bound in paper)", ppc.mean,
            paper=None, relation="~", params={"n": n, "h": height}),
        Row("table1", "Tree", "probabilistic p=1/2 (upper O(n^0.585))", ppc.mean,
            paper=3.0 * float(n) ** 0.585, relation="<=",
            params={"n": n, "h": height},
            note="constant instantiated as 3", tolerance=ppc.ci95),
        Row("table1", "Tree", "randomized (lower 2n/3)", pcr.mean,
            paper=tree_lower_bound(n), relation=">=", params={"n": n, "h": height},
            tolerance=pcr.ci95),
        Row("table1", "Tree", "randomized (upper 5n/6)", pcr.mean,
            paper=5.0 * n / 6.0 + 1.0 / 6.0, relation="<=",
            params={"n": n, "h": height}, tolerance=pcr.ci95),
    ]


def _hqs_cells(sizes: Table1Sizes, trials: int, seed: int) -> list[Row]:
    height = sizes.hqs_height
    system = HQS(height)
    n = system.n
    ppc = stream_probes(
        ProbeHQS(system), p=0.5, trials=trials, seed=cell_seed(seed, "hqs-ppc", n)
    ).estimate
    pcr = stream_probes(
        IRProbeHQS(system),
        HQSFamilyPSource(system),
        trials=trials,
        seed=cell_seed(seed, "hqs-pcr", n),
    ).estimate
    exact_ppc = probe_hqs_expected_exact(height, 0.5)  # = 2.5^h = n^0.834
    return [
        Row("table1", "HQS", "probabilistic p=1/2 (lower Ω(n^0.834))", ppc.mean,
            paper=0.9 * exact_ppc, relation=">=", params={"n": n, "h": height},
            note="lower bound = optimal value 2.5^h (Thm 3.9), slack 10%",
            tolerance=ppc.ci95),
        Row("table1", "HQS", "probabilistic p=1/2 (upper O(n^0.834))", ppc.mean,
            paper=1.1 * exact_ppc, relation="<=", params={"n": n, "h": height},
            note="upper bound = 2.5^h (Thm 3.8), slack 10%", tolerance=ppc.ci95),
        Row("table1", "HQS", "randomized (lower Ω(n^0.834))", pcr.mean,
            paper=0.9 * exact_ppc, relation=">=", params={"n": n, "h": height},
            note="Cor 4.13", tolerance=pcr.ci95),
        Row("table1", "HQS", "randomized (upper O(n^0.887))", pcr.mean,
            paper=1.2 * (189.5 / 27.0) ** (height / 2.0) * 2.0, relation="<=",
            params={"n": n, "h": height},
            note="Thm 4.10 recursion value, constant instantiated",
            tolerance=pcr.ci95),
    ]


def render_table1(rows: list[Row]) -> str:
    """Render the regenerated Table 1 grouped like the paper's layout."""
    from repro.experiments.report import render_table

    order = {"Maj": 0, "Triang": 1, "Tree": 2, "HQS": 3}
    ordered = sorted(rows, key=lambda r: (order.get(r.system, 99), r.quantity))
    return render_table(
        ordered,
        title="Table 1 — probe complexity: measured vs paper bounds "
        "(probabilistic model at p=1/2 and randomized worst-case model)",
    )
