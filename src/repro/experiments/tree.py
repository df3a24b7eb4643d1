"""Tree-system experiments: Proposition 3.6 / Corollary 3.7 (Probe_Tree) and
Theorems 4.7 / 4.8 (R_Probe_Tree).

The probabilistic claim is a sub-linear power law: Probe_Tree probes
``O(n^{log2(1+p)})`` elements on average (``O(n^0.585)`` at ``p = 1/2``),
even though deterministically all ``n`` elements may have to be probed.  We
check the exponent by a log–log fit across tree heights.  The randomized
claims bracket R_Probe_Tree's worst-case expected probes between
``2(n+1)/3`` (Yao bound on the hard distribution of Theorem 4.8) and
``5n/6 + 1/6``.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.algorithms.tree import ProbeTree, RProbeTree
from repro.analysis.fitting import PowerLawFit, fit_power_law
from repro.analysis.bounds import tree_ppc_exponent
from repro.analysis.yao import TreeHardSource, tree_lower_bound
from repro.core.engine import stream_probes
from repro.core.seeding import cell_seed
from repro.experiments.report import Row
from repro.systems.tree import TreeSystem

DEFAULT_HEIGHTS = (3, 4, 5, 6, 7, 8)


def _hard_input_estimator(algorithm, system, trials, seed):
    """Estimate on the Theorem 4.8 hard distribution."""
    return stream_probes(
        algorithm, TreeHardSource(system), trials=trials, seed=seed
    ).estimate


def run_probe_tree_scaling(
    heights: Sequence[int] = DEFAULT_HEIGHTS,
    ps: Sequence[float] = (0.5, 0.3, 0.1),
    trials: int = 1500,
    seed: int = 23,
    distribution: str = "bernoulli",
) -> tuple[list[Row], dict[float, PowerLawFit]]:
    """Measured Probe_Tree averages and per-``p`` power-law exponent fits.

    ``distribution`` names a registered coloring source
    (:func:`repro.core.distributions.build_source`); the
    ``O(n^{log2(1+p)})`` law is a statement about the i.i.d. model, so
    non-Bernoulli runs report measurements (and fits) without a paper
    reference.
    """
    from repro.core.distributions import build_source, canonical_source_name

    distribution = canonical_source_name(distribution)
    bernoulli = distribution == "bernoulli"
    rows: list[Row] = []
    fits: dict[float, PowerLawFit] = {}
    for p in ps:
        sizes: list[float] = []
        costs: list[float] = []
        for height in heights:
            system = TreeSystem(height)
            estimate = stream_probes(
                ProbeTree(system),
                None if bernoulli else build_source(distribution, system, p),
                p=p,
                trials=trials,
                seed=cell_seed(seed, system.n, p),
            ).estimate
            sizes.append(float(system.n))
            costs.append(estimate.mean)
            rows.append(
                Row(
                    experiment="prop3.6-tree",
                    system=system.name,
                    quantity="avg probes (Probe_Tree)",
                    measured=estimate.mean,
                    paper=float(system.n) ** tree_ppc_exponent(p) if bernoulli else None,
                    relation="~",
                    params={"n": system.n, "h": height, "p": p},
                    note=(
                        f"paper exponent {tree_ppc_exponent(p):.3f}, ±{estimate.ci95:.2f}"
                        if bernoulli
                        else f"{distribution} inputs; ±{estimate.ci95:.2f}"
                    ),
                )
            )
        fit = fit_power_law(sizes, costs)
        fits[p] = fit
        rows.append(
            Row(
                experiment="prop3.6-tree",
                system="Tree (fit)",
                quantity=f"fitted exponent at p={p}",
                measured=fit.exponent,
                paper=tree_ppc_exponent(p) if bernoulli else None,
                relation="~",
                params={"heights": tuple(heights), "p": p},
                note=f"R^2 = {fit.r_squared:.4f}"
                + ("" if bernoulli else f"; {distribution} inputs"),
            )
        )
    return rows, fits


def run_randomized_tree(
    heights: Sequence[int] = (3, 5, 7, 9),
    trials: int = 2000,
    seed: int = 29,
) -> list[Row]:
    """R_Probe_Tree on the hard distribution of Theorem 4.8 versus bounds."""
    rows: list[Row] = []
    for height in heights:
        system = TreeSystem(height)
        algorithm = RProbeTree(system)
        n = system.n
        estimate = _hard_input_estimator(algorithm, system, trials, seed + height)
        rows.append(
            Row(
                experiment="thm4.7-tree-rand",
                system=system.name,
                quantity="E[probes] on hard inputs (R_Probe_Tree)",
                measured=estimate.mean,
                paper=5.0 * n / 6.0 + 1.0 / 6.0,
                relation="<=",
                params={"n": n, "h": height},
                note=f"Thm 4.7 upper bound; ±{estimate.ci95:.2f}",
            )
        )
        rows.append(
            Row(
                experiment="thm4.7-tree-rand",
                system=system.name,
                quantity="E[probes] on hard inputs (R_Probe_Tree)",
                measured=estimate.mean,
                paper=tree_lower_bound(n),
                relation=">=",
                params={"n": n, "h": height},
                note="Thm 4.8 Yao lower bound 2(n+1)/3",
            )
        )
    return rows


def run_deterministic_vs_randomized_tree(
    heights: Sequence[int] = (3, 5, 7),
    trials: int = 2000,
    seed: int = 31,
) -> list[Row]:
    """Head-to-head on the hard inputs: Probe_Tree (deterministic order) vs
    R_Probe_Tree, illustrating the constant-factor randomized advantage in
    the worst-case model."""
    rows: list[Row] = []
    for height in heights:
        system = TreeSystem(height)
        det = _hard_input_estimator(ProbeTree(system), system, trials, seed + height)
        rand = _hard_input_estimator(RProbeTree(system), system, trials, seed + height)
        rows.append(
            Row(
                experiment="thm4.7-tree-rand",
                system=system.name,
                quantity="hard-input probes: deterministic / randomized",
                measured=det.mean / rand.mean,
                paper=None,
                relation="~",
                params={"n": system.n, "h": height},
                note=f"det {det.mean:.1f} vs rand {rand.mean:.1f}",
            )
        )
    return rows
