"""Built-in :class:`~repro.experiments.registry.ExperimentSpec` registrations.

One registration per experiment formerly hard-wired into the CLI's
``experiment`` ladder (``maj3``, ``majority``, ``crumbling-walls``,
``tree``, ``hqs``, ``randomized``, ``lemmas``, ``availability``,
``ablations``), plus ``table1`` and the ``(p, n)`` sweep cells.  The module
is imported for its side effects by the registry on first lookup.

Adapters are thin: they compose the historical driver functions exactly the
way the old CLI did, so a registered run at a fixed seed reproduces the
pre-registry rows.  ``seed=None`` (the schema default) means "use every
driver's historical default seed"; an explicit seed is forwarded to all
component drivers, which derive independent per-cell streams from it (see
:mod:`repro.core.seeding`).
"""

from __future__ import annotations

from repro.experiments.ablations import (
    run_cw_order_ablation,
    run_generic_baseline_ablation,
    run_hqs_ablation,
)
from repro.experiments.availability import run_availability_experiment
from repro.experiments.crumbling_walls import (
    run_cw_independence_of_n,
    run_probe_cw_bound,
    run_randomized_cw,
)
from repro.experiments.hqs import (
    run_probe_hqs_optimality,
    run_probe_hqs_scaling,
    run_randomized_hqs,
)
from repro.experiments.lemmas import run_urn_experiment, run_walk_experiment
from repro.experiments.maj3 import run_maj3_experiment
from repro.experiments.majority import (
    run_probabilistic_majority,
    run_randomized_majority,
)
from repro.experiments.registry import (
    DriverResult,
    ExperimentSpec,
    ParamSpec,
    register,
)
from repro.experiments.report import Row
from repro.experiments.sweep import run_sweep
from repro.experiments.table1 import Table1Sizes, run_table1
from repro.experiments.tree import run_probe_tree_scaling, run_randomized_tree


def _seed_kw(seed: int | None) -> dict:
    """Forward an explicit seed, or let drivers use their historic defaults."""
    return {} if seed is None else {"seed": seed}


def _trials_param(default: int = 800) -> ParamSpec:
    return ParamSpec("trials", "int", default, "Monte-Carlo trials per driver")


def _seed_param() -> ParamSpec:
    return ParamSpec(
        "seed", "seed", None, "experiment seed (default: per-driver historic seeds)"
    )


def _distribution_param() -> ParamSpec:
    return ParamSpec(
        "distribution",
        "str",
        "bernoulli",
        "registered coloring source (see `repro-probe distributions`)",
    )


def _fit_lines(fits) -> tuple[str, ...]:
    return tuple(
        f"fitted exponent at p={p}: {fit.exponent:.3f}" for p, fit in fits.items()
    )


def _drive_maj3() -> DriverResult:
    return DriverResult(rows=run_maj3_experiment())


def _drive_majority(trials: int, seed: int | None) -> DriverResult:
    return DriverResult(rows=run_probabilistic_majority(trials=trials, **_seed_kw(seed)))


def _drive_crumbling_walls(trials: int, seed: int | None) -> DriverResult:
    rows = run_probe_cw_bound(trials=trials, **_seed_kw(seed))
    rows += run_cw_independence_of_n(trials=trials, **_seed_kw(seed))
    return DriverResult(rows=rows)


def _drive_tree(trials: int, seed: int | None, distribution: str) -> DriverResult:
    rows, fits = run_probe_tree_scaling(
        trials=trials, distribution=distribution, **_seed_kw(seed)
    )
    return DriverResult(rows=rows, extra=_fit_lines(fits))


def _drive_hqs(trials: int, seed: int | None, distribution: str) -> DriverResult:
    from repro.core.distributions import canonical_source_name

    rows, fits = run_probe_hqs_scaling(
        trials=trials, distribution=distribution, **_seed_kw(seed)
    )
    if canonical_source_name(distribution) == "bernoulli":
        rows += run_probe_hqs_optimality()
    return DriverResult(rows=rows, extra=_fit_lines(fits))


def _drive_randomized(trials: int, seed: int | None) -> DriverResult:
    rows = run_randomized_majority(trials=trials, **_seed_kw(seed))
    rows += run_randomized_cw(trials=trials, **_seed_kw(seed))
    rows += run_randomized_tree(trials=trials, **_seed_kw(seed))
    rows += run_randomized_hqs(trials=trials, **_seed_kw(seed))
    return DriverResult(rows=rows)


def _drive_lemmas(trials: int, seed: int | None) -> DriverResult:
    rows = run_walk_experiment(trials=trials, **_seed_kw(seed))
    rows += run_urn_experiment(trials=trials, **_seed_kw(seed))
    return DriverResult(rows=rows)


def _drive_availability(trials: int, seed: int | None) -> DriverResult:
    return DriverResult(rows=run_availability_experiment(trials=trials, **_seed_kw(seed)))


def _drive_ablations(trials: int, seed: int | None) -> DriverResult:
    rows = run_cw_order_ablation(trials=trials, **_seed_kw(seed))
    rows += run_hqs_ablation(trials=trials, **_seed_kw(seed))
    rows += run_generic_baseline_ablation(trials=trials, **_seed_kw(seed))
    return DriverResult(rows=rows)


def _drive_table1(
    maj_n: int,
    triang_depth: int,
    tree_height: int,
    hqs_height: int,
    trials: int,
    seed: int | None,
) -> DriverResult:
    sizes = Table1Sizes(
        maj_n=maj_n,
        triang_depth=triang_depth,
        tree_height=tree_height,
        hqs_height=hqs_height,
    )
    return DriverResult(rows=run_table1(sizes=sizes, trials=trials, **_seed_kw(seed)))


def _drive_sweep(
    system: str,
    sizes: tuple[int, ...],
    ps: tuple[float, ...],
    trials: int | None,
    seed: int | None,
    randomized: bool,
    distribution: str,
    chunk_size: int | None,
    target_ci: float | None,
    max_trials: int | None,
) -> DriverResult:
    # The run settings stay None unless explicitly overridden, so run_sweep
    # applies the engine's defaults AND refuses a bad value (chunk_size=0,
    # trials + target_ci) — the same contract as every other entry point.
    result = run_sweep(
        system,
        sizes=sizes,
        ps=ps,
        trials=trials,
        seed=0 if seed is None else seed,
        randomized=randomized,
        distribution=distribution,
        chunk_size=chunk_size,
        target_ci=target_ci,
        max_trials=max_trials,
    )
    # Degraded grids: failed cells carry no measurement, so they become
    # extra lines rather than rows with fabricated zeros.
    measured = [cell for cell in result.cells if cell.status == "ok"]
    rows = [
        Row(
            experiment=f"sweep-{system}",
            system=cell.system,
            quantity=f"avg probes ({result.algorithm})",
            measured=cell.mean,
            paper=None,
            relation="~",
            params={
                "size": cell.size,
                "n": cell.n,
                "p": cell.p,
                "trials": cell.trials,
                "n_trials_used": cell.n_trials_used,
                "ci95": round(cell.ci95, 6),
            },
            note=f"±{cell.ci95:.2f}",
        )
        for cell in measured
    ]
    kernel = all(cell.batched_kernel for cell in measured)
    extra = [
        f"{len(result.cells)} cells via "
        f"{'vectorized kernel' if kernel else 'per-trial fallback'}",
    ]
    if target_ci is not None:
        used = sum(cell.n_trials_used for cell in measured)
        extra.append(
            f"adaptive stopping (ci95 <= {target_ci:g}) used {used} trials"
        )
    extra.extend(
        f"FAILED cell (size={cell.size}, p={cell.p:g}): {cell.error}"
        for cell in result.failed_cells
    )
    return DriverResult(rows=rows, extra=tuple(extra))


def _sweep_spec(system: str, sizes: tuple[int, ...], ps: tuple[float, ...], tag: str):
    return ExperimentSpec(
        id=f"sweep-{system}",
        title=f"(p, n) sweep: {system} scaling grid",
        driver=_drive_sweep,
        params=(
            ParamSpec("system", "str", system, "system family (factory name)"),
            ParamSpec("sizes", "int_list", sizes, "size knobs (heights/rows/n)"),
            ParamSpec("ps", "float_list", ps, "failure probabilities"),
            ParamSpec(
                "trials",
                "int",
                None,
                "trials per cell (default 1000; mutually exclusive with target_ci)",
            ),
            ParamSpec("seed", "seed", None, "sweep seed (default 0)"),
            ParamSpec("randomized", "bool", False, "use the randomized algorithm"),
            _distribution_param(),
            ParamSpec("chunk_size", "int", None, "engine chunk size (unset = auto)"),
            ParamSpec(
                "target_ci",
                "float",
                None,
                "adaptive stop: 95% CI half-width tolerance (unset = fixed trials)",
            ),
            ParamSpec(
                "max_trials", "int", None, "target_ci trial cap (unset = engine default)"
            ),
        ),
        tags=("sweep", "scaling", tag),
        description=(
            "Streaming Monte-Carlo grid over (p, size): chunked engine runs "
            "on per-cell seeded streams, optional CI-targeted stopping."
        ),
    )


register(
    ExperimentSpec(
        id="maj3",
        title="Maj3 worked example (Section 2.3)",
        driver=_drive_maj3,
        params=(),
        tags=("exact", "worked-example"),
        description="PC = 3, PPC_1/2 = 5/2, PCR = 8/3, all recomputed exactly.",
    )
)
register(
    ExperimentSpec(
        id="majority",
        title="Proposition 3.2: Probe_Maj under i.i.d. failures",
        driver=_drive_majority,
        params=(_trials_param(), _seed_param()),
        tags=("probabilistic", "majority"),
        description="Average probes of Probe_Maj vs n − Θ(√n) and n/(2q).",
    )
)
register(
    ExperimentSpec(
        id="crumbling-walls",
        title="Theorem 3.3: Probe_CW vs 2k − 1",
        driver=_drive_crumbling_walls,
        params=(_trials_param(), _seed_param()),
        tags=("probabilistic", "crumbling-walls"),
        description="2k − 1 bound, corollaries and independence of n.",
    )
)
register(
    ExperimentSpec(
        id="tree",
        title="Proposition 3.6: Probe_Tree scaling",
        driver=_drive_tree,
        params=(_trials_param(), _seed_param(), _distribution_param()),
        tags=("probabilistic", "scaling", "tree"),
        description="O(n^{log2(1+p)}) power law with exponent fits.",
    )
)
register(
    ExperimentSpec(
        id="hqs",
        title="Theorem 3.8: Probe_HQS scaling + optimality",
        driver=_drive_hqs,
        params=(_trials_param(), _seed_param(), _distribution_param()),
        tags=("probabilistic", "scaling", "hqs"),
        description="2.5^h growth, exponent fits and exact-solver optimality check.",
    )
)
register(
    ExperimentSpec(
        id="randomized",
        title="Section 4: randomized worst-case bounds",
        driver=_drive_randomized,
        params=(_trials_param(), _seed_param()),
        tags=("randomized",),
        description="R_Probe_* on the paper's hard input families vs Yao bounds.",
    )
)
register(
    ExperimentSpec(
        id="lemmas",
        title="Technical lemmas 2.4 / 2.8 / 2.9",
        driver=_drive_lemmas,
        params=(_trials_param(), _seed_param()),
        tags=("lemmas",),
        description="Grid-walk exit times and urn processes vs closed forms.",
    )
)
register(
    ExperimentSpec(
        id="availability",
        title="Availability and Fact 2.3",
        driver=_drive_availability,
        params=(_trials_param(), _seed_param()),
        tags=("availability",),
        description="Recursions vs enumeration vs Monte-Carlo, Fact 2.3 identities.",
    )
)
register(
    ExperimentSpec(
        id="ablations",
        title="Design-choice ablations",
        driver=_drive_ablations,
        params=(_trials_param(), _seed_param()),
        tags=("ablation",),
        description="Probing-order, laziness and generic-baseline ablations.",
    )
)
register(
    ExperimentSpec(
        id="table1",
        title="Table 1: measured vs paper bounds",
        driver=_drive_table1,
        params=(
            ParamSpec("maj_n", "int", 101, "Majority universe size"),
            ParamSpec("triang_depth", "int", 12, "Triang rows"),
            ParamSpec("tree_height", "int", 7, "Tree height"),
            ParamSpec("hqs_height", "int", 4, "HQS height"),
            ParamSpec("trials", "int", 1000, "Monte-Carlo trials per cell"),
            _seed_param(),
        ),
        tags=("table1", "summary"),
        description="Every cell of the paper's Table 1 at configurable sizes.",
    )
)
register(_sweep_spec("tree", (3, 5, 7, 9), (0.1, 0.3, 0.5), "tree"))
register(_sweep_spec("hqs", (2, 3, 4, 5), (0.25, 0.5), "hqs"))
