"""Experiment drivers regenerating every table and figure of the paper.

Each driver returns a list of :class:`~repro.experiments.report.Row`
objects; ``render_table`` turns them into plain text.  The mapping from
driver to paper artifact is the experiment registry: ``repro-probe list
--params`` prints every registered experiment with its paper reference,
and :mod:`repro.experiments.writer` renders the measured results.

Drivers are registered declaratively (:mod:`repro.experiments.registry` /
:mod:`repro.experiments.specs`) and executed through the unified runner
(:mod:`repro.experiments.runner`), which resolves parameter overrides,
fans experiments across processes and writes one JSON artifact per run;
:mod:`repro.core.seeding` supplies the per-cell seeded streams
every driver uses.
"""

from repro.core.seeding import cell_generator, cell_seed
from repro.experiments.ablations import (
    EagerProbeHQS,
    run_cw_order_ablation,
    run_generic_baseline_ablation,
    run_hqs_ablation,
)
from repro.experiments.availability import run_availability_experiment
from repro.experiments.crumbling_walls import (
    run_cw_independence_of_n,
    run_probe_cw_bound,
    run_randomized_cw,
    run_wheel_and_triang_corollaries,
)
from repro.experiments.figures import (
    render_all_figures,
    render_crumbling_wall,
    render_hqs,
    render_tree,
)
from repro.experiments.hqs import (
    probe_hqs_expected_exact,
    run_probe_hqs_optimality,
    run_probe_hqs_scaling,
    run_randomized_hqs,
)
from repro.experiments.lemmas import run_urn_experiment, run_walk_experiment
from repro.experiments.maj3 import maj3_strategy_tree_summary, run_maj3_experiment
from repro.experiments.majority import (
    majority_sqrt_deficit_fit,
    run_probabilistic_majority,
    run_randomized_majority,
)
from repro.experiments.registry import (
    DriverResult,
    ExperimentSpec,
    ParamSpec,
    all_specs,
    all_tags,
    experiment_ids,
    get_spec,
    register,
    specs_for_tag,
)
from repro.experiments.report import (
    Row,
    render_table,
    row_from_dict,
    row_to_dict,
    violations,
)
from repro.experiments.runner import (
    RunResult,
    load_artifact,
    run_experiment,
    run_experiments,
    write_artifact,
    write_artifacts,
)
from repro.experiments.sweep import (
    SweepCell,
    SweepResult,
    load_sweep_artifact,
    render_sweep,
    run_sweep,
    write_sweep_artifact,
)
from repro.experiments.table1 import Table1Sizes, render_table1, run_table1
from repro.experiments.tree import (
    run_deterministic_vs_randomized_tree,
    run_probe_tree_scaling,
    run_randomized_tree,
)

__all__ = [
    "EagerProbeHQS",
    "run_cw_order_ablation",
    "run_generic_baseline_ablation",
    "run_hqs_ablation",
    "run_availability_experiment",
    "run_cw_independence_of_n",
    "run_probe_cw_bound",
    "run_randomized_cw",
    "run_wheel_and_triang_corollaries",
    "render_all_figures",
    "render_crumbling_wall",
    "render_hqs",
    "render_tree",
    "probe_hqs_expected_exact",
    "run_probe_hqs_optimality",
    "run_probe_hqs_scaling",
    "run_randomized_hqs",
    "run_urn_experiment",
    "run_walk_experiment",
    "maj3_strategy_tree_summary",
    "run_maj3_experiment",
    "majority_sqrt_deficit_fit",
    "run_probabilistic_majority",
    "run_randomized_majority",
    "Row",
    "render_table",
    "row_from_dict",
    "row_to_dict",
    "violations",
    "DriverResult",
    "ExperimentSpec",
    "ParamSpec",
    "all_specs",
    "all_tags",
    "experiment_ids",
    "get_spec",
    "register",
    "specs_for_tag",
    "RunResult",
    "load_artifact",
    "run_experiment",
    "run_experiments",
    "write_artifact",
    "write_artifacts",
    "cell_generator",
    "cell_seed",
    "SweepCell",
    "SweepResult",
    "load_sweep_artifact",
    "render_sweep",
    "run_sweep",
    "write_sweep_artifact",
    "Table1Sizes",
    "render_table1",
    "run_table1",
    "run_deterministic_vs_randomized_tree",
    "run_probe_tree_scaling",
    "run_randomized_tree",
]
