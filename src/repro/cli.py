"""Command-line interface for the reproduction.

Provides a small set of subcommands so the experiments can be driven without
writing Python:

* ``repro-probe systems``          — list the built-in systems and their metrics
* ``repro-probe distributions``    — list the registered coloring sources
* ``repro-probe figures``          — render the paper's Figures 1–3 as ASCII
* ``repro-probe maj3``             — the Section 2.3 worked example, exact
* ``repro-probe probe``            — run one probing episode on a random coloring
* ``repro-probe estimate``         — Monte-Carlo PPC estimate vs the paper bound
* ``repro-probe sweep``            — batched (p, n) grid sweep + JSON artifact
* ``repro-probe table1``           — regenerate Table 1
* ``repro-probe list``             — list the registered experiments
* ``repro-probe run <id>``         — run registered experiments through the
  unified runner (``--tag``/``--all`` selection, ``--jobs`` process fan-out,
  ``--seed``/``--trials``/``--param`` overrides, ``--output`` JSON artifacts)

Experiment dispatch is registry-driven (:mod:`repro.experiments.registry`):
the CLI holds no per-experiment branches, so registering a new
:class:`~repro.experiments.registry.ExperimentSpec` is all it takes to make
a workload runnable here.

Input scenarios are likewise registry-driven
(:mod:`repro.core.distributions`): ``estimate``/``sweep`` accept
``--distribution <name>`` and registered experiments accept
``--param distribution=<name>``, so any registered coloring source — the
i.i.d. model, exact-count, correlated groups, the Yao hard families —
drives the batched kernels without new CLI surface.

Monte-Carlo estimation always runs through the streaming engine
(:mod:`repro.core.engine`), which uses the vectorized kernel where one is
registered and the per-trial loop otherwise: ``estimate`` and ``sweep`` accept
``--chunk-size`` (trials per chunk; memory stays O(chunk)),
``--target-ci`` (adaptive stopping at a 95% CI half-width tolerance),
``--max-trials`` (the adaptive cap) and ``--jobs`` (shard chunks across
worker processes, byte-identical to sequential).  Each algorithm has one
kernel, so there is no backend to choose: the ``backend :`` line of the
output reports the one that ran (README, "One kernel per algorithm").

Fault tolerance (see README, "Fault tolerance, checkpoints, and
resume"): ``estimate``/``sweep`` accept ``--retries`` (per-chunk retry
budget) and ``--chunk-timeout`` (seconds before a chunk's worker is
declared hung); ``estimate`` adds ``--checkpoint <path>`` (periodic
crash-safe state) and ``--resume <path>`` (continue a checkpointed run
byte-identically), and ``sweep`` the same two flags naming a directory
that holds one such engine checkpoint per cell (on resume, finished cells
run no chunk and an interrupted cell continues from its last merged
chunk).  A resume is the fresh command plus ``--resume``: each run's
:class:`~repro.core.engine.RunSpec` is rebuilt from its flags and checked
against its checkpoint's, field by field.  ``sweep`` and ``run`` degrade
gracefully by default — failed cells/experiments are recorded in the
artifact with ``status``/``error`` and exit nonzero — while
``--fail-fast`` restores strict abort-on-first-error behavior.

The module is also usable as ``python -m repro.cli ...``.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.core.coloring import Coloring
from repro.systems import (
    SYSTEM_CHOICES,
    CrumblingWall,
    GridSystem,
    HQS,
    MajoritySystem,
    TreeSystem,
    TriangSystem,
    WheelSystem,
)


def _cmd_systems(args: argparse.Namespace) -> int:
    from repro.core.metrics import quorum_size_statistics

    systems = [
        MajoritySystem(9),
        WheelSystem(8),
        TriangSystem(4),
        CrumblingWall([1, 3, 3]),
        TreeSystem(2),
        HQS(2),
        GridSystem(3),
    ]
    print(f"{'system':<16} {'n':>4} {'quorums':>8} {'min':>4} {'max':>4} {'ND':>4}")
    for system in systems:
        stats = quorum_size_statistics(system)
        nd = system.is_nondominated() if system.n <= 12 else None
        print(
            f"{system.name:<16} {system.n:>4} {int(stats['count']):>8} "
            f"{int(stats['min']):>4} {int(stats['max']):>4} "
            f"{'yes' if nd else 'no' if nd is not None else '?':>4}"
        )
    return 0


def _cmd_distributions(args: argparse.Namespace) -> int:
    from repro.core.distributions import source_specs

    specs = source_specs()
    width = max(len(spec.name) for spec in specs)
    print(f"{'name':<{width}}  description")
    print(f"{'-' * width}  {'-' * 11}")
    for spec in specs:
        aliases = f" (alias: {', '.join(spec.aliases)})" if spec.aliases else ""
        print(f"{spec.name:<{width}}  {spec.description}{aliases}")
    print(
        f"\n{len(specs)} sources; use `estimate`/`sweep --distribution <name>` "
        "or `run ... --param distribution=<name>`"
    )
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.experiments.figures import render_all_figures

    print(render_all_figures())
    return 0


def _cmd_maj3(args: argparse.Namespace) -> int:
    from repro.experiments.maj3 import run_maj3_experiment
    from repro.experiments.report import render_table

    print(render_table(run_maj3_experiment(), "Maj3 worked example (Section 2.3)"))
    return 0


def _cmd_probe(args: argparse.Namespace) -> int:
    import random

    from repro.core.engine import RunSpec

    algorithm, _ = RunSpec(args.system, args.size, args.p, args.randomized).build()
    system = algorithm.system
    rng = random.Random(args.seed)
    coloring = Coloring.random(system.n, args.p, rng)
    run = algorithm.run_on(coloring, rng=rng, validate=True)
    print(f"system    : {system.name} (n={system.n})")
    print(f"algorithm : {algorithm.name}")
    print(f"failed    : {sorted(coloring.red_elements)}")
    print(f"probes    : {run.probes}")
    print(f"sequence  : {list(run.sequence)}")
    print(f"witness   : {run.witness.color.value} {sorted(run.witness.elements)}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``serve``: run the probe-estimation HTTP daemon until SIGTERM."""
    import logging

    from repro.service import serve

    logging.basicConfig(
        level=logging.INFO, format="%(asctime)s %(name)s %(levelname)s %(message)s"
    )
    try:
        return serve(
            args.data_dir,
            host=args.host,
            port=args.port,
            queue_size=args.queue_size,
            workers=args.workers,
            engine_jobs=args.engine_jobs,
            job_retries=args.job_retries,
            retries=args.retries,
            chunk_timeout=args.chunk_timeout,
            deadline=args.deadline,
        )
    except ValueError as error:
        raise SystemExit(str(error)) from None


def _cmd_estimate(args: argparse.Namespace) -> int:
    from repro.core.batched import supports_batched
    from repro.core.engine import RunSpec, stream_probes

    try:
        spec = RunSpec(args.system, args.size, args.p, args.randomized, args.distribution)
        # The pair for the report; the run builds its own from the spec.
        algorithm, _ = spec.build()
        stream_result = stream_probes(
            spec,
            trials=args.trials,
            target_ci=args.target_ci,
            chunk_size=args.chunk_size,
            max_trials=args.max_trials,
            seed=args.seed,
            jobs=args.jobs,
            retries=args.retries,
            chunk_timeout=args.chunk_timeout,
            checkpoint_path=args.checkpoint or args.resume,
            resume=args.resume,
        )
    except (FileNotFoundError, ValueError) as error:
        raise SystemExit(str(error)) from None
    system = algorithm.system
    bernoulli = spec.distribution == "bernoulli"
    estimate = stream_result.estimate
    print(f"system    : {system.name} (n={system.n})")
    print(f"algorithm : {algorithm.name}")
    print(f"p         : {args.p}")
    if not bernoulli:
        print(f"inputs    : {spec.distribution}")
    kind = "vectorized kernel" if supports_batched(algorithm) else "per-trial fallback"
    jobs = f", {args.jobs} jobs" if args.jobs > 1 else ""
    print(f"estimator : streaming ({kind}, chunk {stream_result.chunk_size}{jobs})")
    print(f"backend   : {stream_result.backend}")
    if stream_result.retries_used or stream_result.pool_respawns:
        print(
            f"recovery  : {stream_result.retries_used} chunk retries, "
            f"{stream_result.pool_respawns} pool respawns"
        )
    if stream_result.target_ci is not None:
        verdict = "reached" if stream_result.reached_target else "NOT reached"
        print(
            f"stopping  : target ci95 {stream_result.target_ci:g} {verdict} "
            f"after {stream_result.n_trials_used} trials "
            f"(ci95 {stream_result.ci95:.4g})"
        )
    print(f"avg probes: {estimate.mean:.3f} ± {estimate.ci95:.3f} ({estimate.trials} trials)")
    if not bernoulli:
        print("paper bounds: stated for the i.i.d. model only")
        return 0
    try:
        from repro.analysis.bounds import Direction, Model, bounds_for

        table = bounds_for(system)
        for direction in (Direction.LOWER, Direction.EXACT, Direction.UPPER):
            bound = table.get(Model.PROBABILISTIC, direction)
            if bound is not None:
                print(
                    f"paper {direction.value:<5}: {bound.value(system.n, args.p):.3f}  "
                    f"[{bound.source}: {bound.formula}]"
                )
    except KeyError:
        print("paper bounds: none stated for this system")
    return 0


def _parse_int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _parse_float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.sweep import render_sweep, run_sweep, write_sweep_artifact

    try:
        result = run_sweep(
            args.system,
            sizes=args.sizes,
            ps=args.ps,
            trials=args.trials,
            seed=args.seed,
            randomized=args.randomized,
            distribution=args.distribution,
            chunk_size=args.chunk_size,
            target_ci=args.target_ci,
            max_trials=args.max_trials,
            jobs=args.jobs,
            fail_fast=args.fail_fast,
            retries=args.retries,
            chunk_timeout=args.chunk_timeout,
            checkpoint_path=args.checkpoint or args.resume,
            resume=args.resume,
        )
    except (OSError, ValueError) as error:
        raise SystemExit(str(error)) from None
    print(render_sweep(result))
    # The default artifact name encodes every result-changing axis so two
    # sweeps of the same system cannot silently overwrite each other.
    inputs_suffix = (
        "" if result.distribution == "bernoulli" else f"_{result.distribution}"
    )
    output = args.output or (
        f"sweep_{result.system}{'_rand' if result.randomized else ''}{inputs_suffix}.json"
    )
    path = write_sweep_artifact(result, output)
    print(f"wrote {path}")
    failed = result.failed_cells
    if failed:
        print(
            f"ERROR: {len(failed)} of {len(result.cells)} cells failed "
            "(recorded in the artifact)",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.experiments.table1 import Table1Sizes, render_table1, run_table1

    sizes = Table1Sizes(
        maj_n=args.maj_n,
        triang_depth=args.triang_depth,
        tree_height=args.tree_height,
        hqs_height=args.hqs_height,
    )
    rows = run_table1(sizes=sizes, trials=args.trials, seed=args.seed)
    print(render_table1(rows))
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.experiments.registry import all_specs, all_tags, specs_for_tag

    specs = specs_for_tag(args.tag) if args.tag else all_specs()
    if not specs:
        print(f"no experiments tagged {args.tag!r}; tags: {', '.join(all_tags())}")
        return 1
    width = max(len(spec.id) for spec in specs)
    tag_width = max(len(",".join(spec.tags)) for spec in specs)
    print(f"{'id':<{width}}  {'tags':<{tag_width}}  title")
    print(f"{'-' * width}  {'-' * tag_width}  {'-' * 5}")
    for spec in specs:
        print(f"{spec.id:<{width}}  {','.join(spec.tags):<{tag_width}}  {spec.title}")
        if args.params:
            for param in spec.params:
                print(
                    f"{'':<{width}}    --param {param.name}={param.default!r}"
                    f" ({param.kind}){': ' + param.help if param.help else ''}"
                )
    print(f"\n{len(specs)} experiments; tags: {', '.join(all_tags())}")
    return 0


def _parse_param_overrides(pairs: Sequence[str]) -> dict[str, str]:
    overrides: dict[str, str] = {}
    for pair in pairs or ():
        name, separator, value = pair.partition("=")
        if not separator or not name:
            raise SystemExit(f"--param expects name=value, got {pair!r}")
        overrides[name.strip()] = value
    return overrides


def _selected_specs(args: argparse.Namespace) -> list:
    from repro.experiments.registry import all_specs, all_tags, get_spec, specs_for_tag

    specs = []
    if args.all:
        specs.extend(all_specs())
    elif args.tag:
        tagged = specs_for_tag(args.tag)
        if not tagged:
            raise SystemExit(
                f"no experiments tagged {args.tag!r}; tags: {', '.join(all_tags())}"
            )
        specs.extend(tagged)
    for experiment_id in args.ids:
        try:
            specs.append(get_spec(experiment_id))
        except KeyError as error:
            raise SystemExit(str(error)) from None
    unique = list({spec.id: spec for spec in specs}.values())
    if not unique:
        raise SystemExit("select experiments: give ids, --tag <tag> or --all")
    return unique


def _cmd_run(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.experiments.report import render_table
    from repro.experiments.runner import artifact_path, run_experiments, write_artifact

    specs = _selected_specs(args)
    param_overrides = _parse_param_overrides(args.param)
    if len(specs) == 1:
        # Strict resolution surfaces typos in explicit --param pairs for a
        # single spec; the shared --trials/--seed flags stay lenient (specs
        # without those parameters, like maj3, simply ignore them).
        try:
            specs[0].resolve_params(param_overrides, strict=True)
        except (KeyError, ValueError) as error:
            raise SystemExit(str(error)) from None
    overrides: dict = dict(param_overrides)
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.seed is not None:
        overrides["seed"] = args.seed

    if args.output is not None and len(specs) > 1 and args.output.endswith(".json"):
        raise SystemExit(
            f"--output {args.output} is a .json file but {len(specs)} experiments "
            "were selected; pass a directory instead"
        )

    try:
        results = run_experiments(
            [spec.id for spec in specs],
            overrides=overrides,
            jobs=args.jobs,
            fail_fast=args.fail_fast,
        )
    except ValueError as error:
        raise SystemExit(f"invalid parameter value: {error}") from None

    total_rows = 0
    total_violations = 0
    failed = []
    for result in results:
        if result.status != "ok":
            failed.append(result)
            print(f"Experiment {result.spec_id} — {result.title}")
            print(f"FAILED: {result.error}")
            print()
            continue
        print(render_table(result.rows, f"Experiment {result.spec_id} — {result.title}"))
        for line in result.extra:
            print(line)
        bad = result.violation_rows
        total_rows += len(result.rows)
        total_violations += len(bad)
        if bad:
            print(f"WARNING: {len(bad)} rows violate their paper relation")
        print()

    if args.output is not None:
        output = Path(args.output)
        if len(results) == 1 and output.suffix == ".json":
            paths = [write_artifact(results[0], output)]
        else:
            paths = [
                write_artifact(result, artifact_path(result, output))
                for result in results
            ]
        for path in paths:
            print(f"wrote {path}")

    if failed:
        names = ", ".join(result.spec_id for result in failed)
        print(
            f"\nERROR: {len(failed)} of {len(results)} experiments failed: {names}",
            file=sys.stderr,
        )
        return 1
    if total_violations:
        print(f"\nWARNING: {total_violations} rows violate their paper relation")
        return 1
    print(f"\nAll {total_rows} checked relations consistent with the paper.")
    return 0


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    """The streaming-engine knobs shared by ``estimate`` and ``sweep``."""
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        dest="chunk_size",
        help="streaming-engine trials per chunk (default: auto)",
    )
    parser.add_argument(
        "--target-ci",
        type=float,
        default=None,
        dest="target_ci",
        help="adaptive stop: 95%% CI half-width tolerance (default: fixed trials)",
    )
    parser.add_argument(
        "--max-trials",
        type=int,
        default=None,
        dest="max_trials",
        help="trial cap of the --target-ci stopping mode",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="shard trial chunks across N worker processes",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        help="per-chunk retry budget for worker crashes/timeouts (default 2)",
    )
    parser.add_argument(
        "--chunk-timeout",
        type=float,
        default=None,
        dest="chunk_timeout",
        help="seconds before a chunk's worker is declared hung and respawned",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-probe",
        description="Probe-complexity experiments for quorum systems (Hassin & Peleg)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("systems", help="list built-in systems").set_defaults(func=_cmd_systems)
    sub.add_parser(
        "distributions", help="list the registered coloring sources"
    ).set_defaults(func=_cmd_distributions)
    sub.add_parser("figures", help="render Figures 1-3").set_defaults(func=_cmd_figures)
    sub.add_parser("maj3", help="the Maj3 worked example").set_defaults(func=_cmd_maj3)

    probe = sub.add_parser("probe", help="run one probing episode")
    probe.add_argument("--system", choices=SYSTEM_CHOICES, default="triang")
    probe.add_argument("--size", type=int, default=6, help="system size knob")
    probe.add_argument("--p", type=float, default=0.5, help="failure probability")
    probe.add_argument("--seed", type=int, default=None)
    probe.add_argument("--randomized", action="store_true", help="use the randomized algorithm")
    probe.set_defaults(func=_cmd_probe)

    estimate = sub.add_parser("estimate", help="Monte-Carlo average probe estimate")
    estimate.add_argument("--system", choices=SYSTEM_CHOICES, default="triang")
    estimate.add_argument("--size", type=int, default=8)
    estimate.add_argument("--p", type=float, default=0.5)
    estimate.add_argument(
        "--trials",
        type=int,
        default=None,
        help="Monte-Carlo trials (default 1000; mutually exclusive with --target-ci)",
    )
    estimate.add_argument("--seed", type=int, default=None)
    estimate.add_argument("--randomized", action="store_true")
    estimate.add_argument(
        "--distribution",
        default="bernoulli",
        help="registered coloring source for the inputs (see `distributions`)",
    )
    estimate.add_argument(
        "--checkpoint",
        default=None,
        help="write crash-safe run state to this file after every merged chunk",
    )
    estimate.add_argument(
        "--resume",
        default=None,
        metavar="CKPT",
        help="continue the run checkpointed in CKPT; repeat the run's own flags "
        "(the seed and stopping flags may be left out) and it keeps writing to "
        "CKPT unless --checkpoint names another file",
    )
    _add_engine_arguments(estimate)
    estimate.set_defaults(func=_cmd_estimate)

    sweep = sub.add_parser(
        "sweep",
        help="batched Monte-Carlo sweep over a (p, size) grid, written as JSON",
    )
    sweep.add_argument("--system", choices=SYSTEM_CHOICES, default="tree")
    sweep.add_argument(
        "--sizes",
        type=_parse_int_list,
        default=[3, 5, 7, 9],
        help="comma-separated size knobs (e.g. tree/HQS heights)",
    )
    sweep.add_argument(
        "--ps",
        type=_parse_float_list,
        default=[0.1, 0.3, 0.5],
        help="comma-separated failure probabilities",
    )
    sweep.add_argument(
        "--trials",
        type=int,
        default=None,
        help="trials per cell (default 1000; mutually exclusive with --target-ci)",
    )
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--randomized", action="store_true")
    sweep.add_argument(
        "--distribution",
        default="bernoulli",
        help="registered coloring source for the cell inputs (see `distributions`)",
    )
    sweep.add_argument(
        "--output",
        default=None,
        help="artifact path (default: sweep_<system>[_rand].json)",
    )
    sweep.add_argument(
        "--fail-fast",
        action="store_true",
        dest="fail_fast",
        help="abort on the first failing cell instead of recording it",
    )
    sweep.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help="keep each cell's crash-safe run state in DIR, written after every "
        "merged chunk",
    )
    sweep.add_argument(
        "--resume",
        default=None,
        metavar="DIR",
        help="continue the sweep checkpointed in DIR: finished cells run no chunk "
        "and an interrupted cell continues where it stopped; repeat the sweep's "
        "flags, and it keeps writing to DIR unless --checkpoint names another",
    )
    _add_engine_arguments(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    serve = sub.add_parser(
        "serve", help="run the probe-estimation HTTP service"
    )
    serve.add_argument(
        "--data-dir",
        required=True,
        dest="data_dir",
        metavar="DIR",
        help="durable state directory (job journal with results, checkpoints)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8421, help="bind port (0 picks a free port)"
    )
    serve.add_argument(
        "--queue-size",
        type=int,
        default=16,
        dest="queue_size",
        help="admission bound: waiting jobs beyond this get 503 + Retry-After",
    )
    serve.add_argument(
        "--workers", type=int, default=1, help="concurrent job runner threads"
    )
    serve.add_argument(
        "--engine-jobs",
        type=int,
        default=1,
        dest="engine_jobs",
        help="worker processes per engine run (shared warm chunk pool)",
    )
    serve.add_argument(
        "--job-retries",
        type=int,
        default=1,
        dest="job_retries",
        help="re-run attempts for a failed job (exponential backoff)",
    )
    serve.add_argument(
        "--retries",
        type=int,
        default=None,
        help="per-chunk retry budget inside each engine run",
    )
    serve.add_argument(
        "--chunk-timeout",
        type=float,
        default=None,
        dest="chunk_timeout",
        help="seconds before a hung chunk is abandoned and re-run",
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-job wall-clock budget in seconds (engine run_timeout)",
    )
    serve.set_defaults(func=_cmd_serve)

    table1 = sub.add_parser("table1", help="regenerate the paper's Table 1")
    table1.add_argument("--maj-n", type=int, default=101, dest="maj_n")
    table1.add_argument("--triang-depth", type=int, default=12, dest="triang_depth")
    table1.add_argument("--tree-height", type=int, default=7, dest="tree_height")
    table1.add_argument("--hqs-height", type=int, default=4, dest="hqs_height")
    table1.add_argument("--trials", type=int, default=1000)
    table1.add_argument("--seed", type=int, default=1001)
    table1.set_defaults(func=_cmd_table1)

    listing = sub.add_parser("list", help="list the registered experiments")
    listing.add_argument("--tag", default=None, help="only experiments with this tag")
    listing.add_argument(
        "--params", action="store_true", help="show each experiment's parameter schema"
    )
    listing.set_defaults(func=_cmd_list)

    run = sub.add_parser(
        "run", help="run registered experiments through the unified runner"
    )
    run.add_argument(
        "ids", nargs="*", metavar="id", help="registered experiment id(s)"
    )
    run.add_argument("--tag", default=None, help="run every experiment with this tag")
    run.add_argument(
        "--all", action="store_true", help="run every registered experiment"
    )
    run.add_argument(
        "--trials", type=int, default=None, help="Monte-Carlo trials override"
    )
    run.add_argument("--seed", type=int, default=None, help="experiment seed override")
    run.add_argument(
        "--param",
        action="append",
        metavar="NAME=VALUE",
        default=[],
        help="override a declared parameter (repeatable); see `list --params`",
    )
    run.add_argument(
        "--jobs", type=int, default=1, help="fan experiments out across N processes"
    )
    run.add_argument(
        "--output",
        default=None,
        help="write JSON artifact(s): a directory, or a .json path for a single id",
    )
    run.add_argument(
        "--fail-fast",
        action="store_true",
        dest="fail_fast",
        help="abort on the first failing experiment instead of recording it",
    )
    run.set_defaults(func=_cmd_run)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
