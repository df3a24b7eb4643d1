"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload packed-fixed --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, measured without tracing; with
``--trace 1`` they are the per-layer ones of a traced run, whose spans are
written to ``.perfbench_out/``.  The lines before it print every metric by
name, with its unit and sample count, and the environment.  The command
exits non-zero when an output check fails.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import sys

from common import (
    OUT_DIR,
    WORK_DIR,
    Metric,
    add_repo_to_path,
    environment,
    peak_rss_mb,
)

#: Workload name -> module implementing ``run(seed, seconds, trace)``.
WORKLOADS = {
    "packed-fixed": "packed_fixed",
    "numpy-sweep": "numpy_sweep",
    "service-mixed": "service_mixed",
    "exact-small": "exact_small",
}

#: The end-to-end metrics every workload reports (see README.md).
END_TO_END = ("setup_s", "primary_s", "secondary_s", "peak_rss_mb")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    add_repo_to_path()
    module = importlib.import_module(WORKLOADS[args.workload])
    OUT_DIR.mkdir(exist_ok=True)
    try:
        outcome = module.run(args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    outcome.metrics["peak_rss_mb"] = Metric(peak_rss_mb(), "MB")
    missing = [name for name in END_TO_END if name not in outcome.metrics]
    if missing:
        raise RuntimeError(f"{args.workload} did not measure {', '.join(missing)}")

    attempted, failed = outcome.attempted, outcome.failed
    env = environment()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("environment: " + " ".join(f"{key}={value}" for key, value in env.items()))
    for name, metric in {**outcome.metrics, **outcome.extra}.items():
        note = f"  [{metric.note}]" if metric.note else ""
        print(f"  {name} = {metric.value:.6g} {metric.unit} (n={metric.samples}){note}")
    for kind, (tries, fails) in outcome.counts.items():
        print(f"  {kind}: sent {tries} succeeded {tries - fails} failed {fails}")
    print(f"  failed_share = {failed / attempted:.6g} ratio (n={attempted})")
    for problem in outcome.problems[:20]:
        print(f"  FAILED {problem}")
    for line in outcome.report:
        print(line)

    if args.trace:
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.layers.items()
        }
    else:
        metrics = {
            name: {"value": outcome.metrics[name].value, "unit": outcome.metrics[name].unit}
            for name in END_TO_END
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        **result,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "end_to_end": {name: vars(metric) for name, metric in outcome.metrics.items()},
        "extra": {name: vars(metric) for name, metric in outcome.extra.items()},
        "counts": outcome.counts,
        "samples": outcome.samples,
        "problems": outcome.problems,
        "report": outcome.report,
    }
    path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
