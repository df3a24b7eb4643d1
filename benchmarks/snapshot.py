"""Perfbench snapshots: record result files, and check fresh results against one.

    python3 benchmarks/snapshot.py write OUT RESULT...
    python3 benchmarks/snapshot.py check BASELINE RESULT...

Each ``RESULT`` is a ``.perfbench_out/result-<workload>-seed<n>-trace<t>.json``
record written by ``perfbench/run.py``.  ``write`` collects them into one
JSON snapshot (``kind: "perfbench_snapshot"``): for each workload its seed,
seconds, ``attempted`` and ``failed`` checks, environment, and the
end-to-end metrics that ``BENCHMARK.json`` declares, with their units.

``check`` exits 1 when a result failed an output check, when a workload of
the baseline snapshot has no result, or when an end-to-end metric is worse
than :data:`THRESHOLD` times its baseline value, in the direction
``BENCHMARK.json`` gives as ``better``.
"""

from __future__ import annotations

import datetime
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KIND = "perfbench_snapshot"

#: How many times worse than its baseline a metric may read.  The committed
#: baseline comes from a different host than the one checking, so only gross
#: regressions fail (an accidental de-vectorization costs 10-100x), not
#: differences between runner classes.
THRESHOLD = 3.0


def end_to_end() -> dict[str, str]:
    """Each end-to-end metric of ``BENCHMARK.json`` with its ``better``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["better"] for metric in spec["end_to_end"]}


def load_results(paths: list[str]) -> dict[str, dict]:
    """The snapshot entry of each result file, keyed by workload."""
    names = end_to_end()
    entries = {}
    for path in paths:
        result = json.loads(Path(path).read_text())
        metrics = result["metrics"]
        entries[result["workload"]] = {
            "seed": result["seed"],
            "seconds": result["seconds"],
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "environment": result["environment"],
            "metrics": {
                name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
                for name in names
            },
        }
    return entries


def write(out: str, paths: list[str]) -> int:
    snapshot = {
        "kind": KIND,
        "date": datetime.date.today().isoformat(),
        "workloads": load_results(paths),
    }
    Path(out).write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}: {', '.join(sorted(snapshot['workloads']))}")
    return 0


def check(baseline_path: str, paths: list[str]) -> int:
    baseline = json.loads(Path(baseline_path).read_text())
    if baseline.get("kind") != KIND:
        raise SystemExit(f"{baseline_path}: not a {KIND} file")
    results = load_results(paths)
    problems = [
        f"{workload}: {entry['failed']} of {entry['attempted']} output checks failed"
        for workload, entry in sorted(results.items())
        if entry["failed"] or not entry["correct"]
    ]
    for workload, base in sorted(baseline["workloads"].items()):
        entry = results.get(workload)
        if entry is None:
            problems.append(f"{workload}: no result for this baseline workload")
            continue
        for name, better in end_to_end().items():
            old = base["metrics"][name]["value"]
            new = entry["metrics"][name]["value"]
            unit = entry["metrics"][name]["unit"]
            if better == "lower":
                limit, worse = THRESHOLD * old, new > THRESHOLD * old
            else:
                limit, worse = old / THRESHOLD, new < old / THRESHOLD
            line = f"{workload} {name}: {new:.4g} {unit} (baseline {old:.4g}, limit {limit:.4g})"
            print(line)
            if worse:
                problems.append(line)
    for problem in problems:
        print(f"FAILED {problem}")
    print(f"{len(problems)} problem(s) against {baseline_path}, threshold {THRESHOLD}x")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) < 3 or args[0] not in ("write", "check"):
        print(__doc__, file=sys.stderr)
        return 2
    command, target, *paths = args
    return write(target, paths) if command == "write" else check(target, paths)


if __name__ == "__main__":
    sys.exit(main())
