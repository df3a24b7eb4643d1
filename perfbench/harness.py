"""The measurement loop shared by the in-process workloads."""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

from common import OUT_DIR, ROOT, SETUP_REPEATS, Outcome, median, reap_pool_workers
from tracing import Tracer, install, layer_metrics, layer_report, load_worker_spans


def cold_setup(module: str) -> float:
    """Median seconds, over :data:`SETUP_REPEATS` fresh interpreters, from
    process start until ``module`` is imported and its ``build()`` returned.

    Each set-up runs in a new process, so every one pays the imports, the
    lazy imports inside the program and the first-call warm-up.  The time
    the process then takes to exit (pool teardown) is not counted.
    """
    paths = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    code = (
        f"import sys; sys.path[:0] = {paths!r}; import {module}; "
        f"{module}.build(); print('ready', flush=True)"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        process = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True)
        ready = any(line == "ready\n" for line in process.stdout)
        times.append(time.perf_counter() - start)
        process.stdout.close()
        if process.wait() != 0 or not ready:
            raise RuntimeError(f"set-up of {module} failed with exit code {process.returncode}")
    return median(times)


def repeat_for(seconds: float, min_units: int, unit) -> list:
    """Call ``unit()`` at least ``min_units`` times, and more while the next
    call, at the mean duration so far, still ends within ``seconds``."""
    results = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        done = len(results)
        if done >= min_units and elapsed * (done + 1) > seconds * done:
            return results
        results.append(unit())


def traced(run_id: str, body):
    """Run ``body()`` with every layer wrapped; returns (result, spans, wall s).

    The spans (this process and any pool workers it forked) are also
    written to ``.perfbench_out/trace-<run_id>.json``.
    """
    tracer = Tracer(run_id, OUT_DIR)
    load_worker_spans(tracer)  # drops leftovers of an interrupted run
    uninstall = install(tracer)
    start = time.perf_counter()
    try:
        result = body()
    finally:
        wall = time.perf_counter() - start
        uninstall()
    reap_pool_workers()
    tracer.spans.extend(load_worker_spans(tracer))
    tracer.write(OUT_DIR / f"trace-{run_id}.json")
    return result, tracer.spans, wall


def measure(outcome: Outcome, run_id: str, seconds: float, trace: bool, unit,
            primary, min_units: int, trace_units: int) -> list:
    """The untraced loop, then (with ``trace``) a traced one of fixed size.

    Returns the untraced unit results.  With ``trace`` it also fills the
    outcome's per-layer metrics and report; ``primary(results)`` reduces
    unit results to the workload's primary seconds, and the traced over
    the untraced value of it is the tracing overhead.
    """
    results = repeat_for(seconds / 2 if trace else seconds, min_units, unit)
    if trace:
        traced_results, spans, wall = traced(
            run_id, lambda: repeat_for(0.0, trace_units, unit)
        )
        overhead = primary(traced_results) / primary(results) - 1.0
        outcome.layers = layer_metrics(spans, wall, overhead)
        outcome.report = layer_report(spans, wall, overhead)
    return results
