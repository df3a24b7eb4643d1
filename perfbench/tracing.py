"""In-memory span tracer for the traced benchmark run.

The tracer never edits the program: :func:`install` replaces each layer's
public entry point (module function or class method) with a wrapper that
records one span per call, and :func:`uninstall` puts the originals back.
A span is ``(id, name, start, end, parent, trace, run, thread, attrs)``;
``parent`` is the enclosing span on the same thread, ``trace`` the root
span of that call tree, ``run`` the benchmark run id.  Spans stay in a
list until the run ends and are then written out as JSON.

Pool workers forked while tracing inherit the wrappers.  The first span a
worker records resets its (copied) span list, and the worker writes its
own spans to ``spans-<run>-<pid>.json`` when it exits normally.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from multiprocessing import util as mp_util
from pathlib import Path


class Tracer:
    """Collects spans in memory; one instance per traced process."""

    def __init__(self, run_id: str, out_dir: str | Path) -> None:
        self.run_id = run_id
        self.out_dir = Path(out_dir)
        self.spans: list[dict] = []
        self._pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        if os.getpid() != self._pid:
            self._enter_forked_child()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter_forked_child(self) -> None:
        # The parent's spans and call stacks were copied by fork; this
        # process starts its own record and writes it out when it exits.
        self._pid = os.getpid()
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        mp_util.Finalize(None, self.write_worker_spans, exitpriority=10)

    def record(self, name: str, func, args, kwargs, before, after):
        """Call ``func`` inside a span named ``name``."""
        stack = self._stack()
        span_id = f"{self._pid}.{next(self._ids)}"
        parent, trace = stack[-1] if stack else (None, span_id)
        attrs = before(*args, **kwargs) if before is not None else {}
        stack.append((span_id, trace))
        start = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        except BaseException as error:
            attrs["error"] = type(error).__name__
            raise
        else:
            if after is not None:
                attrs.update(after(result, *args, **kwargs))
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                {
                    "id": span_id,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "trace": trace,
                    "run": self.run_id,
                    "pid": self._pid,
                    "thread": threading.current_thread().name,
                    "attrs": attrs,
                }
            )

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans))
        return path

    def worker_file(self, pid: int) -> Path:
        return self.out_dir / f"spans-{self.run_id}-{pid}.json"

    def write_worker_spans(self) -> None:
        if self.spans:
            self.write(self.worker_file(self._pid))


# -- the layer map ------------------------------------------------------------------


def _packed_sample(source, n, trials, rng=None, *_a, **_k) -> dict:
    return {
        "n": n,
        "trials": trials,
        "p": getattr(source, "p", None),
        "bytes": -(-trials // 64) * n * 8,
    }


def _packed_kernel(algorithm, packed, rng=None) -> dict:
    return {
        "algorithm": algorithm.name,
        "trials": packed.trials,
        "bytes": int(packed.words.nbytes),
    }


def _matrix_sample(source, n, trials, rng=None) -> dict:
    return {"n": n, "trials": trials, "p": getattr(source, "p", None), "bytes": n * trials}


def _matrix_kernel(algorithm, red, rng=None) -> dict:
    return {
        "algorithm": algorithm.name,
        "trials": int(red.shape[0]),
        "bytes": int(red.nbytes),
    }


def _stream_before(algorithm, source=None, **kwargs) -> dict:
    checkpoint = kwargs.get("checkpoint_path")
    return {
        "algorithm": algorithm.name,
        "pooled": kwargs.get("jobs", 1) > 1 or kwargs.get("executor") is not None,
        "job": None if checkpoint is None else Path(checkpoint).name.split(".")[0],
    }


def _stream_after(result, *_a, **_k) -> dict:
    return {
        "trials": result.n_trials_used,
        "chunks": result.chunks,
        "retries": result.retries_used,
    }


def _submit_before(_pool, _fn, *args) -> dict:
    payload = args[0] if args else None
    blob = payload[0] if isinstance(payload, tuple) and payload else b""
    return {"bytes": len(blob) if isinstance(blob, bytes) else 0}


def _sweep_after(result, *_a, **_k) -> dict:
    return {"cells": len(result.cells)}


def _file_size_after(path, *_a, **_k) -> dict:
    return {"bytes": os.path.getsize(path)}


def _journal_before(_journal, job) -> dict:
    return {"job": job.id, "state": job.state}


def _cache_get_after(result, *_a, **_k) -> dict:
    return {"hit": result is not None}


def _admit_after(result, *_a, **_k) -> dict:
    status, body = result
    return {"status": status, "job": body.get("id")}


def layer_targets() -> list[tuple]:
    """``(owner, attribute, span name, before, after)`` for every layer.

    ``owner`` is a module (its function is also rebound in every module
    that imported it by name) or a class (the method is replaced on it).
    """
    from repro.core import batched, bitpacked, checkpoint, engine, exact
    from repro.core.distributions import ColoringSource
    from repro.experiments import sweep
    from repro.service.app import ProbeService
    from repro.service.cache import ResultCache
    from repro.service.jobs import JobJournal

    return [
        (bitpacked, "sample_packed", "bitpacked.sample", _packed_sample, None),
        (bitpacked, "run_packed", "bitpacked.kernel", _packed_kernel, None),
        (ColoringSource, "sample_matrix", "distributions.sample", _matrix_sample, None),
        (batched, "batched_or_sequential_run", "batched.kernel", _matrix_kernel, None),
        (engine, "stream_probes", "engine.stream", _stream_before, _stream_after),
        (engine.MomentAccumulator, "merge", "engine.merge", None, None),
        (engine.ChunkPool, "submit", "engine.submit", _submit_before, None),
        (sweep, "run_sweep", "sweep.run", None, _sweep_after),
        (checkpoint, "save_engine_checkpoint", "checkpoint.write", None, _file_size_after),
        (JobJournal, "write", "journal.write", _journal_before, None),
        (ResultCache, "get", "cache.get", None, _cache_get_after),
        (ResultCache, "put", "cache.put", None, None),
        (ProbeService, "submit", "service.admit", None, _admit_after),
        (exact.ExactSolver, "probe_complexity", "exact.pc", None, None),
        (exact.ExactSolver, "packed_probe_complexity", "exact.packed", None, None),
        (exact.ExactSolver, "probabilistic_probe_complexity", "exact.ppc", None, None),
    ]


def _make_wrapper(tracer: Tracer, original, name, before, after):
    # Methods pass ``self`` first, so a method's ``before``/``after`` see
    # the instance as their first argument (``source`` for sample_matrix).
    @functools.wraps(original)
    def traced(*args, **kwargs):
        return tracer.record(name, original, args, kwargs, before, after)

    return traced


def install(tracer: Tracer):
    """Wrap every layer entry point; returns a callable that undoes it."""
    undo: list[tuple] = []
    for owner, attribute, name, before, after in layer_targets():
        original = owner.__dict__[attribute]
        wrapper = _make_wrapper(tracer, original, name, before, after)
        if isinstance(owner, type):
            setattr(owner, attribute, wrapper)
            undo.append((owner, attribute, original))
            continue
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if (
                namespace is not None
                and getattr(module, "__name__", "").startswith("repro")
                and namespace.get(attribute) is original
            ):
                setattr(module, attribute, wrapper)
                undo.append((module, attribute, original))

    def uninstall() -> None:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)

    return uninstall


def load_worker_spans(tracer: Tracer) -> list[dict]:
    """Spans that forked pool workers wrote when they exited."""
    spans: list[dict] = []
    for path in sorted(tracer.out_dir.glob(f"spans-{tracer.run_id}-*.json")):
        spans.extend(json.loads(path.read_text()))
        path.unlink()
    return spans


# -- derivation ---------------------------------------------------------------------


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    child_time: dict[str, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    return [span["end"] - span["start"] - child_time[span["id"]] for span in spans]


def layer_totals(spans: list[dict]) -> dict[str, dict]:
    """Per span name: self seconds, call count and summed ``bytes``."""
    totals: dict[str, dict] = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "bytes": 0})
    for span, own in zip(spans, self_times(spans)):
        entry = totals[span["name"]]
        entry["self_s"] += own
        entry["calls"] += 1
        entry["bytes"] += span["attrs"].get("bytes", 0)
    return totals


#: Every per-layer metric the traced run reports: name -> (unit, source).
#: ``source`` is ``(span name, field)`` for plain span totals.
PER_LAYER = {
    "bitpacked.sample_s": ("s", ("bitpacked.sample", "self_s")),
    "bitpacked.sample_calls": ("count", ("bitpacked.sample", "calls")),
    "bitpacked.sample_bytes": ("bytes", ("bitpacked.sample", "bytes")),
    "bitpacked.kernel_s": ("s", ("bitpacked.kernel", "self_s")),
    "bitpacked.kernel_calls": ("count", ("bitpacked.kernel", "calls")),
    "bitpacked.kernel_bytes": ("bytes", ("bitpacked.kernel", "bytes")),
    "distributions.sample_s": ("s", ("distributions.sample", "self_s")),
    "distributions.sample_calls": ("count", ("distributions.sample", "calls")),
    "distributions.sample_bytes": ("bytes", ("distributions.sample", "bytes")),
    "batched.kernel_s": ("s", ("batched.kernel", "self_s")),
    "batched.kernel_calls": ("count", ("batched.kernel", "calls")),
    "batched.kernel_bytes": ("bytes", ("batched.kernel", "bytes")),
    "engine.merge_s": ("s", ("engine.merge", "self_s")),
    "engine.merges": ("count", ("engine.merge", "calls")),
    "engine.self_s": ("s", ("engine.stream", "self_s")),
    "engine.chunks_submitted": ("count", None),
    "engine.chunks_merged": ("count", None),
    "engine.useful_ratio": ("ratio", None),
    "engine.retries": ("count", None),
    "engine.payload_bytes": ("bytes", ("engine.submit", "bytes")),
    "sweep.self_s": ("s", ("sweep.run", "self_s")),
    "sweep.cells": ("count", None),
    "checkpoint.write_s": ("s", ("checkpoint.write", "self_s")),
    "checkpoint.writes": ("count", ("checkpoint.write", "calls")),
    "checkpoint.bytes": ("bytes", ("checkpoint.write", "bytes")),
    "journal.write_s": ("s", ("journal.write", "self_s")),
    "journal.writes": ("count", ("journal.write", "calls")),
    "cache.get_s": ("s", ("cache.get", "self_s")),
    "cache.put_s": ("s", ("cache.put", "self_s")),
    "cache.hits": ("count", None),
    "cache.misses": ("count", None),
    "cache.hit_ratio": ("ratio", None),
    "service.admit_s": ("s", ("service.admit", "self_s")),
    "service.queue_wait_s": ("s", None),
    "service.run_s": ("s", None),
    "service.busy_share": ("ratio", None),
    "service.http_s": ("s", None),
    "service.rejected": ("count", None),
    "loadgen.late_ms": ("ms", None),
    "exact.table_s": ("s", ("exact.pc", "self_s")),
    "exact.packed_s": ("s", ("exact.packed", "self_s")),
    "exact.ppc_s": ("s", ("exact.ppc", "self_s")),
    "trace.wall_s": ("s", None),
    "trace.covered_share": ("ratio", None),
    "trace.overhead_share": ("ratio", None),
}


def layer_metrics(spans: list[dict], wall: float, overhead: float,
                  client: dict | None = None) -> dict[str, tuple[float, str]]:
    """Derive every :data:`PER_LAYER` metric from the spans of one run.

    ``client`` carries what only the load generator sees (service
    workload): summed POST round trips, 503 count and mean lateness.
    """
    totals = layer_totals(spans)
    values: dict[str, float] = {}
    for name, (_unit, source) in PER_LAYER.items():
        if source is not None:
            span_name, key = source
            values[name] = totals[span_name][key] if span_name in totals else 0
    streams = [span for span in spans if span["name"] == "engine.stream"]
    merged = sum(span["attrs"].get("chunks", 0) for span in streams)
    inline = sum(
        span["attrs"].get("chunks", 0) for span in streams if not span["attrs"]["pooled"]
    )
    submitted = inline + (totals["engine.submit"]["calls"] if "engine.submit" in totals else 0)
    values["engine.chunks_submitted"] = submitted
    values["engine.chunks_merged"] = merged
    values["engine.useful_ratio"] = merged / submitted if submitted else 0.0
    values["engine.retries"] = sum(span["attrs"].get("retries", 0) for span in streams)
    values["sweep.cells"] = sum(
        span["attrs"].get("cells", 0) for span in spans if span["name"] == "sweep.run"
    )
    gets = [span for span in spans if span["name"] == "cache.get"]
    hits = sum(1 for span in gets if span["attrs"].get("hit"))
    values["cache.hits"] = hits
    values["cache.misses"] = len(gets) - hits
    values["cache.hit_ratio"] = hits / len(gets) if gets else 0.0

    admits = [span for span in spans if span["name"] == "service.admit"]
    admitted_at = {
        span["attrs"]["job"]: span["end"] for span in admits if span["attrs"].get("job")
    }
    job_streams = [span for span in streams if span["attrs"].get("job")]
    values["service.queue_wait_s"] = sum(
        span["start"] - admitted_at[span["attrs"]["job"]]
        for span in job_streams
        if span["attrs"]["job"] in admitted_at
    )
    values["service.run_s"] = sum(span["end"] - span["start"] for span in job_streams)
    values["service.busy_share"] = service_busy_s(totals, job_streams) / wall if wall else 0.0
    client = client or {}
    admit_total = sum(span["end"] - span["start"] for span in admits)
    values["service.http_s"] = (
        client["post_rtt_s"] - admit_total if "post_rtt_s" in client else 0.0
    )
    values["service.rejected"] = client.get("rejected", 0)
    values["loadgen.late_ms"] = client.get("late_ms", 0.0)

    busy = sum(entry["self_s"] for entry in totals.values())
    values["trace.wall_s"] = wall
    values["trace.covered_share"] = busy / wall if wall else 0.0
    values["trace.overhead_share"] = overhead
    return {name: (float(values[name]), PER_LAYER[name][0]) for name in PER_LAYER}


def service_busy_s(totals: dict, job_streams: list[dict]) -> float:
    """Seconds the daemon spent on fresh jobs: their engine calls, journal
    writes and cache puts.  Over the traced wall time it is the share of
    the single job worker's capacity that the offered load used."""
    extra = sum(totals[name]["self_s"] for name in ("journal.write", "cache.put") if name in totals)
    return sum(span["end"] - span["start"] for span in job_streams) + extra


def layer_report(spans: list[dict], wall: float, overhead: float) -> list[str]:
    """Per layer: self time, calls and share of the traced wall time; then
    the per-chunk sampling/kernel split per algorithm."""
    totals = layer_totals(spans)
    busy = sum(entry["self_s"] for entry in totals.values())
    lines = [
        f"traced wall {wall:.3f} s, {busy / wall:.1%} of it in layer spans; "
        f"tracing overhead {overhead:+.1%} on primary_s",
        "layer self time, calls, share of traced wall:",
    ]
    for name in sorted(totals, key=lambda key: -totals[key]["self_s"]):
        entry = totals[name]
        lines.append(
            f"  {name:22s} {entry['self_s']:9.4f} s {entry['calls']:7d} calls "
            f"{entry['self_s'] / wall:7.1%}"
        )
    lines.extend(chunk_split(spans))
    return lines


def chunk_split(spans: list[dict]) -> list[str]:
    """Sampling vs kernel seconds per 65,536 trials, per algorithm, n and p.

    A chunk's kernel span names the algorithm; its sampling span is the
    one just before it on the same thread of the same process.
    """
    per_thread: dict[tuple, list[dict]] = defaultdict(list)
    for span in spans:
        if span["name"] in ("bitpacked.sample", "bitpacked.kernel",
                            "distributions.sample", "batched.kernel"):
            per_thread[(span["pid"], span["thread"])].append(span)
    split: dict[tuple, list[float]] = defaultdict(lambda: [0.0, 0.0, 0])
    for chain in per_thread.values():
        chain.sort(key=lambda span: span["start"])
        for sample, kernel in zip(chain, chain[1:]):
            if not sample["name"].endswith(".sample") or not kernel["name"].endswith(".kernel"):
                continue
            backend = kernel["name"].split(".")[0]
            key = (kernel["attrs"]["algorithm"], sample["attrs"]["n"],
                   sample["attrs"].get("p"), backend)
            entry = split[key]
            entry[0] += sample["end"] - sample["start"]
            entry[1] += kernel["end"] - kernel["start"]
            entry[2] += kernel["attrs"]["trials"]
    lines = []
    if split:
        lines.append("per 65,536 trials: sampling s / kernel s (sampling share):")
    for (algorithm, n, p, backend), (sample_s, kernel_s, trials) in sorted(
        split.items(), key=lambda item: tuple(str(part) for part in item[0])
    ):
        scale = 65536 / trials
        lines.append(
            f"  {algorithm:12s} n={n:<5d} p={p} {backend:9s} {sample_s * scale:7.3f} / "
            f"{kernel_s * scale:7.3f} ({sample_s / (sample_s + kernel_s):.0%})"
        )
    return lines
