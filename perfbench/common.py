"""Shared pieces of the benchmark: statistics, environment, result shape."""

from __future__ import annotations

import importlib.util
import multiprocessing
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path

#: Root of the checkout the benchmark runs in (the parent of ``perfbench``).
ROOT = Path(__file__).resolve().parent.parent

#: Scratch and output directories, both inside the checkout.
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 9


def median(values) -> float:
    return float(statistics.median(values))


def quiet_level(values) -> float:
    """The fastest time: the cost of a unit while the host is quiet.

    Other tenants of a shared host slow a unit down in stretches of a few
    hundred milliseconds to whole runs, and the share of a run they cover
    varies from run to run; a median follows that share.  Contention only
    adds time and short units often fall in a quiet stretch, so the fastest
    of many short units is steady.
    """
    return float(min(values))


def percentile(values, q: float) -> float | None:
    """The ``q``-quantile, or ``None`` unless ten samples lie beyond it."""
    if len(values) * (1.0 - q) < 10:
        return None
    return float(statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1])


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest waited-for child, in MB."""
    reap_pool_workers()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def reap_pool_workers() -> None:
    """Wait for pool worker processes that are still shutting down."""
    for child in multiprocessing.active_children():
        child.join(timeout=30)


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    """What the figures depend on, recorded in every result."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        # core.compiled needs numba; without it that layer is not measured.
        "numba": importlib.util.find_spec("numba") is not None,
    }


def add_repo_to_path() -> None:
    """Import the program from the checkout's ``src``; fail if it is absent."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {source}")
    sys.path.insert(0, str(source))


@dataclass
class Metric:
    value: float
    unit: str
    samples: int = 1
    note: str = ""


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: dict[str, Metric] = field(default_factory=dict)
    #: Informative figures printed with the report, not part of the result.
    extra: dict[str, Metric] = field(default_factory=dict)
    #: Per-layer metrics of a traced run: name -> (value, unit).
    layers: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: The raw per-unit timings behind the metrics, kept in the record.
    samples: dict[str, list[float]] = field(default_factory=dict)
    #: Operation kind -> [attempted, failed].
    counts: dict[str, list[int]] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    report: list[str] = field(default_factory=list)

    def attempt(self, kind: str, ok: bool, problem: str = "") -> None:
        """Count one operation of ``kind``; a failed one records ``problem``."""
        entry = self.counts.setdefault(kind, [0, 0])
        entry[0] += 1
        if not ok:
            entry[1] += 1
            self.problems.append(f"{kind}: {problem}")

    @property
    def attempted(self) -> int:
        return sum(entry[0] for entry in self.counts.values())

    @property
    def failed(self) -> int:
        return sum(entry[1] for entry in self.counts.values())
