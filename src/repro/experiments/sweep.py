"""Streaming ``(p, n)`` sweep runner.

Drives the streaming estimation engine (:mod:`repro.core.engine`) across a
grid of failure probabilities and system sizes — one chunked Monte-Carlo
run per cell, optionally sharded across processes and/or stopped
adaptively at a target CI half-width — and serializes the whole sweep as a
single JSON artifact.  This is how the paper's scaling curves — the
``O(n^0.585)`` Probe_Tree and ``n^0.834`` Probe_HQS power laws, and the
randomized-vs-deterministic gaps — are regenerated at sizes the per-trial
loops cannot reach.

Every cell runs on its own seed (derived from the sweep seed and the
cell's ``(size, p)`` values via :func:`repro.core.seeding.cell_seed`), so
results are independent of grid iteration order and any sub-grid — prefix
or not — can be reproduced in isolation.

Cell inputs come from a registered coloring source
(:mod:`repro.core.distributions`): the default ``bernoulli`` reproduces
the paper's i.i.d. model, while ``distribution="fixed_count"``,
``"correlated_groups"``, ``"cw_hard"``-style names sweep any other
registered scenario batched, with the ``p`` axis as the scenario's
intensity knob.
"""

from __future__ import annotations

import datetime
import time
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.core.batched import supports_batched
from repro.core.checkpoint import (
    CheckpointRefused,
    atomic_write_json,
    check_schema_version,
    load_json_payload,
    remove_stale_tmp,
    required_field,
)
from repro.core.distributions import canonical_source_name
from repro.core.engine import (
    ChunkPool,
    RunDeadlineExceeded,
    RunInterrupted,
    RunSpec,
    check_run_settings,
    stream_probes,
)
from repro.core.seeding import cell_seed

#: ``kind`` field of sweep artifacts.
SWEEP_KIND = "p_sweep"

#: Version of the sweep artifact JSON schema.  Version 1 added the
#: per-cell ``status``/``error`` fields (degraded grids); version 2 adds
#: the per-cell recovery counters (``retries_used``/``pool_respawns``, and
#: a TCP lease-reassignment count that loading now drops); version 3 adds
#: the per-cell resolved kernel ``backend``; version 4 marks cells seeded
#: on the bit-plane Bernoulli stream, version 5 randomized gate cells
#: seeded on the bit-plane order choices, version 6 Bernoulli cells seeded
#: on the tail-queue stream ``bitplane-v3``.  Older artifacts still load,
#: with every cell ``"ok"`` (v0), all recovery counters zero (v0/v1) and
#: backend ``"numpy"`` (v0-v2).
SWEEP_SCHEMA_VERSION = 6

@dataclass(frozen=True)
class SweepCell:
    """One ``(size, p)`` grid cell of a sweep.

    ``n_trials_used`` is the count the streaming engine actually
    evaluated; in fixed mode ``trials`` is the requested count (equal to
    ``n_trials_used``), under ``target_ci`` no count was requested and
    ``trials`` records ``n_trials_used`` too, so the field is always the
    number of trials behind the cell's statistics.

    ``status`` is ``"ok"`` for a measured cell and ``"failed"`` for a cell
    whose run raised; a failed cell carries the error (``"Type: message"``)
    in ``error`` and zeros in every statistic — consumers must filter on
    ``status``, not on magic values.

    The recovery counters record how bumpy the cell's run was —
    ``retries_used`` chunk retries, ``pool_respawns`` process-pool
    respawns — and are excluded from every determinism claim (like
    ``seconds``): a recovered cell's statistics are byte-identical to a
    fault-free run's.
    """

    system: str
    size: int
    n: int
    p: float
    mean: float
    std: float
    ci95: float
    trials: int
    batched_kernel: bool
    seconds: float
    n_trials_used: int = 0
    status: str = "ok"
    error: str = ""
    retries_used: int = 0
    pool_respawns: int = 0
    #: Kernel backend the cell ran on, derived from the algorithm
    #: ("bitpacked" for the deterministic ones, "numpy" otherwise).
    backend: str = "numpy"


@dataclass(frozen=True)
class SweepResult:
    """A completed sweep: the grid definition plus one cell per point."""

    system: str
    algorithm: str
    randomized: bool
    sizes: tuple[int, ...]
    ps: tuple[float, ...]
    trials: int
    seed: int
    cells: tuple[SweepCell, ...]
    distribution: str = "bernoulli"
    target_ci: float | None = None

    def cell(self, size: int, p: float) -> SweepCell:
        """The cell measured at ``(size, p)``."""
        for cell in self.cells:
            if cell.size == size and cell.p == p:
                return cell
        raise KeyError(f"no sweep cell at size={size}, p={p}")

    @property
    def failed_cells(self) -> tuple[SweepCell, ...]:
        """The cells whose runs raised (degraded-grid mode)."""
        return tuple(cell for cell in self.cells if cell.status != "ok")

    def to_dict(self) -> dict:
        """JSON-ready representation (the artifact payload)."""
        return {
            "kind": SWEEP_KIND,
            "schema": SWEEP_SCHEMA_VERSION,
            "system": self.system,
            "algorithm": self.algorithm,
            "randomized": self.randomized,
            "distribution": self.distribution,
            "target_ci": self.target_ci,
            "sizes": list(self.sizes),
            "ps": list(self.ps),
            "trials": self.trials,
            "seed": self.seed,
            "cells": [asdict(cell) for cell in self.cells],
        }


def _cell_checkpoint(directory: str | Path | None, size: int, p: float) -> Path | None:
    """The engine checkpoint of cell ``(size, p)`` in a sweep's checkpoint
    directory (``None`` without one), named from the cell's own values like
    the cell's seed."""
    return None if directory is None else Path(directory) / f"cell-{size}-{p!r}.ckpt"


def _open_checkpoint_dirs(
    checkpoint_path: str | Path | None, resume: str | Path | None
) -> None:
    """Check the ``resume`` directory and create the ``checkpoint_path`` one."""
    if resume is not None:
        if Path(resume).is_file():
            raise CheckpointRefused(
                f"{resume}: a sweep checkpoint file of an older build; a sweep now "
                "resumes from a directory of per-cell engine checkpoints, so start "
                "afresh"
            )
        if not Path(resume).is_dir():
            raise FileNotFoundError(f"{resume}: no such sweep checkpoint directory")
    if checkpoint_path is not None:
        Path(checkpoint_path).mkdir(parents=True, exist_ok=True)


def run_sweep(
    system_name: str,
    sizes: Sequence[int],
    ps: Sequence[float],
    trials: int | None = None,
    seed: int = 0,
    randomized: bool = False,
    distribution: str = "bernoulli",
    chunk_size: int | None = None,
    target_ci: float | None = None,
    min_trials: int | None = None,
    max_trials: int | None = None,
    jobs: int = 1,
    fail_fast: bool = False,
    retries: int | None = None,
    chunk_timeout: float | None = None,
    checkpoint_path: str | Path | None = None,
    resume: str | Path | None = None,
    backend: str | None = None,
    stop_event=None,
    run_timeout: float | None = None,
) -> SweepResult:
    """Run a streaming Monte-Carlo sweep over the ``(sizes, ps)`` grid.

    Each cell runs on its algorithm's one kernel and records the backend
    it derived (:func:`repro.core.batched.resolve_backend`).  ``backend``
    is validated per cell but chooses nothing; ``backend="bitpacked"`` on
    a randomized sweep without packed kernels (Majority, crumbling walls)
    fails loudly (degraded to per-cell failures unless ``fail_fast``).

    ``system_name`` and ``sizes`` use the conventions of
    :func:`repro.systems.build_system` (size knob = tree/HQS height,
    universe size for Majority, ...).  ``randomized`` selects the paper's
    randomized algorithm for the system instead of the deterministic one.
    ``distribution`` names a registered coloring source
    (:func:`repro.core.distributions.build_source`) drawn batched in every
    cell — ``fixed_count``, ``correlated_groups``, the Yao hard families —
    with the grid's ``p`` axis as the scenario's intensity knob.

    Every cell runs through the streaming engine
    (:func:`repro.core.engine.stream_probes`) on its own seed stream:
    memory stays O(``chunk_size``) per cell, ``jobs > 1`` shards each
    cell's chunks across worker processes (byte-identical to sequential)
    and ``target_ci`` switches from fixed-``trials`` mode to adaptive
    CI-targeted stopping — mutually exclusive with an explicit ``trials``
    (cap adaptive runs with ``max_trials``); near-critical cells then get
    the trials their variance demands while easy cells stop early, and
    both each cell's ``trials`` and ``n_trials_used`` record the count
    actually evaluated (the result's grid-level ``trials`` is 0).
    Algorithms without a registered kernel transparently fall back to the
    per-trial loop, so the sweep works — slowly — for any system.

    Degraded grids: a cell whose run raises does not abort the sweep — the
    failure is recorded in that cell's ``status``/``error`` fields and the
    remaining cells run normally (each cell's seed depends only on its own
    ``(size, p)``, so surviving cells are byte-identical to a clean
    sub-grid run).  Pass ``fail_fast=True`` to restore strict abort-on-
    first-error behavior.

    Resume: ``checkpoint_path`` names a directory in which every cell keeps
    its own engine checkpoint (:func:`repro.core.engine.stream_probes`),
    named from the cell's ``(size, p)`` and written after every merged
    chunk.  ``resume`` names such a directory: a cell whose file is there
    continues from it (a finished cell returns at once, an interrupted one
    from its last merged chunk) and any other cell runs afresh, so a
    sub-grid or an extended grid resumes the cells it shares.  The
    arguments repeat the interrupted sweep's, and the engine refuses a cell
    whose settings, seed or :class:`~repro.core.engine.RunSpec` differ
    from its file's with :class:`~repro.core.checkpoint.CheckpointRefused`
    naming the file and each differing field; the refusal ends the sweep
    instead of degrading the cell.  Every cell runs from its own
    ``RunSpec``, whose ``p`` is a float: ``ps=[0, 0.5]`` resumes a grid
    written with ``ps=[0.0, 0.5]``.
    Execution knobs (``jobs``, ``retries``, ...) may differ, as they do not
    change a cell's bytes.  Run settings, ``seed`` included, are checked
    once by :func:`repro.core.engine.check_run_settings` before the first
    cell runs or any file is written: a bad one raises ``ValueError``
    naming the field.

    Cooperative control (the serving layer's drain/deadline hooks):
    ``stop_event`` and ``run_timeout`` are threaded into every cell's
    engine run and also checked between cells.  Unlike an ordinary cell
    failure they are *not* recorded as degraded cells:
    :class:`~repro.core.engine.RunInterrupted` /
    :class:`~repro.core.engine.RunDeadlineExceeded` propagates with the
    interrupted cell's checkpoint durable at its last merged chunk, so a
    drained sweep resumes mid-cell, byte-identically.  ``run_timeout``
    bounds the whole grid's wall clock, not one cell's.
    """
    run = check_run_settings(
        trials,
        target_ci,
        chunk_size,
        min_trials,
        max_trials,
        seed=seed,
        jobs=jobs,
        retries=retries,
        chunk_timeout=chunk_timeout,
        run_timeout=run_timeout,
    )
    deadline_at = None if run_timeout is None else time.monotonic() + run_timeout
    if not sizes or not ps:
        raise ValueError("sweep needs at least one size and one p")
    _open_checkpoint_dirs(checkpoint_path, resume)
    # Canonical name: aliases like "iid" render and serialize as the
    # source they resolve to, so artifact consumers compare one spelling.
    distribution = canonical_source_name(distribution)
    cells: list[SweepCell] = []
    algorithm_name = ""
    # One worker pool for the whole grid: spawning processes per cell would
    # dwarf small cells' compute.  A ChunkPool, not a raw executor, so a
    # worker crash recovered inside one cell leaves the pool usable by the
    # next.
    executor = ChunkPool(max_workers=jobs) if jobs > 1 else None

    def failed_cell(size: int, n: int, p: float, error: Exception) -> SweepCell:
        return SweepCell(
            system=system_name,
            size=int(size),
            n=n,
            p=float(p),
            mean=0.0,
            std=0.0,
            ci95=0.0,
            trials=0,
            batched_kernel=False,
            seconds=0.0,
            n_trials_used=0,
            status="failed",
            error=f"{type(error).__name__}: {error}",
        )

    try:
        for size in sizes:
            for p in ps:
                # Drain/deadline land between cells too: every finished
                # cell's checkpoint is durable, so raising here loses no
                # work and the interruption is not a degraded cell.
                if stop_event is not None and stop_event.is_set():
                    raise RunInterrupted(
                        f"sweep stopped before cell (size={size}, p={p:g})"
                    )
                remaining = None
                if deadline_at is not None:
                    remaining = deadline_at - time.monotonic()
                    if remaining <= 0:
                        raise RunDeadlineExceeded(
                            f"sweep exceeded run_timeout={run_timeout}s "
                            f"before cell (size={size}, p={p:g})"
                        )
                n = 0
                try:
                    spec = RunSpec(system_name, size, p, randomized, distribution)
                    # The cell's pair, for its metadata; the run builds its own.
                    algorithm, source = spec.build()
                    algorithm_name, n = algorithm.name, source.n
                    cell_resume = _cell_checkpoint(resume, spec.size, spec.p)
                    result = stream_probes(
                        spec,
                        **asdict(run),
                        seed=cell_seed(seed, spec.size, spec.p),
                        jobs=jobs,
                        executor=executor,
                        retries=retries,
                        chunk_timeout=chunk_timeout,
                        checkpoint_path=_cell_checkpoint(checkpoint_path, spec.size, spec.p),
                        resume=cell_resume if cell_resume and cell_resume.is_file() else None,
                        backend=backend,
                        stop_event=stop_event,
                        run_timeout=remaining,
                    )
                except (RunInterrupted, RunDeadlineExceeded, CheckpointRefused):
                    raise
                except Exception as error:
                    if fail_fast:
                        raise
                    cells.append(failed_cell(size, n, p, error))
                    continue
                cells.append(
                    SweepCell(
                        system=algorithm.system.name,
                        size=size,
                        n=n,
                        p=float(p),
                        mean=result.mean,
                        std=result.std,
                        ci95=result.ci95,
                        trials=(
                            result.n_trials_used if run.trials is None else run.trials
                        ),
                        batched_kernel=supports_batched(algorithm),
                        seconds=result.seconds,
                        n_trials_used=result.n_trials_used,
                        retries_used=result.retries_used,
                        pool_respawns=result.pool_respawns,
                        backend=result.backend,
                    )
                )
    finally:
        if executor is not None:
            executor.shutdown(wait=False)
    return SweepResult(
        system=system_name,
        algorithm=algorithm_name,
        randomized=randomized,
        sizes=tuple(int(s) for s in sizes),
        ps=tuple(float(p) for p in ps),
        trials=0 if run.trials is None else run.trials,
        seed=seed,
        cells=tuple(cells),
        distribution=distribution,
        target_ci=target_ci,
    )


def render_sweep(result: SweepResult) -> str:
    """Plain-text table of a sweep: one row per size, one column per p."""
    inputs = (
        "" if result.distribution == "bernoulli" else f", {result.distribution} inputs"
    )
    budget = (
        f"{result.trials} trials/cell"
        if result.target_ci is None
        else f"target ci95 {result.target_ci:g}"
    )
    header = (
        f"{result.algorithm} sweep "
        f"({budget}, seed {result.seed}{inputs})"
    )
    lines = [header, ""]
    lines.append(
        f"{'system':<16} {'n':>6} " + " ".join(f"p={p:<11g}" for p in result.ps)
    )
    for size in result.sizes:
        cells = [result.cell(size, p) for p in result.ps]
        lines.append(
            f"{cells[0].system:<16} {cells[0].n:>6} "
            + " ".join(
                f"{c.mean:8.2f}±{c.ci95:<5.2f}"
                if c.status == "ok"
                else f"{'FAILED':>8} {'':<5}"
                for c in cells
            )
        )
    measured = [c for c in result.cells if c.status == "ok"]
    kernel = all(c.batched_kernel for c in measured)
    total = sum(c.seconds for c in measured)
    lines.append("")
    lines.append(
        f"{len(result.cells)} cells in {total:.3f}s "
        f"({'vectorized kernel' if kernel else 'per-trial fallback in use'})"
    )
    backends = sorted({c.backend for c in measured})
    if backends:
        lines.append(f"backend: {', '.join(backends)}")
    if result.target_ci is not None:
        used = sum(c.n_trials_used for c in measured)
        lines.append(f"adaptive stopping used {used} trials across the grid")
    retried = sum(c.retries_used for c in measured)
    respawned = sum(c.pool_respawns for c in measured)
    if retried or respawned:
        lines.append(
            f"recovery: {retried} chunk retries, {respawned} pool respawns"
        )
    for cell in result.failed_cells:
        lines.append(f"FAILED cell (size={cell.size}, p={cell.p:g}): {cell.error}")
    return "\n".join(lines)


def write_sweep_artifact(result: SweepResult, path: str | Path) -> Path:
    """Write the sweep's JSON artifact atomically and return its path.

    Atomic (tmp + fsync + ``os.replace``): a crash mid-write never leaves
    a truncated artifact under the target name.
    """
    payload = result.to_dict()
    payload["created"] = (
        datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    )
    remove_stale_tmp(path)
    return atomic_write_json(path, payload)


def load_sweep_artifact(path: str | Path) -> SweepResult:
    """Load a sweep artifact written by :func:`write_sweep_artifact`.

    Strict: corrupt JSON, a wrong ``kind``, a newer schema version or a
    missing field all fail with a message naming the file and the field —
    never a raw ``KeyError``.  Pre-``schema`` (version-0) artifacts load
    as all-``"ok"`` grids.
    """
    payload = load_json_payload(path, SWEEP_KIND)
    check_schema_version(payload, SWEEP_SCHEMA_VERSION, path, legacy_ok=True)
    cells = []
    for fields in required_field(payload, "cells", path):
        # Legacy (pre-engine) artifacts: every cell used exactly its
        # requested trial count and had no adaptive-stopping tolerance.
        fields = {"n_trials_used": fields.get("trials", 0), **fields}
        # Artifacts of the retired TCP transport carry its lease-reassignment
        # count: a recovery counter outside every statistic, so it is
        # dropped rather than refused.
        fields.pop("worker_reassignments", None)
        cells.append(SweepCell(**fields))
    return SweepResult(
        system=required_field(payload, "system", path),
        algorithm=required_field(payload, "algorithm", path),
        randomized=required_field(payload, "randomized", path),
        sizes=tuple(required_field(payload, "sizes", path)),
        ps=tuple(required_field(payload, "ps", path)),
        trials=required_field(payload, "trials", path),
        seed=required_field(payload, "seed", path),
        cells=tuple(cells),
        distribution=payload.get("distribution", "bernoulli"),
        target_ci=payload.get("target_ci"),
    )
