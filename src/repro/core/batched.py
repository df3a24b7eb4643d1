"""Vectorized Monte-Carlo estimation over coloring batches.

A probing algorithm (:mod:`repro.algorithms`) runs one trial at a time: a
fresh :class:`~repro.core.coloring.Coloring`, a fresh oracle and a fresh
Python probe loop for every sample.  For the paper's structured algorithms the
whole trial batch can instead be evaluated with array arithmetic: a batch
of colorings is one boolean matrix (``True`` = red, column ``i`` ⇔ element
``i + 1``, the convention of :meth:`ColoringSource.sample_matrix
<repro.core.distributions.ColoringSource.sample_matrix>`), or the same
colorings packed 64 trials per word.

Every algorithm has exactly one kernel, registered under the backend it
runs on (:func:`register_kernel`, keyed by the *exact* algorithm class; a
subclass overrides probing behavior, so it never inherits its parent's
kernel and must register its own).  The ``bitpacked`` backend
(:mod:`repro.core.bitpacked`) runs Probe_Maj, Probe_CW, Probe_Tree,
Probe_HQS and the randomized gate algorithms R_Probe_Tree, R_Probe_HQS
and IR_Probe_HQS.  The algorithms whose trials each draw a whole
permutation keep ``numpy`` kernels over bool matrices, registered here:

* :class:`~repro.algorithms.majority.RProbeMaj` — the fixed-order majority
  scan after a per-trial uniform permutation (cumulative counts + argmax);
* :class:`~repro.algorithms.crumbling_walls.ProbeCW` with
  ``within_row_order="random"`` — the top-down wall scan of Fig. 5 with
  shuffled rows, one vector step per row (the lexicographic order runs
  packed, so the rule is what a kernel accepts, not its class);
* :class:`~repro.algorithms.crumbling_walls.RProbeCW` — the bottom-up
  randomized scan of Theorem 4.4, one vector step per row over the
  still-active trials.

The backend is therefore a fact about the algorithm, not a choice:
:func:`resolve_backend` derives it, and :func:`batched_run` packs a bool
matrix for a packed kernel.  The streaming engine
(:func:`repro.core.engine.stream_probes`) calls
:func:`repro.core.bitpacked.run_packed` or
:func:`batched_or_sequential_run` once per chunk, and so falls back to
the per-trial loop for algorithms without a kernel.
"""

from __future__ import annotations

import random
import weakref
from collections.abc import Callable

import numpy as np

from repro.algorithms.base import ProbingAlgorithm
from repro.algorithms.crumbling_walls import ProbeCW, RProbeCW
from repro.algorithms.majority import RProbeMaj
from repro.core.coloring import Coloring, as_numpy_generator as as_generator

#: A batched kernel: ``(algorithm, red, rng) -> (probes, witness_green)``
#: over an already-validated ``(trials, n)`` bool matrix (``numpy``
#: backend) or a :class:`~repro.core.bitpacked.PackedColorings`
#: (``bitpacked`` backend).
BatchedKernel = Callable[
    [ProbingAlgorithm, np.ndarray, object], tuple[np.ndarray, np.ndarray]
]

#: Concrete kernel backends a kernel can be registered under.
BACKENDS = ("numpy", "bitpacked")

#: Backend names a request may carry; :func:`resolve_backend` validates
#: them but derives the backend from the algorithm.
BACKEND_CHOICES = ("numpy", "bitpacked", "auto")

_KERNELS: dict[tuple[type, str], tuple[BatchedKernel, Callable[[ProbingAlgorithm], bool]]] = {}


def register_kernel(
    algorithm_cls: type,
    kernel: BatchedKernel,
    backend: str = "numpy",
    accepts: Callable[[ProbingAlgorithm], bool] = lambda algorithm: True,
) -> BatchedKernel:
    """Register a vectorized kernel for an algorithm class under a backend.

    Dispatch is by exact type — subclasses change probing behavior, so they
    must register their own kernel rather than silently inheriting one.
    ``accepts`` narrows the kernel to the instances it can run (Probe_CW's
    packed kernel runs the lexicographic in-row order only).  Returns the
    kernel so future in-module kernels can keep registration next to their
    definition.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown kernel backend {backend!r}; expected one of {BACKENDS}")
    _KERNELS[(algorithm_cls, backend)] = (kernel, accepts)
    return kernel


def _registered(algorithm: ProbingAlgorithm) -> tuple[BatchedKernel | None, str]:
    """The one kernel that runs ``algorithm`` and the backend whose input
    it takes: a packed kernel that accepts the instance, else its numpy
    kernel, else ``(None, "numpy")`` (the per-trial fallback reads bool
    rows).  Every lookup below goes through here.
    """
    for backend in ("bitpacked", "numpy"):
        kernel, accepts = _KERNELS.get((type(algorithm), backend), (None, None))
        if kernel is not None and accepts(algorithm):
            return kernel, backend
    return None, "numpy"


def kernel_for(
    algorithm: ProbingAlgorithm, backend: str = "numpy"
) -> BatchedKernel | None:
    """The registered kernel that runs this algorithm under ``backend``,
    or ``None``."""
    kernel, registered = _registered(algorithm)
    return kernel if registered == backend else None


def check_backend_name(backend: str) -> str:
    """``backend`` when it is one of :data:`BACKEND_CHOICES`; raises
    :class:`ValueError` otherwise."""
    if backend not in BACKEND_CHOICES:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKEND_CHOICES}"
        )
    return backend


def resolve_backend(algorithm: ProbingAlgorithm, backend: str | None = None) -> str:
    """The backend ``algorithm`` runs on: ``bitpacked`` when a packed
    kernel runs it, ``numpy`` otherwise (its numpy kernel, or the
    per-trial fallback).

    A requested ``backend`` is checked, not obeyed: an unknown name
    raises, and so does ``bitpacked`` for an algorithm no packed kernel
    runs — R_Probe_Maj, R_Probe_CW and the random-order Probe_CW, whose
    per-trial order draws have no packed form (the numpy path is not a
    silent substitute).
    """
    if backend is not None:
        check_backend_name(backend)
    derived = _registered(algorithm)[1]
    if backend == "bitpacked" and derived != "bitpacked":
        kind = "randomized algorithm" if getattr(algorithm, "randomized", False) else "algorithm"
        raise ValueError(f"no bitpacked kernel runs the {kind} {algorithm.name}")
    return derived


#: Per-algorithm-instance scratch space for kernel precomputation (probe
#: orders, sorted wall-row column arrays, reusable buffers).  Keyed
#: weakly by the algorithm object so the streaming engine's chunk loop —
#: which invokes the same kernel hundreds of times on one algorithm —
#: rebuilds these exactly once instead of once per chunk, and the cache
#: dies with the algorithm.
_KERNEL_SCRATCH: "weakref.WeakKeyDictionary[ProbingAlgorithm, dict]" = (
    weakref.WeakKeyDictionary()
)


def kernel_scratch(algorithm: ProbingAlgorithm) -> dict:
    """The (created-on-demand) scratch dict for ``algorithm``."""
    scratch = _KERNEL_SCRATCH.get(algorithm)
    if scratch is None:
        scratch = {}
        _KERNEL_SCRATCH[algorithm] = scratch
    return scratch


def supports_batched(algorithm: ProbingAlgorithm) -> bool:
    """True when the algorithm has a vectorized kernel on either backend."""
    return _registered(algorithm)[0] is not None


def batched_run(
    algorithm: ProbingAlgorithm, red: np.ndarray, rng=None
) -> tuple[np.ndarray, np.ndarray]:
    """Run every trial of ``red`` through the algorithm's vectorized kernel.

    Returns ``(probes, witness_green)``: the per-trial probe counts and
    witness colors.  A packed kernel gets ``red`` packed into bit-planes
    first.  Raises :class:`TypeError` when no kernel exists; use
    :func:`supports_batched` or :func:`batched_or_sequential_run` when the
    algorithm may be arbitrary.
    """
    red = np.asarray(red, dtype=bool)
    if red.ndim != 2 or red.shape[1] != algorithm.system.n:
        raise ValueError(
            f"red matrix must have shape (trials, {algorithm.system.n})"
        )
    kernel, backend = _registered(algorithm)
    if kernel is None:
        raise TypeError(f"no batched kernel for {algorithm.name}")
    if backend == "bitpacked":
        return _bitpacked.run_packed(algorithm, _bitpacked.pack_matrix(red), rng)
    return kernel(algorithm, red, rng)


def batched_or_sequential_run(
    algorithm: ProbingAlgorithm, red: np.ndarray, rng=None
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`batched_run`, falling back to the per-trial loop."""
    if supports_batched(algorithm):
        return batched_run(algorithm, red, rng)
    return _sequential_run(algorithm, red, rng)


def _sequential_run(
    algorithm: ProbingAlgorithm, red: np.ndarray, rng=None
) -> tuple[np.ndarray, np.ndarray]:
    fallback_rng = rng if isinstance(rng, random.Random) else random.Random(
        int(as_generator(rng).integers(2**63))
    )
    probes = np.empty(red.shape[0], dtype=np.int64)
    witness_green = np.empty(red.shape[0], dtype=bool)
    for t in range(red.shape[0]):
        run = algorithm.run_on(Coloring.from_red_row(red[t]), rng=fallback_rng)
        probes[t] = run.probes
        witness_green[t] = run.witness.is_green
    return probes, witness_green


# -- majority / crumbling-wall kernels --------------------------------------------


def _r_probe_maj_kernel(algorithm, red, rng=None):
    generator = as_generator(rng)
    scratch = kernel_scratch(algorithm)
    keys = scratch.get("maj_keys")
    if keys is None or keys.shape != red.shape:
        keys = np.empty(red.shape, dtype=np.float64)
        scratch["maj_keys"] = keys
    generator.random(out=keys)
    order = keys.argsort(axis=1)
    permuted = np.take_along_axis(red, order, axis=1)
    return _majority_scan_kernel(algorithm.system.quorum_size, permuted)


def _majority_scan_kernel(
    target: int, red_in_order: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-order majority scan: stop when either color reaches ``target``.

    ``red_in_order`` is the red matrix with columns already arranged in
    probe order.  Only the majority color can ever reach the quorum size
    ``target = (n + 1) / 2``, so the stopping color is the majority color.
    """
    trials, n = red_in_order.shape
    cum_red = np.cumsum(red_in_order, axis=1)
    cum_green = np.arange(1, n + 1) - cum_red
    stopped = (cum_red >= target) | (cum_green >= target)
    probes = stopped.argmax(axis=1) + 1
    witness_green = cum_red[:, -1] < target
    return probes.astype(np.int64), witness_green


def _cw_row_columns(algorithm) -> list[np.ndarray]:
    """Per-wall-row sorted 0-based column arrays, built once per algorithm.

    Rebuilding these (``sorted`` + ``asarray`` per row) used to dominate
    small-chunk invocations of the CW kernels; the streaming engine calls
    the kernel once per chunk, so the arrays are cached in the algorithm's
    kernel scratch and reused across chunks.
    """
    scratch = kernel_scratch(algorithm)
    columns = scratch.get("cw_columns")
    if columns is None:
        columns = [
            np.asarray(sorted(row), dtype=np.intp) - 1
            for row in algorithm.system.rows
        ]
        scratch["cw_columns"] = columns
    return columns


def _probe_cw_kernel(algorithm, red, rng=None):
    """Algorithm Probe_CW (Fig. 5) with a shuffled in-row order (the
    order-ablation variant), one vector step per wall row.

    Maintains the per-trial mode; in each row the probe count is the
    position of the first element matching the mode, or the whole row width
    (upon which the mode flips).  The lexicographic order runs on the
    packed kernel.
    """
    generator = as_generator(rng)
    row_columns = _cw_row_columns(algorithm)
    trials = red.shape[0]
    first = row_columns[0][0]
    mode_red = red[:, first].copy()
    probes = np.ones(trials, dtype=np.int64)
    for columns in row_columns[1:]:
        width = columns.size
        order = generator.random((trials, width)).argsort(axis=1)
        row_red = np.take_along_axis(red[:, columns], order, axis=1)
        matches_mode = row_red == mode_red[:, None]
        found = matches_mode.any(axis=1)
        first_match = matches_mode.argmax(axis=1)
        probes += np.where(found, first_match + 1, width)
        mode_red ^= ~found
    return probes, ~mode_red


def _r_probe_cw_kernel(algorithm, red, rng=None):
    """Algorithm R_Probe_CW (Theorem 4.4), bottom-up over active trials.

    Each row is probed in a fresh uniform order until both colors have been
    seen; a trial stops at its first monochromatic row.  The probe count in
    a both-colors row is one past the later of the two first-occurrence
    positions.
    """
    generator = as_generator(rng)
    row_columns = _cw_row_columns(algorithm)
    trials = red.shape[0]
    probes = np.zeros(trials, dtype=np.int64)
    witness_green = np.zeros(trials, dtype=bool)
    active = np.arange(trials)
    for columns in reversed(row_columns):
        width = columns.size
        row_red = red[np.ix_(active, columns)]
        if width > 1:
            order = generator.random(row_red.shape).argsort(axis=1)
            row_red = np.take_along_axis(row_red, order, axis=1)
        any_red = row_red.any(axis=1)
        any_green = ~row_red.all(axis=1)
        both = any_red & any_green
        first_red = row_red.argmax(axis=1)
        first_green = (~row_red).argmax(axis=1)
        probes[active] += np.where(
            both, np.maximum(first_red, first_green) + 1, width
        )
        finished = active[~both]
        witness_green[finished] = any_green[~both]
        active = active[both]
        if active.size == 0:
            break
    if active.size:  # pragma: no cover - impossible when the top row has width 1
        raise RuntimeError("R_Probe_CW scanned all rows without a monochromatic row")
    return probes, witness_green


register_kernel(RProbeMaj, _r_probe_maj_kernel)
register_kernel(ProbeCW, _probe_cw_kernel)
register_kernel(RProbeCW, _r_probe_cw_kernel)

# The bitpacked backend registers the deterministic kernels on import;
# importing here (after the registry and scratch helpers exist — the module
# imports back into this one) makes them available as soon as the registry
# is.
from repro.core import bitpacked as _bitpacked  # noqa: E402  (also registers its kernels)
