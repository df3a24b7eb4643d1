"""Vectorized Monte-Carlo estimation over coloring batches.

The per-trial estimators in :mod:`repro.core.estimator` construct a fresh
:class:`~repro.core.coloring.Coloring`, a fresh oracle and a fresh Python
probe loop for every sample.  For the paper's structured algorithms the
whole trial batch can instead be evaluated with numpy: a batch of colorings
is one boolean matrix (``True`` = red, column ``i`` ⇔ element ``i + 1``,
the convention of :meth:`ColoringSource.sample_matrix
<repro.core.distributions.ColoringSource.sample_matrix>`), and the probe count
of every trial falls out of cumulative-sum / argmax / per-level gate
arithmetic over that matrix.

Kernels are looked up in a registry keyed by the *exact* algorithm class
and a **backend** (:func:`register_kernel`); a subclass overrides probing
behavior, so it never inherits its parent's kernel and must register its
own.  The default ``numpy`` backend evaluates bool matrices; the
``bitpacked`` backend (:mod:`repro.core.bitpacked`) evaluates 64 trials
per ``uint64`` word for the deterministic algorithms, bit-identically.
:func:`resolve_backend` maps a requested backend — including the ``auto``
policy, which prefers ``bitpacked`` over ``numpy`` — to a concrete one,
rejecting ``bitpacked`` loudly for randomized algorithms.  Registered out
of the box under ``numpy``:

* :class:`~repro.algorithms.majority.ProbeMaj` — fixed-order scan until one
  color reaches the quorum size (cumulative counts + argmax);
* :class:`~repro.algorithms.majority.RProbeMaj` — the same scan after a
  per-trial uniform permutation;
* :class:`~repro.algorithms.crumbling_walls.ProbeCW` — the top-down wall
  scan of Fig. 5, one vector step per row;
* :class:`~repro.algorithms.crumbling_walls.RProbeCW` — the bottom-up
  randomized scan of Theorem 4.4, one vector step per row over the
  still-active trials;
* the five gate-tree algorithms — Probe_Tree, R_Probe_Tree, Probe_HQS,
  R_Probe_HQS and IR_Probe_HQS — through the level-synchronous engine of
  :mod:`repro.core.batched_gates`.

Every deterministic kernel reproduces the sequential algorithm's probe
count *exactly* for a given input matrix, and the randomized ones draw
from the same distribution over probe orders, which the equivalence tests
assert trial-by-trial.  Estimates run through the streaming engine
(:func:`repro.core.engine.stream_probes`), which calls
:func:`batched_or_sequential_run` once per chunk and so falls back to the
per-trial loop for algorithms without a kernel.
"""

from __future__ import annotations

import random
import weakref
from collections.abc import Callable

import numpy as np

from repro.algorithms.base import ProbingAlgorithm
from repro.algorithms.crumbling_walls import ProbeCW, RProbeCW
from repro.algorithms.hqs import IRProbeHQS, ProbeHQS, RProbeHQS
from repro.algorithms.majority import ProbeMaj, RProbeMaj
from repro.algorithms.tree import ProbeTree, RProbeTree
from repro.core.batched_gates import (
    ir_probe_hqs_kernel,
    probe_hqs_kernel,
    probe_tree_kernel,
    r_probe_hqs_kernel,
    r_probe_tree_kernel,
)
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

#: What callers may request: a concrete backend or the ``auto`` policy.
BACKEND_CHOICES = ("numpy", "bitpacked", "auto")

#: ``auto`` stays on numpy below this many trials: the bit-sliced kernels
#: amortize their per-element Python loop over the 64-trial words, so tiny
#: batches don't cover the fixed per-column cost.
AUTO_BITPACKED_MIN_TRIALS = 8192

_KERNELS: dict[tuple[type, str], BatchedKernel] = {}


def register_kernel(
    algorithm_cls: type, kernel: BatchedKernel, backend: str = "numpy"
) -> BatchedKernel:
    """Register a vectorized kernel for an algorithm class under a backend.

    Dispatch is by exact type — subclasses change probing behavior, so they
    must register their own kernel rather than silently inheriting one.
    Returns the kernel so future in-module kernels can keep registration
    next to their definition.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown kernel backend {backend!r}; expected one of {BACKENDS}")
    _KERNELS[(algorithm_cls, backend)] = kernel
    return kernel


def kernel_for(
    algorithm: ProbingAlgorithm, backend: str = "numpy"
) -> BatchedKernel | None:
    """The registered kernel for this algorithm under ``backend``, or ``None``."""
    return _KERNELS.get((type(algorithm), backend))


def resolve_backend(
    algorithm: ProbingAlgorithm, backend: str, trials: int | None = None
) -> str:
    """Resolve a requested backend (or the ``auto`` policy) to a concrete one.

    ``bitpacked`` is a *demand*: it fails loudly when the algorithm is
    randomized (the packed kernels have no per-trial RNG contract — the
    numpy path is not a silent substitute) or when no kernel is
    registered.  ``auto`` picks ``bitpacked`` when the algorithm has a
    packed kernel and the run is large enough (``trials`` of at least
    :data:`AUTO_BITPACKED_MIN_TRIALS`; ``None`` — adaptive runs — counts
    as large), and ``numpy`` otherwise.
    """
    if backend not in BACKEND_CHOICES:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKEND_CHOICES}"
        )
    if backend == "numpy":
        return "numpy"
    randomized = getattr(algorithm, "randomized", False)
    has_packed = kernel_for(algorithm, backend="bitpacked") is not None
    if backend == "bitpacked":
        if randomized:
            raise ValueError(
                f"backend 'bitpacked' supports deterministic algorithms only; "
                f"{algorithm.name} is randomized (run it with backend='numpy')"
            )
        if not has_packed:
            raise ValueError(
                f"no bitpacked kernel registered for {algorithm.name}"
            )
        return "bitpacked"
    if randomized or (trials is not None and trials < AUTO_BITPACKED_MIN_TRIALS):
        return "numpy"
    return "bitpacked" if has_packed else "numpy"


#: Per-algorithm-instance scratch space for kernel precomputation (probe
#: orders, sorted wall-row column arrays, reusable ones-buffers).  Keyed
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


def scratch_ones(
    algorithm: ProbingAlgorithm, shape: tuple[int, ...], dtype: type[np.integer]
) -> np.ndarray:
    """A cached all-ones array of ``shape`` and ``dtype``.

    The returned buffer is shared across calls and is read-only — writing
    to it raises, so a kernel that mutates its leaf-level probe counts
    fails loudly instead of corrupting every later chunk.  A request for
    another shape or dtype replaces it.
    """
    scratch = kernel_scratch(algorithm)
    ones = scratch.get("ones")
    if ones is None or ones.shape != shape or ones.dtype != dtype:
        ones = np.ones(shape, dtype=dtype)
        ones.flags.writeable = False
        scratch["ones"] = ones
    return ones


def supports_batched(algorithm: ProbingAlgorithm, backend: str = "numpy") -> bool:
    """True when a vectorized kernel exists for this algorithm and backend."""
    return kernel_for(algorithm, backend) is not None


def batched_run(
    algorithm: ProbingAlgorithm, red: np.ndarray, rng=None
) -> tuple[np.ndarray, np.ndarray]:
    """Run every trial of ``red`` through the algorithm's vectorized kernel.

    Returns ``(probes, witness_green)``: the per-trial probe counts and
    witness colors.  Raises :class:`TypeError` when no kernel exists; use
    :func:`supports_batched` or :func:`batched_or_sequential_run` when the
    algorithm may be arbitrary.
    """
    red = np.asarray(red, dtype=bool)
    if red.ndim != 2 or red.shape[1] != algorithm.system.n:
        raise ValueError(
            f"red matrix must have shape (trials, {algorithm.system.n})"
        )
    kernel = kernel_for(algorithm)
    if kernel is None:
        raise TypeError(f"no batched kernel for {algorithm.name}")
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


def _maj_columns(algorithm) -> np.ndarray:
    """Probe_Maj's 0-based columns in probe order, built once per algorithm."""
    scratch = kernel_scratch(algorithm)
    columns = scratch.get("maj_columns")
    if columns is None:
        columns = np.asarray(algorithm.order, dtype=np.intp) - 1
        scratch["maj_columns"] = columns
    return columns


def _probe_maj_kernel(algorithm, red, rng=None):
    return _majority_scan_kernel(algorithm.system.quorum_size, red[:, _maj_columns(algorithm)])


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


def _probe_cw_dispatch(algorithm, red, rng=None):
    shuffle = algorithm.within_row_order == "random"
    generator = as_generator(rng) if shuffle else None
    return _probe_cw_kernel(red, _cw_row_columns(algorithm), generator)


def _probe_cw_kernel(
    red: np.ndarray,
    row_columns: list[np.ndarray],
    generator: np.random.Generator | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Algorithm Probe_CW (Fig. 5), one vector step per wall row.

    Maintains the per-trial mode; in each row the probe count is the
    position of the first element matching the mode, or the whole row width
    (upon which the mode flips).  ``generator`` is set when the in-row order
    is randomized (the order-ablation variant).
    """
    trials = red.shape[0]
    first = row_columns[0][0]
    mode_red = red[:, first].copy()
    probes = np.ones(trials, dtype=np.int64)
    for columns in row_columns[1:]:
        width = columns.size
        row_red = red[:, columns]
        if generator is not None:
            order = generator.random(row_red.shape).argsort(axis=1)
            row_red = np.take_along_axis(row_red, order, axis=1)
        matches_mode = row_red == mode_red[:, None]
        found = matches_mode.any(axis=1)
        first_match = matches_mode.argmax(axis=1)
        probes += np.where(found, first_match + 1, width)
        mode_red ^= ~found
    return probes, ~mode_red


def _r_probe_cw_dispatch(algorithm, red, rng=None):
    return _r_probe_cw_kernel(red, _cw_row_columns(algorithm), as_generator(rng))


def _r_probe_cw_kernel(
    red: np.ndarray,
    row_columns: list[np.ndarray],
    generator: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Algorithm R_Probe_CW (Theorem 4.4), bottom-up over active trials.

    Each row is probed in a fresh uniform order until both colors have been
    seen; a trial stops at its first monochromatic row.  The probe count in
    a both-colors row is one past the later of the two first-occurrence
    positions.
    """
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


register_kernel(ProbeMaj, _probe_maj_kernel)
register_kernel(RProbeMaj, _r_probe_maj_kernel)
register_kernel(ProbeCW, _probe_cw_dispatch)
register_kernel(RProbeCW, _r_probe_cw_dispatch)
register_kernel(ProbeTree, probe_tree_kernel)
register_kernel(RProbeTree, r_probe_tree_kernel)
register_kernel(ProbeHQS, probe_hqs_kernel)
register_kernel(RProbeHQS, r_probe_hqs_kernel)
register_kernel(IRProbeHQS, ir_probe_hqs_kernel)

# The bitpacked backend registers its kernels on import; importing here
# (after the registry and scratch helpers exist — the module imports back
# into this one) makes it available as soon as the registry is.
from repro.core import bitpacked as _bitpacked  # noqa: E402,F401  (registration side effect)
