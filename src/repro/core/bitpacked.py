"""Bit-packed kernel backend: 64 Monte-Carlo trials per ``uint64`` word.

The numpy kernels of :mod:`repro.core.batched` spend one byte per
``(trial, element)`` cell and one int64 lane per trial; at streaming-engine
scale the memory traffic of the ``(trials, n)`` matrices is the throughput
ceiling.  This module stores a batch of colorings *transposed and packed*:
a ``(n_words, n)`` ``uint64`` array where bit ``t`` of ``words[w, e]`` is
the red bit of trial ``64 * w + t`` for element ``e + 1`` (one bit-plane
per element, 64 trials per word).  Quorum tests then become word-parallel
AND/XOR/popcount operations, and the per-trial probe counters become
*bit-sliced* (carry-save) integers: a counter over 64 trials is a short
list of ``uint64`` planes, least-significant bit first, and adding a 0/1
mask into it is a ripple-carry chain of ``XOR``/``AND`` word ops.

Packed kernels exist for the deterministic algorithms only:

* ``ProbeMaj`` — running red/green quorum counters over the probe order
  with a per-trial early-exit mask (bias-offset counters: initialized to
  ``2**B - target`` so the carry out of the top plane *is* the quorum
  test);
* ``ProbeCW`` — per-wall-row mode scan (XNOR against the mode bits,
  popcount-driven early exit, mode flip on a matchless row);
* ``ProbeTree`` / ``ProbeHQS`` — the level-synchronous gate recurrences of
  :mod:`repro.core.batched_gates` with child probe counts carried as
  bit-plane lists and combined by full-adder chains against the gate
  conditions.

Each packed kernel reproduces its numpy counterpart's per-trial probe
counts and witness colors *exactly* (integer arithmetic both ways), and
:func:`sample_packed` returns exactly the colorings
``ColoringSource.sample_matrix`` returns for the same generator — for
Bernoulli sources both are the same lane words, drawn one bit-plane per
raw ``uint64`` (:meth:`repro.core.distributions.BernoulliSource.sample_words`),
which the numpy path unpacks.  Probe-count histograms are therefore
bit-identical between backends under every chunk size, ``jobs=N`` and
distributed split, which ``tests/core/test_bitpacked.py`` pins.

Randomized algorithms keep the numpy path: their per-trial permutation
draws have no packed formulation that preserves the sequential RNG
contract, and :func:`repro.core.batched.resolve_backend` rejects
``backend="bitpacked"`` for them loudly.

Kernels follow the signature ``kernel(algorithm, packed, rng)`` over a
:class:`PackedColorings` and are registered with
:func:`repro.core.batched.register_kernel` under ``backend="bitpacked"``;
use :func:`run_packed` (or the streaming engine's ``backend=``) rather
than calling them directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms.crumbling_walls import ProbeCW
from repro.algorithms.hqs import ProbeHQS
from repro.algorithms.majority import ProbeMaj
from repro.algorithms.tree import ProbeTree
from repro.core.batched import kernel_scratch, register_kernel
from repro.core.coloring import as_numpy_generator
from repro.core.distributions import BernoulliSource, ColoringSource, unpack_words

#: All 64 bits set — the packed representation of "every trial lane".
ALL_LANES = np.uint64(0xFFFFFFFFFFFFFFFF)


# -- popcount ---------------------------------------------------------------------

_POPCOUNT16: np.ndarray | None = None


def _popcount16_table() -> np.ndarray:
    """The 16-bit popcount lookup table (64 KiB, built on first use)."""
    global _POPCOUNT16
    if _POPCOUNT16 is None:
        values = np.arange(1 << 16, dtype=np.uint32)
        counts = np.zeros(1 << 16, dtype=np.uint8)
        for shift in range(16):
            counts += ((values >> shift) & 1).astype(np.uint8)
        _POPCOUNT16 = counts
    return _POPCOUNT16


def _popcount64_lut(words: np.ndarray) -> np.ndarray:
    """Per-word popcount via four 16-bit table lookups (pre-2.0 numpy)."""
    w = np.asarray(words, dtype=np.uint64)
    table = _popcount16_table()
    counts = np.zeros(w.shape, dtype=np.int64)
    mask = np.uint64(0xFFFF)
    for shift in (0, 16, 32, 48):
        counts += table[((w >> np.uint64(shift)) & mask).astype(np.uint16)]
    return counts


if hasattr(np, "bitwise_count"):

    def popcount64(words: np.ndarray) -> np.ndarray:
        """Per-word set-bit counts as int64 (``np.bitwise_count``)."""
        return np.bitwise_count(np.asarray(words, dtype=np.uint64)).astype(np.int64)

else:  # pragma: no cover - numpy >= 2.0 in the pinned environment
    popcount64 = _popcount64_lut


def count_ones(words: np.ndarray) -> int:
    """Total number of set bits across ``words``."""
    return int(popcount64(words).sum())


# -- packed layout ----------------------------------------------------------------


@dataclass(frozen=True)
class PackedColorings:
    """``trials`` colorings packed 64-per-word.

    ``words`` has shape ``(n_words, n)``: bit ``t`` of ``words[w, e]`` is
    trial ``64 * w + t``'s red bit for element ``e + 1`` (same column
    convention as the bool matrices of :mod:`repro.core.batched`).  Lanes
    past ``trials`` in the last word are zero padding; kernels mask them
    through :meth:`valid_mask` and the final per-trial unpack.
    """

    words: np.ndarray
    trials: int

    @property
    def n(self) -> int:
        """Universe size (number of element bit-planes)."""
        return self.words.shape[1]

    @property
    def n_words(self) -> int:
        """Number of 64-trial words."""
        return self.words.shape[0]

    def valid_mask(self) -> np.ndarray:
        """Per-word mask of lanes that hold real trials, shape ``(n_words,)``."""
        mask = np.full(self.n_words, ALL_LANES, dtype=np.uint64)
        if self.n_words:
            tail = self.trials - 64 * (self.n_words - 1)
            if tail < 64:
                mask[-1] = np.uint64((1 << tail) - 1)
        return mask


def pack_matrix(red: np.ndarray) -> PackedColorings:
    """Pack a ``(trials, n)`` bool red matrix into bit-planes."""
    red = np.asarray(red, dtype=bool)
    if red.ndim != 2:
        raise ValueError(f"red matrix must be 2-D, got shape {red.shape}")
    trials, n = red.shape
    n_words = -(-trials // 64)
    octets = np.zeros((n_words * 8, n), dtype=np.uint8)
    octets[: -(-trials // 8)] = np.packbits(red, axis=0, bitorder="little")
    words = np.ascontiguousarray(octets.reshape(n_words, 8, n).transpose(0, 2, 1))
    return PackedColorings(words.view("<u8").reshape(n_words, n).astype(np.uint64), trials)


def unpack_lanes(bits: np.ndarray, trials: int) -> np.ndarray:
    """Unpack a ``(n_words,)`` lane mask into a ``(trials,)`` bool array."""
    return unpack_words(np.reshape(bits, (-1, 1)), trials)[:, 0]


def unpack_matrix(packed: PackedColorings) -> np.ndarray:
    """Inverse of :func:`pack_matrix`: the ``(trials, n)`` bool matrix."""
    return unpack_words(packed.words, packed.trials)


def sample_packed(source: ColoringSource, n: int, trials: int, rng=None) -> PackedColorings:
    """Draw ``trials`` colorings from ``source`` directly into bit-planes.

    Equal to ``pack_matrix(source.sample_matrix(n, trials, rng))`` for
    every source: Bernoulli draws fill the lane words natively
    (:meth:`~repro.core.distributions.BernoulliSource.sample_words`, which
    the numpy path unpacks), other sources pack their (validated) one-shot
    matrix.
    """
    if n != source.n:
        raise ValueError(
            f"{source.name} source draws over n={source.n}, "
            f"but a packed batch for n={n} was requested"
        )
    if trials < 0:
        raise ValueError("batch size must be nonnegative")
    generator = as_numpy_generator(rng)
    if isinstance(source, BernoulliSource):
        return PackedColorings(source.sample_words(trials, generator), trials)
    return pack_matrix(source.sample_matrix(n, trials, generator))


def drop_lanes(packed: PackedColorings, lead: int) -> PackedColorings:
    """``packed`` without its first ``lead`` (< 64) trials: every plane
    shifted down ``lead`` lanes, the next word's low lanes carried in."""
    if not lead:
        return packed
    words = packed.words
    shifted = words >> np.uint64(lead)
    shifted[:-1] |= words[1:] << np.uint64(64 - lead)
    trials = packed.trials - lead
    return PackedColorings(shifted[: -(-trials // 64)], trials)


# -- bit-sliced arithmetic --------------------------------------------------------
#
# A "plane list" is a little-endian bit-sliced integer: planes[i] holds bit
# i of a per-lane counter, each plane a uint64 array (one lane per trial).


def accumulate_bit(planes: list[np.ndarray], bits: np.ndarray) -> None:
    """``planes += bits`` in place (``bits`` is a 0/1-per-lane mask),
    growing the plane list when the ripple carry overflows the top plane."""
    carry = bits
    for i, plane in enumerate(planes):
        if not carry.any():
            return
        planes[i] = plane ^ carry
        carry = plane & carry
    if carry.any():
        planes.append(carry)


def counter_add(planes: list[np.ndarray], bits: np.ndarray) -> np.ndarray:
    """``planes += bits`` in a fixed-width counter; returns the carry out
    of the top plane (the per-lane overflow mask — see
    :func:`threshold_counter`)."""
    carry = bits
    for i, plane in enumerate(planes):
        planes[i] = plane ^ carry
        carry = plane & carry
    return carry


def threshold_counter(target: int, shape: tuple[int, ...]) -> list[np.ndarray]:
    """A bias-offset counter that overflows after exactly ``target`` adds.

    Planes are initialized to ``2**B - target`` (``B`` = bit length of
    ``target``) in every lane, so the ``target``-th :func:`counter_add`
    increment carries out of the top plane — the carry mask *is* the
    "count reached target" test, with no comparison pass.
    """
    if target < 1:
        raise ValueError(f"threshold target must be positive, got {target}")
    width = target.bit_length()
    offset = (1 << width) - target
    return [
        np.full(shape, ALL_LANES, dtype=np.uint64)
        if (offset >> i) & 1
        else np.zeros(shape, dtype=np.uint64)
        for i in range(width)
    ]


def planes_add(a: list[np.ndarray], b: list[np.ndarray]) -> list[np.ndarray]:
    """Full-adder chain over two bit-sliced integers (new plane list)."""
    out: list[np.ndarray] = []
    carry: np.ndarray | None = None
    for i in range(max(len(a), len(b))):
        x = a[i] if i < len(a) else None
        y = b[i] if i < len(b) else None
        if x is None:
            x, y = y, None
        if y is None and carry is None:
            out.append(x)
            continue
        if y is None:
            y, carry = carry, None
        total = x ^ y
        generate = x & y
        if carry is not None:
            out.append(total ^ carry)
            carry = generate | (total & carry)
        else:
            out.append(total)
            carry = generate
    if carry is not None and carry.any():
        out.append(carry)
    return out


def planes_mask(planes: list[np.ndarray], mask: np.ndarray) -> list[np.ndarray]:
    """The bit-sliced integer gated per lane: value where ``mask``, else 0."""
    return [plane & mask for plane in planes]


def planes_to_counts(planes: list[np.ndarray], trials: int) -> np.ndarray:
    """Unpack a bit-sliced integer into per-trial ``int64`` counts."""
    counts = np.zeros(trials, dtype=np.int64)
    for i, plane in enumerate(planes):
        counts += unpack_lanes(np.ravel(plane), trials).astype(np.int64) << i
    return counts


def _ones_planes(shape: tuple[int, ...]) -> list[np.ndarray]:
    """The bit-sliced constant 1 in every lane (leaf probe counts)."""
    return [np.full(shape, ALL_LANES, dtype=np.uint64)]


# -- packed kernels ---------------------------------------------------------------


def packed_probe_maj_kernel(algorithm, packed: PackedColorings, rng=None):
    """Algorithm Probe_Maj over bit-planes: red/green threshold counters
    along the probe order, early exit once every trial lane has stopped."""
    scratch = kernel_scratch(algorithm)
    columns = scratch.get("maj_columns")
    if columns is None:
        columns = np.asarray(algorithm.order, dtype=np.intp) - 1
        scratch["maj_columns"] = columns
    target = algorithm.system.quorum_size
    words = packed.words
    active = packed.valid_mask()
    red_count = threshold_counter(target, active.shape)
    green_count = threshold_counter(target, active.shape)
    probes: list[np.ndarray] = []
    witness_green = np.zeros_like(active)
    for column in columns:
        bits = words[:, column]
        accumulate_bit(probes, active)
        red_fire = counter_add(red_count, bits & active)
        green_fire = counter_add(green_count, ~bits & active)
        witness_green |= green_fire
        active = active & ~(red_fire | green_fire)
        if not count_ones(active):
            break
    return planes_to_counts(probes, packed.trials), unpack_lanes(
        witness_green, packed.trials
    )


def packed_probe_cw_kernel(algorithm, packed: PackedColorings, rng=None):
    """Algorithm Probe_CW over bit-planes: XNOR each row element against
    the per-trial mode bits, stop lanes at their first match, flip the mode
    where a row ran out without one."""
    if algorithm.randomized:
        raise ValueError(
            "the bitpacked Probe_CW kernel supports the deterministic "
            "in-row order only"
        )
    from repro.core.batched import _cw_row_columns

    row_columns = _cw_row_columns(algorithm)
    words = packed.words
    valid = packed.valid_mask()
    mode_red = words[:, row_columns[0][0]].copy()
    probes: list[np.ndarray] = [valid.copy()]  # the width-1 top row
    for columns in row_columns[1:]:
        still = valid.copy()
        for column in columns:
            accumulate_bit(probes, still)
            matches_mode = ~(words[:, column] ^ mode_red)
            still = still & ~matches_mode
            if not count_ones(still):
                break
        mode_red ^= still  # flip lanes that saw no mode-colored element
    return planes_to_counts(probes, packed.trials), unpack_lanes(
        ~mode_red & valid, packed.trials
    )


def packed_probe_tree_kernel(algorithm, packed: PackedColorings, rng=None):
    """Algorithm Probe_Tree over bit-planes: the Prop. 3.6 recurrence
    ``P(v) = 1 + P(right) + [C(right) != e] * P(left)`` with child probe
    counts carried as plane lists and added carry-save per level."""
    system = algorithm.system
    words = packed.words
    first = 1 << system.height
    value = words[:, first - 1 : 2 * first - 1]
    probes = _ones_planes(value.shape)
    for depth in range(system.height - 1, -1, -1):
        lo = 1 << depth
        elem = words[:, lo - 1 : 2 * lo - 1]
        left_v, right_v = value[:, 0::2], value[:, 1::2]
        left_p = [plane[:, 0::2] for plane in probes]
        right_p = [plane[:, 1::2] for plane in probes]
        right_matches = ~(right_v ^ elem)
        value = (right_matches & elem) | (~right_matches & left_v)
        probes = planes_add(right_p, planes_mask(left_p, ~right_matches))
        probes = planes_add(probes, _ones_planes(elem.shape))
    return planes_to_counts(probes, packed.trials), unpack_lanes(
        ~value[:, 0] & packed.valid_mask(), packed.trials
    )


def packed_probe_hqs_kernel(algorithm, packed: PackedColorings, rng=None):
    """Algorithm Probe_HQS over bit-planes: the 2-then-3 gate
    ``P = P(c1) + P(c2) + [C(c1) != C(c2)] * P(c3)`` per level, probe
    counts combined by full-adder chains under the disagreement mask."""
    words = packed.words
    n_words = packed.n_words
    value = words
    probes = _ones_planes(words.shape)
    for _ in range(algorithm.system.height):
        gates = value.shape[1] // 3
        values = value.reshape(n_words, gates, 3)
        costs = [plane.reshape(n_words, gates, 3) for plane in probes]
        first_two_agree = ~(values[..., 0] ^ values[..., 1])
        value = (first_two_agree & values[..., 0]) | (
            ~first_two_agree & values[..., 2]
        )
        probes = planes_add(
            planes_add(
                [plane[..., 0] for plane in costs],
                [plane[..., 1] for plane in costs],
            ),
            planes_mask([plane[..., 2] for plane in costs], ~first_two_agree),
        )
    return planes_to_counts(probes, packed.trials), unpack_lanes(
        ~value[:, 0] & packed.valid_mask(), packed.trials
    )


def run_packed(
    algorithm, packed: PackedColorings, rng=None
) -> tuple[np.ndarray, np.ndarray]:
    """Run every packed trial through the algorithm's bitpacked kernel.

    Returns the same ``(probes, witness_green)`` pair as
    :func:`repro.core.batched.batched_run` — per-trial ``int64`` probe
    counts and bool witness colors — so downstream accounting (histograms,
    witness tallies) is backend-agnostic.  Raises for algorithms without a
    packed kernel; randomized algorithms never have one.
    """
    from repro.core.batched import kernel_for

    if packed.n != algorithm.system.n:
        raise ValueError(
            f"packed batch has n={packed.n}, algorithm expects n={algorithm.system.n}"
        )
    kernel = kernel_for(algorithm, backend="bitpacked")
    if kernel is None:
        raise TypeError(f"no bitpacked kernel for {algorithm.name}")
    return kernel(algorithm, packed, rng)


register_kernel(ProbeMaj, packed_probe_maj_kernel, backend="bitpacked")
register_kernel(ProbeCW, packed_probe_cw_kernel, backend="bitpacked")
register_kernel(ProbeTree, packed_probe_tree_kernel, backend="bitpacked")
register_kernel(ProbeHQS, packed_probe_hqs_kernel, backend="bitpacked")
