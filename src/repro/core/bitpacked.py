"""Bit-packed kernels: 64 Monte-Carlo trials per ``uint64`` word.

Every algorithm with a packed kernel has exactly one, and it lives here:
the deterministic Probe_Maj, Probe_CW, Probe_Tree and Probe_HQS, and the
randomized gate algorithms R_Probe_Tree, R_Probe_HQS and IR_Probe_HQS.
A batch of colorings is stored *transposed and packed*: a ``(n_words, n)``
``uint64`` array where bit ``t`` of ``words[w, e]`` is the red bit of
trial ``64 * w + t`` for element ``e + 1`` (one bit-plane per element, 64
trials per word), so a kernel streams one bit per ``(trial, element)``
cell instead of the byte of a bool matrix.

* The gate kernels (Tree and HQS) are level-synchronous: a node's
  ``(value, probes)`` depends only on its children's (and, for
  IR_Probe_HQS, grandchildren's), so a tree level is a few word ops.  A
  value is a majority whatever the probe order; a probe count is a
  *bit-sliced* integer (a stack of ``uint64`` planes, least significant
  first, added by full-adder chains), the sum of a node's parts less the
  part it skips when the first two it evaluated agree.  The randomized
  ones draw every node's order choice up front as lane planes
  (:func:`_order_choices`, rule below) and pick each node's order with
  one-hot lane masks (:func:`_permutation_masks`).
* ``ProbeMaj`` / ``ProbeCW`` — each trial stops at an element that depends
  on its colors, so these kernels transpose the chunk once into one row of
  element bits per trial (:func:`lane_rows`) and find every trial's
  stopping point with whole-array ops (a select on cumulative popcounts
  for Probe_Maj, a count of trailing zeros per wall row for Probe_CW),
  never looping over elements.

The order choices of one kernel call are drawn from raw ``uint64`` words
of the chunk's algorithm generator (``bit_generator.random_raw``), each
word one bit-plane over 64 lanes:

* The call's *node-words* are every level's ``(n_words, width)`` lane
  columns in level order (IR_Probe_HQS's two draws per level are two
  levels here), each in C order over ``(word, node)``; say ``M`` of them.
* A three-way choice (R_Probe_Tree) takes ``random_raw(2M)``: the first
  ``M`` words are plane ``a``, the next ``M`` plane ``b``, and a lane's
  value is ``k = a + 2b``.  Lanes at ``k = 3`` are pending.  Each
  rejection round takes ``random_raw(2m)`` for the ``m`` node-words that
  still hold a pending lane, in flat order (their ``a`` words, then their
  ``b`` words), and settles every pending lane whose new value is below
  3.  The result planes are ``(k == 1, k == 2) = (a, b)``: exactly
  uniform, since each accepted value is one of three equally likely ones.
* A six-way choice (R_Probe_HQS, IR_Probe_HQS) is ``k6 = 2t + c``: one
  ``random_raw(3M)`` call gives planes ``a``, ``b``, ``c``; ``t = a + 2b``
  is settled by the same rounds, ``c`` is never redrawn, and the planes
  of ``k6`` are ``(c, t == 1, t == 2)``.  Its first child ``k6 // 2`` is
  ``t``.
* Padding lanes past ``trials`` draw like real ones, so what a call
  consumes depends on the draws only, and nothing else reads the chunk's
  algorithm generator.

Popcounts (and so ``ctz``) go through :func:`popcount64`, looked up at
call time: ``np.bitwise_count`` where numpy has it, a 16-bit lookup table
before numpy 2.0.

Each deterministic kernel reproduces the sequential algorithm's per-trial
probe counts and witness colors *exactly*, which
``tests/core/test_bitpacked.py`` pins against ``run_on`` on every
coloring of small universes; the randomized ones are pinned per seed by
golden digests and against the exact expectations in distribution.
:func:`sample_packed` returns exactly the colorings
``ColoringSource.sample_matrix`` returns for the same generator — for
Bernoulli sources both are the same lane words, drawn one bit-plane per
raw ``uint64`` (:meth:`repro.core.distributions.BernoulliSource.sample_words`),
which the bool-matrix path unpacks — so a chunk's statistics do not
depend on whether it was sampled packed or packed after sampling.

R_Probe_Maj, R_Probe_CW and the random-order Probe_CW keep numpy kernels:
each trial draws a whole permutation of a row or of the universe, which
has no packed form, and :func:`repro.core.batched.resolve_backend` rejects
``backend="bitpacked"`` for them loudly.

Kernels follow the signature ``kernel(algorithm, packed, rng)`` over a
:class:`PackedColorings` and are registered with
:func:`repro.core.batched.register_kernel` under ``backend="bitpacked"``;
use :func:`run_packed` (or :func:`repro.core.batched.batched_run` on a
bool matrix) rather than calling them directly.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.algorithms.crumbling_walls import ProbeCW
from repro.algorithms.hqs import IRProbeHQS, ProbeHQS, RProbeHQS
from repro.algorithms.majority import ProbeMaj
from repro.algorithms.tree import ProbeTree, RProbeTree
from repro.core.batched import _cw_row_columns, kernel_scratch, register_kernel
from repro.core.coloring import as_numpy_generator
from repro.core.distributions import BernoulliSource, ColoringSource, raw_draws_64, unpack_words

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


# -- packed layout ----------------------------------------------------------------


@dataclass(frozen=True)
class PackedColorings:
    """``trials`` colorings packed 64-per-word.

    ``words`` has shape ``(n_words, n)``: bit ``t`` of ``words[w, e]`` is
    trial ``64 * w + t``'s red bit for element ``e + 1`` (same column
    convention as the bool matrices of :mod:`repro.core.batched`).  Lanes
    past ``trials`` in the last word are zero padding (:meth:`valid_mask`
    marks the real ones); the kernels' final per-trial unpack drops them.
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
    """Pack a ``(trials, n)`` bool red matrix into bit-planes.

    Each element's column is transposed into a contiguous row first, so
    ``packbits`` runs along rows and its bytes, read 8 at a time, are the
    little-endian lane words.
    """
    red = np.asarray(red, dtype=bool)
    if red.ndim != 2:
        raise ValueError(f"red matrix must be 2-D, got shape {red.shape}")
    trials, n = red.shape
    n_words = -(-trials // 64)
    octets = np.zeros((n, 8 * n_words), dtype=np.uint8)
    octets[:, : -(-trials // 8)] = np.packbits(
        np.ascontiguousarray(red.T), axis=1, bitorder="little"
    )
    words = octets.view("<u8").astype(np.uint64, copy=False)
    return PackedColorings(np.ascontiguousarray(words.T), trials)


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


# -- lane rows --------------------------------------------------------------------

#: Delta swaps ``(shift, mask)`` that transpose the 8x8 bit block held in
#: one uint64 (bit ``j`` of byte ``i`` <-> bit ``i`` of byte ``j``).
_TRANSPOSE8 = (
    (np.uint64(7), np.uint64(0x00AA00AA00AA00AA)),
    (np.uint64(14), np.uint64(0x0000CCCC0000CCCC)),
    (np.uint64(28), np.uint64(0x00000000F0F0F0F0)),
)


def lane_rows(planes: np.ndarray, n_bytes: int) -> np.ndarray:
    """Transpose ``(n_words, m)`` bit-planes into ``(64 * n_words, n_bytes)``
    per-lane byte rows: bit ``j`` of byte ``k`` in row ``t`` is lane ``t``'s
    bit of element ``8k + j``, and elements past ``m`` are zero.

    Each block of 8 elements x 8 lanes is gathered into one uint64 (byte
    ``i`` holds element ``i``'s 8 lanes) and transposed by three delta
    swaps, so a chunk costs a few whole-array passes.
    """
    n_words, m = planes.shape
    buffer = np.zeros((n_words, 8 * n_bytes), dtype=np.uint64)
    buffer[:, :m] = planes
    # axes (word, element byte, element in block, lane byte) -> lane byte before element
    blocks = buffer.view(np.uint8).reshape(n_words, n_bytes, 8, 8).transpose(0, 1, 3, 2)
    x = np.ascontiguousarray(blocks).view(np.uint64)
    t = buffer.reshape(x.shape)  # free once x holds the blocks
    for shift, mask in _TRANSPOSE8:
        np.right_shift(x, shift, out=t)
        t ^= x
        t &= mask
        x ^= t
        t <<= shift
        x ^= t
    # axes (word, element byte, lane byte, lane in block) -> lane 64*word + 8*byte + bit
    rows = buffer.view(np.uint8).reshape(n_words, 8, 8, n_bytes)
    rows[...] = x.view(np.uint8).reshape(n_words, n_bytes, 8, 8).transpose(0, 2, 3, 1)
    return rows.reshape(64 * n_words, n_bytes)


def _select_table() -> np.ndarray:
    """``table[b, r]``: the position of the ``(r + 1)``-th set bit of byte ``b``."""
    bits = (np.arange(256)[:, None] >> np.arange(8)) & 1
    byte, position = np.nonzero(bits)
    table = np.zeros((256, 8), dtype=np.uint8)
    table[byte, np.cumsum(bits, axis=1)[byte, position] - 1] = position
    return table


_SELECT = _select_table()

#: Words per lane-row pass: the lane rows of 4,096 trials (the engine's
#: default chunk) stay in cache, and a larger chunk runs slab by slab, so a
#: pass costs the same per trial at any chunk size.
_SLAB_WORDS = 64


def _by_slab(kernel):
    """Run a lane-row kernel over at most :data:`_SLAB_WORDS` words at a time."""

    @functools.wraps(kernel)
    def run(algorithm, packed: PackedColorings, rng=None):
        parts = []
        for w in range(0, max(packed.n_words, 1), _SLAB_WORDS):
            trials = min(packed.trials - 64 * w, 64 * _SLAB_WORDS)
            slab = PackedColorings(packed.words[w : w + _SLAB_WORDS], trials)
            parts.append(kernel(algorithm, slab))
        probes, witness_green = zip(*parts)
        return np.concatenate(probes), np.concatenate(witness_green)

    return run


#: Widest run of a wall row read as one field: a field starts up to 7 bits
#: into the 8 bytes read from its first byte, so 57 bits always fit.
_FIELD_BITS = 57


# -- bit-sliced arithmetic --------------------------------------------------------
#
# A bit-sliced integer is a little-endian stack of uint64 planes: planes[i]
# holds bit i of a per-lane counter (one lane per trial), so one array op
# masks, slices or selects every bit of it at once.


def planes_add(a: np.ndarray, b: np.ndarray, carry: np.ndarray | None = None) -> np.ndarray:
    """Full-adder chain over two bit-sliced integers, plus 1 in the lanes
    of ``carry`` when given."""
    if len(a) < len(b):
        a, b = b, a
    out = np.empty((len(a) + 1, *np.shape(a[0])), dtype=np.uint64)
    for i in range(len(a)):
        x = a[i]
        if i < len(b):
            y = b[i]
        elif carry is None:
            out[i : len(a)] = a[i:]
            return out[: len(a)]
        else:
            y, carry = carry, None
        if carry is None:
            np.bitwise_xor(x, y, out=out[i])
            carry = x & y
        else:
            total = x ^ y
            np.bitwise_xor(total, carry, out=out[i])
            carry = (x & y) | (total & carry)
    if carry is not None and carry.any():
        out[-1] = carry
        return out
    return out[:-1]


def planes_to_counts(planes: np.ndarray, trials: int) -> np.ndarray:
    """Unpack a bit-sliced integer of ``(n_words,)`` lane planes into
    per-trial ``int64`` counts."""
    bits = unpack_words(np.reshape(planes, (len(planes), -1)).T, trials)
    return bits @ (np.int64(1) << np.arange(len(planes), dtype=np.int64))


def _ones_planes(shape: tuple[int, ...]) -> np.ndarray:
    """The bit-sliced constant 1 in every lane (leaf probe counts)."""
    return np.full((1, *shape), ALL_LANES, dtype=np.uint64)


# -- packed kernels ---------------------------------------------------------------


def _maj_columns(algorithm) -> np.ndarray:
    """Probe_Maj's 0-based columns in probe order, built once per algorithm."""
    scratch = kernel_scratch(algorithm)
    columns = scratch.get("maj_columns")
    if columns is None:
        columns = np.asarray(algorithm.order, dtype=np.intp) - 1
        scratch["maj_columns"] = columns
    return columns


@_by_slab
def packed_probe_maj_kernel(algorithm, packed: PackedColorings, rng=None):
    """Algorithm Probe_Maj over lane rows: each trial stops at its majority
    color's ``target``-th element in probe order.

    Only the majority color reaches ``target = (n + 1) / 2`` (``n`` is odd).
    Cumulative popcounts of each lane's 64-element words find the word
    where it does, those of that word's bytes the byte, and a select table
    the bit.  Padding bits past ``n`` read green but come after every real
    element, so they never decide a trial.
    """
    target = algorithm.system.quorum_size
    trials = packed.trials
    n_words = -(-packed.n // 64)
    planes = packed.words[:, _maj_columns(algorithm)]
    lane_words = lane_rows(planes, 8 * n_words)[:trials].view(np.uint64)
    red = np.cumsum(popcount64(lane_words), axis=1)
    red_wins = red[:, -1] >= target
    majority = np.where(red_wins[:, None], red, np.arange(64, 64 * n_words + 1, 64) - red)
    word_index = (majority >= target).argmax(axis=1)
    lane = np.arange(trials)
    word = lane_words[lane, word_index] ^ np.where(red_wins, np.uint64(0), ALL_LANES)
    need = target - majority[lane, word_index] + popcount64(word)  # rank inside the word
    octets = word.view(np.uint8).reshape(trials, 8)
    byte_counts = popcount64(octets)
    seen = np.cumsum(byte_counts, axis=1)
    byte_index = (seen >= need[:, None]).argmax(axis=1)
    rank = need - seen[lane, byte_index] + byte_counts[lane, byte_index] - 1
    bit = _SELECT[octets[lane, byte_index], rank]
    return 64 * word_index + 8 * byte_index + bit + 1, ~red_wins


@dataclass(frozen=True)
class _WallLayout:
    """Where Probe_CW's rows below the top sit, built once per algorithm.

    ``columns`` lists their elements row by row (``row_starts`` into it,
    ``column_rows`` per entry).  Each row is read as one or more fields of
    at most ``_FIELD_BITS`` bits: byte offset, bit shift and width in the
    lane rows, and the fields that continue a wider row, grouped by depth.
    """

    top: int
    columns: np.ndarray
    row_starts: np.ndarray
    column_rows: np.ndarray
    n_bytes: int
    field_bytes: np.ndarray
    field_shifts: np.ndarray
    field_widths: np.ndarray
    field_sentinels: np.ndarray
    continuations: list[np.ndarray]


def _wall_layout(algorithm) -> _WallLayout:
    scratch = kernel_scratch(algorithm)
    layout = scratch.get("cw_layout")
    if layout is not None:
        return layout
    top, *below = _cw_row_columns(algorithm)
    widths = [columns.size for columns in below]
    starts = np.cumsum([0] + widths)[:-1].astype(np.intp)
    fields = [
        (start + offset, min(_FIELD_BITS, width - offset), offset // _FIELD_BITS)
        for start, width in zip(starts.tolist(), widths)
        for offset in range(0, width, _FIELD_BITS)
    ]
    begin, width, depth = np.array(fields, dtype=np.int64).reshape(-1, 3).T
    layout = _WallLayout(
        top=int(top[0]),
        columns=np.concatenate([np.empty(0, dtype=np.intp), *below]),
        row_starts=starts,
        column_rows=np.repeat(np.arange(len(below)), widths),
        n_bytes=-(-sum(widths) // 8) + 7,  # every field's 8-byte window stays in the row
        field_bytes=begin // 8,
        field_shifts=(begin % 8).astype(np.uint64),
        field_widths=width,
        field_sentinels=~((np.uint64(1) << width.astype(np.uint64)) - np.uint64(1)),
        continuations=[np.flatnonzero(depth == d) for d in range(1, depth.max(initial=0) + 1)],
    )
    scratch["cw_layout"] = layout
    return layout


@_by_slab
def packed_probe_cw_kernel(algorithm, packed: PackedColorings, rng=None):
    """Algorithm Probe_CW over lane rows: each row costs the position of its
    first mode-colored element, or its width if it has none.

    The mode entering a row is the color of the last monochromatic row
    above it (the width-1 top row always is one), so all modes come from
    word-parallel AND/OR reductions per row and a scan over rows.  XNOR
    against the row's mode marks the elements that stop the row; after the
    lane transpose a row is a bit field per lane, and a sentinel bit at its
    width makes ``min(ctz + 1, width)`` its probe count.  The witness is
    the final mode.
    """
    if algorithm.randomized:
        raise ValueError(
            "the bitpacked Probe_CW kernel supports the deterministic "
            "in-row order only"
        )
    layout = _wall_layout(algorithm)
    words = packed.words
    trials = packed.trials
    planes = words[:, layout.columns]
    all_red = np.bitwise_and.reduceat(planes, layout.row_starts, axis=1)
    any_red = np.bitwise_or.reduceat(planes, layout.row_starts, axis=1)
    modes = np.empty_like(all_red)
    mode = words[:, layout.top]
    for row in range(modes.shape[1]):
        modes[:, row] = mode
        mode = all_red[:, row] | (mode & any_red[:, row])
    matches = ~(planes ^ modes[:, layout.column_rows])
    rows = lane_rows(matches, layout.n_bytes)[:trials]
    # every byte offset's next 8 bytes as one uint64, without a copy
    windows = np.ndarray(
        (trials, layout.n_bytes - 7), dtype="<u8", buffer=rows, strides=(layout.n_bytes, 1)
    )
    fields = (windows[:, layout.field_bytes] >> layout.field_shifts) | layout.field_sentinels
    # popcount(x ^ (x - 1)) = ctz(x) + 1: up to the first match, or one past the width
    reach = popcount64(fields ^ (fields - np.uint64(1)))
    widths = layout.field_widths
    cost = np.minimum(reach, widths)
    for follow in layout.continuations:
        before = follow - 1
        cost[:, follow] *= (reach[:, before] > widths[before]) & (cost[:, before] > 0)
    return 1 + cost.sum(axis=1), unpack_lanes(~mode, trials)


def _gate_result(value: np.ndarray, probes: np.ndarray, packed: PackedColorings):
    """The root's per-trial ``(probes, witness_green)`` of a gate kernel."""
    return planes_to_counts(probes, packed.trials), unpack_lanes(~value, packed.trials)


def _order_choices(generator, ways: int, trials: int, widths: list[int]) -> list[tuple]:
    """Every node's uniform order choice among ``ways`` (3 or 6), per
    level of ``widths`` nodes, as a tuple of ``(n_words, width)`` lane
    planes of the choice's bits, least significant first.

    Drawn straight from raw ``uint64`` words by the rule in the module
    docstring: two planes ``a``, ``b`` per node-word give ``k = a + 2b``,
    lanes at ``k = 3`` redraw both bits until they land below 3, and a
    six-way choice adds a third plane ``c`` as its low bit.
    """
    n_words = -(-trials // 64)
    bounds = (n_words * np.cumsum([0, *widths])).tolist()
    m = bounds[-1]
    bits = raw_draws_64(generator, "order choices")
    count = 2 if ways == 3 else 3
    raw = bits.random_raw(count * m).reshape(count, m)
    a, b = raw[0], raw[1]
    index = np.flatnonzero(a & b)
    pending = a[index] & b[index]
    while index.size:
        fresh = bits.random_raw(2 * index.size).reshape(2, -1)
        a[index] &= fresh[0] | ~pending
        b[index] &= fresh[1] | ~pending
        pending &= fresh[0] & fresh[1]
        live = pending != 0
        index, pending = index[live], pending[live]
    planes = (a, b) if ways == 3 else (raw[2], a, b)
    return [
        tuple(plane[lo:hi].reshape(n_words, width) for plane in planes)
        for lo, hi, width in zip(bounds, bounds[1:], widths)
    ]


def _permutation_masks(code: np.ndarray):
    """One-hot lane masks of a drawn index ``k < 6`` into the six
    permutations of ``(0, 1, 2)`` in lexicographic order (``code`` = the
    bit-planes of ``k``): ``masks[j][i]`` marks the lanes whose permutation
    puts child ``i`` in position ``j``.  The first child is ``k // 2``."""
    b0, b1, b2 = code
    first = [~(b1 | b2), b1, b2]
    second = [~b0 & (b1 | b2), ~((b0 ^ b2) | b1), b0 & ~b2]
    third = [~(f | s) for f, s in zip(first, second)]
    return first, second, third


def _select(masks: list[np.ndarray], parts: list[np.ndarray]) -> np.ndarray:
    """Per lane, the part its one-hot ``masks`` pick (values or bit-sliced
    integers with equally many planes)."""
    return (masks[0] & parts[0]) | (masks[1] & parts[1]) | (masks[2] & parts[2])


def _majority(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return (a & b) | (c & (a | b))


def packed_probe_tree_kernel(algorithm, packed: PackedColorings, rng=None):
    """Algorithm Probe_Tree over bit-planes: the Prop. 3.6 recurrence
    ``P(v) = 1 + P(right) + [C(right) != e] * P(left)`` with child probe
    counts carried as bit-sliced integers and added carry-save per level."""
    system = algorithm.system
    words = packed.words
    first = 1 << system.height
    value = words[:, first - 1 : 2 * first - 1]
    probes = _ones_planes(value.shape)
    for depth in range(system.height - 1, -1, -1):
        lo = 1 << depth
        elem = words[:, lo - 1 : 2 * lo - 1]
        left_v, right_v = value[:, 0::2], value[:, 1::2]
        right_matches = ~(right_v ^ elem)
        value = (right_matches & elem) | (~right_matches & left_v)
        probes = planes_add(
            probes[:, :, 1::2],
            probes[:, :, 0::2] & ~right_matches,
            carry=_ones_planes(elem.shape)[0],
        )
    return _gate_result(value, probes, packed)


def packed_r_probe_tree_kernel(algorithm, packed: PackedColorings, rng=None):
    """Algorithm R_Probe_Tree (Thm. 4.7) over bit-planes.

    Each node draws ``k`` uniform in ``{0, 1, 2}``: probe (root, right)
    then left, (root, left) then right, or (left, right) then root, and
    skip the last part when the first two agree.  Its probes are the sum
    of its parts less the skipped one::

        P = P(left)  * ~(k == 0 & C(right) == e)
          + P(right) * ~(k == 1 & C(left) == e)
          + (k != 2 | C(left) != C(right))

    and its value is ``majority(e, left, right)`` whatever ``k`` is.
    """
    height = algorithm.system.height
    words = packed.words
    first = 1 << height
    value = words[:, first - 1 : 2 * first - 1]
    probes = _ones_planes(value.shape)
    depths = range(height - 1, -1, -1)
    choices = _order_choices(
        as_numpy_generator(rng), 3, packed.trials, [1 << depth for depth in depths]
    )
    for depth, (one, two) in zip(depths, choices):
        lo = 1 << depth
        elem = words[:, lo - 1 : 2 * lo - 1]
        left_v, right_v = value[:, 0::2], value[:, 1::2]
        probes = planes_add(
            probes[:, :, 0::2] & (one | two | (right_v ^ elem)),
            probes[:, :, 1::2] & (~one | (left_v ^ elem)),
            carry=~two | (left_v ^ right_v),
        )
        value = _majority(elem, left_v, right_v)
    return _gate_result(value, probes, packed)


def packed_probe_hqs_kernel(algorithm, packed: PackedColorings, rng=None):
    """Algorithm Probe_HQS over bit-planes: the 2-then-3 gate
    ``P = P(c1) + P(c2) + [C(c1) != C(c2)] * P(c3)`` per level, probe
    counts combined by full-adder chains under the disagreement mask."""
    value = packed.words
    probes = _ones_planes(value.shape)
    for _ in range(algorithm.system.height):
        v0, v1, v2 = value[:, 0::3], value[:, 1::3], value[:, 2::3]
        first_two_differ = v0 ^ v1
        value = (~first_two_differ & v0) | (first_two_differ & v2)
        probes = planes_add(
            planes_add(probes[:, :, 0::3], probes[:, :, 1::3]),
            probes[:, :, 2::3] & first_two_differ,
        )
    return _gate_result(value, probes, packed)


def _r_hqs_gate_level(value, probes, code):
    """One level of uniformly shuffled 2-then-3 gates (R_Probe_HQS);
    ``code`` holds each gate's drawn permutation index.

    A gate skips the child it evaluates last when the first two agree::

        P = sum_i P(c_i) * ~(last == i & the other two agree)
    """
    v = [value[:, i::3] for i in range(3)]
    last = _permutation_masks(code)[2]
    kept = [
        probes[:, :, i::3] & (~last[i] | (v[(i + 1) % 3] ^ v[(i + 2) % 3])) for i in range(3)
    ]
    return _majority(*v), planes_add(planes_add(kept[0], kept[1]), kept[2])


def packed_r_probe_hqs_kernel(algorithm, packed: PackedColorings, rng=None):
    """Algorithm R_Probe_HQS (Fig. 7) over bit-planes: one six-way
    permutation choice per gate and level."""
    height = algorithm.system.height
    widths = [3**depth for depth in range(height - 1, -1, -1)]
    codes = _order_choices(as_numpy_generator(rng), 6, packed.trials, widths)
    value, probes = packed.words, _ones_planes(packed.words.shape)
    for code in codes:
        value, probes = _r_hqs_gate_level(value, probes, code)
    return _gate_result(value, probes, packed)


def packed_ir_probe_hqs_kernel(algorithm, packed: PackedColorings, rng=None):
    """Algorithm IR_Probe_HQS (Fig. 8, Thm. 4.10) over bit-planes.

    A gate of height >= 2 evaluates a random child ``r1``, peeks at one
    random grandchild of a second random child ``r2``, then finishes
    ``r2`` when the peek agrees with ``r1`` (and skips ``r3`` if ``r2``
    agrees too) or else evaluates ``r3`` (and skips finishing ``r2`` if
    ``r3`` agrees with ``r1``).  So each level reads the children's and
    grandchildren's standalone ``(value, probes)``; two permutation draws
    per gate pick ``r1``/``r2``/``r3`` and the order of ``r2``'s children
    as disjoint one-hot masks, and every pick is an OR over the three
    candidates.  Height-1 gates run the plain shuffled gate.
    """
    height = algorithm.system.height
    grand_value, grand_probes = packed.words, _ones_planes(packed.words.shape)
    if height == 0:
        return _gate_result(grand_value, grand_probes, packed)
    # Height-1 gates draw once, each higher level twice (r1/r2/r3, then r2's children).
    widths = [3 ** (height - 1)] + [3**depth for depth in range(height - 2, -1, -1) for _ in (0, 1)]
    codes = _order_choices(as_numpy_generator(rng), 6, packed.trials, widths)
    value, probes = _r_hqs_gate_level(grand_value, grand_probes, codes[0])
    for order, grand_order in zip(codes[1::2], codes[2::2]):
        r1, r2, r3 = _permutation_masks(order)
        children_v = [value[:, i::3] for i in range(3)]
        children_p = [probes[:, :, i::3] for i in range(3)]
        v1, v2, v3 = (_select(r, children_v) for r in (r1, r2, r3))
        p1, p3 = _select(r1, children_p), _select(r3, children_p)
        # r2's children (grandchild j of child i sits at 9 * gate + 3i + j),
        # then the peek, second and third of them in the second draw's order.
        columns = [[slice(3 * i + j, None, 9) for i in range(3)] for j in range(3)]
        grand_v = [_select(r2, [grand_value[:, c] for c in cs]) for cs in columns]
        grand_p = [_select(r2, [grand_probes[:, :, c] for c in cs]) for cs in columns]
        g1, g2, g3 = _permutation_masks(grand_order)
        peek_v, second_v = _select(g1, grand_v), _select(g2, grand_v)
        peek_p, second_p, third_p = (_select(g, grand_p) for g in (g1, g2, g3))
        # Finishing r2 after the peek: its second child, plus the third
        # when the first two disagree.
        finish_p = planes_add(second_p, third_p & (peek_v ^ second_v))
        peek_agrees = ~(peek_v ^ v1)
        skip_r3 = peek_agrees & ~(v2 ^ v1)
        skip_finish = ~peek_agrees & ~(v3 ^ v1)
        grand_value, grand_probes = value, probes
        probes = planes_add(
            planes_add(p1, peek_p), planes_add(p3 & ~skip_r3, finish_p & ~skip_finish)
        )
        value = _majority(*children_v)
    return _gate_result(value, probes, packed)


def run_packed(
    algorithm, packed: PackedColorings, rng=None
) -> tuple[np.ndarray, np.ndarray]:
    """Run every packed trial through the algorithm's bitpacked kernel.

    Returns per-trial ``int64`` probe counts and bool witness colors — the
    same ``(probes, witness_green)`` pair as the numpy kernels of
    :func:`repro.core.batched.batched_run` — so downstream accounting
    (histograms, witness tallies) is backend-agnostic.  ``rng`` feeds the
    order draws of the randomized gate kernels.  Raises for algorithms
    without a packed kernel (:func:`repro.core.batched.resolve_backend`).
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
register_kernel(
    ProbeCW,
    packed_probe_cw_kernel,
    backend="bitpacked",
    accepts=lambda algorithm: not algorithm.randomized,
)
register_kernel(ProbeTree, packed_probe_tree_kernel, backend="bitpacked")
register_kernel(RProbeTree, packed_r_probe_tree_kernel, backend="bitpacked")
register_kernel(ProbeHQS, packed_probe_hqs_kernel, backend="bitpacked")
register_kernel(RProbeHQS, packed_r_probe_hqs_kernel, backend="bitpacked")
register_kernel(IRProbeHQS, packed_ir_probe_hqs_kernel, backend="bitpacked")
