"""Unified coloring sources: one distribution abstraction, batched sampling.

The paper evaluates probe complexity under several input regimes — i.i.d.
Bernoulli failures, exact-count and adversarial red sets, and the Section-4
Yao hard distributions — and the repo historically grew a separate
representation for each ("where do colorings come from"): the scalar
:class:`~repro.core.coloring.ColoringDistribution`, a separate hierarchy of
failure models, the i.i.d.-only matrix samplers and ad-hoc
hard-distribution matrix functions.  Only the
i.i.d. model could reach the vectorized kernels of
:mod:`repro.core.batched`.

This module unifies them behind one protocol:

* :class:`ColoringSource` — a distribution over colorings of a fixed
  universe, drawn in batches by
  ``sample_matrix(n, trials, rng) -> (trials, n) bool ndarray`` (the native
  input of the batched kernels).  ``rng`` is anything
  :func:`~repro.core.coloring.as_numpy_generator` accepts — ``None``, an
  int seed, a ``random.Random``, a numpy ``Generator`` or a per-cell
  stream from :mod:`repro.core.seeding`.
* concrete sources for every failure scenario the repo knows: Bernoulli
  (:meth:`BernoulliSource.sample_words` is the single i.i.d. sampler),
  exact-count, correlated whole-group failures, fixed adversarial sets and
  finite explicit distributions (vectorized CDF inversion).  The Yao/HQS
  hard families register their sources from :mod:`repro.analysis.yao` and
  :mod:`repro.experiments.hqs`.
* a name-keyed registry mirroring
  :func:`repro.core.batched.register_kernel` and
  :func:`repro.systems.factory.register_system_builder`: a factory
  ``(system, p) -> ColoringSource`` per name, so experiment drivers, the
  sweep runner and the CLI resolve ``distribution="fixed_count"``-style
  parameters uniformly.  ``p`` is the scenario's intensity knob — failure
  probability for Bernoulli, ``round(p * n)`` failures for exact-count and
  adversarial sources, the group-failure probability for correlated groups
  — so one ``(p, size)`` grid sweeps any registered scenario.

Making a new failure scenario batched-fast everywhere is now a
:func:`register_source` call away.

The Bernoulli stream (``bitplane-v3``).  With ``B = ceil(p · 2^53)`` a cell
is red iff its 53-bit uniform ``V < B``, which the ``K(p)`` leading bits
("planes") of ``V`` decide (:func:`bernoulli_threshold`).  Each raw draw is
one plane over a word's 64 trials (its 64 *lanes*), and word ``w`` owns the
``draws_per_word`` draws starting at ``w · draws_per_word``:

* **Dense planes.** With ``H = min(K, 10)`` (:data:`_DENSE_PLANES`), draw
  ``j · n + e`` of the word's block is plane ``j`` of element ``e`` for
  ``j < H``.  When ``K ≤ 10`` (p ∈ {0, ¼, ⅜, ½, ¾, 1}, ...) that is the
  whole block, ``K · n`` draws.
* **Tail.** When ``K > H`` the block is ``(H + 64) · n`` draws.  Every lane
  still tied to ``B`` after the ``H`` dense planes, taken in (element,
  lane) order, reads the next draw of the word's queue, which starts at
  offset ``H · n``; the lane is red iff the draw's top ``K − H`` bits are
  below ``B``'s planes ``H..K−1`` read as an integer.  A word has at most
  ``64 · n`` tied lanes, so the queue never runs out.

Each tail draw is fresh and goes to one lane, chosen by earlier draws
only, so every cell is red with probability exactly ``B / 2^53``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

import numpy as np

from repro.core.coloring import ColoringDistribution, as_numpy_generator


#: Version tag of the draw streams behind a seeded result, folded into the
#: service's cache keys so results of another stream are never served for a
#: seed.  It versions the Bernoulli colorings (bit-planes since v1, dense
#: planes plus a per-word tail queue since v3) and the randomized gate
#: kernels' order choices (bit-plane rejection draws of
#: :mod:`repro.core.bitpacked` since v2).
SAMPLER_STREAM = "bitplane-v3"

#: Words (of 64 trials) per raw-draw slab of :meth:`BernoulliSource.sample_words`.
_SLAB_WORDS = 64

#: Planes every Bernoulli word reads for each element before its still-tied
#: lanes move to the tail queue.  Part of the stream: changing it changes
#: the words at every p with ``K(p)`` above it.
_DENSE_PLANES = 10


def raw_draws_64(generator: np.random.Generator, purpose: str):
    """``generator``'s bit generator, whose ``random_raw`` words the
    bit-plane samplers read as 64 lanes; MT19937's raw words carry only
    32 bits, which would leave half of every word's lanes fixed, so it is
    refused with a ``ValueError`` naming it."""
    bit_generator = generator.bit_generator
    if isinstance(bit_generator, np.random.MT19937):
        raise ValueError(
            f"{purpose} need 64-bit raw draws; "
            f"{type(bit_generator).__name__} draws 32"
        )
    return bit_generator


def _queue_draws(n: int) -> int:
    """Tail-queue draws a PCG64 word reads up front (not part of the stream):
    the expected number of lanes still tied after the dense planes, plus
    eight standard deviations and 16."""
    expected = 64 * n / (1 << _DENSE_PLANES)
    return int(expected + 8 * expected**0.5) + 16


def sample_bernoulli_matrix(n: int, p: float, trials: int, rng=None) -> np.ndarray:
    """Sample ``trials`` i.i.d. colorings as a ``(trials, n)`` bool matrix."""
    return BernoulliSource(n, p).sample_matrix(n, trials, rng)


def bernoulli_threshold(p: float) -> tuple[int, tuple[bool, ...]]:
    """``B = ceil(p · 2^53)``, exactly, and its bits from ``2^52`` down to
    its lowest set bit: a cell is red iff its 53-bit uniform ``V < B`` (with
    probability ``B / 2^53``, that of ``random() < p``), which those
    ``K(p) = 53 - tz(B)`` planes decide (none at p ∈ {0, 1})."""
    numerator, denominator = float(p).as_integer_ratio()
    threshold = -((-numerator << 53) // denominator)
    if threshold in (0, 1 << 53):
        return threshold, ()
    lowest = (threshold & -threshold).bit_length() - 1
    return threshold, tuple(bool(threshold >> bit & 1) for bit in range(52, lowest - 1, -1))


def compare_planes(planes: np.ndarray, bits, lt=None, eq=None):
    """Bit-sliced ``V < B`` over uint64 lanes, returning ``(lt, eq)``.

    ``planes[..., j, :]`` holds bit ``52 - j`` of each lane's ``V`` and
    ``bits[j]`` the matching bit of ``B``; ``lt`` marks lanes below ``B``,
    ``eq`` lanes still tied (pass both back to continue with later planes).
    Stops once no lane is tied, checked every fourth plane (a check costs
    about as much as a plane's word ops).
    """
    same = None
    for j, bit in enumerate(bits):
        plane = planes[..., j, :]
        if eq is None:
            lt = ~plane if bit else np.zeros_like(plane)
            eq = plane.copy() if bit else ~plane
            continue
        if j % 4 == 0 and not eq.any():
            break
        if same is None:
            same = np.empty_like(eq)
        np.bitwise_and(eq, plane, out=same)
        eq ^= same  # now eq & ~plane: a 0 bit where the prefix matched
        if bit:
            lt |= eq
            eq, same = same, eq
    return lt, eq


def unpack_words(words: np.ndarray, trials: int) -> np.ndarray:
    """``(n_words, n)`` lane words to the ``(trials, n)`` bool matrix: bit
    ``t`` of ``words[w, e]`` is row ``64 w + t``, column ``e``.

    Shifts each byte into its 8 rows rather than ``np.unpackbits`` along
    a row axis, whose strided writes thrash the cache when ``n`` is near a
    power of two (2-7x slower at ``n`` = 1023-1024).
    """
    n_words, n = words.shape
    octets = np.ascontiguousarray(words, dtype="<u8").view(np.uint8).reshape(n_words, n, 8)
    bits = octets.transpose(0, 2, 1)[:, :, None, :] >> np.arange(8, dtype=np.uint8)[:, None]
    bits &= 1
    return bits.reshape(64 * n_words, n)[:trials].view(bool)


class ColoringSource(ABC):
    """A distribution over colorings of a fixed universe ``{1..n}``.

    Subclasses implement :meth:`_sample_matrix`; the public
    :meth:`sample_matrix` — the one way to draw colorings — validates the
    universe size and coerces ``rng``.  A single coloring is
    ``Coloring.from_red_row`` of a one-row matrix.
    """

    #: Registry-style label recorded in artifacts (subclasses override).
    name: str = "source"

    @property
    @abstractmethod
    def n(self) -> int:
        """Size of the universe the source draws over."""

    @property
    def draws_per_word(self) -> int | None:
        """Raw 64-bit draws ``_sample_matrix`` consumes per 64 trials, when fixed.

        The streaming engine (:mod:`repro.core.engine`) uses this to give
        every 64-trial *word* — not every chunk — its own position in one
        ``PCG64`` stream, which makes chunked sampling byte-identical to a
        one-shot ``sample_matrix`` call regardless of chunk boundaries.
        Return ``None`` (the default) when the consumption is unknown or
        data-dependent (e.g. bounded-``integers`` rejection sampling); the
        engine then falls back to per-chunk streams.
        """
        return None

    @abstractmethod
    def _sample_matrix(self, trials: int, generator: np.random.Generator) -> np.ndarray:
        """Draw ``trials`` colorings as a ``(trials, n)`` bool red matrix."""

    def sample_matrix(self, n: int, trials: int, rng=None) -> np.ndarray:
        """Draw ``trials`` colorings as a ``(trials, n)`` bool red matrix.

        ``n`` must match the source's universe — call sites pass their
        system's size, so a source/system mismatch fails loudly instead of
        producing a silently misshapen batch.
        """
        if n != self.n:
            raise ValueError(
                f"{self.name} source draws over n={self.n}, "
                f"but a matrix for n={n} was requested"
            )
        if trials < 0:
            raise ValueError("batch size must be nonnegative")
        return self._sample_matrix(trials, as_numpy_generator(rng))


class BernoulliSource(ColoringSource):
    """The paper's probabilistic model: each element red with probability ``p``."""

    name = "bernoulli"

    def __init__(self, n: int, p: float) -> None:
        if n < 0:
            raise ValueError(f"universe size must be nonnegative, got {n}")
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"failure probability must be in [0, 1], got {p}")
        self._n = n
        self._p = p
        self._bits = bernoulli_threshold(p)[1]

    @property
    def n(self) -> int:
        return self._n

    @property
    def p(self) -> float:
        return self._p

    @property
    def draws_per_word(self) -> int:
        """``K · n`` when ``K(p) ≤ 10``, else ``(10 + 64) · n``: the dense
        planes plus a tail queue long enough for every lane of the word."""
        planes = len(self._bits)
        return (planes if planes <= _DENSE_PLANES else _DENSE_PLANES + 64) * self._n

    def _sample_matrix(self, trials, generator):
        return unpack_words(self.sample_words(trials, generator), trials)

    def sample_words(self, trials: int, generator: np.random.Generator) -> np.ndarray:
        """Draw ``trials`` colorings as ``(ceil(trials / 64), n)`` lane words
        (zero past ``trials``): word ``w`` reads the ``draws_per_word`` raw
        draws of its block as dense planes ``(plane, element)`` and then,
        when ``K(p) > 10``, as a tail queue (see the module docstring)."""
        bit_generator = raw_draws_64(generator, "Bernoulli bit-planes")
        n_words = -(-trials // 64)
        if not self._bits or not self._n:
            words = np.full((n_words, self._n), (1 << 64) - 1 if self._p == 1 else 0, np.uint64)
        else:
            words = np.empty((n_words, self._n), dtype=np.uint64)
            for first in range(0, n_words, _SLAB_WORDS):
                count = min(_SLAB_WORDS, n_words - first)
                words[first : first + count] = self._slab(bit_generator, count)
        if trials % 64:
            words[-1] &= np.uint64((1 << trials % 64) - 1)
        return words

    def _slab(self, bit_generator, count: int) -> np.ndarray:
        """``count`` words from the next ``count · draws_per_word`` draws.

        With ``K(p) ≤ 10`` every draw is a dense plane.  Otherwise a word's
        ``64 · n``-draw tail queue is mostly unread (about ``64 n / 2^10``
        lanes are still tied after the dense planes), so PCG64 streams draw
        the dense planes plus :func:`_queue_draws` queue draws per word and
        skip the rest with ``advance``; a word that needs more draws the
        rest of its queue from a copy of the slab's starting state, so the
        words depend on the draws only.  Other bit generators (Philox's
        ``advance`` steps a 4-draw counter) draw every block whole.
        """
        n, bits = self._n, self._bits
        planes = len(bits)
        if planes <= _DENSE_PLANES:
            raw = bit_generator.random_raw(count * planes * n).reshape(count, planes, n)
            return compare_planes(raw, bits)[0]
        dense = _DENSE_PLANES * n
        block = self.draws_per_word
        if isinstance(bit_generator, (np.random.PCG64, np.random.PCG64DXSM)):
            queue = min(block - dense, _queue_draws(n))
            start = bit_generator.state
            raw = np.empty((count, dense + queue), dtype=np.uint64)
            for word in range(count):
                raw[word] = bit_generator.random_raw(dense + queue)
                bit_generator.advance(block - dense - queue)
        else:
            start, queue = None, block - dense
            raw = bit_generator.random_raw(count * block).reshape(count, block)
        lt, eq = compare_planes(
            raw[:, :dense].reshape(count, _DENSE_PLANES, n), bits[:_DENSE_PLANES]
        )
        lt, eq = lt.reshape(-1), eq.reshape(-1)
        held = np.flatnonzero(eq != 0)
        # One row of 64 lane bits per word with a tied lane; its flat
        # nonzeros run in (word, element, lane) order, the queue order.
        lanes = np.unpackbits(
            eq[held].astype("<u8", copy=False).view(np.uint8).reshape(-1, 8),
            axis=1,
            bitorder="little",
        )
        tied = np.flatnonzero(lanes.view(bool))
        owner = held[tied >> 6] // n
        counts = np.bincount(owner, minlength=count)
        first = np.cumsum(counts) - counts
        rank = np.arange(tied.size) - first[owner]
        draws = np.empty(tied.size, dtype=np.uint64)
        inside = rank < queue
        draws[inside] = raw[owner[inside], dense + rank[inside]]
        for word in np.flatnonzero(counts > queue):
            rest = type(bit_generator)()
            rest.state = start
            rest.advance(int(word) * block + dense + queue)
            draws[first[word] + queue : first[word] + counts[word]] = rest.random_raw(
                int(counts[word]) - queue
            )
        tail = planes - _DENSE_PLANES
        below = sum(int(bit) << (tail - 1 - j) for j, bit in enumerate(bits[_DENSE_PLANES:]))
        lanes.reshape(-1)[tied] = (draws >> np.uint64(64 - tail)) < np.uint64(below)
        lt[held] |= np.packbits(lanes, axis=1, bitorder="little").view("<u8").reshape(-1)
        return lt.reshape(count, n)


class FixedCountSource(ColoringSource):
    """Exactly ``count`` uniformly chosen elements are red.

    This is the Theorem 4.2 hard-distribution shape (``count = k + 1`` on
    Majority) and the exact-count failure scenario.  The batched draw keys
    every element with an i.i.d. uniform and marks the ``count`` smallest
    keys per row red (``argpartition``, O(n) per row).
    """

    name = "fixed_count"

    def __init__(self, n: int, count: int) -> None:
        if not 0 <= count <= n:
            raise ValueError(f"red count {count} outside 0..{n}")
        self._n = n
        self._count = count

    @property
    def n(self) -> int:
        return self._n

    @property
    def count(self) -> int:
        return self._count

    @property
    def draws_per_word(self) -> int:
        # The degenerate counts return without touching the generator.
        return 0 if self._count in (0, self._n) else 64 * self._n

    def _sample_matrix(self, trials, generator):
        red = np.zeros((trials, self._n), dtype=bool)
        if self._count == 0 or trials == 0:
            return red
        if self._count == self._n:
            red[:] = True
            return red
        keys = generator.random((trials, self._n))
        chosen = np.argpartition(keys, self._count - 1, axis=1)[:, : self._count]
        np.put_along_axis(red, chosen, True, axis=1)
        return red


class CorrelatedGroupsSource(ColoringSource):
    """Whole groups of elements fail together, each with probability ``group_p``.

    The batched draw is one Bernoulli per ``(trial, group)``; an element is
    red when any of its groups failed, a boolean OR over each element's
    groups (one column gather per group an element can share), so
    correlated scenarios cost barely more than i.i.d. ones.  Elements
    outside every group never fail.
    """

    name = "correlated_groups"

    def __init__(self, n: int, groups: Iterable[Iterable[int]], group_p: float) -> None:
        if not 0.0 <= group_p <= 1.0:
            raise ValueError(
                f"group failure probability must be in [0, 1], got {group_p}"
            )
        self._n = n
        self._groups = [frozenset(group) for group in groups]
        self._group_p = group_p
        for group in self._groups:
            for element in group:
                if not 1 <= element <= n:
                    raise ValueError(
                        f"group element {element} outside universe 1..{n}"
                    )

    @property
    def n(self) -> int:
        return self._n

    @property
    def groups(self) -> list[frozenset[int]]:
        return list(self._groups)

    @property
    def group_p(self) -> float:
        return self._group_p

    @property
    def draws_per_word(self) -> int:
        return 64 * len(self._groups)

    @cached_property
    def _memberships(self) -> np.ndarray:
        """``(depth, n)`` group indices: row ``k`` holds each element's
        ``k``-th group, or ``len(groups)`` (a group that never fails) once
        the element has no more.  Built on first use."""
        per_element: list[list[int]] = [[] for _ in range(self._n)]
        for index, group in enumerate(self._groups):
            for element in group:
                per_element[element - 1].append(index)
        depth = max([1] + [len(indices) for indices in per_element])
        table = np.full((depth, self._n), len(self._groups), dtype=np.intp)
        for element, indices in enumerate(per_element):
            table[: len(indices), element] = indices
        return table

    def _red(self, fails: np.ndarray) -> np.ndarray:
        """Red elements of each row of group failures (last axis = groups):
        one column gather per layer of :attr:`_memberships`, OR-ed."""
        padded = np.zeros(fails.shape[:-1] + (fails.shape[-1] + 1,), dtype=bool)
        padded[..., :-1] = fails
        first, *rest = self._memberships
        red = padded[..., first]
        for layer in rest:
            red |= padded[..., layer]
        return red

    def _sample_matrix(self, trials, generator):
        if not self._groups:
            return np.zeros((trials, self._n), dtype=bool)
        return self._red(generator.random((trials, len(self._groups))) < self._group_p)


class AdversarialSource(ColoringSource):
    """A fixed, adversarially chosen red set (the worst-case model)."""

    name = "adversarial"

    def __init__(self, n: int, failed: Iterable[int]) -> None:
        self._n = n
        self._failed = frozenset(failed)
        row = np.zeros(n, dtype=bool)
        for element in self._failed:
            if not 1 <= element <= n:
                raise ValueError(f"failed element {element} outside universe 1..{n}")
            row[element - 1] = True
        self._row = row

    @property
    def n(self) -> int:
        return self._n

    @property
    def failed(self) -> frozenset[int]:
        return self._failed

    @property
    def draws_per_word(self) -> int:
        return 0

    def _sample_matrix(self, trials, generator):
        return np.tile(self._row, (trials, 1))


class FiniteSource(ColoringSource):
    """A finite explicit distribution, sampled by vectorized CDF inversion.

    Wraps a :class:`~repro.core.coloring.ColoringDistribution` (the
    Yao-style small-system representation): the support is packed once
    into a ``(support, n)`` bool matrix and batches are drawn with one
    ``searchsorted`` over the precomputed CDF — O(log support) per trial.
    """

    name = "finite"

    def __init__(self, distribution: ColoringDistribution) -> None:
        self._distribution = distribution
        self._n = distribution.n
        support = distribution.support
        rows = np.zeros((len(support), self._n), dtype=bool)
        for index, weighted in enumerate(support):
            for element in weighted.coloring.red_elements:
                rows[index, element - 1] = True
        self._rows = rows
        self._cdf = np.asarray(distribution.cdf, dtype=np.float64)

    @property
    def n(self) -> int:
        return self._n

    @property
    def distribution(self) -> ColoringDistribution:
        return self._distribution

    @property
    def draws_per_word(self) -> int:
        return 64

    def _sample_matrix(self, trials, generator):
        draws = generator.random(trials)
        indices = np.searchsorted(self._cdf, draws, side="left")
        indices = np.minimum(indices, len(self._cdf) - 1)
        return self._rows[indices]


# -- registry ---------------------------------------------------------------------


@dataclass(frozen=True)
class SourceSpec:
    """A registered coloring-source family: name, factory, description.

    The factory receives the quorum system the experiment runs on and the
    intensity knob ``p`` (the grid's failure-probability axis) and returns
    a ready :class:`ColoringSource` for that system's universe.
    """

    name: str
    factory: Callable[[Any, float], ColoringSource]
    description: str = ""
    aliases: tuple[str, ...] = field(default=())


_SOURCES: dict[str, SourceSpec] = {}
_ALIASES: dict[str, str] = {}
_DEFAULTS_LOADED = False


def register_source(
    name: str,
    factory: Callable[[Any, float], ColoringSource],
    description: str = "",
    aliases: tuple[str, ...] = (),
) -> SourceSpec:
    """Register a coloring-source factory under ``name`` (plus ``aliases``).

    Mirrors :func:`repro.systems.factory.register_system_builder`:
    duplicate names are an error, lookups are case-insensitive.
    """
    key = name.lower()
    if key in _SOURCES or key in _ALIASES:
        raise ValueError(f"coloring source {name!r} already registered")
    alias_keys = []
    for alias in aliases:
        alias_key = alias.lower()
        if alias_key == key or alias_key in alias_keys:
            raise ValueError(f"coloring-source alias {alias!r} duplicates the name")
        if alias_key in _SOURCES or alias_key in _ALIASES:
            raise ValueError(f"coloring-source alias {alias!r} already registered")
        alias_keys.append(alias_key)
    # All keys validated before any mutation: a rejected registration
    # leaves the registry untouched.
    spec = SourceSpec(name=key, factory=factory, description=description, aliases=aliases)
    _SOURCES[key] = spec
    for alias_key in alias_keys:
        _ALIASES[alias_key] = key
    return spec


def _ensure_default_sources() -> None:
    """Load the hard-family registrations exactly once (import side effect).

    The Yao / HQS hard distributions live in higher layers
    (:mod:`repro.analysis.yao`, :mod:`repro.experiments.hqs`) and register
    themselves on import, exactly like the default
    :class:`~repro.experiments.registry.ExperimentSpec` registrations.
    """
    global _DEFAULTS_LOADED
    if not _DEFAULTS_LOADED:
        _DEFAULTS_LOADED = True
        import repro.analysis.yao  # noqa: F401  (registers on import)
        import repro.experiments.hqs  # noqa: F401  (registers on import)


def source_specs() -> tuple[SourceSpec, ...]:
    """Every registered source family, sorted by name."""
    _ensure_default_sources()
    return tuple(_SOURCES[key] for key in sorted(_SOURCES))


def source_names() -> tuple[str, ...]:
    """The sorted registered source names."""
    return tuple(spec.name for spec in source_specs())


def canonical_source_name(name: str) -> str:
    """Resolve ``name`` (any case, possibly an alias) to its registered name.

    Consumers that special-case a source — e.g. "does the paper bound
    apply", which is a statement about ``bernoulli`` — must compare
    canonical names, not raw strings, so aliases like ``iid`` behave
    identically to the name they resolve to.
    """
    _ensure_default_sources()
    key = name.lower()
    key = _ALIASES.get(key, key)
    if key not in _SOURCES:
        raise ValueError(
            f"unknown coloring source {name!r}; "
            f"choose from {', '.join(source_names())}"
        )
    return key


def build_source(name: str, system, p: float) -> ColoringSource:
    """Build the registered source ``name`` for ``system`` at intensity ``p``."""
    return _SOURCES[canonical_source_name(name)].factory(system, p)


def require_system(system, cls: type, source_name: str):
    """Shared type guard for sources tied to a system family.

    The hard-distribution factories (Theorems 4.2/4.6/4.8, Lemma 4.11)
    only make sense on their own system class; registry factories call
    this to fail loudly on a mismatched ``--param distribution=...``.
    """
    if not isinstance(system, cls):
        raise ValueError(
            f"the {source_name} source requires a {cls.__name__}, "
            f"got {type(system).__name__}"
        )
    return system


def _scaled_count(system, p: float) -> int:
    """The exact-count knob derived from the grid's ``p`` axis."""
    return min(system.n, max(0, round(p * system.n)))


def _default_groups(system) -> list[frozenset[int]]:
    """Correlated-failure groups for a system.

    Structured systems group naturally (a crumbling-wall row is a rack);
    anything else is split into contiguous blocks of ``~sqrt(n)`` elements.
    ``rows`` is only trusted when it actually is a collection of element
    groups — e.g. ``GridSystem.rows`` is the row *count*, not a grouping.
    """
    rows = getattr(system, "rows", None)
    if isinstance(rows, Iterable) and not isinstance(rows, (str, bytes)):
        rows = list(rows)
        if rows and all(isinstance(row, Iterable) for row in rows):
            return [frozenset(row) for row in rows]
    block = max(1, round(float(system.n) ** 0.5))
    elements = list(range(1, system.n + 1))
    return [
        frozenset(elements[start : start + block])
        for start in range(0, system.n, block)
    ]


register_source(
    "bernoulli",
    lambda system, p: BernoulliSource(system.n, p),
    "i.i.d. failures: every element red with probability p (the paper's model)",
    aliases=("iid",),
)
register_source(
    "fixed_count",
    lambda system, p: FixedCountSource(system.n, _scaled_count(system, p)),
    "exactly round(p*n) uniformly chosen elements fail",
)
register_source(
    "correlated_groups",
    lambda system, p: CorrelatedGroupsSource(system.n, _default_groups(system), p),
    "whole groups (system rows, else ~sqrt(n) blocks) fail together w.p. p",
)
register_source(
    "adversarial",
    lambda system, p: AdversarialSource(
        system.n, range(1, _scaled_count(system, p) + 1)
    ),
    "a fixed adversarial red set: the first round(p*n) elements",
)
