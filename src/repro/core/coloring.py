"""Colorings of quorum-system elements.

The paper models each element (processor) as being colored either *green*
(alive) or *red* (failed).  A :class:`Coloring` is a total assignment of
colors to the universe ``{1, ..., n}``.  The probabilistic model of the paper
colors each element red independently with probability ``p``; this module
provides that distribution as well as several structured distributions used
as "hard" inputs in the lower-bound arguments of Section 4.

Internally a coloring is a single integer bitmask (bit ``i`` set iff element
``i + 1`` is red; see :mod:`repro.core.bitmask`), which makes the hot
operations — membership, flips, monochromaticity — constant-factor word
operations.  The frozenset views remain available and are materialized
lazily.
"""

from __future__ import annotations

import enum
import itertools
import random
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass

from repro.core.bitmask import elements_of, full_mask, mask_of, validate_mask

#: Universe size above which :meth:`Coloring.random` switches from the
#: element-by-element draw to the binomial-count draw.  Kept modest so every
#: seeded small-``n`` experiment reproduces the exact historical stream.
_RANDOM_FAST_PATH_N = 512


class Color(enum.Enum):
    """Status of a processor: ``GREEN`` is alive, ``RED`` has failed."""

    GREEN = "green"
    RED = "red"

    def flipped(self) -> "Color":
        """Return the opposite color (the paper's ``¬Mode``)."""
        return Color.RED if self is Color.GREEN else Color.GREEN

    def __invert__(self) -> "Color":
        return self.flipped()


GREEN = Color.GREEN
RED = Color.RED


class Coloring(Mapping[int, Color]):
    """An immutable assignment of a color to every element of a universe.

    Parameters
    ----------
    n:
        Size of the universe ``{1, ..., n}``.
    red:
        The set of elements colored red; everything else is green.
    """

    __slots__ = ("_n", "_red_mask", "_red")

    def __init__(self, n: int, red: Iterable[int] = ()) -> None:
        if n < 0:
            raise ValueError(f"universe size must be nonnegative, got {n}")
        mask = 0
        for e in red:
            if not 1 <= e <= n:
                raise ValueError(f"element {e} outside universe 1..{n}")
            mask |= 1 << (e - 1)
        self._n = n
        self._red_mask = mask
        self._red: frozenset[int] | None = None

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_red_mask(cls, n: int, red_mask: int) -> "Coloring":
        """Build a coloring directly from an integer red mask.

        Bit ``i`` of ``red_mask`` corresponds to element ``i + 1``.
        """
        validate_mask(red_mask, n)
        coloring = cls.__new__(cls)
        coloring._n = n
        coloring._red_mask = red_mask
        coloring._red = None
        return coloring

    @classmethod
    def from_red_row(cls, row) -> "Coloring":
        """Build a coloring from a boolean numpy row (True = red).

        This is the bridge from
        :meth:`~repro.core.distributions.ColoringSource.sample_matrix` rows
        back to individual colorings.
        """
        import numpy as np

        bits = np.asarray(row, dtype=bool)
        if bits.ndim != 1:
            raise ValueError("from_red_row expects a one-dimensional row")
        packed = np.packbits(bits, bitorder="little").tobytes()
        return cls.from_red_mask(bits.size, int.from_bytes(packed, "little"))

    @classmethod
    def from_mapping(cls, mapping: Mapping[int, Color]) -> "Coloring":
        """Build a coloring from an explicit element -> color mapping."""
        if not mapping:
            return cls(0)
        n = max(mapping)
        if set(mapping) != set(range(1, n + 1)):
            raise ValueError("mapping must cover the full universe 1..n")
        red = [e for e, c in mapping.items() if c is Color.RED]
        return cls(n, red)

    @classmethod
    def all_green(cls, n: int) -> "Coloring":
        """The coloring in which every processor is alive."""
        return cls(n)

    @classmethod
    def all_red(cls, n: int) -> "Coloring":
        """The coloring in which every processor has failed."""
        return cls.from_red_mask(n, full_mask(n))

    @classmethod
    def random(cls, n: int, p: float, rng: random.Random | None = None) -> "Coloring":
        """Sample the paper's probabilistic model: each element is red with
        probability ``p``, independently.

        For small universes the sample is drawn element by element (keeping
        historical seeded streams intact); for large universes the red
        *count* is drawn from the exact binomial and a uniform ``r``-subset
        is sampled, which is ``O(r)`` instead of ``O(n)`` RNG calls.
        """
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"failure probability must be in [0, 1], got {p}")
        rng = rng or random.Random()
        if n <= _RANDOM_FAST_PATH_N:
            mask = 0
            for e in range(n):
                if rng.random() < p:
                    mask |= 1 << e
            return cls.from_red_mask(n, mask)
        import numpy as np

        r = int(np.random.default_rng(rng.getrandbits(64)).binomial(n, p))
        red = rng.sample(range(1, n + 1), r)
        return cls(n, red)

    # -- Mapping interface -----------------------------------------------------

    def __getitem__(self, element: int) -> Color:
        if not 1 <= element <= self._n:
            raise KeyError(element)
        return Color.RED if (self._red_mask >> (element - 1)) & 1 else Color.GREEN

    def __iter__(self) -> Iterator[int]:
        return iter(range(1, self._n + 1))

    def __len__(self) -> int:
        return self._n

    # -- queries ---------------------------------------------------------------

    @property
    def n(self) -> int:
        """Size of the universe."""
        return self._n

    @property
    def red_mask(self) -> int:
        """Integer mask of failed processors (bit ``i`` ⇔ element ``i + 1``)."""
        return self._red_mask

    @property
    def green_mask(self) -> int:
        """Integer mask of live processors."""
        return full_mask(self._n) & ~self._red_mask

    @property
    def red_elements(self) -> frozenset[int]:
        """The set of failed processors."""
        if self._red is None:
            self._red = elements_of(self._red_mask)
        return self._red

    @property
    def green_elements(self) -> frozenset[int]:
        """The set of live processors."""
        return elements_of(self.green_mask)

    def is_green(self, element: int) -> bool:
        return self[element] is Color.GREEN

    def is_red(self, element: int) -> bool:
        return self[element] is Color.RED

    def monochromatic(self, elements: Iterable[int]) -> Color | None:
        """Return the common color of ``elements`` or ``None`` if mixed.

        An empty collection is vacuously monochromatic and reported as green.
        """
        mask = mask_of(elements)
        validate_mask(mask, self._n)
        return self.monochromatic_mask(mask)

    def monochromatic_mask(self, mask: int) -> Color | None:
        """Mask-native :meth:`monochromatic`."""
        red_part = mask & self._red_mask
        if red_part == 0:
            return Color.GREEN
        if red_part == mask:
            return Color.RED
        return None

    def flip(self, element: int) -> "Coloring":
        """Return a new coloring with the color of ``element`` toggled."""
        if not 1 <= element <= self._n:
            raise ValueError(f"element {element} outside universe 1..{self._n}")
        return Coloring.from_red_mask(self._n, self._red_mask ^ (1 << (element - 1)))

    def inverted(self) -> "Coloring":
        """Return the coloring with every color flipped."""
        return Coloring.from_red_mask(self._n, self.green_mask)

    def probability(self, p: float) -> float:
        """Probability of this coloring under the i.i.d. model with failure
        probability ``p``.
        """
        r = self._red_mask.bit_count()
        return (p**r) * ((1.0 - p) ** (self._n - r))

    # -- dunder ----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Coloring):
            return NotImplemented
        return self._n == other._n and self._red_mask == other._red_mask

    def __hash__(self) -> int:
        return hash((self._n, self._red_mask))

    def __repr__(self) -> str:
        reds = ",".join(str(e) for e in sorted(self.red_elements))
        return f"Coloring(n={self._n}, red={{{reds}}})"


def as_numpy_generator(rng):
    """Coerce ``None`` / int seed / ``random.Random`` / numpy Generator to a
    numpy Generator, deterministically when seeded.

    Shared by the batch samplers here and the vectorized estimators in
    :mod:`repro.core.batched`.
    """
    import numpy as np

    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, random.Random):
        return np.random.default_rng(rng.getrandbits(64))
    return np.random.default_rng(rng)


def enumerate_colorings(n: int) -> Iterator[Coloring]:
    """Yield all ``2^n`` colorings of a universe of size ``n``.

    Intended for exact computations on small universes (``n <= ~20``).
    """
    universe = list(range(1, n + 1))
    for r in range(n + 1):
        for red in itertools.combinations(universe, r):
            yield Coloring(n, red)


def enumerate_colorings_with_reds(n: int, r: int) -> Iterator[Coloring]:
    """Yield all colorings of ``{1..n}`` with exactly ``r`` red elements."""
    for red in itertools.combinations(range(1, n + 1), r):
        yield Coloring(n, red)


@dataclass(frozen=True)
class WeightedColoring:
    """A coloring together with its probability in an input distribution."""

    coloring: Coloring
    probability: float


class ColoringDistribution:
    """A finite distribution over colorings of a fixed universe.

    Used for Yao-style lower bounds (Section 4), where a "hard" distribution
    over inputs is chosen and the best deterministic algorithm is analyzed
    against it, and for exact probabilistic-model computations on small
    universes.
    """

    def __init__(self, n: int, weighted: Iterable[WeightedColoring]) -> None:
        items = list(weighted)
        if not items:
            raise ValueError("distribution must have at least one coloring")
        total = sum(w.probability for w in items)
        if total <= 0:
            raise ValueError("total probability mass must be positive")
        for w in items:
            if w.coloring.n != n:
                raise ValueError("all colorings must share the same universe size")
            if w.probability < 0:
                raise ValueError("probabilities must be nonnegative")
        self._n = n
        self._items = [
            WeightedColoring(w.coloring, w.probability / total) for w in items
        ]
        cdf: list[float] = []
        acc = 0.0
        for item in self._items:
            acc += item.probability
            cdf.append(acc)
        self._cdf = cdf

    @property
    def n(self) -> int:
        return self._n

    @property
    def support(self) -> list[WeightedColoring]:
        """The (normalized) weighted colorings in the distribution."""
        return list(self._items)

    @property
    def cdf(self) -> list[float]:
        """Running probability sums over :attr:`support` (for CDF inversion)."""
        return list(self._cdf)

    def expectation(self, func) -> float:
        """Expected value of ``func(coloring)`` under the distribution."""
        return sum(w.probability * func(w.coloring) for w in self._items)

    @classmethod
    def product(cls, n: int, p: float) -> "ColoringDistribution":
        """The i.i.d. failure model as an explicit distribution.

        Enumerates all ``2^n`` colorings; only usable for small ``n``.
        """
        if n > 20:
            raise ValueError(
                "explicit product distribution is limited to n <= 20; "
                "use Coloring.random for larger universes"
            )
        weighted = [
            WeightedColoring(c, c.probability(p)) for c in enumerate_colorings(n)
        ]
        return cls(n, weighted)

    @classmethod
    def exact_reds(cls, n: int, r: int) -> "ColoringDistribution":
        """Uniform distribution over colorings with exactly ``r`` red elements.

        This is the hard distribution of Theorem 4.2 (with ``r = k + 1``).
        """
        weighted = [
            WeightedColoring(c, 1.0) for c in enumerate_colorings_with_reds(n, r)
        ]
        return cls(n, weighted)

    @classmethod
    def uniform(cls, colorings: Iterable[Coloring]) -> "ColoringDistribution":
        """Uniform distribution over an explicit collection of colorings."""
        items = [WeightedColoring(c, 1.0) for c in colorings]
        if not items:
            raise ValueError("need at least one coloring")
        return cls(items[0].coloring.n, items)
