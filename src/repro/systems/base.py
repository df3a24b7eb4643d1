"""Quorum systems, coteries and nondominated coteries.

A *set system* over the universe ``U = {1, ..., n}`` is a collection of
subsets of ``U``.  A *quorum system* is a set system whose members (quorums)
pairwise intersect.  A *coterie* additionally satisfies minimality (no quorum
contains another), and a coterie is *nondominated* (ND) when no other coterie
dominates it (Section 2.1 of the paper).

Because interesting systems (e.g. Majority over hundreds of elements) have an
astronomically large number of quorums, the base class represents a system
*implicitly*: subclasses must be able to decide whether a given set of
elements contains a quorum, and to exhibit one when it does.  Explicit quorum
enumeration is available where feasible and is used by the structural checks
(intersection, minimality, nondomination) exercised in the test-suite.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from collections.abc import Iterable, Iterator

from repro.core.bitmask import elements_of, mask_of, validate_mask
from repro.core.coloring import Color, Coloring

#: Default cap on universe size for brute-force quorum enumeration.
ENUMERATION_LIMIT = 20


class QuorumSystem(ABC):
    """Abstract base class for (implicitly represented) quorum systems.

    Subclasses must implement :meth:`contains_quorum` (the characteristic
    monotone boolean function of the system, Definition 1 of the paper) and
    :meth:`find_quorum_within`, and may override :meth:`quorums` with an
    efficient enumerator of the *minimal* quorums.
    """

    def __init__(self, n: int, name: str | None = None) -> None:
        if n < 1:
            raise ValueError(f"universe must contain at least one element, got n={n}")
        self._n = n
        self._name = name or type(self).__name__
        self._quorum_masks_cache: tuple[int, ...] | None = None
        self._transversal_masks_cache: tuple[int, ...] | None = None

    # -- basic attributes -------------------------------------------------

    @property
    def n(self) -> int:
        """Number of elements in the universe."""
        return self._n

    @property
    def name(self) -> str:
        """Human-readable name of the system."""
        return self._name

    @property
    def universe(self) -> frozenset[int]:
        """The universe ``{1, ..., n}``."""
        return frozenset(range(1, self._n + 1))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self._n})"

    # -- characteristic function ------------------------------------------

    @abstractmethod
    def contains_quorum(self, elements: Iterable[int]) -> bool:
        """Return True if ``elements`` is a superset of some quorum.

        Equivalently, this evaluates the characteristic monotone boolean
        function ``f_S`` on the assignment giving 1 to ``elements``.
        """

    @abstractmethod
    def find_quorum_within(self, elements: Iterable[int]) -> frozenset[int] | None:
        """Return some quorum contained in ``elements``, or None.

        The returned quorum need not be minimal, but concrete systems return
        minimal quorums whenever that is natural.
        """

    # -- bitmask fast path ---------------------------------------------------

    @property
    def universe_mask(self) -> int:
        """The universe as an integer mask (bit ``i`` ⇔ element ``i + 1``)."""
        return (1 << self._n) - 1

    def contains_quorum_mask(self, mask: int) -> bool:
        """Mask-native :meth:`contains_quorum`.

        The default implementation round-trips through a frozenset so every
        system supports the mask protocol; concrete systems override it with
        structure-aware word operations (popcount thresholds, precomputed
        row/quorum masks, recursive gate evaluation).
        """
        validate_mask(mask, self._n)
        return self.contains_quorum(elements_of(mask))

    def quorum_masks(self) -> tuple[int, ...]:
        """All minimal quorums as integer masks, computed once per instance.

        Requires quorum enumeration, hence the same universe-size limits as
        :meth:`quorums`; the tuple is cached so repeated callers pay the
        enumeration cost only once.
        """
        if self._quorum_masks_cache is None:
            self._quorum_masks_cache = tuple(mask_of(q) for q in self.quorums())
        return self._quorum_masks_cache

    def transversal_masks(self) -> tuple[int, ...]:
        """All minimal transversals as integer masks, computed once.

        These are the quorums of the dual system; a known-red mask settles a
        red witness exactly when it covers one of them.
        """
        if self._transversal_masks_cache is None:
            from repro.systems.boolean import dual_system

            self._transversal_masks_cache = tuple(
                mask_of(q) for q in dual_system(self).quorums()
            )
        return self._transversal_masks_cache

    def is_quorum(self, elements: Iterable[int]) -> bool:
        """Return True if ``elements`` is exactly a *minimal* quorum.

        A set is a minimal quorum when it contains a quorum but no proper
        subset of it does.
        """
        s = frozenset(elements)
        if not self.contains_quorum(s):
            return False
        return all(not self.contains_quorum(s - {e}) for e in s)

    def is_transversal(self, elements: Iterable[int]) -> bool:
        """Return True if ``elements`` intersects every quorum.

        A set ``R`` is a transversal iff its complement contains no quorum.
        """
        complement = self.universe - frozenset(elements)
        return not self.contains_quorum(complement)

    # -- quorum enumeration -------------------------------------------------

    def quorums(self) -> Iterator[frozenset[int]]:
        """Iterate over all minimal quorums of the system.

        The default implementation brute-forces over all subsets and is only
        usable for small universes (``n <= ENUMERATION_LIMIT``); concrete
        systems override it with direct constructions where possible.
        """
        if self._n > ENUMERATION_LIMIT:
            raise NotImplementedError(
                f"brute-force quorum enumeration is limited to n <= "
                f"{ENUMERATION_LIMIT}; {self.name} has n = {self._n}"
            )
        universe = sorted(self.universe)
        for size in range(1, self._n + 1):
            for subset in itertools.combinations(universe, size):
                candidate = frozenset(subset)
                if self.is_quorum(candidate):
                    yield candidate

    def quorum_sizes(self) -> list[int]:
        """Sizes of all minimal quorums (requires enumeration)."""
        return sorted(len(q) for q in self.quorums())

    def min_quorum_size(self) -> int:
        """Size of a smallest quorum (the paper's parameter ``c``)."""
        return min(len(q) for q in self.quorums())

    def max_quorum_size(self) -> int:
        """Size of a largest quorum (the paper's parameter ``m``)."""
        return max(len(q) for q in self.quorums())

    # -- structural properties ----------------------------------------------

    def has_intersection_property(self) -> bool:
        """Check that every pair of quorums intersects (quorum-system axiom)."""
        qs = list(self.quorums())
        return all(q1 & q2 for q1, q2 in itertools.combinations(qs, 2)) if len(qs) > 1 else True

    def is_coterie(self) -> bool:
        """Check intersection plus minimality (no quorum contains another)."""
        qs = list(self.quorums())
        for q1, q2 in itertools.permutations(qs, 2):
            if q1 < q2:
                return False
        return self.has_intersection_property()

    def is_nondominated(self) -> bool:
        """Check nondomination via the classical transversal criterion.

        A coterie ``S`` is ND iff every transversal of ``S`` contains a
        quorum of ``S`` (Lemma 2.1 gives one direction; the converse holds as
        well: if some transversal contains no quorum, adding a minimal such
        transversal produces a dominating coterie).  Equivalently, for every
        subset ``T`` of the universe, either ``T`` contains a quorum or the
        complement of ``T`` contains a quorum — i.e. the characteristic
        function is self-dual.
        """
        if self._n > ENUMERATION_LIMIT:
            raise NotImplementedError(
                "exhaustive nondomination check is limited to small universes"
            )
        universe = sorted(self.universe)
        full = self.universe
        for size in range(self._n + 1):
            for subset in itertools.combinations(universe, size):
                t = frozenset(subset)
                if not self.contains_quorum(t) and not self.contains_quorum(full - t):
                    return False
        return True

    def dominates(self, other: "QuorumSystem") -> bool:
        """Return True if this coterie dominates ``other`` (``self ≻ other``).

        ``R`` dominates ``S`` when they differ and every quorum of ``S``
        contains some quorum of ``R``.
        """
        if self.n != other.n:
            raise ValueError("domination is only defined over a common universe")
        mine = set(self.quorums())
        theirs = set(other.quorums())
        if mine == theirs:
            return False
        return all(self.contains_quorum(s) for s in theirs)

    # -- witnesses against a coloring ----------------------------------------

    def find_green_quorum(self, coloring: Coloring) -> frozenset[int] | None:
        """Return a quorum all of whose elements are green, if one exists."""
        self._check_coloring(coloring)
        return self.find_quorum_within(coloring.green_elements)

    def find_red_quorum(self, coloring: Coloring) -> frozenset[int] | None:
        """Return a quorum all of whose elements are red, if one exists."""
        self._check_coloring(coloring)
        return self.find_quorum_within(coloring.red_elements)

    def has_live_quorum(self, coloring: Coloring) -> bool:
        """Return True if the system currently contains a live (green) quorum."""
        self._check_coloring(coloring)
        return self.contains_quorum(coloring.green_elements)

    def witness_color(self, coloring: Coloring) -> Color:
        """Color of the witness for this coloring.

        Green when a live quorum exists, red otherwise (in which case the red
        elements form a transversal; for an ND coterie they contain a red
        quorum, Lemma 2.1).
        """
        return Color.GREEN if self.has_live_quorum(coloring) else Color.RED

    def _check_coloring(self, coloring: Coloring) -> None:
        if coloring.n != self._n:
            raise ValueError(
                f"coloring is over {coloring.n} elements but {self.name} has n={self._n}"
            )

    # -- conversions -----------------------------------------------------------

    def to_explicit(self) -> "ExplicitQuorumSystem":
        """Materialize the minimal quorums into an explicit system."""
        return ExplicitQuorumSystem(self.n, self.quorums(), name=self.name)


class ExplicitQuorumSystem(QuorumSystem):
    """A quorum system given by an explicit list of quorums.

    The quorum list is reduced to its minimal sets (an explicit system built
    from arbitrary sets therefore always satisfies minimality; intersection
    and nondomination are *not* enforced and can be checked separately).
    """

    def __init__(
        self,
        n: int,
        quorums: Iterable[Iterable[int]],
        name: str | None = None,
    ) -> None:
        super().__init__(n, name=name or "ExplicitQuorumSystem")
        sets = {frozenset(q) for q in quorums}
        if not sets:
            raise ValueError("a quorum system must contain at least one quorum")
        for q in sets:
            if not q:
                raise ValueError("quorums must be nonempty")
            if not q <= self.universe:
                raise ValueError(f"quorum {sorted(q)} not contained in universe 1..{n}")
        # Keep only minimal sets so the collection is an antichain.
        self._quorums = sorted(
            (q for q in sets if not any(other < q for other in sets)),
            key=lambda q: (len(q), sorted(q)),
        )
        self._quorum_masks_cache = tuple(mask_of(q) for q in self._quorums)

    def contains_quorum(self, elements: Iterable[int]) -> bool:
        s = frozenset(elements)
        return any(q <= s for q in self._quorums)

    def contains_quorum_mask(self, mask: int) -> bool:
        validate_mask(mask, self._n)
        return any(q & mask == q for q in self._quorum_masks_cache)

    def find_quorum_within(self, elements: Iterable[int]) -> frozenset[int] | None:
        s = frozenset(elements)
        for q in self._quorums:
            if q <= s:
                return q
        return None

    def quorums(self) -> Iterator[frozenset[int]]:
        return iter(self._quorums)

    def quorum_count(self) -> int:
        """Number of (minimal) quorums."""
        return len(self._quorums)


def intersection_property(quorums: Iterable[Iterable[int]]) -> bool:
    """Check pairwise intersection for an explicit collection of sets."""
    sets = [frozenset(q) for q in quorums]
    return all(a & b for a, b in itertools.combinations(sets, 2)) if len(sets) > 1 else True


def is_antichain(quorums: Iterable[Iterable[int]]) -> bool:
    """Check that no set in the collection contains another."""
    sets = [frozenset(q) for q in quorums]
    return not any(a < b for a, b in itertools.permutations(sets, 2))
