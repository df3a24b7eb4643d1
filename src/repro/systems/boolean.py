"""Monotone boolean function view of quorum systems (Definition 1).

A quorum system ``S`` over ``{1..n}`` induces the monotone boolean function

    f_S(x_1, ..., x_n) = OR_{Q in S} AND_{i in Q} x_i,

whose minterms are exactly the (minimal) quorums.  This module provides that
view, three-valued evaluation under partial knowledge (used by probe
strategies, which know only the colors of probed elements), and the dual
function/system.  A coterie is nondominated precisely when ``f_S`` is
self-dual, which is the criterion used by the structural tests.
"""

from __future__ import annotations

import enum
import itertools
from collections.abc import Iterable, Iterator, Mapping

from repro.core.bitmask import mask_of, validate_mask
from repro.core.coloring import Color
from repro.systems.base import ExplicitQuorumSystem, QuorumSystem

#: Universe-size cap for the per-instance settled-witness memo.  Beyond it a
#: knowledge-state cache could grow without bound, so memoization is skipped.
_SETTLED_MEMO_LIMIT = 24

#: Insertion cap for the memo.  Long Monte-Carlo runs through the generic
#: scan algorithms see mostly-unique knowledge states; once the cache holds
#: this many entries, new states are evaluated without being stored, so
#: memory stays bounded while the hot repeated prefixes (exact permutation
#: sweeps, strategy-tree builds) remain cached.
_SETTLED_MEMO_MAX_ENTRIES = 500_000


class Ternary(enum.Enum):
    """Three-valued logic outcome for evaluation under partial knowledge."""

    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"


class CharacteristicFunction:
    """The characteristic monotone boolean function ``f_S`` of a system."""

    def __init__(self, system: QuorumSystem) -> None:
        self._system = system
        self._full_mask = (1 << system.n) - 1
        # Memo for witness_settled_mask, keyed by (green_mask, red_mask).
        # Shared across every query on this instance, so DP solvers and the
        # permutation analysis stop recomputing identical knowledge states.
        self._settled_memo: dict[tuple[int, int], Color | None] | None = (
            {} if system.n <= _SETTLED_MEMO_LIMIT else None
        )

    def __getstate__(self) -> dict:
        # Pickle the memo empty: the pair a pool task ships must not grow
        # with the queries made so far.
        state = dict(self.__dict__)
        if state["_settled_memo"] is not None:
            state["_settled_memo"] = {}
        return state

    @property
    def system(self) -> QuorumSystem:
        return self._system

    @property
    def n(self) -> int:
        return self._system.n

    # -- total evaluation ------------------------------------------------------

    def evaluate(self, assignment: Mapping[int, bool] | Iterable[int]) -> bool:
        """Evaluate ``f_S`` on a total assignment.

        ``assignment`` is either a mapping element -> bool or the set of
        elements assigned 1 (True).
        """
        ones = self._ones(assignment)
        return self._system.contains_quorum(ones)

    def _ones(self, assignment: Mapping[int, bool] | Iterable[int]) -> frozenset[int]:
        if isinstance(assignment, Mapping):
            return frozenset(e for e, v in assignment.items() if v)
        return frozenset(assignment)

    # -- partial evaluation ----------------------------------------------------

    def evaluate_partial(
        self, known_true: Iterable[int], known_false: Iterable[int]
    ) -> Ternary:
        """Evaluate ``f_S`` knowing only some variables.

        ``known_true`` are elements known to be 1 (green), ``known_false``
        elements known to be 0 (red).  The result is ``TRUE`` if the function
        is already forced to 1 (a green quorum is certain), ``FALSE`` if it is
        forced to 0 (the red elements form a transversal), and ``UNKNOWN``
        otherwise.
        """
        true_mask = mask_of(known_true)
        false_mask = mask_of(known_false)
        validate_mask(true_mask, self.n)
        validate_mask(false_mask, self.n)
        return self.evaluate_partial_mask(true_mask, false_mask)

    def evaluate_partial_mask(self, true_mask: int, false_mask: int) -> Ternary:
        """Mask-native :meth:`evaluate_partial`."""
        if true_mask & false_mask:
            raise ValueError("an element cannot be simultaneously green and red")
        settled = self.witness_settled_mask(true_mask, false_mask)
        if settled is Color.GREEN:
            return Ternary.TRUE
        if settled is Color.RED:
            return Ternary.FALSE
        return Ternary.UNKNOWN

    def witness_settled(
        self, known_green: Iterable[int], known_red: Iterable[int]
    ) -> Color | None:
        """Witness color determined by the current knowledge, if any.

        Returns ``Color.GREEN`` when the known-green elements already contain
        a quorum, ``Color.RED`` when the known-red elements already form a
        transversal (so no live quorum can exist), and ``None`` when more
        probes are needed.  This is exactly the termination test of a probe
        strategy.
        """
        green_mask = mask_of(known_green)
        red_mask = mask_of(known_red)
        validate_mask(green_mask, self.n)
        validate_mask(red_mask, self.n)
        if green_mask & red_mask:
            raise ValueError("an element cannot be simultaneously green and red")
        return self.witness_settled_mask(green_mask, red_mask)

    def witness_settled_mask(self, green_mask: int, red_mask: int) -> Color | None:
        """Mask-native :meth:`witness_settled`, memoized per knowledge state.

        On small universes the result is cached on the instance, so DP
        solvers and permutation sweeps that revisit the same
        ``(green, red)`` knowledge state get a dict lookup instead of a
        characteristic-function evaluation.
        """
        memo = self._settled_memo
        if memo is not None:
            key = (green_mask, red_mask)
            try:
                return memo[key]
            except KeyError:
                pass
        system = self._system
        if system.contains_quorum_mask(green_mask):
            settled: Color | None = Color.GREEN
        elif not system.contains_quorum_mask(self._full_mask & ~red_mask):
            settled = Color.RED
        else:
            settled = None
        if memo is not None and len(memo) < _SETTLED_MEMO_MAX_ENTRIES:
            memo[key] = settled
        return settled

    # -- minterms / maxterms / duality -----------------------------------------

    def minterms(self) -> Iterator[frozenset[int]]:
        """Minimal sets of variables whose assignment to 1 forces ``f_S = 1``.

        These are exactly the minimal quorums.
        """
        return self._system.quorums()

    def maxterms(self) -> Iterator[frozenset[int]]:
        """Minimal sets of variables whose assignment to 0 forces ``f_S = 0``.

        These are the minimal transversals of the system.
        """
        return self.dual_system().quorums()

    def is_monotone(self) -> bool:
        """Exhaustively verify monotonicity (small universes only)."""
        n = self.n
        if n > 16:
            raise NotImplementedError("exhaustive monotonicity check limited to n <= 16")
        universe = sorted(self._system.universe)
        for size in range(n):
            for subset in itertools.combinations(universe, size):
                s = frozenset(subset)
                if self.evaluate(s):
                    for extra in self._system.universe - s:
                        if not self.evaluate(s | {extra}):
                            return False
        return True

    def is_self_dual(self) -> bool:
        """Check ``f_S(x) = ¬f_S(¬x)`` for all assignments (small universes).

        Self-duality of the characteristic function is equivalent to the
        coterie being nondominated.
        """
        n = self.n
        if n > 20:
            raise NotImplementedError("exhaustive self-duality check limited to n <= 20")
        universe = sorted(self._system.universe)
        full = self._system.universe
        for size in range(n + 1):
            for subset in itertools.combinations(universe, size):
                s = frozenset(subset)
                if self.evaluate(s) == self.evaluate(full - s):
                    return False
        return True

    def dual_system(self) -> QuorumSystem:
        """The dual quorum system, whose quorums are the minimal transversals."""
        return dual_system(self._system)


def dual_system(system: QuorumSystem) -> ExplicitQuorumSystem:
    """Compute the dual of a quorum system by explicit enumeration.

    The dual's quorums are the minimal transversals of the original system.
    For a nondominated coterie the dual coincides with the original (as a set
    of quorums).  Requires quorum enumeration, hence small universes.
    """
    quorums = list(system.quorums())
    transversals = _minimal_hitting_sets(quorums, system.universe)
    return ExplicitQuorumSystem(system.n, transversals, name=f"dual({system.name})")


def _minimal_hitting_sets(
    sets: list[frozenset[int]], universe: frozenset[int]
) -> list[frozenset[int]]:
    """Minimal hitting sets (transversals) of a small set collection."""
    if not sets:
        return []
    hitting: list[frozenset[int]] = []
    elements = sorted(universe)
    for size in range(1, len(universe) + 1):
        for candidate in itertools.combinations(elements, size):
            c = frozenset(candidate)
            if any(h <= c for h in hitting):
                continue
            if all(c & s for s in sets):
                hitting.append(c)
    return hitting


def systems_equal(a: QuorumSystem, b: QuorumSystem) -> bool:
    """Return True if two systems have identical sets of minimal quorums."""
    if a.n != b.n:
        return False
    return set(a.quorums()) == set(b.quorums())
