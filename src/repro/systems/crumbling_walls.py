"""The Crumbling Walls (CW) family of quorum systems (Peleg & Wool 1997).

An ``(n_1, ..., n_k)``-CW system arranges the universe in ``k`` rows, where
row ``i`` has width ``n_i`` and ``sum n_i = n``.  A quorum consists of one
*full* row ``j`` together with one representative element from every row
*below* row ``j`` (i.e. rows ``j+1, ..., k``).  When ``n_1 = 1`` and all
other rows have width greater than 1, the system is a nondominated coterie.

Special cases implemented here:

* the Wheel system is the ``(1, n-1)``-CW;
* the Triang system (Erdős–Lovász / Lovász) is the ``(1, 2, ..., d)``-CW.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence

from repro.systems.base import QuorumSystem


class CrumblingWall(QuorumSystem):
    """An ``(n_1, ..., n_k)``-crumbling-wall quorum system.

    Elements are numbered row by row from the top: row 1 holds elements
    ``1..n_1``, row 2 holds the next ``n_2`` elements, and so on.
    """

    def __init__(self, widths: Sequence[int], name: str | None = None) -> None:
        widths = list(widths)
        if not widths:
            raise ValueError("a crumbling wall needs at least one row")
        if any(w < 1 for w in widths):
            raise ValueError("every row must have positive width")
        n = sum(widths)
        super().__init__(n, name=name or f"CW{tuple(widths)}")
        self._widths = widths
        self._rows: list[frozenset[int]] = []
        start = 1
        for w in widths:
            self._rows.append(frozenset(range(start, start + w)))
            start += w
        self._row_of = {e: i for i, row in enumerate(self._rows) for e in row}
        # Row bitmasks, bottom row last — the unit of the mask fast path.
        self._row_masks = [(((1 << w) - 1) << (min(row) - 1)) for w, row in zip(widths, self._rows)]

    # -- structure ----------------------------------------------------------

    @property
    def widths(self) -> list[int]:
        """Row widths ``(n_1, ..., n_k)``."""
        return list(self._widths)

    @property
    def num_rows(self) -> int:
        """Number of rows ``k``."""
        return len(self._widths)

    @property
    def rows(self) -> list[frozenset[int]]:
        """The rows as element sets, from top (row 1) to bottom (row k)."""
        return list(self._rows)

    def row(self, index: int) -> frozenset[int]:
        """Elements of row ``index`` (1-based, top to bottom)."""
        if not 1 <= index <= len(self._rows):
            raise IndexError(f"row index {index} outside 1..{len(self._rows)}")
        return self._rows[index - 1]

    def row_of(self, element: int) -> int:
        """1-based row index of an element."""
        if element not in self._row_of:
            raise ValueError(f"element {element} outside universe 1..{self._n}")
        return self._row_of[element] + 1

    def max_row_width(self) -> int:
        """Width of the widest row (the paper's parameter ``m`` in Thm. 4.4)."""
        return max(self._widths)

    def is_nd_shape(self) -> bool:
        """The structural ND criterion: first row of width 1, all other rows
        of width greater than 1 (Section 2.2).
        """
        if self._widths[0] != 1:
            return False
        return all(w > 1 for w in self._widths[1:])

    # -- quorum predicate ------------------------------------------------------

    def contains_quorum(self, elements: Iterable[int]) -> bool:
        s = frozenset(elements)
        if not s <= self.universe:
            raise ValueError("elements outside the universe")
        # A quorum exists within s iff some row j is fully contained in s and
        # s hits every row below j.  Scan bottom-up, tracking whether all rows
        # strictly below the current one are hit.
        below_all_hit = True
        for j in range(len(self._rows) - 1, -1, -1):
            row = self._rows[j]
            if below_all_hit and row <= s:
                return True
            if not (row & s):
                below_all_hit = False
            # once a row below is missed, no higher row can work
            if not below_all_hit:
                return False
        return False

    def contains_quorum_mask(self, mask: int) -> bool:
        if mask < 0 or mask >> self._n:
            raise ValueError("elements outside the universe")
        # Same bottom-up scan as contains_quorum, on row bitmasks.
        for row_mask in reversed(self._row_masks):
            if mask & row_mask == row_mask:
                return True
            if not mask & row_mask:
                return False
        return False

    def find_quorum_within(self, elements: Iterable[int]) -> frozenset[int] | None:
        s = frozenset(elements)
        if not s <= self.universe:
            raise ValueError("elements outside the universe")
        representatives: list[int] = []
        for j in range(len(self._rows) - 1, -1, -1):
            row = self._rows[j]
            if row <= s:
                return row | frozenset(representatives)
            hit = row & s
            if not hit:
                return None
            representatives.append(min(hit))
        return None

    def quorums(self) -> Iterator[frozenset[int]]:
        """Enumerate all quorums: a full row plus representatives below it."""
        k = len(self._rows)
        for j in range(k):
            below = [sorted(self._rows[i]) for i in range(j + 1, k)]
            for reps in itertools.product(*below):
                yield self._rows[j] | frozenset(reps)

    def quorum_count(self) -> int:
        """Number of quorums, computed without enumeration."""
        total = 0
        for j in range(len(self._rows)):
            prod = 1
            for i in range(j + 1, len(self._rows)):
                prod *= self._widths[i]
            total += prod
        return total

    def min_quorum_size(self) -> int:
        k = len(self._rows)
        return min(self._widths[j] + (k - 1 - j) for j in range(k))

    def max_quorum_size(self) -> int:
        k = len(self._rows)
        return max(self._widths[j] + (k - 1 - j) for j in range(k))


class TriangSystem(CrumblingWall):
    """The Triang system: the ``(1, 2, ..., d)``-crumbling wall.

    Row ``i`` has width ``i``, so the universe has ``n = d (d + 1) / 2``
    elements and every quorum has exactly ``d`` elements (the system is
    ``d``-uniform).
    """

    def __init__(self, depth: int) -> None:
        if depth < 1:
            raise ValueError("Triang needs depth >= 1")
        super().__init__(list(range(1, depth + 1)), name=f"Triang({depth})")
        self._depth = depth

    @property
    def depth(self) -> int:
        """Number of rows ``d`` (also the uniform quorum size)."""
        return self._depth

    def min_quorum_size(self) -> int:
        return self._depth

    def max_quorum_size(self) -> int:
        return self._depth


def wheel_as_crumbling_wall(n: int) -> CrumblingWall:
    """The Wheel system represented as the ``(1, n-1)``-CW."""
    if n < 3:
        raise ValueError("the Wheel needs at least 3 elements")
    return CrumblingWall([1, n - 1], name=f"WheelCW({n})")


def uniform_wall(rows: int, width: int) -> CrumblingWall:
    """A ``(1, width, width, ...)``-CW with ``rows`` rows in total.

    The first row has width 1 (so the system is an ND coterie) and all other
    rows share the given width.  Useful for scaling experiments where the
    number of rows ``k`` and the row width vary independently.
    """
    if rows < 1:
        raise ValueError("need at least one row")
    if width < 2:
        raise ValueError("non-first rows must have width >= 2 for an ND wall")
    widths = [1] + [width] * (rows - 1)
    return CrumblingWall(widths, name=f"UniformCW(rows={rows}, width={width})")
