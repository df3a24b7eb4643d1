"""Probe oracles: the adaptive-probing interface used by every algorithm.

A probing algorithm interacts with the system only through an oracle: it
names an element, the oracle reveals the element's color, and the probe is
counted.  This mirrors the paper's model, in which an adaptive algorithm
selects the next element to probe based on the outcomes of previous probes.

Two oracle flavours are provided here:

* :class:`ColoringOracle` answers probes from an in-memory
  :class:`~repro.core.coloring.Coloring` — the representation used by all
  complexity experiments.
* :class:`RecordingOracle` wraps another oracle and records the exact probe
  sequence, used by the strategy-tree tools and by tests.

Any object satisfying :class:`ProbeOracle` works, so the probing algorithms
run unchanged against other sources of element colors.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.core.coloring import Color, Coloring


class ProbeBudgetExceeded(RuntimeError):
    """Raised when an oracle's probe budget is exhausted."""


@runtime_checkable
class ProbeOracle(Protocol):
    """Protocol implemented by all probe oracles."""

    @property
    def n(self) -> int:
        """Size of the universe."""
        ...

    def probe(self, element: int) -> Color:
        """Reveal (and count) the color of ``element``."""
        ...

    @property
    def probe_count(self) -> int:
        """Number of *distinct* elements probed so far."""
        ...

    @property
    def known(self) -> dict[int, Color]:
        """Colors revealed so far, keyed by element."""
        ...


class ColoringOracle:
    """Oracle answering probes from a fixed coloring.

    Repeated probes of the same element are answered from cache and are not
    counted again — the paper's complexity measure counts probed *elements*.

    Parameters
    ----------
    coloring:
        The ground-truth coloring.
    budget:
        Optional cap on the number of distinct probes; exceeding it raises
        :class:`ProbeBudgetExceeded`.  Used by tests to assert that an
        algorithm respects a claimed bound on every single run.
    """

    def __init__(self, coloring: Coloring, budget: int | None = None) -> None:
        self._coloring = coloring
        self._known: dict[int, Color] = {}
        self._sequence: list[int] = []
        self._budget = budget

    @property
    def n(self) -> int:
        return self._coloring.n

    @property
    def coloring(self) -> Coloring:
        """The underlying ground-truth coloring."""
        return self._coloring

    def probe(self, element: int) -> Color:
        if not 1 <= element <= self._coloring.n:
            raise ValueError(f"element {element} outside universe 1..{self._coloring.n}")
        if element in self._known:
            return self._known[element]
        if self._budget is not None and len(self._known) >= self._budget:
            raise ProbeBudgetExceeded(
                f"probe budget of {self._budget} exhausted before probing {element}"
            )
        color = self._coloring[element]
        self._known[element] = color
        self._sequence.append(element)
        return color

    @property
    def probe_count(self) -> int:
        return len(self._known)

    @property
    def known(self) -> dict[int, Color]:
        return dict(self._known)

    @property
    def sequence(self) -> list[int]:
        """Elements in the order they were (first) probed."""
        return list(self._sequence)

    @property
    def known_green(self) -> frozenset[int]:
        """Elements probed and found green."""
        return frozenset(e for e, c in self._known.items() if c is Color.GREEN)

    @property
    def known_red(self) -> frozenset[int]:
        """Elements probed and found red."""
        return frozenset(e for e, c in self._known.items() if c is Color.RED)


class RecordingOracle:
    """Wrap another oracle and forward probes while recording the sequence."""

    def __init__(self, inner: ProbeOracle) -> None:
        self._inner = inner
        self._sequence: list[int] = []
        self._seen: set[int] = set()

    @property
    def n(self) -> int:
        return self._inner.n

    def probe(self, element: int) -> Color:
        if element not in self._seen:
            self._seen.add(element)
            self._sequence.append(element)
        return self._inner.probe(element)

    @property
    def probe_count(self) -> int:
        return self._inner.probe_count

    @property
    def known(self) -> dict[int, Color]:
        return self._inner.known

    @property
    def sequence(self) -> list[int]:
        """Distinct elements in first-probe order."""
        return list(self._sequence)
