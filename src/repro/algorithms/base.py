"""Common interface for probing algorithms.

Every algorithm of the paper (Probe_CW, Probe_Tree, Probe_HQS, R_Probe_Maj,
R_Probe_CW, R_Probe_Tree, R_Probe_HQS, IR_Probe_HQS, ...) is implemented as a
:class:`ProbingAlgorithm`: it receives a probe oracle, adaptively probes
elements and returns a :class:`ProbeRun` containing the witness it found and
the number of probes it spent.  Randomized algorithms additionally consume a
``random.Random`` source so every experiment is reproducible from a seed.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.core.coloring import Color, Coloring
from repro.core.oracle import ColoringOracle, ProbeOracle
from repro.core.witness import Witness
from repro.systems.base import QuorumSystem


@dataclass(frozen=True)
class ProbeRun:
    """Outcome of one execution of a probing algorithm.

    Attributes
    ----------
    witness:
        The monochromatic witness found.
    probes:
        Number of distinct elements probed.
    sequence:
        The elements probed, in order (empty when the oracle in use does not
        record sequences).
    """

    witness: Witness
    probes: int
    sequence: tuple[int, ...] = field(default=())

    @property
    def color(self) -> Color:
        """Color of the witness (green = live quorum exists)."""
        return self.witness.color


class ProbingAlgorithm(ABC):
    """Base class for adaptive probing algorithms over a fixed system."""

    #: Whether the algorithm uses randomness (affects which complexity
    #: measure it is evaluated under).
    randomized: bool = False

    def __init__(self, system: QuorumSystem) -> None:
        self._system = system

    @property
    def system(self) -> QuorumSystem:
        """The quorum system this algorithm probes."""
        return self._system

    @property
    def name(self) -> str:
        """Human-readable algorithm name."""
        return type(self).__name__

    def __repr__(self) -> str:
        return f"{self.name}({self._system.name})"

    # -- execution --------------------------------------------------------------

    @abstractmethod
    def run(self, oracle: ProbeOracle, rng: random.Random | None = None) -> ProbeRun:
        """Probe through ``oracle`` until a witness is found."""

    def run_on(
        self,
        coloring: Coloring,
        rng: random.Random | None = None,
        budget: int | None = None,
        validate: bool = False,
    ) -> ProbeRun:
        """Run against an in-memory coloring (convenience wrapper).

        With ``validate=True`` the returned witness is checked against the
        system and the coloring, raising on any inconsistency.
        """
        if coloring.n != self._system.n:
            raise ValueError(
                f"coloring has {coloring.n} elements but {self._system.name} "
                f"has n = {self._system.n}"
            )
        oracle = ColoringOracle(coloring, budget=budget)
        run = self.run(oracle, rng=rng)
        run = ProbeRun(run.witness, oracle.probe_count, tuple(oracle.sequence))
        if validate:
            run.witness.validate(self._system, coloring)
        return run

    # -- helpers shared by concrete algorithms ---------------------------------------

    @staticmethod
    def _require_rng(rng: random.Random | None) -> random.Random:
        """Return the given rng or a fresh unseeded one."""
        return rng if rng is not None else random.Random()
