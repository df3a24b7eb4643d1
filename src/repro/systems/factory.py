"""Name-and-size-knob factory for the paper's systems.

Shared by the CLI, the sweep runner and the experiment registry, so
library code never has to import :mod:`repro.cli` to turn a
``("tree", 7)``-style specification into a system.

Like the experiment registry (:mod:`repro.experiments.registry`), the
factory is registration-driven: each system family maps a CLI name (plus
aliases) to a builder taking the integer size knob.  New families register
a builder instead of growing an ``if`` ladder.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.systems.base import QuorumSystem
from repro.systems.crumbling_walls import CrumblingWall, TriangSystem
from repro.systems.grid import GridSystem
from repro.systems.hqs import HQS
from repro.systems.majority import MajoritySystem
from repro.systems.tree import TreeSystem
from repro.systems.wheel import WheelSystem

#: Canonical CLI name -> builder taking the size knob.
_BUILDERS: dict[str, Callable[[int], QuorumSystem]] = {}

#: Alias -> canonical CLI name.
_ALIASES: dict[str, str] = {}


def register_system_builder(
    name: str,
    builder: Callable[[int], QuorumSystem],
    aliases: tuple[str, ...] = (),
) -> None:
    """Register a system family under ``name`` (plus ``aliases``)."""
    key = name.lower()
    if key in _BUILDERS or key in _ALIASES:
        raise ValueError(f"system name {name!r} already registered")
    _BUILDERS[key] = builder
    for alias in aliases:
        alias_key = alias.lower()
        if alias_key in _BUILDERS or alias_key in _ALIASES:
            raise ValueError(f"system alias {alias!r} already registered")
        _ALIASES[alias_key] = key


register_system_builder(
    "maj", lambda size: MajoritySystem(size if size % 2 == 1 else size + 1),
    aliases=("majority",),
)
register_system_builder("wheel", lambda size: WheelSystem(max(size, 3)))
register_system_builder("triang", lambda size: TriangSystem(max(size, 1)))
register_system_builder(
    "cw",
    lambda size: CrumblingWall([1] + [max(size, 2)] * max(size - 1, 1)),
    aliases=("wall",),
)
register_system_builder("tree", lambda size: TreeSystem(max(size, 0)))
register_system_builder("hqs", lambda size: HQS(max(size, 0)))
register_system_builder("grid", lambda size: GridSystem(max(size, 1)))

#: The CLI names accepted by :func:`build_system`.
SYSTEM_CHOICES = tuple(_BUILDERS)


def canonical_system_name(name: str) -> str:
    """Resolve ``name`` (any case, possibly an alias) to its registered name."""
    key = name.lower()
    key = _ALIASES.get(key, key)
    if key not in _BUILDERS:
        raise ValueError(
            f"unknown system {name!r}; choose from {', '.join(SYSTEM_CHOICES)}"
        )
    return key


def build_system(name: str, size: int) -> QuorumSystem:
    """Construct one of the paper's systems from a CLI name and size knob.

    ``size`` means: universe size for Majority/Wheel (odd / >= 3), number of
    rows for Triang, tree height for Tree and HQS, side length for Grid.
    Out-of-range knobs are clamped to the nearest valid value (an even
    Majority size is bumped to ``size + 1``).
    """
    return _BUILDERS[canonical_system_name(name)](size)
