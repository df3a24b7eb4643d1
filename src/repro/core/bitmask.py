"""Integer-bitmask representation of element sets.

The probing stack's hot paths (knowledge-state dynamic programming, witness
settling, Monte-Carlo trial loops) operate on subsets of the universe
``{1, ..., n}``.  Representing such a subset as a Python integer whose bit
``i`` stands for element ``i + 1`` turns the frozenset algebra into a
handful of machine-word operations: subset tests become ``mask & q == q``,
unions are ``|``, complements are ``full & ~mask`` and cardinalities are
``int.bit_count``.  Python integers are arbitrary precision, so the same
representation covers universes far beyond 64 elements.

This module holds the conversion helpers shared by :mod:`repro.core` and
:mod:`repro.systems`; the numpy-batched trial representation (one boolean
row per sampled coloring) lives in :mod:`repro.core.batched`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator


def full_mask(n: int) -> int:
    """Mask of the whole universe ``{1, ..., n}``."""
    return (1 << n) - 1


def mask_of(elements: Iterable[int]) -> int:
    """Mask with bit ``e - 1`` set for every element ``e``."""
    mask = 0
    for e in elements:
        mask |= 1 << (e - 1)
    return mask


def elements_of(mask: int) -> frozenset[int]:
    """The element set represented by ``mask``."""
    return frozenset(iter_elements(mask))


def iter_elements(mask: int) -> Iterator[int]:
    """Yield the (1-based) elements of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def validate_mask(mask: int, n: int) -> None:
    """Raise if ``mask`` is negative or has bits outside ``{1, ..., n}``."""
    if mask < 0:
        raise ValueError("element masks must be nonnegative")
    if mask >> n:
        raise ValueError(f"mask {mask:#x} has elements outside universe 1..{n}")
