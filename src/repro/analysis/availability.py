"""Availability ``F_p(S)`` of the paper's systems (Fact 2.3 and the
recursions used in Sections 3.3 and 3.4).

``F_p(S)`` is the probability that no live quorum exists when each element
fails independently with probability ``p``.  The paper's Tree and HQS
analyses rely on recursive expressions / bounds for these probabilities:

* Tree: ``F_p(h) ≤ (p + 1/2)^h`` for ``p ≤ 1/2`` (used in Prop. 3.6);
* HQS:  ``F_p(h) ≤ p (3p − 2p²)^h`` for ``p < 1/2`` (used in Thm. 3.8),
  and ``F_{1/2}(h) = 1/2`` exactly for every height.

This module provides the exact recursions (not just the bounds) together
with binomial formulas for Majority and crumbling walls, so the experiments
can report paper-bound versus exact versus simulated availability.  The
same recursions give the exact expected probes of R_Probe_Tree, Probe_HQS
and R_Probe_HQS at any height, and, carried on generating polynomials,
their whole probe-count laws jointly with the witness color (and
Probe_Tree's too).
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np


def _check_p(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"failure probability must be in [0, 1], got {p}")


# -- Majority ----------------------------------------------------------------------------


def majority_availability(n: int, p: float) -> float:
    """``F_p(Maj)``: probability that fewer than ``(n+1)/2`` elements are live."""
    if n % 2 == 0:
        raise ValueError("Majority requires odd n")
    _check_p(p)
    q = 1.0 - p
    need = (n + 1) // 2
    return sum(
        math.comb(n, g) * (q**g) * (p ** (n - g)) for g in range(0, need)
    )


# -- Crumbling walls ---------------------------------------------------------------------


def crumbling_wall_availability(widths: Sequence[int], p: float) -> float:
    """``F_p`` of an ``(n_1, ..., n_k)``-CW, by the row recursion.

    Let ``A_i`` be the probability that the sub-wall of the first ``i`` rows
    has a live quorum.  Scanning rows top-down: the sub-wall of rows
    ``1..i`` has a live quorum iff either rows ``1..i−1`` do and row ``i``
    has at least one live element, or row ``i`` is entirely live.
    """
    _check_p(p)
    widths = list(widths)
    if not widths:
        raise ValueError("need at least one row")
    q = 1.0 - p
    live_prob = 0.0  # probability the wall of rows scanned so far is available
    for i, width in enumerate(widths):
        all_live = q**width
        some_live = 1.0 - p**width
        if i == 0:
            live_prob = all_live
        else:
            live_prob = live_prob * some_live + (1.0 - live_prob) * all_live
    return 1.0 - live_prob


# -- Tree -------------------------------------------------------------------------------


def tree_availability(height: int, p: float) -> float:
    """Exact ``F_p`` of the Tree system of a given height, by recursion.

    A subtree of height ``h`` has a live quorum iff (both child subtrees do)
    or (the root is live and at least one child subtree does).  A height-0
    subtree is available iff its single node is live.
    """
    if height < 0:
        raise ValueError("height must be nonnegative")
    _check_p(p)
    q = 1.0 - p
    available = q  # height 0
    for _ in range(height):
        both = available * available
        one = 2.0 * available * (1.0 - available)
        available = both + q * one
    return 1.0 - available


def tree_availability_bound(height: int, p: float) -> float:
    """The bound ``F_p(h) ≤ (p + 1/2)^h`` used in Proposition 3.6 (p ≤ 1/2)."""
    if height < 0:
        raise ValueError("height must be nonnegative")
    _check_p(p)
    effective = min(p, 1.0 - p)
    return (effective + 0.5) ** height


# -- HQS --------------------------------------------------------------------------------


def hqs_availability(height: int, p: float) -> float:
    """Exact ``F_p`` of the HQS of a given height, by the 2-of-3 recursion.

    A gate evaluates to live iff at least two of its three children do; a
    leaf is live with probability ``q = 1 − p``.
    """
    if height < 0:
        raise ValueError("height must be nonnegative")
    _check_p(p)
    live = 1.0 - p
    for _ in range(height):
        live = live**3 + 3.0 * live**2 * (1.0 - live)
    return 1.0 - live


def hqs_availability_bound(height: int, p: float) -> float:
    """The bound ``F_p(h) ≤ p (3p − 2p²)^h`` used in Theorem 3.8 (p < 1/2)."""
    if height < 0:
        raise ValueError("height must be nonnegative")
    _check_p(p)
    return p * (3.0 * p - 2.0 * p * p) ** height


# -- expected probes ---------------------------------------------------------------------
#
# The same recursions carry the expected probe counts of the gate
# algorithms: a node's children are independent of each other, of the
# node's own element and of its order draw, so its expected probes follow
# from the children's expected probes and the probability ``q`` that a
# subtree evaluates to red.


def r_probe_tree_expected_probes(height: int, p: float) -> float:
    """Exact ``E_p[probes]`` of R_Probe_Tree (Thm. 4.7), in ``O(height)``.

    Two of a node's three orders probe the root and one subtree, then the
    other subtree when the first differs from the root's color (with
    probability ``d = q(1 − p) + (1 − q)p``); the third probes both
    subtrees, then the root when they differ.  From ``(q, E) = (p, 1)``::

        E <- 2/3 (1 + E + d E) + 1/3 (2E + 2q(1 − q))
        q <- p (1 − (1 − q)²) + (1 − p) q²
    """
    if height < 0:
        raise ValueError("height must be nonnegative")
    _check_p(p)
    red, probes = p, 1.0
    for _ in range(height):
        differs = red * (1.0 - p) + (1.0 - red) * p
        root_first = 1.0 + probes + differs * probes
        root_last = 2.0 * probes + 2.0 * red * (1.0 - red)
        probes = (2.0 * root_first + root_last) / 3.0
        red = p * (1.0 - (1.0 - red) ** 2) + (1.0 - p) * red**2
    return probes


def hqs_expected_probes(height: int, p: float) -> float:
    """Exact ``E_p[probes]`` of Probe_HQS (Thm. 3.8) and R_Probe_HQS, in
    ``O(height)``.

    A gate evaluates two children, and the third when those two differ
    (probability ``2q(1 − q)`` whichever two come first), so from
    ``(q, E) = (p, 1)``::

        E <- E (2 + 2q(1 − q)) = E (3 − q² − (1 − q)²)
        q <- q³ + 3q²(1 − q)

    At ``p = 1/2`` this is exactly ``2.5^height``.  ``q`` is carried as
    ``1 −`` the live probability of :func:`hqs_availability`.
    """
    if height < 0:
        raise ValueError("height must be nonnegative")
    _check_p(p)
    live, probes = 1.0 - p, 1.0
    for _ in range(height):
        red = 1.0 - live
        probes = (2.0 + 2.0 * red * (1.0 - red)) * probes
        live = live**3 + 3.0 * live**2 * (1.0 - live)
    return probes


# -- probe-count laws --------------------------------------------------------------------
#
# A subtree's law is a pair of generating polynomials ``(r, g)`` in ``z``:
# the coefficient of ``z^k`` in ``r`` (``g``) is the probability that the
# subtree evaluates to red (green) after ``k`` probes.  A leaf is
# ``(p z, (1 − p) z)``; independent parts multiply (``np.convolve``).


def _add(*terms: np.ndarray) -> np.ndarray:
    out = np.zeros(max(len(term) for term in terms))
    for term in terms:
        out[: len(term)] += term
    return out


def _times_z(poly: np.ndarray) -> np.ndarray:
    return np.concatenate(([0.0], poly))


def _leaf_law(height: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    if height < 0:
        raise ValueError("height must be nonnegative")
    _check_p(p)
    return np.array([0.0, p]), np.array([0.0, 1.0 - p])


def _root_first(
    red: np.ndarray,
    green: np.ndarray,
    rr: np.ndarray,
    rg: np.ndarray,
    gg: np.ndarray,
    p: float,
) -> tuple[np.ndarray, np.ndarray]:
    """One Tree node evaluated root first: probe the root, then one subtree,
    then the other when the first differs from the root's color.  ``rr``,
    ``rg`` and ``gg`` are the products of the subtree laws.  With
    ``s = p g + (1 − p) r``::

        r' = z (p r + s r)     g' = z ((1 − p) g + s g)
    """
    return (
        _times_z(_add(p * red, p * rg + (1.0 - p) * rr)),
        _times_z(_add((1.0 - p) * green, p * gg + (1.0 - p) * rg)),
    )


def probe_tree_probe_law(height: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact law of Probe_Tree's probe count and witness color, as
    ``(red, green)`` like :func:`r_probe_tree_probe_law`.

    Probe_Tree probes every node's root first, then its right subtree, and
    its left subtree only when the right one differs from the root.  The
    subtrees are i.i.d., so this is R_Probe_Tree's root-first step with
    weight 1 (see :func:`_root_first`).
    """
    red, green = _leaf_law(height, p)
    for _ in range(height):
        rr, rg, gg = np.convolve(red, red), np.convolve(red, green), np.convolve(green, green)
        red, green = _root_first(red, green, rr, rg, gg, p)
    return red, green


def r_probe_tree_probe_law(height: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact law of R_Probe_Tree's probe count and witness color: arrays
    ``(red, green)`` where ``red[k]`` is the probability that the tree is
    red and the run probes ``k`` elements.

    A node probes its root first with probability 2/3 (then one subtree,
    then the other when the first differs from the root) and last with
    probability 1/3 (both subtrees, then the root when they differ).  The
    root-first step is :func:`_root_first`'s; the root-last one is::

        r' = r² + 2p z r g     g' = g² + 2(1 − p) z r g

    Its first moment is :func:`r_probe_tree_expected_probes`.
    """
    red, green = _leaf_law(height, p)
    for _ in range(height):
        rr, rg, gg = np.convolve(red, red), np.convolve(red, green), np.convolve(green, green)
        first_red, first_green = _root_first(red, green, rr, rg, gg, p)
        last_red = _add(rr, _times_z(2.0 * p * rg))
        last_green = _add(gg, _times_z(2.0 * (1.0 - p) * rg))
        red = (2.0 * first_red + last_red) / 3.0
        green = (2.0 * first_green + last_green) / 3.0
    return red, green


def hqs_probe_law(height: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact law of Probe_HQS's (and R_Probe_HQS's) probe count and witness
    color, as ``(red, green)`` like :func:`r_probe_tree_probe_law`.

    A gate evaluates two children and the third only when they differ; the
    children are i.i.d., so the law is the same whichever two come first::

        r' = r² + 2 r g r        g' = g² + 2 r g g

    Its first moment is :func:`hqs_expected_probes`.
    """
    red, green = _leaf_law(height, p)
    for _ in range(height):
        rg = np.convolve(red, green)
        red, green = (
            _add(np.convolve(red, red), 2.0 * np.convolve(rg, red)),
            _add(np.convolve(green, green), 2.0 * np.convolve(rg, green)),
        )
    return red, green


# -- Fact 2.3 -----------------------------------------------------------------------------


def satisfies_fact_2_3(fp: float, f1mp: float, p: float) -> bool:
    """Check the two parts of Fact 2.3 on a pair of availability values.

    Part (1): ``F_p ≤ p`` for ``p ≤ 1/2``; part (2): ``F_p + F_{1−p} = 1``.
    """
    _check_p(p)
    part2 = math.isclose(fp + f1mp, 1.0, abs_tol=1e-9)
    part1 = fp <= p + 1e-9 if p <= 0.5 else True
    return part1 and part2
