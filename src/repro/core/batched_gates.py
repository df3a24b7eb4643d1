"""Level-synchronous vectorized gate kernels for the randomized Tree and
HQS algorithms.

The recursive probing algorithms of Sections 3.3/3.4 and 4.3/4.4 walk a
gate tree top-down, but their probe counts admit a *bottom-up* formulation:
for every node the pair ``(value, probes)`` — the color the recursive call
would return and the number of probes it would spend — depends only on the
same pair at the node's children (and, for IR_Probe_HQS, grandchildren).
Evaluating one tree level at a time over a whole ``(trials, n)`` coloring
matrix therefore turns a batch of recursive evaluations into ``O(height)``
rounds of numpy arithmetic, one column slice per level.  The
deterministic Probe_Tree and Probe_HQS run the same recurrences on
bit-planes (:mod:`repro.core.bitpacked`); this module holds the numpy
kernels of their randomized counterparts.

Every level step follows three rules:

* **Values are majorities.**  A Tree node returns ``majority(e, left,
  right)`` and an HQS gate ``majority(c0, c1, c2)`` whatever order the
  algorithm probes them in, so the value is one ``np.where`` and never
  depends on the order choice.
* **Probes are a sum minus a skip.**  A node spends the probes of all its
  parts (children, plus the root element on a Tree) less the part it
  skips because the first two it evaluated agree (``e`` = the node's own
  color, ``C``/``P`` = child value/probes, ``True`` = red)::

      Probe_Tree    P = 1 + P(right) + [C(right) != e] * P(left)
      R_Probe_Tree  P = P(left) * ~(k == 0 & C(right) == e)
                      + P(right) * ~(k == 1 & C(left) == e)
                      + (k != 2 | C(left) != C(right))
      Probe_HQS     P = P(c0) + P(c1) + P(c2) * [C(c0) != C(c1)]
      R_Probe_HQS   P = sum_i P(ci) * ~(THIRD[k] == i & the other two agree)

  where R_Probe_Tree's ``k`` picks (root, right)-then-left,
  (root, left)-then-right or (left, right)-then-root, and R_Probe_HQS's
  ``k`` indexes the 6 permutations of the gate's children, of which
  ``THIRD[k]`` is the one evaluated last.
* **Counters are narrow.**  A node never spends more probes than its
  subtree has elements, so counts are held in :func:`probe_dtype` of
  ``n`` (``int16`` below ``2**15`` elements) and widened to ``int64``
  only for the root's column.

IR_Probe_HQS (Fig. 8) evaluates a random child ``r1``, peeks at one random
grandchild of a second random child ``r2``, then either finishes ``r2`` or
jumps to ``r3`` depending on whether the peek agreed with ``r1``.  Its
level step therefore consumes *two* levels of bottom-up state — the
children's standalone ``(value, probes)`` and the grandchildren's — and
gathers ``r1``/``r2``/``r3`` and ``r2``'s grandchildren with
``take_along_axis``.

The kernels draw one ``generator.integers(3)`` (Tree) or
``generator.integers(6)`` (HQS; two per IR level) matrix per level, in
level order.  They match the recursive implementations in distribution,
and per seed are pinned by golden digests — both in
``tests/core/test_batched_gates.py``.

Kernels follow the uniform signature ``kernel(algorithm, red, rng)`` and
are registered with :func:`repro.core.batched.register_kernel`; they are
not normally called directly — use :func:`repro.core.batched.batched_run`.
"""

from __future__ import annotations

import numpy as np

from repro.core.coloring import as_numpy_generator

#: The six permutations of ``(0, 1, 2)``; drawing a uniform row index gives
#: a uniform shuffle of a gate's three children, exactly like the
#: sequential ``rng.shuffle`` of a 3-list.
PERMUTATIONS_3 = np.array(
    [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]],
    dtype=np.intp,
)
#: The child each permutation evaluates last: ``[2, 1, 2, 0, 1, 0]``.
THIRD = PERMUTATIONS_3[:, 2].astype(np.int8)


def probe_dtype(n: int) -> type[np.signedinteger]:
    """The narrowest counter that holds any probe count of an ``n``-element
    system: a node never spends more probes than its subtree has elements."""
    return np.int16 if n < 2**15 else np.int32


def _leaf_ones(algorithm, shape: tuple[int, ...]) -> np.ndarray:
    """Leaf-level probe counts: the algorithm's shared read-only ones-buffer
    in its :func:`probe_dtype`."""
    from repro.core.batched import scratch_ones

    return scratch_ones(algorithm, shape, probe_dtype(algorithm.system.n))


def _result(value: np.ndarray, probes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The root's ``(probes as int64, witness_green)``."""
    return probes[:, 0].astype(np.int64), ~value[:, 0]


# -- binary Tree system ------------------------------------------------------------


def _tree_leaf_level(algorithm, red: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Initial ``(value, probes)`` arrays for the tree's leaf level.

    Heap node ``v`` is universe element ``v`` (column ``v - 1``); the
    leaves of a height-``h`` tree are nodes ``2^h .. 2^(h+1) - 1``.
    """
    first = 1 << algorithm.system.height
    value = red[:, first - 1 : 2 * first - 1]
    return value, _leaf_ones(algorithm, value.shape)


def r_probe_tree_kernel(algorithm, red: np.ndarray, rng=None):
    """Algorithm R_Probe_Tree (Thm. 4.7): per-(trial, node) uniform choice
    among the three evaluation orders."""
    generator = as_numpy_generator(rng)
    value, probes = _tree_leaf_level(algorithm, red)
    for depth in range(algorithm.system.height - 1, -1, -1):
        lo = 1 << depth
        elem = red[:, lo - 1 : 2 * lo - 1]
        left_v, right_v = value[:, 0::2], value[:, 1::2]
        choice = generator.integers(3, size=elem.shape)
        right_matches = right_v == elem
        # Choice 0 skips the left subtree, choice 1 the right one, choice 2
        # the root; each only when the first two probed nodes agree.
        skip_left = (choice == 0) & right_matches
        skip_right = (choice == 1) & (left_v == elem)
        probes = probes[:, 0::2] * ~skip_left + probes[:, 1::2] * ~skip_right
        probes += (choice != 2) | (left_v != right_v)
        value = np.where(right_matches, elem, left_v)
    return _result(value, probes)


# -- HQS (ternary 2-of-3 gate tree) ---------------------------------------------------


def _hqs_gate_level(
    value: np.ndarray, probes: np.ndarray, generator: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """One 2-then-3 gate level; ``generator`` draws the per-gate shuffle."""
    v0, v1, v2 = value[:, 0::3], value[:, 1::3], value[:, 2::3]
    c0, c1, c2 = probes[:, 0::3], probes[:, 1::3], probes[:, 2::3]
    first_two_agree = v0 == v1
    third = THIRD[generator.integers(6, size=v0.shape)]
    new_probes = c0 * ~((third == 0) & (v1 == v2))
    new_probes += c1 * ~((third == 1) & (v0 == v2))
    new_probes += c2 * ~((third == 2) & first_two_agree)
    return np.where(first_two_agree, v0, v2), new_probes


def r_probe_hqs_kernel(algorithm, red: np.ndarray, rng=None):
    """Algorithm R_Probe_HQS (Fig. 7): uniformly shuffled 2-then-3 gates."""
    generator = as_numpy_generator(rng)
    value, probes = red, _leaf_ones(algorithm, red.shape)
    for _ in range(algorithm.system.height):
        value, probes = _hqs_gate_level(value, probes, generator)
    return _result(value, probes)


def ir_probe_hqs_kernel(algorithm, red: np.ndarray, rng=None):
    """Algorithm IR_Probe_HQS (Fig. 8, Thm. 4.10).

    Nodes of height >= 2 peek at one random grandchild of the second chosen
    child, so each level step reads *two* levels of bottom-up state
    (children and grandchildren standalone evaluations); height-1 nodes use
    the plain randomized gate, exactly as in the recursive implementation.
    """
    generator = as_numpy_generator(rng)
    height = algorithm.system.height
    trials = red.shape[0]
    grand_value, grand_probes = red, _leaf_ones(algorithm, red.shape)
    if height == 0:
        return _result(grand_value, grand_probes)
    # Height-1 gates have leaf children: no grandchildren to peek at.
    value, probes = _hqs_gate_level(grand_value, grand_probes, generator)
    for depth in range(height - 2, -1, -1):
        gates = 3**depth
        child_v = value.reshape(trials, gates, 3)
        child_p = probes.reshape(trials, gates, 3)
        grand_v = grand_value.reshape(trials, gates, 3, 3)
        grand_p = grand_probes.reshape(trials, gates, 3, 3)

        order = PERMUTATIONS_3[generator.integers(6, size=(trials, gates))]
        r1, r2, r3 = order[..., 0:1], order[..., 1:2], order[..., 2:3]
        v1 = np.take_along_axis(child_v, r1, axis=2)[..., 0]
        p1 = np.take_along_axis(child_p, r1, axis=2)[..., 0]
        v2 = np.take_along_axis(child_v, r2, axis=2)[..., 0]
        v3 = np.take_along_axis(child_v, r3, axis=2)[..., 0]
        p3 = np.take_along_axis(child_p, r3, axis=2)[..., 0]

        # r2's three children, in a fresh uniform order; the first is the peek.
        r2_grand_v = np.take_along_axis(grand_v, r2[..., None], axis=2)[:, :, 0, :]
        r2_grand_p = np.take_along_axis(grand_p, r2[..., None], axis=2)[:, :, 0, :]
        grand_order = PERMUTATIONS_3[generator.integers(6, size=(trials, gates))]
        gv = np.take_along_axis(r2_grand_v, grand_order, axis=2)
        gp = np.take_along_axis(r2_grand_p, grand_order, axis=2)
        peek_v, peek_p = gv[..., 0], gp[..., 0]
        # Cost of finishing r2's gate after the peek: second grandchild,
        # plus the third when the first two disagree.
        finish_p = gp[..., 1] + gp[..., 2] * (gv[..., 0] != gv[..., 1])

        # Step 5 (the peek agrees with r1): finish r2, skip r3 if r2 agrees
        # too.  Step 6: jump to r3, skip finishing r2 if r3 agrees with r1.
        peek_agrees = peek_v == v1
        grand_value, grand_probes = value, probes
        probes = p1 + peek_p + p3 + finish_p
        probes -= p3 * (peek_agrees & (v2 == v1))
        probes -= finish_p * (~peek_agrees & (v3 == v1))
        value = child_v.sum(axis=2) >= 2
    return _result(value, probes)
