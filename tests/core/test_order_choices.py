"""The bit-plane order-choice stream of the randomized gate kernels.

:func:`repro.core.bitpacked._order_choices` draws every node's order
choice of one kernel call from raw ``uint64`` words by the rule in the
:mod:`repro.core.bitpacked` docstring.  These tests re-implement that rule
lane by lane in plain Python, reading a copy of the same PCG64 state
through ``random_raw``, and require the kernel's planes to equal it word
for word, padding lanes included.  A lane is rejected with probability
1/4, so every case below runs rejection rounds.  Then chi-square tests
over 2^20 lanes check that the three-way and six-way choices are uniform,
and that adjacent lanes of a word and adjacent nodes of a level are
independent.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.bitpacked import _order_choices
from repro.core.distributions import unpack_words

WIDTHS = {3: [4, 2, 1], 6: [9, 3, 3, 1, 1]}


def lane_bit(word: int, lane: int) -> int:
    return word >> lane & 1


def reference_order_choices(state: dict, ways: int, trials: int, widths: list[int]):
    """The draw rule, one lane at a time: per level, the ``(64 * n_words,
    width)`` choices (3-way ``t``, or 6-way ``2t + c``); the number of
    rejection rounds; and the raw word that follows the rule's draws."""
    bits = np.random.PCG64()
    bits.state = state
    n_words = -(-trials // 64)
    m = n_words * sum(widths)
    planes = [int(word) for word in bits.random_raw((2 if ways == 3 else 3) * m)]
    a, b, c = planes[:m], planes[m : 2 * m], planes[2 * m :] or [0] * m
    t = [[lane_bit(a[w], lane) + 2 * lane_bit(b[w], lane) for lane in range(64)] for w in range(m)]
    rounds = 0
    while True:
        pending = [w for w in range(m) if 3 in t[w]]
        if not pending:
            break
        rounds += 1
        fresh = [int(word) for word in bits.random_raw(2 * len(pending))]
        new_a, new_b = fresh[: len(pending)], fresh[len(pending) :]
        for i, w in enumerate(pending):
            for lane in range(64):
                if t[w][lane] == 3:
                    t[w][lane] = lane_bit(new_a[i], lane) + 2 * lane_bit(new_b[i], lane)
    values = []
    start = 0
    for width in widths:
        level = np.zeros((64 * n_words, width), dtype=np.int64)
        for word, node in itertools.product(range(n_words), range(width)):
            w = start + word * width + node
            for lane in range(64):
                k = t[w][lane] if ways == 3 else 2 * t[w][lane] + lane_bit(c[w], lane)
                level[64 * word + lane, node] = k
        values.append(level)
        start += n_words * width
    return values, rounds, int(bits.random_raw())


def choice_values(level: tuple) -> np.ndarray:
    """A level's ``(64 * n_words, width)`` choices from its lane planes."""
    n_words = level[0].shape[0]
    bits = [unpack_words(plane, 64 * n_words).astype(np.int64) for plane in level]
    return sum(bit << shift for shift, bit in enumerate(bits))


@pytest.mark.parametrize("trials", [1, 63, 65, 777])
@pytest.mark.parametrize("ways", [3, 6])
def test_planes_follow_the_draw_rule_lane_by_lane(ways, trials):
    generator = np.random.default_rng(trials * 10 + ways)
    expected, rounds, next_word = reference_order_choices(
        generator.bit_generator.state, ways, trials, WIDTHS[ways]
    )
    assert rounds >= 2
    levels = _order_choices(generator, ways, trials, WIDTHS[ways])
    assert len(levels) == len(expected)
    for level, values in zip(levels, expected):
        assert len(level) == (2 if ways == 3 else 3)
        np.testing.assert_array_equal(choice_values(level), values)
    # The call consumed exactly the rule's raw words, no more.
    assert int(generator.bit_generator.random_raw()) == next_word


def test_zero_trials_and_no_levels_draw_nothing():
    generator = np.random.default_rng(3)
    state = generator.bit_generator.state
    assert _order_choices(generator, 3, 0, [4, 2, 1])[0][0].shape == (0, 4)
    assert _order_choices(generator, 6, 100, []) == []
    assert generator.bit_generator.state == state


def test_mt19937_is_refused():
    # MT19937's raw words carry 32 bits, which would leave half the lanes at 0.
    with pytest.raises(ValueError, match="64-bit"):
        _order_choices(np.random.Generator(np.random.MT19937(1)), 3, 64, [1])


# -- uniformity -------------------------------------------------------------------

#: 4,096 trials x 256 nodes = 2^20 lanes per draw.
TRIALS, NODES = 4096, 256


def chi_square(counts: np.ndarray, probabilities: np.ndarray) -> float:
    expected = probabilities * counts.sum()
    return float(((counts - expected) ** 2 / expected).sum())


@pytest.fixture(scope="module", params=[3, 6], ids=["three-way", "six-way"])
def draws(request):
    ways = request.param
    [level] = _order_choices(np.random.default_rng(ways), ways, TRIALS, [NODES])
    return ways, choice_values(level)


def test_choices_are_uniform(draws, chi_square_p_value):
    ways, k = draws
    counts = np.bincount(k.ravel(), minlength=8)
    assert counts[ways:].sum() == 0
    statistic = chi_square(counts[:ways], np.full(ways, 1.0 / ways))
    assert chi_square_p_value(statistic, ways - 1) > 1e-3


@pytest.mark.parametrize("axis", [0, 1], ids=["adjacent-lanes", "adjacent-nodes"])
def test_adjacent_choices_are_independent(draws, axis, chi_square_p_value):
    ways, k = draws
    if axis == 0:
        # lanes 2i and 2i + 1 of one word, one node
        first, second = k[0::2], k[1::2]
    else:
        # nodes 2j and 2j + 1 of one level, one lane
        first, second = k[:, 0::2], k[:, 1::2]
    counts = np.bincount((ways * first + second).ravel(), minlength=ways * ways)
    statistic = chi_square(counts, np.full(ways * ways, 1.0 / ways**2))
    assert chi_square_p_value(statistic, ways * ways - 1) > 1e-3
