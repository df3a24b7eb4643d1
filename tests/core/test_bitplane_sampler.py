"""The bit-plane Bernoulli sampler against exact ground truth.

:meth:`BernoulliSource.sample_words` turns raw ``uint64`` draws into
``V < B`` lane masks with ``B = ceil(p · 2^53)``: one draw per (64-trial
word, plane, element) for the first ``min(K(p), 10)`` planes, then one
draw per lane still tied (stream ``bitplane-v3``).  These tests pin:

* the comparator on hand-built planes enumerating every leading-bit value;
* the plane count ``K(p)`` and the draw-free extremes ``p ∈ {0, 1}``;
* the stream itself, against a pure-Python big-integer reference on cases
  that reach the tail queue, with nothing drawn past the words' blocks,
  the same words whatever the queue draws read up front, the
  ``bitplane-v2`` words wherever ``K(p) ≤ 10``, and as golden words for
  seed 0, so any later stream change is a visible edit;
* the red rate, overall and per lane, within 5σ of ``B / 2^53``, and on
  both lane halves for every 64-bit bit generator (MT19937 is refused);
* chunk and ``jobs=2`` invariance of the engine on the new stream, with
  chunks starting off a word boundary, against one kernel call over the
  one-shot ``sample_matrix`` draw.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import ProbeMaj
from repro.core import distributions
from repro.core.batched import batched_run
from repro.core.bitpacked import sample_packed, unpack_matrix
from repro.core.distributions import (
    BernoulliSource,
    bernoulli_threshold,
    compare_planes,
)
from repro.core.engine import ChunkTask, stream_probes
from repro.systems import MajoritySystem

def _lanes(mask) -> list[bool]:
    return [bool(int(mask) >> lane & 1) for lane in range(64)]


def _enumerating_planes(extra: np.ndarray) -> np.ndarray:
    """One word of one element whose 6 leading planes spell each lane's
    index (lane ``t`` has leading bits ``t``), followed by ``extra``."""
    leading = [
        sum(1 << t for t in range(64) if t >> (5 - j) & 1) for j in range(6)
    ]
    planes = np.array(leading + [int(x) for x in extra], dtype=np.uint64)
    return planes.reshape(len(planes), 1)


def _lane_values(planes: np.ndarray) -> list[int]:
    """Each lane's 53-bit ``V`` (missing low planes read as zero)."""
    values = []
    for lane in range(64):
        value = 0
        for j in range(53):
            bit = int(planes[j, 0]) >> lane & 1 if j < len(planes) else 0
            value = value << 1 | bit
        values.append(value)
    return values


class TestComparator:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_dyadic_p_marks_exactly_the_values_below_b(self, k):
        planes = _enumerating_planes(np.zeros(0, dtype=np.uint64))
        for m in range(1, 1 << k):
            threshold, bits = bernoulli_threshold(m / (1 << k))
            assert threshold == m << (53 - k)
            lt, _ = compare_planes(planes[: len(bits)], bits)
            values = _lane_values(planes)
            assert _lanes(lt[0]) == [value < threshold for value in values]
            # The top k bits alone decide: lane t is red iff t // 2^(6-k) < m.
            assert _lanes(lt[0]) == [t >> (6 - k) < m for t in range(64)]

    @pytest.mark.parametrize("p", [0.3, 1 / 3, 0.001, 0.999])
    def test_non_dyadic_p_against_big_integers(self, p):
        threshold, bits = bernoulli_threshold(p)
        assert len(bits) > 6
        extra = np.random.default_rng(4).integers(
            0, 2**64, size=len(bits) - 6, dtype=np.uint64
        )
        planes = _enumerating_planes(extra)
        lt, _ = compare_planes(planes, bits)
        assert _lanes(lt[0]) == [value < threshold for value in _lane_values(planes)]

    def test_threshold_is_ceil_of_p_times_2_53(self):
        assert bernoulli_threshold(0.0) == (0, ())
        assert bernoulli_threshold(1.0) == (1 << 53, ())
        assert bernoulli_threshold(0.5)[0] == 1 << 52
        numerator, denominator = (0.3).as_integer_ratio()
        exact = numerator * 2**53 / denominator
        threshold = bernoulli_threshold(0.3)[0]
        assert threshold - 1 < exact <= threshold
        # The smallest positive double still gets a nonzero threshold.
        assert bernoulli_threshold(5e-324) == (1, (False,) * 52 + (True,))

    def test_plane_counts(self):
        assert bernoulli_threshold(0.5)[1] == (True,)
        assert bernoulli_threshold(0.25)[1] == (False, True)
        assert bernoulli_threshold(0.75)[1] == (True, True)
        assert len(bernoulli_threshold(0.3)[1]) == 52


class TestExtremes:
    @pytest.mark.parametrize("p,red", [(0.0, False), (1.0, True)])
    def test_p_zero_and_one_draw_nothing(self, p, red):
        generator = np.random.default_rng(3)
        before = generator.bit_generator.state
        source = BernoulliSource(5, p)
        words = source.sample_words(70, generator)
        assert generator.bit_generator.state == before
        assert source.draws_per_word == 0
        matrix = unpack_matrix(sample_packed(source, 5, 70, generator))
        assert (matrix == red).all()
        # Lanes past the last trial stay zero even when every cell is red.
        assert int(words[1, 0]) == ((1 << 6) - 1 if red else 0)

    def test_empty_universe_gives_an_empty_matrix(self):
        generator = np.random.default_rng(3)
        before = generator.bit_generator.state
        matrix = BernoulliSource(0, 0.3).sample_matrix(0, 70, generator)
        assert matrix.shape == (70, 0)
        assert generator.bit_generator.state == before

    def test_half_is_one_inverted_plane_per_word(self):
        words = BernoulliSource(3, 0.5).sample_words(128, np.random.default_rng(11))
        raw = np.random.PCG64(11).random_raw(6).reshape(2, 3)
        np.testing.assert_array_equal(words, ~raw)


def _reference_words(n: int, p: float, trials: int, bit_generator):
    """Pure-Python stream reference, returning ``(words, tail_draws)``.

    Word ``w`` owns the ``draws_per_word`` draws from ``w · draws_per_word``
    on.  Its first ``H = min(K, 10)`` planes are dense, draw ``j·n + e`` of
    the block being plane ``j`` of element ``e``; when ``K > H`` every lane
    whose ``H`` leading bits equal ``B``'s, in (element, lane) order, reads
    its remaining ``K − H`` bits from the top of the next draw of the queue
    that starts at offset ``H·n``.  A lane is red iff its bits, as the
    leading bits of ``V``, put ``V`` below ``B``.  ``bit_generator`` is left
    just past the words' blocks.
    """
    threshold, bits = bernoulli_threshold(p)
    planes = len(bits)
    dense = min(planes, 10)
    block = (planes if planes <= 10 else dense + 64) * n
    n_words = -(-trials // 64)
    raw = [int(x) for x in bit_generator.random_raw(n_words * block)]
    words, tail_draws = [], 0
    for w in range(n_words):
        queue = iter(raw[w * block + dense * n : (w + 1) * block])
        row = []
        for e in range(n):
            word = 0
            for lane in range(64):
                value = 0
                for j in range(dense):
                    value = value << 1 | (raw[w * block + j * n + e] >> lane & 1)
                used = dense
                if planes > dense and value == threshold >> (53 - dense):
                    value = value << (planes - dense) | next(queue) >> (64 - planes + dense)
                    used, tail_draws = planes, tail_draws + 1
                if value << (53 - used) < threshold and 64 * w + lane < trials:
                    word |= 1 << lane
            row.append(word)
        words.append(row)
    return words, tail_draws


def _as_lists(words) -> list[list[int]]:
    return [[int(x) for x in row] for row in words]


class TestStream:
    # 5000 trials are 79 words, over two 64-word slabs; every case with
    # K(p) > 10 sends some lanes to the tail queue.
    TRIALS = 5000

    @pytest.mark.parametrize("n", [1, 3, 5])
    # 2049/4096 has K = 12: a tied lane's two tail bits often equal B's.
    @pytest.mark.parametrize("p", [0.3, 1 / 3, 0.001, 0.4, 2049 / 4096])
    def test_matches_the_big_integer_reference(self, p, n):
        generator = np.random.default_rng(n)
        words = BernoulliSource(n, p).sample_words(self.TRIALS, generator)
        reference = np.random.PCG64(n)
        expected, tail_draws = _reference_words(n, p, self.TRIALS, reference)
        assert _as_lists(words) == expected
        assert tail_draws > 0
        # Nothing past the words' blocks is consumed.
        assert generator.bit_generator.random_raw() == reference.random_raw()

    @pytest.mark.parametrize("queue", [0, 1])
    @pytest.mark.parametrize("p", [0.3, 0.001])
    def test_words_do_not_depend_on_the_draws_read_up_front(self, monkeypatch, p, queue):
        # With no or one queue draw read up front, every word with a tied
        # lane takes the overflow path and draws its queue afresh.
        expected = BernoulliSource(3, p).sample_words(self.TRIALS, np.random.default_rng(4))
        monkeypatch.setattr(distributions, "_queue_draws", lambda n: queue)
        generator = np.random.default_rng(4)
        words = BernoulliSource(3, p).sample_words(self.TRIALS, generator)
        np.testing.assert_array_equal(words, expected)
        reference = np.random.PCG64(4)
        assert _as_lists(words) == _reference_words(3, p, self.TRIALS, reference)[0]
        assert generator.bit_generator.random_raw() == reference.random_raw()

    def test_other_bit_generators_draw_every_plane(self):
        # Philox's advance steps a 4-draw counter, so it must never skip:
        # it reads every draw of every block, the unread queue included.
        generator = np.random.Generator(np.random.Philox(5))
        words = BernoulliSource(3, 0.3).sample_words(self.TRIALS, generator)
        reference = np.random.Philox(5)
        expected, tail_draws = _reference_words(3, 0.3, self.TRIALS, reference)
        assert _as_lists(words) == expected and tail_draws > 0
        assert generator.bit_generator.random_raw() == reference.random_raw()

    @pytest.mark.parametrize("p", [0.5, 0.25, 0.75, 0.375])
    def test_at_most_ten_planes_keep_the_bitplane_v2_words(self, p, bitplane_v2_packed):
        for n, trials, seed in [(1, 130, 0), (7, 5000, 1), (64, 4096, 2)]:
            words = BernoulliSource(n, p).sample_words(trials, np.random.default_rng(seed))
            np.testing.assert_array_equal(words, bitplane_v2_packed(n, p, trials, seed).words)

    def test_slabs_continue_the_stream(self):
        # 70 words span two 64-word slabs.
        source = BernoulliSource(2, 0.3)
        words = source.sample_words(70 * 64, np.random.default_rng(8))
        tail = np.random.PCG64(8)
        tail.advance(64 * source.draws_per_word)
        np.testing.assert_array_equal(
            words[64:], source.sample_words(6 * 64, np.random.Generator(tail))
        )

    @pytest.mark.parametrize(
        "p,golden",
        [
            (
                0.5,
                [0x5CF01430263D7DA0, 0xBAEF42077D2628DE, 0xF582C256B1321747,
                 0xFBC4D849ECBD0FE2, 0x2FCD8587D321AEC4, 0x1655A68659BFE3B1,
                 0x64B3848E7F124D80, 0x453FB6A0077D65BA],
            ),
            (
                0.3,
                [0x0CC0040002212C80, 0x1247020679262090, 0x6582801631320502,
                 0xD3049000043D0DE2, 0x0003580100249082, 0x00A08105B48B0299,
                 0x50A01060A00C4352, 0x0918AA16A00A0252],
            ),
        ],
    )
    def test_golden_words_for_seed_zero(self, p, golden):
        """Changing the Bernoulli stream must be a deliberate edit here."""
        packed = sample_packed(BernoulliSource(4, p), 4, 128, rng=0)
        assert [int(x) for x in packed.words.ravel()] == golden


class TestRedRate:
    @pytest.mark.parametrize("p", [0.5, 0.3, 0.001])
    def test_within_five_sigma_overall_and_per_edge_lane(self, p):
        words = BernoulliSource(64, p).sample_words(65536, np.random.default_rng(2024))
        assert words.size * 64 == 2**22
        rate = bernoulli_threshold(p)[0] / 2**53
        lanes = np.unpackbits(words.astype("<u8").view(np.uint8), bitorder="little")
        lanes = lanes.reshape(-1, 64)
        for cells in (lanes, lanes[:, :1], lanes[:, 63:]):
            sigma = np.sqrt(rate * (1 - rate) / cells.size)
            assert abs(cells.mean() - rate) < 5 * sigma


class TestBitGenerators:
    def test_mt19937_is_refused_on_both_paths(self):
        # Its raw words carry 32 bits: lanes 32-63 would all compare red.
        source = BernoulliSource(50, 0.5)
        for sample in (source.sample_matrix, lambda *a: sample_packed(source, *a)):
            with pytest.raises(ValueError, match="MT19937"):
                sample(50, 4096, np.random.Generator(np.random.MT19937(1)))

    @pytest.mark.parametrize(
        "bit_generator",
        [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64],
    )
    def test_64_bit_generators_fill_both_lane_halves(self, bit_generator):
        matrix = BernoulliSource(50, 0.5).sample_matrix(
            50, 4096, np.random.Generator(bit_generator(1))
        )
        lane = np.arange(4096) % 64
        for half in (matrix[lane < 32], matrix[lane >= 32]):
            sigma = np.sqrt(0.25 / half.size)
            assert abs(half.mean() - 0.5) < 5 * sigma


def _one_shot(algorithm, source, trials, seed):
    red = source.sample_matrix(source.n, trials, np.random.default_rng(seed))
    probes, witness_green = batched_run(algorithm, red)
    return list(np.bincount(probes)), trials - int(witness_green.sum())


class TestEngineInvariance:
    ALGORITHM = ProbeMaj(MajoritySystem(21))
    TRIALS = 4200

    @pytest.mark.parametrize("chunk_size", [1, 7, 37, 64, 100, 4096])
    @pytest.mark.parametrize("p", [0.5, 0.3])
    def test_every_chunk_size_matches_one_shot(self, chunk_size, p):
        source = BernoulliSource(21, p)
        trials = 700 if chunk_size == 1 else self.TRIALS
        result = stream_probes(
            self.ALGORITHM, source, trials=trials, chunk_size=chunk_size, seed=6
        )
        assert (list(result.histogram), result.witness_red) == _one_shot(
            self.ALGORITHM, source, trials, 6
        )

    @pytest.mark.parametrize("start", [37, 64, 4096 + 5])
    def test_unaligned_full_chunk(self, start):
        source = BernoulliSource(21, 0.3)
        stats = ChunkTask(self.ALGORITHM, source, 6).run(start, 4096)
        red = source.sample_matrix(21, start + 4096, np.random.default_rng(6))[start:]
        probes, witness_green = batched_run(self.ALGORITHM, red)
        assert list(stats.histogram) == list(np.bincount(probes))
        assert stats.witness_red == 4096 - int(witness_green.sum())

    def test_jobs_two_matches_one_shot(self):
        source = BernoulliSource(21, 0.3)
        result = stream_probes(
            self.ALGORITHM, source, trials=1000, chunk_size=100, seed=9, jobs=2
        )
        assert (list(result.histogram), result.witness_red) == _one_shot(
            self.ALGORITHM, source, 1000, 9
        )
