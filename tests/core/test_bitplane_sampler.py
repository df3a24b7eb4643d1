"""The bit-plane Bernoulli sampler against exact ground truth.

:meth:`BernoulliSource.sample_words` reads one raw ``uint64`` per
(64-trial word, plane, element) and turns ``K(p)`` planes into ``V < B``
lane masks with ``B = ceil(p · 2^53)``.  These tests pin:

* the comparator on hand-built planes enumerating every leading-bit value;
* the plane count ``K(p)`` and the draw-free extremes ``p ∈ {0, 1}``;
* the stream itself, against a pure-Python big-integer reference and as
  golden words for seed 0, so any later stream change is a visible edit;
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


def _reference_words(n: int, p: float, trials: int, seed: int) -> list[list[int]]:
    """Pure-Python stream reference: word ``w`` reads draws
    ``[w·K·n, (w+1)·K·n)`` as planes ``(plane, element)``; a lane is red
    iff its leading K bits are below ``B``'s."""
    threshold, bits = bernoulli_threshold(p)
    planes = len(bits)
    n_words = -(-trials // 64)
    raw = np.random.PCG64(seed).random_raw(n_words * planes * n)
    words = []
    for w in range(n_words):
        row = []
        for e in range(n):
            word = 0
            for lane in range(64):
                value = 0
                for j in range(planes):
                    draw = int(raw[(w * planes + j) * n + e])
                    value = value << 1 | (draw >> lane & 1)
                if value << (53 - planes) < threshold and 64 * w + lane < trials:
                    word |= 1 << lane
            row.append(word)
        words.append(row)
    return words


class TestStream:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("p", [0.3, 0.001, 0.75, 1 / 3, 0.5])
    def test_matches_the_big_integer_reference(self, p, seed):
        # n = 3 over 3 words keeps the planes drawn up front few, so some
        # words have a lane still tied and redraw their remaining planes.
        words = BernoulliSource(3, p).sample_words(130, np.random.default_rng(seed))
        expected = _reference_words(3, p, 130, seed)
        assert [[int(x) for x in row] for row in words] == expected

    def test_other_bit_generators_draw_every_plane(self):
        # Philox's advance steps a 4-draw counter, so it must never skip:
        # the words read each plane in (word, plane, element) order.
        source = BernoulliSource(3, 0.3)
        planes = len(bernoulli_threshold(0.3)[1])
        words = source.sample_words(130, np.random.Generator(np.random.Philox(5)))
        raw = np.random.Philox(5).random_raw(3 * planes * 3).reshape(3, planes, 3)
        lt, _ = compare_planes(raw, bernoulli_threshold(0.3)[1])
        lt[-1] &= np.uint64((1 << 2) - 1)
        np.testing.assert_array_equal(words, lt)

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
                 0xD3049000043D0DE2, 0x800044A111594021, 0x410283D540629C00,
                 0xC0804031AA45E000, 0x98A7081050A4017B],
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
