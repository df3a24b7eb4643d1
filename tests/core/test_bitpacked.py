"""Tests for the bit-packed kernels (:mod:`repro.core.bitpacked`).

The deterministic algorithms have no other kernel, so the load-bearing
contract is agreement with the sequential algorithm: every packed kernel
is checked against ``run_on`` on every coloring of a small universe and
trial by trial on structured inputs, and the Probe_Maj and Probe_CW
lane-row kernels carry golden digests taken from the kernels they
replaced.  The streaming engine must give one packed pass's histogram
under every chunk size and split.  The packing layout, the slab sampler's
RNG-stream equivalence, the bit-sliced arithmetic, the lane transpose, the
popcount fallback and the backend each algorithm derives are pinned
directly; ``bitpacked`` on a randomized algorithm must fail loudly.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.algorithms import (
    IRProbeHQS,
    ProbeCW,
    ProbeHQS,
    ProbeMaj,
    ProbeTree,
    RProbeCW,
    RProbeHQS,
    RProbeMaj,
    RProbeTree,
    SequentialScan,
)
from repro.core.batched import batched_run, resolve_backend, supports_batched
from repro.core.bitpacked import (
    PackedColorings,
    _popcount64_lut,
    lane_rows,
    pack_matrix,
    planes_add,
    planes_to_counts,
    popcount64,
    run_packed,
    sample_packed,
    unpack_matrix,
)
from repro.core.coloring import Coloring
from repro.core.distributions import (
    BernoulliSource,
    build_source,
    sample_bernoulli_matrix,
    unpack_words,
)
from repro.core.engine import ChunkTask, RunSpec, stream_probes
from repro.systems import (
    HQS,
    CrumblingWall,
    MajoritySystem,
    TreeSystem,
    TriangSystem,
    uniform_wall,
)

#: Every deterministic algorithm with a packed kernel, over assorted sizes
#: and failure probabilities (non-power sizes, skewed p both ways).
PACKED_CASES = [
    (ProbeMaj(MajoritySystem(25)), 0.5),
    (ProbeMaj(MajoritySystem(101)), 0.3),
    (ProbeCW(TriangSystem(8)), 0.5),
    (ProbeCW(CrumblingWall([1, 3, 3, 3])), 0.7),
    (ProbeCW(uniform_wall(rows=5, width=10)), 0.2),
    (ProbeTree(TreeSystem(4)), 0.5),
    (ProbeTree(TreeSystem(6)), 0.8),
    (ProbeHQS(HQS(3)), 0.5),
    (ProbeHQS(HQS(2)), 0.1),
]

_case_id = lambda case: f"{case[0].name}-n{case[0].system.n}-p{case[1]}"  # noqa: E731


# -- packing layout ---------------------------------------------------------------


class TestPacking:
    @pytest.mark.parametrize("trials", [1, 63, 64, 65, 70, 128, 200])
    def test_roundtrip(self, trials):
        red = sample_bernoulli_matrix(11, 0.4, trials, rng=3)
        packed = pack_matrix(red)
        assert packed.trials == trials
        assert packed.n == 11
        assert packed.n_words == -(-trials // 64)
        np.testing.assert_array_equal(unpack_matrix(packed), red)

    def test_layout_is_transposed_little_endian(self):
        # Trial t of element e+1 is bit (t mod 64) of words[t // 64, e].
        red = sample_bernoulli_matrix(5, 0.5, 130, rng=9)
        packed = pack_matrix(red)
        for trial, element in [(0, 0), (63, 4), (64, 2), (129, 3)]:
            bit = (int(packed.words[trial // 64, element]) >> (trial % 64)) & 1
            assert bool(bit) == bool(red[trial, element])

    def test_tail_lanes_are_zero_padding(self):
        red = np.ones((70, 3), dtype=bool)
        packed = pack_matrix(red)
        mask = packed.valid_mask()
        assert mask[0] == np.uint64(0xFFFFFFFFFFFFFFFF)
        assert mask[1] == np.uint64((1 << 6) - 1)
        # Bits above the valid lanes stay clear even for an all-red matrix.
        assert not np.any(packed.words & ~mask[:, None])

    def test_zero_trials(self):
        packed = pack_matrix(np.zeros((0, 4), dtype=bool))
        assert packed.n_words == 0
        assert unpack_matrix(packed).shape == (0, 4)

    @pytest.mark.parametrize("trials", [1, 63, 64, 65])
    @pytest.mark.parametrize("n", [1, 7])
    def test_equals_the_column_packing_formula(self, trials, n):
        # The earlier formula: packbits down each column, then regroup the
        # bytes of every 64 trials into one little-endian word per element.
        red = np.random.default_rng(trials * n).random((trials, n)) < 0.5
        n_words = -(-trials // 64)
        octets = np.zeros((n_words * 8, n), dtype=np.uint8)
        octets[: -(-trials // 8)] = np.packbits(red, axis=0, bitorder="little")
        regrouped = np.ascontiguousarray(octets.reshape(n_words, 8, n).transpose(0, 2, 1))
        expected = regrouped.view("<u8").reshape(n_words, n).astype(np.uint64)
        words = pack_matrix(red).words
        assert words.dtype == np.uint64 and words.flags.c_contiguous
        np.testing.assert_array_equal(words, expected)


class TestSamplePacked:
    @pytest.mark.parametrize("trials", [1, 64, 70, 5000])
    def test_bernoulli_stream_identical_to_matrix_draw(self, trials):
        source = BernoulliSource(13, 0.35)
        packed = sample_packed(source, 13, trials, rng=17)
        expected = source.sample_matrix(13, trials, np.random.default_rng(17))
        np.testing.assert_array_equal(unpack_matrix(packed), expected)

    def test_generic_source_falls_back_to_matrix_packing(self):
        system = MajoritySystem(9)
        source = build_source("fixed_count", system, 0.4)
        packed = sample_packed(source, 9, 100, rng=5)
        expected = source.sample_matrix(9, 100, np.random.default_rng(5))
        np.testing.assert_array_equal(unpack_matrix(packed), expected)

    def test_rejects_mismatched_n_and_bad_slab(self):
        source = BernoulliSource(8, 0.5)
        with pytest.raises(ValueError, match="n=8"):
            sample_packed(source, 9, 64)
        # The slab size is internal: no keyword sizes it.
        with pytest.raises(TypeError, match="slab_trials"):
            sample_packed(source, 8, 64, slab_trials=1024)


# -- bit-sliced arithmetic and popcount -------------------------------------------


class TestBitSliced:
    def test_planes_add_matches_integer_addition(self):
        rng = np.random.default_rng(4)
        a_val = rng.integers(0, 50, size=64)
        b_val = rng.integers(0, 50, size=64)

        def planes_of(values):
            planes = []
            for i in range(int(values.max()).bit_length()):
                lanes = ((values >> i) & 1).astype(bool)
                planes.append(pack_matrix(lanes[:, None]).words[:, 0])
            return planes

        total = planes_add(planes_of(a_val), planes_of(b_val))
        np.testing.assert_array_equal(planes_to_counts(total, 64), a_val + b_val)

    def test_popcount_lut_matches_bitwise_count(self):
        rng = np.random.default_rng(8)
        words = rng.integers(0, 2**64, size=200, dtype=np.uint64)
        np.testing.assert_array_equal(_popcount64_lut(words), popcount64(words))

    @pytest.mark.parametrize("n_words,m,n_bytes", [(1, 1, 1), (1, 8, 2), (2, 9, 2), (3, 100, 20)])
    def test_lane_rows_is_the_bit_transpose(self, n_words, m, n_bytes):
        rng = np.random.default_rng(m)
        planes = rng.integers(0, 2**64, size=(n_words, m), dtype=np.uint64)
        rows = lane_rows(planes, n_bytes)
        bits = unpack_words(planes, 64 * n_words)  # (lane, element) bools
        expected = np.zeros((64 * n_words, n_bytes), dtype=np.uint8)
        expected[:, : -(-m // 8)] = np.packbits(bits, axis=1, bitorder="little")
        assert rows.dtype == np.uint8 and rows.flags.c_contiguous
        np.testing.assert_array_equal(rows, expected)


# -- kernel equivalence -----------------------------------------------------------


class TestKernelEquivalence:
    @pytest.mark.parametrize("case", PACKED_CASES, ids=_case_id)
    @pytest.mark.parametrize("trials", [70, 256])
    def test_packed_matches_run_on_trial_by_trial(self, case, trials):
        algorithm, p = case
        _assert_matches_run_on(
            algorithm, sample_bernoulli_matrix(algorithm.system.n, p, trials, rng=23)
        )

    def test_extreme_colorings(self):
        # All-red and all-green matrices hit every early-exit branch.
        for algorithm in (ProbeMaj(MajoritySystem(9)), ProbeCW(TriangSystem(4)),
                          ProbeTree(TreeSystem(3)), ProbeHQS(HQS(2))):
            n = algorithm.system.n
            for matrix in (np.zeros((65, n), bool), np.ones((65, n), bool)):
                _assert_matches_run_on(algorithm, matrix)

    def test_run_packed_rejects_wrong_n_and_missing_kernel(self):
        packed = pack_matrix(np.zeros((64, 5), bool))
        with pytest.raises(ValueError, match="n=5"):
            run_packed(ProbeMaj(MajoritySystem(9)), packed)
        with pytest.raises(TypeError, match="no bitpacked kernel"):
            run_packed(RProbeMaj(MajoritySystem(5)), pack_matrix(np.zeros((64, 5), bool)))

    def test_packed_cw_rejects_random_in_row_order(self):
        from repro.core.bitpacked import packed_probe_cw_kernel

        algorithm = RProbeCW(TriangSystem(4))
        with pytest.raises(ValueError, match="deterministic"):
            packed_probe_cw_kernel(algorithm, pack_matrix(np.zeros((64, algorithm.system.n), bool)))


def _assert_matches_run_on(algorithm, red):
    """The packed kernel's probes and witnesses equal ``run_on`` row by row."""
    probes, witness_green = run_packed(algorithm, pack_matrix(red))
    runs = [algorithm.run_on(Coloring.from_red_row(row)) for row in red]
    np.testing.assert_array_equal(probes, [run.probes for run in runs])
    np.testing.assert_array_equal(witness_green, [run.witness.is_green for run in runs])


# -- Probe_Maj and Probe_CW lane-row kernels ---------------------------------------

#: The two lane-row kernels' inputs: the paper's Maj(1001) and Triang(45),
#: and a wall whose rows span several 56-bit fields (100 and 70 elements).
LANE_ROW_SYSTEMS = {
    "Maj1001": lambda: ProbeMaj(MajoritySystem(1001)),
    "Triang45": lambda: ProbeCW(TriangSystem(45)),
    "CW1-5-100-3-70": lambda: ProbeCW(CrumblingWall([1, 5, 100, 3, 70])),
}

# blake2s-128 over trials 1, 63, 65, 777, 4096 and 9000 (in that order) of
# ``probes`` (as int64) followed by ``witness_green`` (as bool), on the
# ``bitplane-v2`` colorings of seed ``trials`` (the ``bitplane_v2_packed``
# fixture, which froze the sampler's stream of the time so that the digests
# pin the kernels alone).  Taken from the element-by-element bit-sliced
# kernels that the lane-row kernels replaced.
LANE_ROW_DIGESTS = {
    ("Maj1001", 0.0): "95ccbb6d3843641a223b677ef4f7af8f",
    ("Maj1001", 0.5): "e16a9b14b1bad577e36c7f0beaea1418",
    ("Maj1001", 0.3): "aa3136bca3feb2e5794fdf037e90a493",
    ("Maj1001", 1.0): "851a2f55523b05e0d5942ddafa3f6962",
    ("Triang45", 0.0): "469956f8a6dc2e166ac3def9cca97f9d",
    ("Triang45", 0.5): "0010e6aa25cf336ce37c323e2e614c54",
    ("Triang45", 0.3): "0adabe3ff70fac23b60353ccce533fa0",
    ("Triang45", 1.0): "e5df88b64f5e9816036df368f529821e",
    ("CW1-5-100-3-70", 0.0): "3261cec252eb281b88b855e7e65ba85f",
    ("CW1-5-100-3-70", 0.5): "0ed36403ee3ac5eb7ee622cdbf905006",
    ("CW1-5-100-3-70", 0.3): "8356f1cfbc40c5f5eebb053404004c55",
    ("CW1-5-100-3-70", 1.0): "46a3b67ec2bbb294792a632985dcefd2",
}


class TestLaneRowKernels:
    @pytest.mark.parametrize("name,p", list(LANE_ROW_DIGESTS), ids=lambda v: str(v))
    def test_output_matches_golden_digest(self, name, p, bitplane_v2_packed):
        algorithm = LANE_ROW_SYSTEMS[name]()
        n = algorithm.system.n
        digest = hashlib.blake2s(digest_size=16)
        for trials in (1, 63, 65, 777, 4096, 9000):
            packed = bitplane_v2_packed(n, p, trials, trials)
            probes, witness_green = run_packed(algorithm, packed)
            assert probes.dtype == np.int64 and witness_green.dtype == bool
            assert probes.shape == witness_green.shape == (trials,)
            # Set bits in the padding lanes past ``trials``: they never count.
            dirty = PackedColorings(packed.words | ~packed.valid_mask()[:, None], trials)
            dirty_probes, dirty_witness = run_packed(algorithm, dirty)
            np.testing.assert_array_equal(dirty_probes, probes)
            np.testing.assert_array_equal(dirty_witness, witness_green)
            digest.update(probes.astype(np.int64).tobytes() + witness_green.tobytes())
        assert digest.hexdigest() == LANE_ROW_DIGESTS[name, p]

    @pytest.mark.parametrize(
        "widths", [[1, 200], [1, 57, 3, 113, 64, 1], [1, 1, 1], [1]], ids=str
    )
    @pytest.mark.parametrize("flip", [0.0, 0.01, 0.05])
    def test_walls_with_rare_flips(self, widths, flip):
        # Each row is one color per trial with rare flips, so a row whose
        # color differs from the mode is scanned deep, often past one field.
        algorithm = ProbeCW(CrumblingWall(widths))
        rng = np.random.default_rng(len(widths))
        trials = 300
        base = rng.random((trials, len(widths))) < 0.5
        red = np.repeat(base, widths, axis=1) ^ (rng.random((trials, sum(widths))) < flip)
        _assert_matches_run_on(algorithm, red)

    @pytest.mark.parametrize("widths", [[1, 200], [1, 3, 130], [1, 5, 2, 121]], ids=str)
    def test_first_match_at_every_position_of_a_long_row(self, widths):
        # Rows above the long one are red, so the mode entering it is red.
        # Lane k's long row is green before position k and red at k (the
        # last lane has no red), with field boundaries at assorted shifts.
        algorithm = ProbeCW(CrumblingWall(widths))
        long_row, n = widths[-1], sum(widths)
        red = np.random.default_rng(long_row).random((long_row + 1, n)) < 0.5
        red[:, : n - long_row] = True
        lanes = np.arange(long_row + 1)[:, None]
        red[:, n - long_row :] &= np.arange(long_row) > lanes
        red[lanes[:-1, 0], n - long_row + lanes[:-1, 0]] = True
        probes, _ = run_packed(algorithm, pack_matrix(red))
        above = len(widths) - 1  # the top row and one probe per red row
        assert list(probes) == [above + k + 1 for k in range(long_row)] + [above + long_row]
        _assert_matches_run_on(algorithm, red)

    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    def test_maj_follows_a_custom_probe_order(self, order):
        system = MajoritySystem(129)
        elements = list(range(129, 0, -1))
        if order == "shuffled":
            elements = [int(e) for e in np.random.default_rng(3).permutation(elements)]
        algorithm = ProbeMaj(system, order=elements)
        red = sample_bernoulli_matrix(129, 0.5, 200, rng=4)
        _assert_matches_run_on(algorithm, red)


class TestLaneRowChunking:
    """``stream_probes(backend="bitpacked")`` equals one packed pass over
    every trial, whatever the chunk size and word alignment of each chunk."""

    ALGORITHMS = {
        "Maj65": ProbeMaj(MajoritySystem(65)),
        "Triang8": ProbeCW(TriangSystem(8)),
        "CW1-3-70-5": ProbeCW(CrumblingWall([1, 3, 70, 5])),
    }

    @staticmethod
    def _one_shot(algorithm, source, trials, seed, start=0):
        packed = sample_packed(
            source, source.n, start + trials, np.random.default_rng(seed)
        )
        probes, witness_green = run_packed(algorithm, packed)
        return list(np.bincount(probes[start:])), trials - int(witness_green[start:].sum())

    @pytest.mark.parametrize("name", list(ALGORITHMS))
    @pytest.mark.parametrize("chunk_size", [1, 7, 63, 65, 777, 4096])
    def test_every_chunk_size_matches_one_shot(self, name, chunk_size):
        algorithm = self.ALGORITHMS[name]
        source = BernoulliSource(algorithm.system.n, 0.3)
        trials = 300 if chunk_size == 1 else 5000
        result = stream_probes(
            algorithm, source, trials=trials, chunk_size=chunk_size, seed=8,
            backend="bitpacked",
        )
        assert (list(result.histogram), result.witness_red) == self._one_shot(
            algorithm, source, trials, 8
        )

    @pytest.mark.parametrize("name", list(ALGORITHMS))
    @pytest.mark.parametrize("start", [37, 4096 + 5])
    def test_unaligned_full_chunk(self, name, start):
        algorithm = self.ALGORITHMS[name]
        source = BernoulliSource(algorithm.system.n, 0.5)
        stats = ChunkTask(algorithm, source, 6).run(start, 4096)
        assert (list(stats.histogram), stats.witness_red) == self._one_shot(
            algorithm, source, 4096, 6, start
        )


@pytest.mark.parametrize(
    "algorithm",
    [
        ProbeMaj(MajoritySystem(15)),
        ProbeCW(CrumblingWall([1, 2, 3, 3, 3])),
        ProbeCW(TriangSystem(5)),
        ProbeTree(TreeSystem(3)),
        ProbeHQS(HQS(2)),
    ],
    ids=lambda a: f"{a.name}-n{a.system.n}",
)
def test_every_coloring_through_the_packed_kernel(algorithm):
    """Exhaustive, not sampled: each packed kernel against ``run_on`` on
    every coloring of the universe."""
    n = algorithm.system.n
    # Trial t is the coloring with red mask t (element e red iff bit e - 1
    # is set), so the packed words are the bit-planes of a counter.
    counter = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1 == 1
    probes, witness_green = run_packed(algorithm, pack_matrix(counter))
    runs = [algorithm.run_on(Coloring.from_red_mask(n, mask)) for mask in range(1 << n)]
    np.testing.assert_array_equal(probes, [run.probes for run in runs])
    np.testing.assert_array_equal(witness_green, [run.witness.is_green for run in runs])


# -- backend registry and resolution ----------------------------------------------


class TestBackendResolution:
    RANDOMIZED = [
        RProbeMaj(MajoritySystem(5)),
        RProbeCW(TriangSystem(4)),
        ProbeCW(TriangSystem(4), within_row_order="random"),
    ]

    def test_supports_batched_means_either_backend(self):
        assert supports_batched(ProbeMaj(MajoritySystem(5)))
        assert supports_batched(RProbeMaj(MajoritySystem(5)))
        assert not supports_batched(SequentialScan(MajoritySystem(5)))

    @pytest.mark.parametrize("requested", [None, "numpy", "auto", "bitpacked"])
    @pytest.mark.parametrize("case", PACKED_CASES[::2], ids=_case_id)
    def test_deterministic_algorithms_run_packed(self, case, requested):
        assert resolve_backend(case[0], requested) == "bitpacked"

    @pytest.mark.parametrize("requested", [None, "numpy", "auto", "bitpacked"])
    @pytest.mark.parametrize(
        "algorithm",
        [RProbeTree(TreeSystem(4)), RProbeHQS(HQS(2)), IRProbeHQS(HQS(3))],
        ids=lambda a: a.name,
    )
    def test_randomized_gate_algorithms_run_packed(self, algorithm, requested):
        assert resolve_backend(algorithm, requested) == "bitpacked"
        result = stream_probes(algorithm, p=0.5, trials=64, seed=1, backend=requested)
        assert result.backend == "bitpacked"

    @pytest.mark.parametrize("requested", [None, "numpy", "auto"])
    @pytest.mark.parametrize("algorithm", RANDOMIZED, ids=lambda a: a.name)
    def test_randomized_algorithms_run_numpy(self, algorithm, requested):
        assert resolve_backend(algorithm, requested) == "numpy"

    @pytest.mark.parametrize("algorithm", RANDOMIZED, ids=lambda a: a.name)
    def test_bitpacked_rejects_randomized_loudly(self, algorithm):
        with pytest.raises(ValueError, match="randomized"):
            resolve_backend(algorithm, "bitpacked")
        with pytest.raises(ValueError, match="randomized"):
            stream_probes(algorithm, p=0.5, trials=64, seed=1, backend="bitpacked")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend 'cuda'"):
            resolve_backend(ProbeMaj(MajoritySystem(5)), "cuda")
        with pytest.raises(ValueError, match="unknown backend 'cuda'"):
            stream_probes(ProbeMaj(MajoritySystem(5)), p=0.5, trials=64, backend="cuda")

    def test_numpy_request_runs_packed(self, monkeypatch):
        from repro.core import bitpacked

        calls = []

        def counting(algorithm, packed, rng=None):
            calls.append(packed.trials)
            return run_packed(algorithm, packed, rng)

        monkeypatch.setattr(bitpacked, "run_packed", counting)
        algorithm = ProbeTree(TreeSystem(3))
        result = stream_probes(algorithm, p=0.4, trials=100, seed=2, backend="numpy")
        assert result.backend == "bitpacked" and calls == [100]
        red = sample_bernoulli_matrix(algorithm.system.n, 0.4, 70, rng=2)
        batched_run(algorithm, red)
        assert calls == [100, 70]


# -- streaming-engine bit identity ------------------------------------------------


def _histograms_match(a, b):
    return (
        a.histogram == b.histogram
        and a.mean == b.mean
        and a.std == b.std
        and a.witness_red == b.witness_red
        and a.n_trials_used == b.n_trials_used
    )


class TestStreamIdentity:
    @pytest.mark.parametrize(
        "algorithm", [ProbeHQS(HQS(2)), ProbeTree(TreeSystem(3))], ids=lambda a: a.name
    )
    def test_nonaligned_final_chunk(self, algorithm):
        # trials not a multiple of the chunk size nor of 64: the padded tail
        # lanes of the last word must not leak into the histogram.
        source = BernoulliSource(algorithm.system.n, 0.3)
        result = stream_probes(algorithm, source, trials=333, seed=5, chunk_size=100)
        assert (list(result.histogram), result.witness_red) == TestLaneRowChunking._one_shot(
            algorithm, source, 333, 5
        )

    def test_checkpoint_resume_preserves_backend(self, tmp_path):
        from repro.testing import faults
        from repro.testing.faults import Fault

        run = RunSpec("maj", 25, 0.4)  # Probe_Maj on Maj(25)
        kwargs = dict(trials=400, seed=19, chunk_size=64)
        base = stream_probes(run, backend="bitpacked", **kwargs)
        path = tmp_path / "ckpt.json"
        with pytest.raises(KeyboardInterrupt):
            with faults.active_plan(
                [Fault("merge", 1, "interrupt")], tmp_path / "plan"
            ):
                stream_probes(run, backend="bitpacked", checkpoint_path=path, **kwargs)
        # The backend follows from the algorithm: the resume keeps running
        # bitpacked without being told, bit-identically.
        resumed = stream_probes(run, resume=path)
        assert resumed.backend == "bitpacked"
        assert _histograms_match(resumed, base)


class TestPoolIdentity:
    @pytest.mark.parametrize(
        "stopping",
        [dict(trials=512), dict(target_ci=0.25, min_trials=128, max_trials=2048)],
        ids=["fixed", "adaptive"],
    )
    def test_pool_workers_match_sequential(self, stopping):
        # Pool workers rebuild the bitpacked pair from the task's blob; the
        # sharded run must merge to the sequential statistics exactly.
        algorithm = ProbeCW(TriangSystem(8))
        kwargs = dict(p=0.5, seed=29, chunk_size=64, **stopping)
        base = stream_probes(algorithm, **kwargs)
        packed = stream_probes(algorithm, jobs=2, **kwargs)
        assert packed.backend == base.backend == "bitpacked"
        assert _histograms_match(packed, base)


class TestPopcountFallback:
    """On numpy builds without ``np.bitwise_count`` the kernels fall back to
    the 16-bit-LUT popcount; force that path and re-pin kernel bit identity."""

    @pytest.fixture(autouse=True)
    def _force_lut_popcount(self, monkeypatch):
        from repro.core import bitpacked

        monkeypatch.setattr(bitpacked, "popcount64", _popcount64_lut)

    @pytest.mark.parametrize("case", PACKED_CASES, ids=_case_id)
    def test_kernels_bit_identical_under_lut(self, case, monkeypatch):
        algorithm, p = case
        packed = pack_matrix(sample_bernoulli_matrix(algorithm.system.n, p, 200, rng=31))
        lut_probes, lut_witness = run_packed(algorithm, packed)
        monkeypatch.undo()  # back to np.bitwise_count
        probes, witness = run_packed(algorithm, packed)
        np.testing.assert_array_equal(lut_probes, probes)
        np.testing.assert_array_equal(lut_witness, witness)

    def test_lane_row_kernels_call_the_patched_popcount(self, monkeypatch):
        # The Maj and CW kernels resolve ``popcount64`` at call time, so the
        # LUT above is what they ran on.
        from repro.core import bitpacked

        calls = []

        def counting(words):
            calls.append(np.shape(words))
            return _popcount64_lut(words)

        monkeypatch.setattr(bitpacked, "popcount64", counting)
        for algorithm in (ProbeMaj(MajoritySystem(25)), ProbeCW(TriangSystem(8))):
            calls.clear()
            run_packed(algorithm, pack_matrix(np.ones((70, algorithm.system.n), bool)))
            assert calls, algorithm.name

    @pytest.mark.parametrize("case", PACKED_CASES, ids=_case_id)
    def test_kernels_run_on_numpy_without_bitwise_count(self, case, monkeypatch):
        # numpy < 2.0 (which setup.py allows) has no ``np.bitwise_count``.
        algorithm, p = case
        packed = pack_matrix(sample_bernoulli_matrix(algorithm.system.n, p, 130, rng=37))
        probes, witness = run_packed(algorithm, packed)
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        packed_probes, packed_witness = run_packed(algorithm, packed)
        np.testing.assert_array_equal(packed_probes, probes)
        np.testing.assert_array_equal(packed_witness, witness)
