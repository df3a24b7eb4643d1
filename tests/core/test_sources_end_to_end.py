"""Non-i.i.d. coloring sources end to end: algorithms and the streaming engine.

Every coloring scenario — i.i.d., exact-count, correlated groups, a fixed
adversarial red set, a paper hard distribution — is a
:class:`~repro.core.distributions.ColoringSource`.  These tests drive the
built-in sources through the probing algorithms and
:func:`~repro.core.engine.stream_probes`:

* every algorithm returns a valid witness of the right color on every draw;
* a fixed red set gives one exact probe count and an exact failure rate
  through the packed kernels, equal to the per-trial run;
* degenerate group probabilities pin the outcome;
* every source's stream is reproducible per seed and does not depend on the
  chunk size.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.algorithms import (
    CandidateQuorumProbe,
    IRProbeHQS,
    ProbeCW,
    ProbeHQS,
    ProbeMaj,
    ProbeTree,
    RandomScan,
    RProbeCW,
    RProbeHQS,
    RProbeMaj,
    RProbeTree,
    SequentialScan,
)
from repro.core.coloring import Color, Coloring
from repro.core.distributions import (
    AdversarialSource,
    ColoringSource,
    CorrelatedGroupsSource,
    FixedCountSource,
    build_source,
)
from repro.core.engine import stream_probes
from repro.core.estimator import Estimate
from repro.systems import (
    HQS,
    CrumblingWall,
    GridSystem,
    MajoritySystem,
    TreeSystem,
    TriangSystem,
    WheelSystem,
)

DETERMINISTIC = [
    pytest.param(lambda: ProbeMaj(MajoritySystem(9)), id="ProbeMaj-Maj9"),
    pytest.param(lambda: ProbeCW(TriangSystem(4)), id="ProbeCW-Triang4"),
    pytest.param(lambda: ProbeCW(CrumblingWall([1, 7])), id="ProbeCW-Wheel8"),
    pytest.param(lambda: ProbeTree(TreeSystem(3)), id="ProbeTree-Tree3"),
    pytest.param(lambda: ProbeHQS(HQS(2)), id="ProbeHQS-HQS2"),
]

RANDOMIZED = [
    pytest.param(lambda: RProbeMaj(MajoritySystem(9)), id="RProbeMaj-Maj9"),
    pytest.param(lambda: RProbeCW(TriangSystem(4)), id="RProbeCW-Triang4"),
    pytest.param(lambda: RProbeTree(TreeSystem(3)), id="RProbeTree-Tree3"),
    pytest.param(lambda: RProbeHQS(HQS(2)), id="RProbeHQS-HQS2"),
    pytest.param(lambda: IRProbeHQS(HQS(2)), id="IRProbeHQS-HQS2"),
]

GENERIC = [
    pytest.param(lambda: SequentialScan(GridSystem(3)), id="SequentialScan-Grid3"),
    pytest.param(lambda: RandomScan(WheelSystem(6)), id="RandomScan-Wheel6"),
    pytest.param(
        lambda: CandidateQuorumProbe(TriangSystem(3)), id="CandidateQuorumProbe-Triang3"
    ),
]

NON_IID_SOURCES = ("fixed_count", "correlated_groups", "adversarial")


def _red_set(system, which: str) -> frozenset[int]:
    """A quorum of ``system``, or the complement of that quorum."""
    quorum = system.find_quorum_within(system.universe)
    return quorum if which == "quorum" else system.universe - quorum


@pytest.mark.parametrize("source_name", NON_IID_SOURCES)
@pytest.mark.parametrize("factory", DETERMINISTIC + RANDOMIZED + GENERIC)
def test_every_algorithm_finds_a_valid_witness_on_every_draw(factory, source_name):
    algorithm = factory()
    system = algorithm.system
    red = build_source(source_name, system, 0.4).sample_matrix(system.n, 20, rng=1)
    for seed in range(20):
        coloring = Coloring.from_red_row(red[seed])
        run = algorithm.run_on(coloring, rng=random.Random(seed), validate=True)
        assert run.color is system.witness_color(coloring)
        assert len(run.witness.elements) <= run.probes <= system.n


class TestFixedRedSetThroughTheEngine:
    """A fixed red set makes every trial the same input."""

    @pytest.mark.parametrize("which", ["quorum", "complement"])
    @pytest.mark.parametrize("factory", DETERMINISTIC)
    def test_deterministic_run_is_the_scalar_run(self, factory, which):
        algorithm = factory()
        system = algorithm.system
        red = _red_set(system, which)
        run = algorithm.run_on(Coloring(system.n, red), validate=True)
        # A red quorum of an ND coterie leaves no live quorum; its
        # complement is a live one.
        assert (run.color is Color.RED) == (which == "quorum")
        trials = 130  # two full 64-trial words and a partial one
        result = stream_probes(
            algorithm,
            AdversarialSource(system.n, red),
            trials=trials,
            chunk_size=50,
            seed=4,
        )
        assert result.backend == "bitpacked"
        assert result.mean == float(run.probes) and result.std == 0.0
        assert result.histogram[run.probes] == trials
        assert result.failure_rate == (1.0 if run.color is Color.RED else 0.0)

    @pytest.mark.parametrize("which", ["quorum", "complement"])
    @pytest.mark.parametrize("factory", RANDOMIZED)
    def test_randomized_failure_rate_is_exact(self, factory, which):
        algorithm = factory()
        system = algorithm.system
        red = _red_set(system, which)
        coloring = Coloring(system.n, red)
        result = stream_probes(
            algorithm, AdversarialSource(system.n, red), trials=400, seed=6
        )
        assert result.failure_rate == (1.0 if which == "quorum" else 0.0)
        assert len(result.histogram) <= system.n + 1
        # Every run probes at least a witness, and on an ND coterie the
        # smallest witness of either color is a smallest quorum.
        assert result.mean >= system.min_quorum_size()
        # Each engine trial is one run of the algorithm on the fixed input.
        rng = random.Random(7)
        scalar = Estimate.from_samples(
            [algorithm.run_on(coloring, rng=rng).probes for _ in range(400)]
        )
        assert abs(result.mean - scalar.mean) < 3 * (result.ci95 + scalar.ci95) + 0.05


class TestDegenerateSources:
    def test_groups_that_never_fail_leave_every_quorum_live(self):
        system = MajoritySystem(9)
        source = CorrelatedGroupsSource(9, [{1, 2, 3}, {4, 5, 6}], 0.0)
        assert not source.sample_matrix(9, 50, rng=1).any()
        result = stream_probes(ProbeMaj(system), source, trials=100, seed=3)
        assert result.failure_rate == 0.0
        assert result.mean == 5.0 and result.std == 0.0  # k + 1 greens

    def test_groups_that_always_fail_go_down_together(self):
        system = MajoritySystem(9)
        groups = [{1, 2, 3}, {4, 5, 6}]
        source = CorrelatedGroupsSource(9, groups, 1.0)
        red = source.sample_matrix(9, 50, rng=1)
        assert red[:, :6].all() and not red[:, 6:].any()
        result = stream_probes(ProbeMaj(system), source, trials=100, seed=3)
        assert result.failure_rate == 1.0  # 6 of 9 down: no live majority

    def test_negative_fixed_count_rejected(self):
        with pytest.raises(ValueError):
            FixedCountSource(6, -1)

    def test_custom_source_runs_through_the_engine(self):
        class EveryThird(ColoringSource):
            name = "every_third"

            @property
            def n(self):
                return 9

            def _sample_matrix(self, trials, generator):
                red = np.zeros((trials, 9), dtype=bool)
                red[:, 2::3] = True
                return red

        source = EveryThird()
        assert Coloring.from_red_row(source.sample_matrix(9, 1, rng=6)[0]).red_elements == {
            3,
            6,
            9,
        }
        result = stream_probes(ProbeMaj(MajoritySystem(9)), source, trials=20, seed=1)
        assert result.failure_rate == 0.0 and result.std == 0.0

    def test_majority_fails_half_the_time_at_one_half(self):
        # Maj is self-dual, so at p = 1/2 a live quorum exists with
        # probability exactly 1/2.
        result = stream_probes(ProbeMaj(MajoritySystem(9)), p=0.5, trials=2000, seed=9)
        assert abs(result.failure_rate - 0.5) < 0.05
        assert 5.0 <= result.mean <= 9.0


STREAM_SOURCES = [
    pytest.param("bernoulli", id="bernoulli"),
    pytest.param("fixed_count", id="fixed_count"),
    pytest.param("correlated_groups", id="correlated_groups"),
    pytest.param("adversarial", id="adversarial"),
    pytest.param("majority_hard", id="majority_hard"),
]


def _stream(source_name: str, seed: int, chunk_size: int = 64):
    system = MajoritySystem(9)
    return stream_probes(
        ProbeMaj(system),
        build_source(source_name, system, 0.4),
        trials=200,
        chunk_size=chunk_size,
        seed=seed,
    )


class TestSeededStreamsPerSource:
    @pytest.mark.parametrize("source_name", STREAM_SOURCES)
    def test_same_seed_same_stream(self, source_name):
        first, again = _stream(source_name, 21), _stream(source_name, 21)
        assert first.histogram == again.histogram
        assert first.witness_red == again.witness_red
        assert first.mean == again.mean

    @pytest.mark.parametrize("source_name", STREAM_SOURCES)
    def test_chunk_size_does_not_change_the_stream(self, source_name):
        small, large = _stream(source_name, 21, chunk_size=16), _stream(source_name, 21, 200)
        assert small.chunks > large.chunks
        assert small.histogram == large.histogram
        assert small.witness_red == large.witness_red

    @pytest.mark.parametrize(
        "source_name", [s for s in STREAM_SOURCES if s.values[0] != "adversarial"]
    )
    def test_other_seed_other_stream(self, source_name):
        assert _stream(source_name, 21).histogram != _stream(source_name, 22).histogram
