"""Micro-benchmarks of the probing machinery itself.

These are conventional pytest-benchmark timings (operations per second) for
the hot paths a downstream user cares about: running each of the paper's
algorithms once on a large instance, evaluating the characteristic function,
and serving probes from an in-memory oracle.  They complement the
experiment-level benchmarks, which measure probes rather than wall-clock
time.
"""

from __future__ import annotations

import random

from repro.algorithms import IRProbeHQS, ProbeCW, ProbeHQS, ProbeMaj, ProbeTree, RProbeTree
from repro.core.coloring import Coloring
from repro.core.oracle import ColoringOracle
from repro.systems import HQS, MajoritySystem, TreeSystem, TriangSystem


def _coloring(n: int, seed: int) -> Coloring:
    return Coloring.random(n, 0.5, random.Random(seed))


def test_probe_maj_single_run(benchmark):
    system = MajoritySystem(1001)
    coloring = _coloring(system.n, 1)
    algorithm = ProbeMaj(system)
    result = benchmark(lambda: algorithm.run_on(coloring))
    assert result.probes <= system.n


def test_probe_cw_single_run(benchmark):
    system = TriangSystem(45)  # n = 1035
    coloring = _coloring(system.n, 2)
    algorithm = ProbeCW(system)
    result = benchmark(lambda: algorithm.run_on(coloring))
    assert result.probes <= system.n


def test_probe_tree_single_run(benchmark):
    system = TreeSystem(10)  # n = 2047
    coloring = _coloring(system.n, 3)
    algorithm = ProbeTree(system)
    result = benchmark(lambda: algorithm.run_on(coloring))
    assert result.probes <= system.n


def test_randomized_tree_single_run(benchmark):
    system = TreeSystem(10)
    coloring = _coloring(system.n, 4)
    algorithm = RProbeTree(system)
    rng = random.Random(5)
    result = benchmark(lambda: algorithm.run_on(coloring, rng=rng))
    assert result.probes <= system.n


def test_probe_hqs_single_run(benchmark):
    system = HQS(7)  # n = 2187
    coloring = _coloring(system.n, 6)
    algorithm = ProbeHQS(system)
    result = benchmark(lambda: algorithm.run_on(coloring))
    assert result.probes <= system.n


def test_ir_probe_hqs_single_run(benchmark):
    system = HQS(7)
    coloring = _coloring(system.n, 7)
    algorithm = IRProbeHQS(system)
    rng = random.Random(8)
    result = benchmark(lambda: algorithm.run_on(coloring, rng=rng))
    assert result.probes <= system.n


def test_characteristic_function_evaluation(benchmark):
    system = TriangSystem(45)
    subset = frozenset(e for e in system.universe if e % 3 != 0)
    value = benchmark(lambda: system.contains_quorum(subset))
    assert isinstance(value, bool)


def test_in_memory_oracle_overhead(benchmark):
    coloring = _coloring(2001, 10)

    def probe_all():
        oracle = ColoringOracle(coloring)
        for e in range(1, 2002):
            oracle.probe(e)
        return oracle.probe_count

    assert benchmark(probe_all) == 2001


def test_coloring_random_large(benchmark):
    # n = 2000 uses the binomial-count fast path of Coloring.random.
    rng = random.Random(11)
    coloring = benchmark(lambda: Coloring.random(2000, 0.5, rng))
    assert coloring.n == 2000


def test_batched_montecarlo_probe_maj(benchmark):
    from repro.core.engine import stream_probes

    algorithm = ProbeMaj(MajoritySystem(1001))
    estimate = benchmark(
        lambda: stream_probes(
            algorithm, p=0.5, trials=1000, chunk_size=1000, seed=12
        ).estimate
    )
    assert estimate.trials == 1000


def test_batched_montecarlo_probe_cw(benchmark):
    from repro.core.engine import stream_probes

    algorithm = ProbeCW(TriangSystem(45))
    estimate = benchmark(
        lambda: stream_probes(
            algorithm, p=0.5, trials=1000, chunk_size=1000, seed=13
        ).estimate
    )
    assert estimate.trials == 1000


def test_mask_characteristic_function_evaluation(benchmark):
    from repro.core.bitmask import mask_of

    system = TriangSystem(45)
    mask = mask_of(e for e in system.universe if e % 3 != 0)
    value = benchmark(lambda: system.contains_quorum_mask(mask))
    assert isinstance(value, bool)


def test_exact_solver_ppc_n12(benchmark):
    from repro.core.exact import ExactSolver
    from repro.systems import CrumblingWall

    system = CrumblingWall([1, 2, 3, 3, 3])

    def solve():
        return ExactSolver(system).probabilistic_probe_complexity(0.5)

    value = benchmark.pedantic(solve, rounds=1, iterations=1)
    assert 0.0 < value <= system.n
