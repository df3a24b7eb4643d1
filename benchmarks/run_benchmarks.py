"""Perf-snapshot entry point: time the hot paths and write ``BENCH_<date>.json``.

Unlike the pytest-benchmark files in this directory (which regenerate the
paper's tables), this script measures wall-clock throughput of the probing
machinery itself and records the numbers in a dated JSON snapshot, so
future PRs have a trajectory to compare against::

    PYTHONPATH=src python benchmarks/run_benchmarks.py            # full run
    PYTHONPATH=src python benchmarks/run_benchmarks.py --quick    # CI smoke

Sections:

* ``exact_solver`` — mask-DP :class:`ExactSolver` versus the seed's
  frozenset ``lru_cache`` DP (replicated below as ``legacy_ppc``) on an
  ``n = 14`` crumbling wall, plus the warm-cache re-query cost;
* ``batched_montecarlo`` — vectorized (one engine chunk) versus a local
  per-trial reference loop (one ``Coloring.random`` draw and one
  ``run_on`` per trial; 1000 trials) for Probe_Maj on ``Maj(1001)`` and
  Probe_CW on ``Triang(45)`` (n = 1035);
* ``batched_gates`` — the level-synchronous gate kernels, all packed
  (:mod:`repro.core.bitpacked`), versus the recursive per-trial loops
  for Probe_Tree / R_Probe_Tree on ``Tree(h=9)`` (n = 1023) and
  Probe_HQS / R_Probe_HQS / IR_Probe_HQS on ``HQS(h=6)`` (n = 729); the
  section keeps its name so snapshots stay comparable;
* ``coloring_sampling`` — ``Coloring.random`` at ``n = 2000`` and the
  i.i.d. matrix sampler ``sample_bernoulli_matrix`` (reported as
  ``random_batch_seconds``);
* ``distribution_sampling`` — every registered
  :class:`~repro.core.distributions.ColoringSource` at ``n ≈ 1000``:
  the vectorized ``sample_matrix`` batch versus the per-trial scalar
  path each scenario used before the unified source layer (a
  ``random.Random`` loop per trial building one ``Coloring``, kept here as
  local reference loops);
* ``runner_overhead`` — the unified experiment runner's own work
  (:mod:`repro.experiments.runner`: registry lookup, parameter resolution,
  environment metadata, artifact serialization), timed with a driver that
  returns precomputed rows, next to calling the same driver functions
  directly, on the ``lemmas`` experiment.
* ``streaming_engine`` — the chunked streaming engine
  (:mod:`repro.core.engine`) versus a one-chunk engine run at equal
  trials (chunking overhead must stay bounded: ``chunked_vs_one_shot``
  ratios ≥ ~0.9x), the sharded (2-job) run, and the adaptive ``target_ci``
  mode on Maj(1001) near the critical ``p = 1/2``: a fixed-trial baseline
  sized for the near-critical cell wastes trials at easy ``p``; the
  adaptive run hits the same tolerance with fewer total trials.
* ``bitpacked_kernels`` — the deterministic algorithms' one kernel each
  (:mod:`repro.core.bitpacked`, 64 trials per ``uint64`` word) through the
  streaming engine: Probe_Maj on ``Maj(1001)``, Probe_CW on
  ``Triang(45)``, Probe_Tree (h=9) and Probe_HQS (h=6) at 10^6 trials
  (10^5 in ``--quick``).
* ``packed_sampling`` — the bit-plane Bernoulli sampler
  (:meth:`~repro.core.distributions.BernoulliSource.sample_words` through
  ``sample_packed``) against the packed kernel it feeds, per algorithm at
  ``p ∈ {1/2, 0.3}`` and 4,096 / 65,536 trials: the sample/kernel split.
* ``exact_packed_dp`` — the word-batched packed mask-DP
  (``ExactSolver.packed_probe_complexity``) versus the trit-table sweep
  (``n ≤ 15``) and the sparse dict DP it replaces for ``15 < n ≤ 21``.

Use ``benchmarks/compare_bench.py`` to diff two snapshots and flag >20%
regressions in any shared metric, or ``--history`` to render the perf
trajectory across every committed snapshot.
"""

from __future__ import annotations

import argparse
import datetime
import json
import platform
import random
import sys
import time
from functools import lru_cache
from pathlib import Path

# Where the default ``BENCH_<date>.json`` goes (and where ``src`` is found).
REPO_ROOT = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.algorithms import (  # noqa: E402
    IRProbeHQS,
    ProbeCW,
    ProbeHQS,
    ProbeMaj,
    ProbeTree,
    RProbeHQS,
    RProbeTree,
)
from repro.core.coloring import Coloring  # noqa: E402
from repro.core.distributions import sample_bernoulli_matrix  # noqa: E402
from repro.core.engine import stream_probes  # noqa: E402
from repro.core.estimator import Estimate  # noqa: E402
from repro.core.exact import ExactSolver  # noqa: E402
from repro.systems import (  # noqa: E402
    HQS,
    CrumblingWall,
    MajoritySystem,
    TreeSystem,
    TriangSystem,
)
from repro.systems.boolean import CharacteristicFunction  # noqa: E402


def legacy_ppc(system, p: float) -> float:
    """The seed implementation of ``probabilistic_probe_complexity``:
    frozenset knowledge states, per-call ``lru_cache``, frozenset witness
    test.  Kept verbatim as the speedup baseline."""
    f = CharacteristicFunction(system)
    universe = tuple(sorted(system.universe))
    q = 1.0 - p

    def witness_settled(green: frozenset[int], red: frozenset[int]):
        if system.contains_quorum(green):
            return "green"
        if not system.contains_quorum(system.universe - red):
            return "red"
        return None

    @lru_cache(maxsize=None)
    def value(green: frozenset[int], red: frozenset[int]) -> float:
        if witness_settled(green, red) is not None:
            return 0.0
        remaining = [e for e in universe if e not in green and e not in red]
        return 1.0 + min(
            q * value(green | {e}, red) + p * value(green, red | {e})
            for e in remaining
        )

    return value(frozenset(), frozenset())


def timed(fn, repeat: int = 1):
    """Best-of-``repeat`` wall-clock seconds plus the last return value."""
    best = float("inf")
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def bench_exact_solver(quick: bool) -> dict:
    widths = [1, 2, 3, 3, 3] if quick else [1, 2, 2, 3, 3, 3]
    system = CrumblingWall(widths)
    p = 0.5
    solver = ExactSolver(system)
    mask_seconds, mask_value = timed(lambda: solver.probabilistic_probe_complexity(p))
    warm_seconds, _ = timed(lambda: solver.probabilistic_probe_complexity(0.3))
    legacy_seconds, legacy_value = timed(lambda: legacy_ppc(system, p))
    assert abs(mask_value - legacy_value) < 1e-9, (mask_value, legacy_value)
    return {
        "system": system.name,
        "n": system.n,
        "p": p,
        "ppc_value": mask_value,
        "mask_dp_seconds": mask_seconds,
        "mask_dp_second_p_seconds": warm_seconds,
        "legacy_frozenset_dp_seconds": legacy_seconds,
        "speedup": legacy_seconds / mask_seconds,
    }


def per_trial_estimate(algorithm, p: float, trials: int, seed: int) -> Estimate:
    """The per-trial reference loop: draw one i.i.d. coloring and run the
    algorithm on it, once per trial, from one ``random.Random`` stream."""
    rng = random.Random(seed)
    n = algorithm.system.n
    return Estimate.from_samples(
        [algorithm.run_on(Coloring.random(n, p, rng), rng=rng).probes for _ in range(trials)]
    )


def _bench_batched_vs_loop(cases: list, trials: int, p: float = 0.5) -> list[dict]:
    """Time one kernel call (a one-chunk engine run) against the per-trial
    loop for each case."""
    results = []
    for name, algorithm in cases:
        batched_seconds, batched_estimate = timed(
            lambda: stream_probes(
                algorithm, p=p, trials=trials, chunk_size=trials, seed=1
            ).estimate,
            repeat=3,
        )
        loop_seconds, loop_estimate = timed(
            lambda: per_trial_estimate(algorithm, p, trials=trials, seed=1)
        )
        results.append(
            {
                "algorithm": name,
                "system": algorithm.system.name,
                "n": algorithm.system.n,
                "trials": trials,
                "batched_seconds": batched_seconds,
                "per_trial_loop_seconds": loop_seconds,
                "speedup": loop_seconds / batched_seconds,
                "batched_mean_probes": batched_estimate.mean,
                "loop_mean_probes": loop_estimate.mean,
            }
        )
    return results


def bench_batched_montecarlo(quick: bool) -> list[dict]:
    trials = 200 if quick else 1000
    cases = [
        ("ProbeMaj", ProbeMaj(MajoritySystem(1001))),
        ("ProbeCW", ProbeCW(TriangSystem(45))),  # n = 1035
    ]
    return _bench_batched_vs_loop(cases, trials)


def bench_batched_gates(quick: bool) -> list[dict]:
    trials = 200 if quick else 1000
    tree_height = 7 if quick else 9  # n = 255 / 1023
    hqs_height = 5 if quick else 6  # n = 243 / 729
    cases = [
        ("ProbeTree", ProbeTree(TreeSystem(tree_height))),
        ("RProbeTree", RProbeTree(TreeSystem(tree_height))),
        ("ProbeHQS", ProbeHQS(HQS(hqs_height))),
        ("RProbeHQS", RProbeHQS(HQS(hqs_height))),
        ("IRProbeHQS", IRProbeHQS(HQS(hqs_height))),
    ]
    return _bench_batched_vs_loop(cases, trials)


def bench_coloring_sampling(quick: bool) -> dict:
    n = 2000
    count = 200 if quick else 1000
    rng = random.Random(5)
    single_seconds, _ = timed(
        lambda: [Coloring.random(n, 0.5, rng) for _ in range(count)]
    )
    batch_seconds, _ = timed(lambda: sample_bernoulli_matrix(n, 0.5, count, rng=7))
    return {
        "n": n,
        "colorings": count,
        "random_seconds": single_seconds,
        "random_batch_seconds": batch_seconds,
    }


def bench_distribution_sampling(quick: bool) -> list[dict]:
    """Batched versus per-trial sampling for every registered source.

    ``batched_seconds`` times ``source.sample_matrix`` (one call for the
    whole batch); ``per_trial_seconds`` times the scalar path each
    scenario used before the unified source layer — a ``random.Random``
    loop building one :class:`~repro.core.coloring.Coloring` per trial
    (with its range checks) for the failure scenarios, and per-draw sampler
    functions with their row/subtree work hoisted for the Yao/HQS hard
    families — which is the loop the batched consumers replace.
    """
    from repro.core.distributions import build_source

    trials = 200 if quick else 1000
    p = 0.3
    maj = MajoritySystem(1001)
    triang = TriangSystem(45)  # n = 1035
    tree = TreeSystem(9)  # n = 1023
    hqs = HQS(6)  # n = 729
    reds = round(p * maj.n)

    def coloring_loop(failed, n):
        rng = random.Random(11)
        return lambda: [Coloring(n, failed(n, rng)) for _ in range(trials)]

    def bernoulli(n, rng):
        return frozenset(e for e in range(1, n + 1) if rng.random() < p)

    def fixed_count(n, rng):
        return frozenset(rng.sample(range(1, n + 1), reds))

    # The per-draw range checks below are part of the scalar work the old
    # per-trial path did (most of it for ``adversarial``); keep them so
    # ``per_trial_seconds`` stays comparable across snapshots.
    groups = [frozenset(row) for row in triang.rows]

    def correlated_groups(n, rng):
        failed: set[int] = set()
        for group in groups:
            if any(not 1 <= e <= n for e in group):
                raise ValueError("group contains elements outside the universe")
            if rng.random() < p:
                failed.update(group)
        return frozenset(failed)

    adversarial_set = frozenset(range(1, reds + 1))

    def adversarial(n, rng):
        if any(not 1 <= e <= n for e in adversarial_set):
            raise ValueError("failed set contains elements outside the universe")
        return adversarial_set

    def sampler_loop(sampler):
        rng = random.Random(13)
        return lambda: [sampler(rng) for _ in range(trials)]

    # Per-draw samplers of the hard families (Thms 4.2/4.6/4.8, Lemma 4.11).
    def majority_hard(rng):
        return Coloring(maj.n, rng.sample(range(1, maj.n + 1), maj.quorum_size))

    cw_rows = [sorted(row) for row in triang.rows]

    def cw_hard(rng):
        return Coloring(triang.n, triang.universe - {rng.choice(row) for row in cw_rows})

    tree_trios = [
        [v, *tree.children(v)]
        for v in range(1, tree.n + 1)
        if tree.depth_of(v) == tree.height - 1
    ]

    def tree_hard(rng):
        red: set[int] = set()
        for trio in tree_trios:
            green = rng.choice(trio)
            red.update(v for v in trio if v != green)
        return Coloring(tree.n, red)

    def hqs_family_p(rng):
        red: set[int] = set()

        def assign(node: int, value_red: bool) -> None:
            if hqs.is_leaf_node(node):
                if value_red:
                    red.add(hqs.leaf_to_element(node))
                return
            minority = rng.randrange(3)
            for index, child in enumerate(hqs.children(node)):
                assign(child, value_red != (index == minority))

        assign(hqs.root, rng.random() < 0.5)
        return Coloring(hqs.n, red)

    cases = [
        ("bernoulli", maj, coloring_loop(bernoulli, maj.n)),
        ("fixed_count", maj, coloring_loop(fixed_count, maj.n)),
        ("correlated_groups", triang, coloring_loop(correlated_groups, triang.n)),
        ("adversarial", maj, coloring_loop(adversarial, maj.n)),
        ("majority_hard", maj, sampler_loop(majority_hard)),
        ("cw_hard", triang, sampler_loop(cw_hard)),
        ("tree_hard", tree, sampler_loop(tree_hard)),
        ("hqs_family_p", hqs, sampler_loop(hqs_family_p)),
    ]
    results = []
    for name, system, per_trial in cases:
        source = build_source(name, system, p)
        batched_seconds, red = timed(
            lambda: source.sample_matrix(system.n, trials, rng=17), repeat=3
        )
        assert red.shape == (trials, system.n)
        per_trial_seconds, _ = timed(per_trial)
        results.append(
            {
                "source": name,
                "system": system.name,
                "n": system.n,
                "trials": trials,
                "batched_seconds": batched_seconds,
                "per_trial_seconds": per_trial_seconds,
                "speedup": per_trial_seconds / batched_seconds,
            }
        )
    return results


def bench_runner_overhead(quick: bool) -> dict:
    """Registry dispatch + artifact write versus a direct driver call.

    Uses the ``lemmas`` experiment.  The runner path must reproduce the
    direct rows exactly — the assert pins registry/driver parity inside
    the benchmark itself.  ``dispatch_overhead_seconds`` times the
    runner's own work directly: spec resolution, environment metadata,
    the ``RunResult`` build and the artifact write, with the registered
    driver swapped for one that returns the rows already computed.  (The
    difference of the two ~3 s driver timings moved by ±0.3 s run to run
    on a 2-vCPU host, which drowned the few milliseconds it measured.)
    """
    import dataclasses
    import tempfile

    from repro.experiments import registry
    from repro.experiments.lemmas import run_urn_experiment, run_walk_experiment
    from repro.experiments.runner import run_experiment, write_artifact

    trials = 60 if quick else 200
    direct_seconds, direct_rows = timed(
        lambda: run_walk_experiment(trials=trials) + run_urn_experiment(trials=trials),
        repeat=3,
    )
    runner_seconds, result = timed(
        lambda: run_experiment("lemmas", {"trials": trials}), repeat=3
    )
    assert list(result.rows) == direct_rows, "runner rows diverge from direct driver"
    spec = registry.get_spec("lemmas")
    replay = dataclasses.replace(
        spec, driver=lambda **_: registry.DriverResult(rows=list(direct_rows))
    )
    registry._REGISTRY["lemmas"] = replay
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "lemmas.json"
            dispatch_seconds, _ = timed(
                lambda: write_artifact(run_experiment("lemmas", {"trials": trials}), path),
                repeat=10,
            )
            write_seconds, _ = timed(lambda: write_artifact(result, path), repeat=3)
    finally:
        registry._REGISTRY["lemmas"] = spec
    return {
        "experiment": "lemmas",
        "trials": trials,
        "rows": len(result.rows),
        "direct_driver_seconds": direct_seconds,
        "runner_seconds": runner_seconds,
        "dispatch_overhead_seconds": dispatch_seconds,
        "artifact_write_seconds": write_seconds,
    }


def bench_streaming_engine(quick: bool) -> dict:
    """Chunked/sharded/adaptive engine versus a one-chunk engine run.

    ``chunked_vs_one_shot`` cases must hold the acceptance bar (≥ ~0.9x
    one-shot throughput at equal trials; the assert below pins mean
    byte-identity, the ratio records the overhead).  The ``target_ci``
    case sizes a fixed-trial baseline to reach a tolerance at the critical
    ``p = 1/2`` of Maj(1001) and then lets the adaptive mode run a
    two-point grid {easy p, critical p} at that tolerance: the easy cell
    stops early, so the adaptive total stays below two fixed cells.
    """
    from functools import partial

    from repro.algorithms import RProbeCW
    from repro.core.distributions import BernoulliSource

    trials = 2000 if quick else 20000
    chunk = 512 if quick else 2048
    maj = MajoritySystem(1001)
    cases = []
    for name, algorithm, p in (
        ("ProbeMaj", ProbeMaj(maj), 0.5),
        ("RProbeCW", RProbeCW(TriangSystem(45)), 0.5),
    ):
        source = BernoulliSource(algorithm.system.n, p)
        one_shot_seconds, one_shot = timed(
            partial(
                stream_probes, algorithm, source, trials=trials, chunk_size=trials, seed=1
            ),
            repeat=3,
        )
        chunked_seconds, chunked = timed(
            partial(
                stream_probes, algorithm, source, trials=trials, chunk_size=chunk, seed=1
            ),
            repeat=3,
        )
        if not algorithm.randomized:
            # Deterministic kernels under stream-aligned sources: the
            # chunked mean must be byte-identical to the one-shot path.
            assert chunked.mean == one_shot.mean, (chunked.mean, one_shot.mean)
        # Time the sharded run against a pre-warmed shared pool (best of
        # 3), so the metric measures sharded throughput, not the one-off
        # worker spawn cost — which varies wildly across CI hosts and
        # would make the compare_bench gate flaky.
        from repro.core.engine import ChunkPool

        with ChunkPool(max_workers=2) as pool:
            stream_probes(
                algorithm, source, trials=chunk, chunk_size=chunk, seed=1,
                jobs=2, executor=pool,
            )  # warm the workers
            sharded_seconds, sharded = timed(
                partial(
                    stream_probes,
                    algorithm,
                    source,
                    trials=trials,
                    chunk_size=chunk,
                    seed=1,
                    jobs=2,
                    executor=pool,
                ),
                repeat=3,
            )
        assert sharded.mean == chunked.mean, "sharded run diverged from sequential"
        cases.append(
            {
                "algorithm": name,
                "system": algorithm.system.name,
                "n": algorithm.system.n,
                "trials": trials,
                "chunk_size": chunk,
                "one_shot_seconds": one_shot_seconds,
                "chunked_seconds": chunked_seconds,
                "sharded_2_jobs_seconds": sharded_seconds,
                "chunked_throughput_ratio": one_shot_seconds / chunked_seconds,
            }
        )

    # Adaptive mode: fixed baseline sized for the near-critical p.  The
    # probe-count variance of Probe_Maj peaks on the shoulders of the
    # p = 1/2 transition (at exactly 1/2 the scan saturates near n, which
    # clamps the variance), so "near critical" is p = 0.45.
    algorithm = ProbeMaj(maj)
    fixed_trials = 4000 if quick else 40000
    critical_p, easy_p = 0.45, 0.2
    fixed_critical = stream_probes(
        algorithm, p=critical_p, trials=fixed_trials, chunk_size=chunk, seed=2
    )
    tolerance = fixed_critical.ci95 * 1.02
    adaptive = {}
    for label, p in (("critical", critical_p), ("easy", easy_p)):
        result = stream_probes(
            algorithm,
            p=p,
            target_ci=tolerance,
            chunk_size=chunk,
            max_trials=4 * fixed_trials,
            seed=2,
        )
        adaptive[label] = result
    total_adaptive = sum(r.n_trials_used for r in adaptive.values())
    return {
        "chunked_vs_one_shot": cases,
        "target_ci": {
            "system": maj.name,
            "n": maj.n,
            "tolerance_ci95": tolerance,
            "fixed_trials_per_cell": fixed_trials,
            "fixed_grid_trials": 2 * fixed_trials,
            "critical_p": critical_p,
            "easy_p": easy_p,
            "adaptive_trials_critical": adaptive["critical"].n_trials_used,
            "adaptive_trials_easy": adaptive["easy"].n_trials_used,
            "adaptive_grid_trials": total_adaptive,
            "reached_tolerance": all(r.reached_target for r in adaptive.values()),
            "trials_saved_ratio": (2 * fixed_trials) / total_adaptive,
        },
    }


def bench_bitpacked_kernels(quick: bool) -> list[dict]:
    """The deterministic algorithms' packed kernels through the streaming
    engine, 65,536-trial chunks, best of 3 (``--quick``) or one run."""
    trials = 100_000 if quick else 1_000_000
    chunk = 65_536
    repeat = 3 if quick else 1
    cases = [
        ("ProbeMaj", ProbeMaj(MajoritySystem(1001)), 0.5),
        ("ProbeCW", ProbeCW(TriangSystem(45)), 0.5),
        ("ProbeTree", ProbeTree(TreeSystem(9)), 0.5),
        ("ProbeHQS", ProbeHQS(HQS(6)), 0.5),
    ]
    results = []
    for name, algorithm, p in cases:
        seconds, result = timed(
            lambda: stream_probes(algorithm, p=p, trials=trials, chunk_size=chunk, seed=1),
            repeat=repeat,
        )
        assert result.backend == "bitpacked", f"{name} ran on {result.backend}"
        results.append(
            {
                "algorithm": name,
                "system": algorithm.system.name,
                "n": algorithm.system.n,
                "trials": trials,
                "chunk_size": chunk,
                "bitpacked_seconds": seconds,
                "mean_probes": result.mean,
            }
        )
    return results


def bench_packed_sampling(quick: bool) -> list[dict]:
    """The bit-plane Bernoulli sampler and the sample/kernel split.

    For every algorithm of the ``packed-fixed`` workload at ``p ∈ {1/2,
    0.3}`` and 4,096 / 65,536 trials: ``sample_seconds`` times
    :func:`~repro.core.bitpacked.sample_packed`, ``kernel_seconds`` the
    packed kernel on that sample, and ``sample_share`` is the sampler's
    part of the two (best of 3 each, both sizes in ``--quick`` too).
    """
    from repro.core.bitpacked import run_packed, sample_packed
    from repro.core.distributions import BernoulliSource

    cases = [
        ("ProbeMaj", ProbeMaj(MajoritySystem(1001))),
        ("ProbeCW", ProbeCW(TriangSystem(45))),  # n = 1035
        ("ProbeTree", ProbeTree(TreeSystem(9))),  # n = 1023
        ("ProbeHQS", ProbeHQS(HQS(6))),  # n = 729
    ]
    results = []
    for trials in (4096, 65_536):
        for p in (0.5, 0.3):
            for name, algorithm in cases:
                n = algorithm.system.n
                source = BernoulliSource(n, p)
                sample_seconds, packed = timed(
                    lambda: sample_packed(source, n, trials, rng=1), repeat=3
                )
                kernel_seconds, _ = timed(lambda: run_packed(algorithm, packed), repeat=3)
                results.append(
                    {
                        "algorithm": name,
                        "system": algorithm.system.name,
                        "name": f"p={p}/trials={trials}",
                        "n": n,
                        "p": p,
                        "trials": trials,
                        "planes_per_word": source.draws_per_word // n,
                        "sample_seconds": sample_seconds,
                        "kernel_seconds": kernel_seconds,
                        "sample_share": sample_seconds / (sample_seconds + kernel_seconds),
                    }
                )
    return results


def bench_exact_packed_dp(quick: bool) -> list[dict]:
    """Word-batched packed mask-DP versus the older exact-PC routes.

    Each case builds fresh solvers (the routes cache per instance) and
    times the trit-table sweep (``n ≤ 15`` only), the packed mask-DP and —
    where it finishes in reasonable time — the sparse dict DP the packed
    sweep replaces for ``15 < n ≤ 21``.  All routes must agree on PC.
    """
    from repro.core.exact import _TABLE_DP_LIMIT

    cases = (
        [(MajoritySystem(11), True)]
        if quick
        else [
            (CrumblingWall([1, 3, 3, 3, 3]), True),  # n = 13: all three routes
            (TreeSystem(3), False),  # n = 15: the table-limit boundary
            (CrumblingWall([1, 3, 3, 3, 3, 3]), False),  # n = 16: packed-only
        ]
    )
    results = []
    for system, time_dict_dp in cases:
        label = system.name
        table_seconds = None
        if system.n <= _TABLE_DP_LIMIT:
            solver = ExactSolver(system)
            table_seconds, table_pc = timed(solver.probe_complexity)
        solver = ExactSolver(system)
        packed_seconds, packed_pc = timed(solver.packed_probe_complexity)
        if table_seconds is not None:
            assert packed_pc == table_pc, (label, packed_pc, table_pc)
        entry = {
            "system": system.name,
            "n": system.n,
            "pc": packed_pc,
            "packed_dp_seconds": packed_seconds,
        }
        if table_seconds is not None:
            entry["table_dp_seconds"] = table_seconds
            entry["speedup"] = table_seconds / packed_seconds
        if time_dict_dp:
            solver = ExactSolver(system)
            # The sparse dict DP is the route the packed sweep replaces;
            # private, but this benchmark pins exactly that replacement.
            dict_seconds, dict_pc = timed(lambda: solver._pc_value(0, 0))
            assert dict_pc == packed_pc, (label, dict_pc, packed_pc)
            entry["dict_dp_seconds"] = dict_seconds
        results.append(entry)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="smaller sizes for CI smoke runs"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help=(
            "output path, overwritten if present (default: BENCH_<date>.json "
            "in the repo root, which must not exist yet)"
        ),
    )
    args = parser.parse_args(argv)

    date = datetime.date.today().isoformat()
    output = args.output
    if output is None:
        output = REPO_ROOT / f"BENCH_{date}.json"
        if output.exists():
            print(
                f"error: {output} already exists; refusing to overwrite a "
                "committed snapshot. Pass --output PATH to write elsewhere "
                "(an explicit --output is overwritten).",
                file=sys.stderr,
            )
            return 2

    snapshot = {
        "date": date,
        "quick": args.quick,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "exact_solver": bench_exact_solver(args.quick),
        "batched_montecarlo": bench_batched_montecarlo(args.quick),
        "batched_gates": bench_batched_gates(args.quick),
        "coloring_sampling": bench_coloring_sampling(args.quick),
        "distribution_sampling": bench_distribution_sampling(args.quick),
        "runner_overhead": bench_runner_overhead(args.quick),
        "streaming_engine": bench_streaming_engine(args.quick),
        "bitpacked_kernels": bench_bitpacked_kernels(args.quick),
        "exact_packed_dp": bench_exact_packed_dp(args.quick),
        "packed_sampling": bench_packed_sampling(args.quick),
    }
    output.write_text(json.dumps(snapshot, indent=2) + "\n")
    print(json.dumps(snapshot, indent=2))
    print(f"\nwrote {output}")
    exact = snapshot["exact_solver"]
    print(
        f"exact PPC n={exact['n']}: mask DP {exact['mask_dp_seconds']:.2f}s "
        f"vs legacy {exact['legacy_frozenset_dp_seconds']:.2f}s "
        f"({exact['speedup']:.1f}x)"
    )
    for case in snapshot["batched_montecarlo"] + snapshot["batched_gates"]:
        print(
            f"{case['algorithm']} n={case['n']} x{case['trials']}: batched "
            f"{case['batched_seconds']*1e3:.1f}ms vs loop "
            f"{case['per_trial_loop_seconds']*1e3:.1f}ms ({case['speedup']:.0f}x)"
        )
    for case in snapshot["distribution_sampling"]:
        print(
            f"sample {case['source']} n={case['n']} x{case['trials']}: batched "
            f"{case['batched_seconds']*1e3:.1f}ms vs per-trial "
            f"{case['per_trial_seconds']*1e3:.1f}ms ({case['speedup']:.0f}x)"
        )
    overhead = snapshot["runner_overhead"]
    print(
        f"runner overhead ({overhead['experiment']} x{overhead['trials']}): dispatch "
        f"{overhead['dispatch_overhead_seconds']*1e3:+.1f}ms on "
        f"{overhead['direct_driver_seconds']*1e3:.1f}ms direct, artifact write "
        f"{overhead['artifact_write_seconds']*1e3:.1f}ms"
    )
    engine = snapshot["streaming_engine"]
    for case in engine["chunked_vs_one_shot"]:
        print(
            f"engine {case['algorithm']} n={case['n']} x{case['trials']} "
            f"chunk {case['chunk_size']}: chunked {case['chunked_seconds']*1e3:.1f}ms "
            f"vs one-shot {case['one_shot_seconds']*1e3:.1f}ms "
            f"({case['chunked_throughput_ratio']:.2f}x throughput)"
        )
    adaptive = engine["target_ci"]
    print(
        f"engine target_ci on {adaptive['system']} @ ci95<={adaptive['tolerance_ci95']:.3f}: "
        f"adaptive {adaptive['adaptive_grid_trials']} trials vs fixed grid "
        f"{adaptive['fixed_grid_trials']} ({adaptive['trials_saved_ratio']:.2f}x fewer, "
        f"reached={adaptive['reached_tolerance']})"
    )
    for case in snapshot["bitpacked_kernels"]:
        print(
            f"bitpacked {case['algorithm']} n={case['n']} x{case['trials']}: "
            f"{case['bitpacked_seconds']*1e3:.1f}ms"
        )
    for case in snapshot["packed_sampling"]:
        print(
            f"packed sampling {case['algorithm']} n={case['n']} p={case['p']} "
            f"x{case['trials']}: sample {case['sample_seconds']*1e3:.2f}ms, kernel "
            f"{case['kernel_seconds']*1e3:.2f}ms ({case['sample_share']:.0%} sampling)"
        )
    for case in snapshot["exact_packed_dp"]:
        line = (
            f"exact PC {case['system']} n={case['n']}: packed DP "
            f"{case['packed_dp_seconds']:.2f}s"
        )
        if "table_dp_seconds" in case:
            line += (
                f" vs table {case['table_dp_seconds']:.2f}s"
                f" ({case['speedup']:.1f}x)"
            )
        if "dict_dp_seconds" in case:
            line += f" vs dict {case['dict_dp_seconds']:.2f}s"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
