"""Ground-truth calibration of the Monte-Carlo entry point.

The other engine tests pin backends, chunk layouts and transports against
each other.  These check :func:`repro.core.engine.stream_probes` against the
exact expectation ``E_p[probes]``, computed independently of every kernel by
enumerating all ``2^n`` colorings through ``algorithm.run_on`` and weighting
each by ``p^r (1 - p)^(n - r)``.  Over 200 fixed seeds the engine's 95%
confidence interval must cover that value at close to its nominal rate.
Each case names the backend it requests, which the engine validates; every
case runs on its algorithm's one kernel, all of them packed.  For ProbeHQS
the enumerated value is also checked against the closed recursion of
:mod:`repro.experiments.hqs`.

The randomized gate algorithms R_Probe_Tree, R_Probe_HQS and IR_Probe_HQS
get the same check against an exact oracle: their order choices are
independent per node, so by linearity the expected probes on a fixed
coloring follow a small recursion over the system's own node structure
that averages the three evaluation orders (Tree), the six child
permutations (HQS) or the 36 pairs of child order and grandchild order
(IR_Probe_HQS) at every node, and ``E_p[probes]`` weights that over all
colorings.  The ``O(h)``
recursions of :mod:`repro.analysis.availability` must agree with that
oracle, and then stand in for it at the sizes the sweeps run (Tree(h=9),
HQS(6)), where enumeration is out of reach.

The same oracles also check the paper's ordering: ``PPC_p(S)``
(:meth:`repro.core.exact.ExactSolver.probabilistic_probe_complexity`) is
the least ``E_p[probes]`` of any algorithm on ``S``, so every algorithm's
exact expectation is at least that optimum, and Probe_Maj, which the paper
proves optimal on Maj(n), attains it.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np
import pytest

from repro.algorithms import (
    IRProbeHQS,
    ProbeCW,
    ProbeHQS,
    ProbeMaj,
    ProbeTree,
    RProbeHQS,
    RProbeTree,
)
from repro.analysis.availability import hqs_expected_probes, r_probe_tree_expected_probes
from repro.core.coloring import Coloring
from repro.core.engine import stream_probes
from repro.core.exact import ExactSolver
from repro.experiments.hqs import probe_hqs_expected_exact
from repro.systems import HQS, CrumblingWall, MajoritySystem, TreeSystem

SEEDS = range(200)
TRIALS = 400


def exact_expected_probes(algorithm, p: float) -> float:
    """``E_p[probes]`` of a deterministic algorithm by full enumeration."""
    n = algorithm.system.n
    total = 0.0
    for mask in range(1 << n):
        reds = mask.bit_count()
        weight = p**reds * (1.0 - p) ** (n - reds)
        total += weight * algorithm.run_on(Coloring.from_red_mask(n, mask)).probes
    return total


def _all_colorings(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every coloring of ``n`` elements as a ``(2^n, n)`` red matrix
    (column ``e - 1`` is element ``e``) and its red counts."""
    red = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1 == 1
    return red, red.sum(axis=1)


def _r_probe_tree_oracle(system: TreeSystem, red: np.ndarray, v: int):
    """``(value, expected probes)`` of R_Probe_Tree's call at node ``v``,
    per coloring row; heap node ``v`` is element ``v``."""
    e = red[:, v - 1]
    if system.is_leaf(v):
        return e, np.ones(len(red))
    (l_val, l_cost), (r_val, r_cost) = (
        _r_probe_tree_oracle(system, red, child) for child in system.children(v)
    )
    orders = [
        1 + r_cost + (r_val != e) * l_cost,  # root, right, then left
        1 + l_cost + (l_val != e) * r_cost,  # root, left, then right
        l_cost + r_cost + (l_val != r_val),  # left, right, then root
    ]
    return np.where(r_val == e, e, l_val), sum(orders) / 3


def _r_probe_hqs_oracle(system: HQS, red: np.ndarray, v: int):
    """``(value, expected probes)`` of R_Probe_HQS's call at node ``v``."""
    if system.is_leaf_node(v):
        return red[:, system.leaf_to_element(v) - 1], np.ones(len(red))
    children = [_r_probe_hqs_oracle(system, red, child) for child in system.children(v)]
    orders = [
        children[a][1] + children[b][1] + (children[a][0] != children[b][0]) * children[c][1]
        for a, b, c in permutations(range(3))
    ]
    values = [value for value, _ in children]
    return (values[0] & values[1]) | (values[2] & (values[0] | values[1])), sum(orders) / 6


def _ir_probe_hqs_oracle(system: HQS, red: np.ndarray, v: int):
    """``(value, expected probes)`` of IR_Probe_HQS's call at node ``v``.

    A gate of height >= 2 draws an order ``(r1, r2, r3)`` of its children
    and an order ``(g1, g2, g3)`` of ``r2``'s children.  It evaluates
    ``r1`` and peeks at ``g1``; on agreement it finishes ``r2`` (``g2``,
    then ``g3`` if ``g1`` and ``g2`` differ) and then ``r3`` if ``r2``
    differs from ``r1``; otherwise it evaluates ``r3`` and then finishes
    ``r2`` if ``r3`` differs from ``r1``.  Each part is a standalone call,
    whose expected cost is independent of the gate's draws, so the gate's
    expectation averages the 36 order pairs over the parts' expectations.
    Height-1 gates are R_Probe_HQS gates.
    """
    if system.is_leaf_node(v) or system.is_leaf_node(system.children(v)[0]):
        return _r_probe_hqs_oracle(system, red, v)
    kids = list(system.children(v))
    children = [_ir_probe_hqs_oracle(system, red, child) for child in kids]
    grand = [
        [_ir_probe_hqs_oracle(system, red, g) for g in system.children(child)] for child in kids
    ]
    total = 0.0
    for r1, r2, r3 in permutations(range(3)):
        (v1, c1), (v2, _), (v3, c3) = children[r1], children[r2], children[r3]
        for g1, g2, g3 in permutations(range(3)):
            (peek_v, peek_c), (second_v, second_c), (_, third_c) = (
                grand[r2][g1], grand[r2][g2], grand[r2][g3]
            )
            finish = second_c + (peek_v != second_v) * third_c
            total = total + c1 + peek_c + np.where(
                peek_v == v1,
                finish + (v2 != v1) * c3,
                c3 + (v3 != v1) * finish,
            )
    values = [value for value, _ in children]
    return (values[0] & values[1]) | (values[2] & (values[0] | values[1])), total / 36


def exact_randomized_expected_probes(algorithm, p: float) -> float:
    """``E_p[probes]`` of R_Probe_Tree, R_Probe_HQS or IR_Probe_HQS: the
    oracle's per-coloring expectation weighted by ``p^r (1 - p)^(n - r)``."""
    system = algorithm.system
    red, reds = _all_colorings(system.n)
    if isinstance(system, TreeSystem):
        oracle = _r_probe_tree_oracle
    elif isinstance(algorithm, IRProbeHQS):
        oracle = _ir_probe_hqs_oracle
    else:
        oracle = _r_probe_hqs_oracle
    _, expected = oracle(system, red, system.root)
    weights = p**reds * (1.0 - p) ** (system.n - reds)
    return float(weights @ expected)


def exact_expectation(algorithm, p: float) -> float:
    """``E_p[probes]`` through whichever oracle fits the algorithm."""
    if algorithm.randomized:
        return exact_randomized_expected_probes(algorithm, p)
    return exact_expected_probes(algorithm, p)


CASES = [
    pytest.param(
        ProbeMaj(MajoritySystem(15)), 0.45, 12.73681, "numpy", id="ProbeMaj-Maj15-p0.45"
    ),
    pytest.param(ProbeTree(TreeSystem(3)), 0.4, 7.78995, "numpy", id="ProbeTree-h3-p0.4"),
    pytest.param(RProbeTree(TreeSystem(3)), 0.3, 8.03265, "numpy", id="RProbeTree-h3-p0.3"),
    pytest.param(RProbeTree(TreeSystem(3)), 0.5, 9.16667, "numpy", id="RProbeTree-h3-p0.5"),
    pytest.param(RProbeHQS(HQS(2)), 0.3, 5.65962, "numpy", id="RProbeHQS-h2-p0.3"),
    pytest.param(RProbeHQS(HQS(2)), 0.5, 6.25, "numpy", id="RProbeHQS-h2-p0.5"),
    pytest.param(
        IRProbeHQS(HQS(2)), 0.3, 5.61552, "bitpacked", id="IRProbeHQS-h2-p0.3-bitpacked"
    ),
    pytest.param(
        IRProbeHQS(HQS(2)), 0.5, 6.1875, "bitpacked", id="IRProbeHQS-h2-p0.5-bitpacked"
    ),
    pytest.param(
        ProbeCW(CrumblingWall([1, 2, 3, 3, 3])), 0.4, 7.54480, "bitpacked",
        id="ProbeCW-CW12-p0.4-bitpacked",
    ),
    pytest.param(ProbeHQS(HQS(2)), 0.4, 6.09136, "bitpacked", id="ProbeHQS-h2-p0.4-bitpacked"),
]


def test_probe_hqs_enumeration_matches_the_recursion():
    enumerated = exact_expected_probes(ProbeHQS(HQS(2)), 0.4)
    assert enumerated == pytest.approx(probe_hqs_expected_exact(2, 0.4), abs=1e-12)


def _coverage(algorithm, p: float, exact: float, backend: str | None = None) -> float:
    covered = 0
    for seed in SEEDS:
        result = stream_probes(algorithm, p=p, trials=TRIALS, seed=seed, backend=backend)
        assert result.n_trials_used == TRIALS
        covered += abs(result.mean - exact) <= result.ci95
    return covered / len(SEEDS)


@pytest.mark.parametrize("algorithm,p,approx,backend", CASES)
def test_ci95_covers_the_exact_expectation(algorithm, p, approx, backend):
    """Tolerance: over 200 fixed seeds the nominal 95% interval covers the
    exact value at a rate within [0.90, 0.99], about -3.2 and +2.6 binomial
    standard errors (0.015) around 0.95."""
    exact = exact_expectation(algorithm, p)
    assert exact == pytest.approx(approx, abs=1e-5)
    coverage = _coverage(algorithm, p, exact, backend)
    assert 0.90 <= coverage <= 0.99, coverage


def _recursion(algorithm, p: float) -> float:
    system = algorithm.system
    if isinstance(system, TreeSystem):
        return r_probe_tree_expected_probes(system.height, p)
    return hqs_expected_probes(system.height, p)


@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 0.8])
@pytest.mark.parametrize(
    "algorithm",
    [RProbeTree(TreeSystem(h)) for h in range(4)] + [RProbeHQS(HQS(h)) for h in range(3)],
    ids=lambda algorithm: f"{algorithm.name}-n{algorithm.system.n}",
)
def test_expectation_recursions_match_the_oracle(algorithm, p):
    assert _recursion(algorithm, p) == pytest.approx(
        exact_randomized_expected_probes(algorithm, p), abs=1e-9
    )


@pytest.mark.parametrize(
    "algorithm,p,approx",
    [
        pytest.param(RProbeTree(TreeSystem(9)), 0.3, 125.05367, id="RProbeTree-h9-p0.3"),
        pytest.param(RProbeTree(TreeSystem(9)), 0.5, 222.01532, id="RProbeTree-h9-p0.5"),
        pytest.param(RProbeHQS(HQS(6)), 0.5, 2.5**6, id="RProbeHQS-h6-p0.5"),
    ],
)
def test_ci95_covers_the_recursion_at_full_size(algorithm, p, approx):
    """The packed kernels at the sizes the sweeps run, against the exact
    recursion.  Same tolerance as the enumerated cases: coverage within
    [0.90, 0.99] over 200 fixed seeds of 400 trials."""
    exact = _recursion(algorithm, p)
    assert exact == pytest.approx(approx, abs=1e-5)
    coverage = _coverage(algorithm, p, exact)
    assert 0.90 <= coverage <= 0.99, coverage


@pytest.mark.parametrize(
    "system,algorithms,p,optimum,expected",
    [
        pytest.param(MajoritySystem(9), [ProbeMaj], 0.3, 6.858662, [6.858662], id="Maj9"),
        pytest.param(CrumblingWall([1, 2, 3, 3]), [ProbeCW], 0.5, 5.6875, [6.0], id="CW1233"),
        pytest.param(
            TreeSystem(3), [ProbeTree, RProbeTree], 0.5, 7.686523, [8.125, 9.166667],
            id="Tree-h3",
        ),
        pytest.param(
            HQS(2), [ProbeHQS, RProbeHQS], 0.3, 5.580686, [5.659625, 5.659625], id="HQS-h2"
        ),
    ],
)
def test_no_algorithm_beats_the_optimal_ppc(system, algorithms, p, optimum, expected):
    """``E_p[probes] >= PPC_p`` at p in {0.3, 0.5, 0.7}, with equality for
    Probe_Maj; both sides are the same at p and 1 - p.  ``optimum`` and
    ``expected`` pin the values at one ``p``."""
    solver = ExactSolver(system)
    ps = (0.3, 0.5, 0.7)
    optimal = {q: solver.probabilistic_probe_complexity(q) for q in ps}
    assert optimal[p] == pytest.approx(optimum, abs=1e-6)
    assert optimal[0.3] == pytest.approx(optimal[0.7], abs=1e-9)
    for cls, pinned in zip(algorithms, expected, strict=True):
        algorithm = cls(system)
        values = {q: exact_expectation(algorithm, q) for q in ps}
        assert values[p] == pytest.approx(pinned, abs=1e-6)
        assert values[0.3] == pytest.approx(values[0.7], abs=1e-9)
        for q in ps:
            assert values[q] >= optimal[q] - 1e-9, (algorithm.name, q)
            if cls is ProbeMaj:
                assert values[q] == pytest.approx(optimal[q], abs=1e-9)
