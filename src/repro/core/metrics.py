"""Classical quality measures of quorum systems: availability and load.

The paper's probabilistic analysis repeatedly uses the *availability*
parameter ``F_p(S)`` of Peleg & Wool — the probability that no live quorum
exists when every element fails independently with probability ``p`` — and
its two basic facts (Fact 2.3): for an ND coterie ``F_p(S) ≤ p`` whenever
``p ≤ 1/2``, and ``F_p(S) + F_{1-p}(S) = 1``.

The *load* of a quorum system (Naor & Wool) measures how evenly work can be
spread over the elements by a randomized quorum-picking strategy; it is not
used in the paper's proofs but is part of the standard measurement suite a
user of the library expects, and is exercised by the examples.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from repro.core.coloring import enumerate_colorings_with_reds
from repro.core.estimator import Estimate
from repro.systems.base import QuorumSystem


# -- availability -------------------------------------------------------------------


def availability_exact(system: QuorumSystem, p: float) -> float:
    """Exact failure probability ``F_p(S)`` by enumeration over red sets.

    ``F_p(S)`` is the probability that the green elements contain no quorum.
    Exponential in ``n``; use for ``n`` up to roughly 20.
    """
    _check_probability(p)
    if system.n > 22:
        raise ValueError(
            "exact availability enumeration is limited to n <= 22; "
            "use availability_monte_carlo instead"
        )
    total = 0.0
    n = system.n
    for r in range(n + 1):
        weight = (p**r) * ((1.0 - p) ** (n - r))
        if weight == 0.0:
            continue
        for coloring in enumerate_colorings_with_reds(n, r):
            if not system.has_live_quorum(coloring):
                total += weight
    return total


def availability_monte_carlo(
    system: QuorumSystem,
    p: float,
    trials: int = 2000,
    seed: int | None = None,
) -> Estimate:
    """Monte-Carlo estimate of ``F_p(S)`` from one streaming-engine run.

    The system's default deterministic algorithm probes every trial; its
    witness is red exactly when no live quorum exists, so the failure
    rate is the engine's ``witness_red / n_trials_used``.  Systems without
    a kernel fall back to the engine's per-trial loop.
    """
    from repro.algorithms import default_deterministic_algorithm
    from repro.core.engine import stream_probes

    result = stream_probes(
        default_deterministic_algorithm(system), p=p, trials=trials, seed=seed
    )
    red, used = result.witness_red, result.n_trials_used
    std = math.sqrt(red * (used - red) / (used * (used - 1))) if used > 1 else 0.0
    return Estimate(mean=red / used, std=std, trials=used)


def check_availability_identity(system: QuorumSystem, p: float) -> bool:
    """Check Fact 2.3(2): ``F_p(S) + F_{1-p}(S) = 1`` for an ND coterie."""
    _check_probability(p)
    total = availability_exact(system, p) + availability_exact(system, 1.0 - p)
    return math.isclose(total, 1.0, abs_tol=1e-9)


def _check_probability(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"failure probability must be in [0, 1], got {p}")


# -- quorum size statistics -----------------------------------------------------------


def quorum_size_statistics(system: QuorumSystem) -> dict[str, float]:
    """Min / max / mean quorum size and quorum count (requires enumeration)."""
    sizes = [len(q) for q in system.quorums()]
    if not sizes:
        raise ValueError("system has no quorums")
    return {
        "count": float(len(sizes)),
        "min": float(min(sizes)),
        "max": float(max(sizes)),
        "mean": float(sum(sizes) / len(sizes)),
    }


def is_uniform(system: QuorumSystem) -> bool:
    """True when every quorum has the same size (a ``c``-uniform system)."""
    sizes = {len(q) for q in system.quorums()}
    return len(sizes) == 1


# -- load -----------------------------------------------------------------------------


def load_of_strategy(
    system: QuorumSystem, weights: dict[frozenset[int], float]
) -> float:
    """Load induced on the busiest element by a quorum-picking strategy.

    ``weights`` assigns a probability to each quorum (they are normalized
    here); the load of element ``i`` is the probability that the chosen
    quorum contains ``i``, and the strategy's load is the maximum over
    elements.
    """
    total = sum(weights.values())
    if total <= 0:
        raise ValueError("strategy weights must have positive total mass")
    element_load = {e: 0.0 for e in system.universe}
    for quorum, weight in weights.items():
        for e in quorum:
            element_load[e] += weight / total
    return max(element_load.values())


def uniform_strategy_load(system: QuorumSystem) -> float:
    """Load of the strategy picking a (minimal) quorum uniformly at random."""
    quorums = list(system.quorums())
    return load_of_strategy(system, {q: 1.0 for q in quorums})


def optimal_load(system: QuorumSystem) -> float:
    """System load ``L(S)``: the minimum achievable busiest-element load.

    Solved as a linear program over quorum-picking strategies using
    ``scipy.optimize.linprog`` when scipy is available; falls back to the
    uniform-strategy upper bound otherwise.
    """
    quorums = list(system.quorums())
    try:
        from scipy.optimize import linprog
    except ImportError:  # scipy is optional; CI does not install it
        return uniform_strategy_load(system)

    elements = sorted(system.universe)
    m = len(quorums)
    # Variables: strategy probabilities w_1..w_m plus the load bound L.
    # Minimize L subject to sum_j [i in Q_j] w_j <= L, sum w_j = 1, w >= 0.
    c = [0.0] * m + [1.0]
    a_ub = []
    b_ub = []
    for e in elements:
        row = [1.0 if e in q else 0.0 for q in quorums] + [-1.0]
        a_ub.append(row)
        b_ub.append(0.0)
    a_eq = [[1.0] * m + [0.0]]
    b_eq = [1.0]
    bounds = [(0.0, None)] * m + [(0.0, None)]
    result = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds)
    if not result.success:  # pragma: no cover - defensive
        return uniform_strategy_load(system)
    return float(result.x[-1])


# -- probe-centric summary -------------------------------------------------------------


def system_summary(system: QuorumSystem, p: float = 0.5) -> dict[str, float]:
    """A compact metric card for a (small) quorum system.

    Includes quorum statistics, exact availability at ``p`` and the optimal
    load.  Only usable where quorum enumeration is feasible.
    """
    stats = quorum_size_statistics(system)
    stats["availability_Fp"] = availability_exact(system, p)
    stats["load"] = optimal_load(system)
    stats["n"] = float(system.n)
    return stats


def minimal_quorum_size_lower_bound(system: QuorumSystem, p: float) -> float:
    """The generic lower bound of Lemma 3.1 on ``PPC_p``.

    ``2c − Θ(√c)`` at ``p = 1/2`` (here instantiated as ``2c − 2√c``) and
    ``c / q`` for ``p < 1/2``, where ``c`` is the minimal quorum size.
    """
    _check_probability(p)
    c = system.min_quorum_size()
    q = 1.0 - p
    if math.isclose(p, 0.5):
        return 2.0 * c - 2.0 * math.sqrt(c)
    if p < 0.5:
        return c / q
    # For p > 1/2 the roles of the colors swap (Fact 2.3(2)).
    return c / p


def elements_of(systems: Iterable[QuorumSystem]) -> dict[str, int]:
    """Universe sizes of a collection of systems, keyed by name."""
    return {s.name: s.n for s in systems}
