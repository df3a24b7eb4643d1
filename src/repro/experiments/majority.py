"""Majority experiments: Proposition 3.2 (probabilistic) and Theorem 4.2
(randomized worst case).

* ``prop3.2-maj`` measures the average probe count of Probe_Maj under
  i.i.d. failures across a sweep of ``n`` and ``p`` and compares against the
  closed forms ``n − Θ(√n)`` (p = 1/2) and ``n/(2q)`` (p < 1/2), plus the
  exact finite-``n`` expectation from the grid-walk analysis.
* ``thm4.2-maj-rand`` measures the worst-case expected probes of
  R_Probe_Maj (the maximum is attained on inputs with exactly ``k + 1`` red
  elements, as shown in the theorem's proof) and compares against the exact
  value ``n − (n − 1)/(n + 3)``; the same value is obtained as a Yao lower
  bound from the hard distribution.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.algorithms.majority import ProbeMaj, RProbeMaj
from repro.analysis.fitting import fit_sqrt_correction
from repro.analysis.walks import (
    majority_expected_probes_bound,
    majority_expected_probes_exact,
)
from repro.analysis.yao import MajorityHardSource, majority_lower_bound
from repro.core.distributions import AdversarialSource
from repro.core.engine import stream_probes
from repro.core.seeding import cell_seed
from repro.experiments.report import Row
from repro.systems.majority import MajoritySystem

DEFAULT_SIZES = (11, 25, 51, 101, 201)
DEFAULT_PS = (0.5, 0.3, 0.1)


def run_probabilistic_majority(
    sizes: Sequence[int] = DEFAULT_SIZES,
    ps: Sequence[float] = DEFAULT_PS,
    trials: int = 2000,
    seed: int = 2001,
) -> list[Row]:
    """Measured PPC of Probe_Maj versus Proposition 3.2.

    Every ``(n, p)`` cell is one streaming-engine run on its own stream
    derived from ``(seed, n, p)`` (see :mod:`repro.core.seeding`),
    so cells are independent and reproduce regardless of grid shape.
    """
    rows: list[Row] = []
    for n in sizes:
        system = MajoritySystem(n)
        algorithm = ProbeMaj(system)
        for p in ps:
            estimate = stream_probes(
                algorithm, p=p, trials=trials, seed=cell_seed(seed, n, p)
            ).estimate
            rows.append(
                Row(
                    experiment="prop3.2-maj",
                    system=system.name,
                    quantity="avg probes (Probe_Maj)",
                    measured=estimate.mean,
                    paper=majority_expected_probes_exact(n, p),
                    relation="~",
                    params={"n": n, "p": p, "trials": trials},
                    note=f"closed form {majority_expected_probes_bound(n, p):.2f}, ±{estimate.ci95:.2f}",
                )
            )
    return rows


def majority_sqrt_deficit_fit(
    sizes: Sequence[int] = (25, 51, 101, 201, 401),
    trials: int = 3000,
    seed: int = 7,
):
    """Fit the ``n − measured ≈ A√n`` deficit at ``p = 1/2`` (the Θ(√n) term)."""
    costs = []
    for n in sizes:
        algorithm = ProbeMaj(MajoritySystem(n))
        estimate = stream_probes(
            algorithm, p=0.5, trials=trials, seed=cell_seed(seed, n, 0.5)
        ).estimate
        costs.append(estimate.mean)
    return fit_sqrt_correction([float(n) for n in sizes], costs)


def run_randomized_majority(
    sizes: Sequence[int] = (5, 9, 21, 51, 101),
    trials: int = 3000,
    seed: int = 4002,
) -> list[Row]:
    """Measured randomized worst-case probes of R_Probe_Maj versus Theorem 4.2."""
    rows: list[Row] = []
    for n in sizes:
        system = MajoritySystem(n)
        algorithm = RProbeMaj(system)
        k = (n - 1) // 2

        # Worst-case input family: exactly k+1 red elements (Thm 4.2 proof).
        upper_estimate = stream_probes(
            algorithm,
            AdversarialSource(n, range(1, k + 2)),
            trials=trials,
            seed=cell_seed(seed, n, "worst"),
        ).estimate

        # Yao lower bound: expected probes on the hard distribution.
        lower_estimate = stream_probes(
            algorithm,
            MajorityHardSource(system),
            trials=trials,
            seed=cell_seed(seed, n, "yao"),
        ).estimate

        exact_value = majority_lower_bound(n)
        rows.append(
            Row(
                experiment="thm4.2-maj-rand",
                system=system.name,
                quantity="E[probes] on worst input (r=k+1)",
                measured=upper_estimate.mean,
                paper=exact_value,
                relation="~",
                params={"n": n, "trials": trials},
                note="should match n-(n-1)/(n+3) up to sampling error",
            )
        )
        rows.append(
            Row(
                experiment="thm4.2-maj-rand",
                system=system.name,
                quantity="E[probes] on hard distribution (Yao)",
                measured=lower_estimate.mean,
                paper=exact_value,
                relation="~",
                params={"n": n, "trials": trials},
                note=f"±{lower_estimate.ci95:.2f}",
            )
        )
    return rows
