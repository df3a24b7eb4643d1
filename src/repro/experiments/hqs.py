"""HQS experiments: Theorem 3.8 / 3.9 (Probe_HQS) and Proposition 4.9 /
Theorem 4.10 / Corollary 4.13 (R_Probe_HQS, IR_Probe_HQS).

The probabilistic claim is that Probe_HQS probes ``2.5^h = n^{0.834}``
elements on average at ``p = 1/2`` — *more* than the uniform quorum size
``2^h = n^{0.63}`` — and that no algorithm can do better (Theorem 3.9).  We
check the exact ``2.5^h`` growth, verify optimality against the exact
knowledge-state solver on small instances, and compare the two randomized
variants on the worst-case family ``P`` of Lemma 4.11.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.algorithms.hqs import IRProbeHQS, ProbeHQS, RProbeHQS
from repro.analysis.availability import hqs_expected_probes as probe_hqs_expected_exact
from repro.analysis.bounds import (
    HQS_PCR_BOPPANA_EXPONENT,
    HQS_PCR_IMPROVED_EXPONENT,
    HQS_PPC_EXPONENT,
)
from repro.analysis.fitting import PowerLawFit, fit_power_law
from repro.core.distributions import (
    ColoringSource,
    build_source,
    canonical_source_name,
    register_source,
    require_system,
)
from repro.core.engine import stream_probes
from repro.core.exact import ExactSolver
from repro.core.seeding import cell_seed
from repro.experiments.report import Row
from repro.systems.hqs import HQS


def run_probe_hqs_scaling(
    heights: Sequence[int] = (2, 3, 4, 5, 6),
    ps: Sequence[float] = (0.5, 0.25),
    trials: int = 1500,
    seed: int = 37,
    distribution: str = "bernoulli",
) -> tuple[list[Row], dict[float, PowerLawFit]]:
    """Measured Probe_HQS averages vs ``2.5^h`` and the exponent fits.

    ``distribution`` names a registered coloring source
    (:func:`repro.core.distributions.build_source`); the recursion values
    of Theorem 3.8 only apply to the default i.i.d. model, so non-Bernoulli
    runs report measurements (and fits) without a paper reference.
    """
    distribution = canonical_source_name(distribution)
    bernoulli = distribution == "bernoulli"
    rows: list[Row] = []
    fits: dict[float, PowerLawFit] = {}
    for p in ps:
        sizes: list[float] = []
        costs: list[float] = []
        for height in heights:
            system = HQS(height)
            estimate = stream_probes(
                ProbeHQS(system),
                None if bernoulli else build_source(distribution, system, p),
                p=p,
                trials=trials,
                seed=cell_seed(seed, system.n, p),
            ).estimate
            sizes.append(float(system.n))
            costs.append(estimate.mean)
            rows.append(
                Row(
                    experiment="thm3.8-hqs",
                    system=system.name,
                    quantity="avg probes (Probe_HQS)",
                    measured=estimate.mean,
                    paper=probe_hqs_expected_exact(height, p) if bernoulli else None,
                    relation="~",
                    params={"n": system.n, "h": height, "p": p},
                    note=(
                        f"recursion value; ±{estimate.ci95:.2f}"
                        if bernoulli
                        else f"{distribution} inputs; ±{estimate.ci95:.2f}"
                    ),
                )
            )
        fit = fit_power_law(sizes, costs)
        fits[p] = fit
        paper_exponent = (
            HQS_PPC_EXPONENT if bernoulli and abs(p - 0.5) < 1e-9 else None
        )
        if paper_exponent is not None:
            fit_note_suffix = ""
        elif bernoulli:
            fit_note_suffix = "; paper predicts < 0.834 for biased p"
        else:
            fit_note_suffix = f"; {distribution} inputs"
        rows.append(
            Row(
                experiment="thm3.8-hqs",
                system="HQS (fit)",
                quantity=f"fitted exponent at p={p}",
                measured=fit.exponent,
                paper=paper_exponent,
                relation="~",
                params={"heights": tuple(heights), "p": p},
                note=f"R^2 = {fit.r_squared:.4f}{fit_note_suffix}",
            )
        )
    return rows, fits


def run_probe_hqs_optimality(heights: Sequence[int] = (1, 2)) -> list[Row]:
    """Theorem 3.9 cross-check: Probe_HQS versus the exact optimum at ``p = 1/2``.

    The exact knowledge-state solver is feasible for heights 1 and 2
    (n = 3 and 9).  At height 1 the optimum coincides with Probe_HQS's
    ``2.5``.  At height 2 the exact optimum is ``6.140625``, slightly below
    Probe_HQS's ``2.5² = 6.25`` — i.e. the *directional* algorithm is not
    exactly optimal, a (small) measured deviation from the paper's
    Theorem 3.9 that matches later literature on recursive majority-of-three.
    The rows therefore assert only the direction that does hold: the exact
    optimum never exceeds ``2.5^h``, and Probe_HQS achieves ``2.5^h``.
    """
    rows: list[Row] = []
    for height in heights:
        system = HQS(height)
        optimal = ExactSolver(system).probabilistic_probe_complexity(0.5)
        rows.append(
            Row(
                experiment="thm3.8-hqs",
                system=system.name,
                quantity="optimal PPC at p=1/2 (exact solver)",
                measured=optimal,
                paper=2.5**height,
                relation="<=",
                params={"n": system.n, "h": height},
                note=(
                    "Thm 3.9 claims equality, but from h = 2 the exact optimum "
                    "is below 2.5^h, which Probe_HQS attains"
                ),
            )
        )
        rows.append(
            Row(
                experiment="thm3.8-hqs",
                system=system.name,
                quantity="Probe_HQS expected probes at p=1/2 (recursion)",
                measured=probe_hqs_expected_exact(height, 0.5),
                paper=2.5**height,
                relation="==",
                params={"n": system.n, "h": height},
                note="Theorem 3.8",
            )
        )
    return rows


class HQSFamilyPSource(ColoringSource):
    """The worst-case family ``P`` of Lemma 4.11 as a registered source.

    Assigns gate values top-down over whole trial batches: the root value
    is a fair coin per trial, and at every gate a uniformly chosen minority
    child flips its parent's value.  The leaf level is the red matrix.
    """

    name = "hqs_family_p"

    def __init__(self, system: HQS) -> None:
        self._n = system.n
        self._height = system.height

    @property
    def n(self) -> int:
        return self._n

    def _sample_matrix(self, trials, generator):
        value = generator.random((trials, 1)) < 0.5
        for _ in range(self._height):
            gates = value.shape[1]
            minority = generator.integers(3, size=(trials, gates))
            child_value = np.repeat(value, 3, axis=1)
            is_minority = np.tile(np.arange(3), gates)[None, :] == np.repeat(
                minority, 3, axis=1
            )
            value = child_value ^ is_minority
        return value


register_source(
    "hqs_family_p",
    lambda system, p: HQSFamilyPSource(require_system(system, HQS, "hqs_family_p")),
    "Lemma 4.11 worst-case family P: one minority child per HQS gate",
    aliases=("hqs_hard",),
)


def run_randomized_hqs(
    heights: Sequence[int] = (2, 3, 4, 5),
    trials: int = 1500,
    seed: int = 41,
) -> list[Row]:
    """R_Probe_HQS vs IR_Probe_HQS on the family ``P``, with exponent fits."""
    rows: list[Row] = []
    sizes: list[float] = []
    costs_r: list[float] = []
    costs_ir: list[float] = []
    for height in heights:
        system = HQS(height)
        source = HQSFamilyPSource(system)
        est_r = stream_probes(
            RProbeHQS(system), source, trials=trials, seed=seed + height
        ).estimate
        est_ir = stream_probes(
            IRProbeHQS(system), source, trials=trials, seed=seed + height
        ).estimate
        sizes.append(float(system.n))
        costs_r.append(est_r.mean)
        costs_ir.append(est_ir.mean)
        rows.append(
            Row(
                experiment="thm4.10-hqs-rand",
                system=system.name,
                quantity="E[probes] on family P (R_Probe_HQS)",
                measured=est_r.mean,
                paper=None,
                relation="~",
                params={"n": system.n, "h": height},
                note=f"±{est_r.ci95:.2f}",
            )
        )
        rows.append(
            Row(
                experiment="thm4.10-hqs-rand",
                system=system.name,
                quantity="E[probes] on family P (IR_Probe_HQS)",
                measured=est_ir.mean,
                paper=est_r.mean,
                relation="<=",
                params={"n": system.n, "h": height},
                note=f"IR should not exceed R; ±{est_ir.ci95:.2f}",
                tolerance=est_ir.ci95 + est_r.ci95,
            )
        )
    fit_r = fit_power_law(sizes, costs_r)
    fit_ir = fit_power_law(sizes, costs_ir)
    rows.append(
        Row(
            experiment="thm4.10-hqs-rand",
            system="HQS (fit)",
            quantity="fitted exponent, R_Probe_HQS on P",
            measured=fit_r.exponent,
            paper=HQS_PCR_BOPPANA_EXPONENT,
            relation="~",
            params={"heights": tuple(heights)},
            note=f"paper 0.893; R^2={fit_r.r_squared:.3f}",
        )
    )
    rows.append(
        Row(
            experiment="thm4.10-hqs-rand",
            system="HQS (fit)",
            quantity="fitted exponent, IR_Probe_HQS on P",
            measured=fit_ir.exponent,
            paper=HQS_PCR_IMPROVED_EXPONENT,
            relation="~",
            params={"heights": tuple(heights)},
            note=f"paper 0.887; lower bound exponent {HQS_PPC_EXPONENT:.3f}",
        )
    )
    return rows
