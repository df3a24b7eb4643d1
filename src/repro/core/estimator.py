"""The result type of Monte-Carlo probe-complexity estimates.

Large systems are out of reach of the exact solvers in
:mod:`repro.core.exact`, so the experiments estimate expected probe counts
by sampling: the **probabilistic probe complexity** under i.i.d. failures
(the ``bernoulli`` source) and the **randomized worst-case probe
complexity** on the paper's hard input families (the Yao sources of
:mod:`repro.analysis.yao` and :mod:`repro.experiments.hqs`, or a fixed
:class:`~repro.core.distributions.AdversarialSource` input).  Every such
estimate is one :func:`repro.core.engine.stream_probes` run; its
``.estimate`` is the :class:`Estimate` defined here.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Estimate:
    """A Monte-Carlo estimate with uncertainty.

    ``mean`` is the point estimate, ``std`` the sample standard deviation,
    ``stderr`` the standard error of the mean and ``trials`` the sample
    size.  ``ci95`` is the half-width of the normal-approximation 95%
    confidence interval.
    """

    mean: float
    std: float
    trials: int

    @property
    def stderr(self) -> float:
        if self.trials <= 1:
            return float("inf") if self.trials == 0 else 0.0
        return self.std / np.sqrt(self.trials)

    @property
    def ci95(self) -> float:
        return 1.96 * self.stderr

    @property
    def low(self) -> float:
        """Lower end of the 95% confidence interval."""
        return self.mean - self.ci95

    @property
    def high(self) -> float:
        """Upper end of the 95% confidence interval."""
        return self.mean + self.ci95

    def __str__(self) -> str:
        return f"{self.mean:.3f} ± {self.ci95:.3f} (n={self.trials})"

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "Estimate":
        array = np.asarray(list(samples), dtype=float)
        if array.size == 0:
            raise ValueError("cannot build an estimate from zero samples")
        std = float(array.std(ddof=1)) if array.size > 1 else 0.0
        return cls(mean=float(array.mean()), std=std, trials=int(array.size))
