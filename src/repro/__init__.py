"""repro — a reproduction of "Average probe complexity in quorum systems"
(Hassin & Peleg, PODC 2001 / JCSS 2006).

The package provides:

* :mod:`repro.systems` — the quorum-system constructions studied in the
  paper (Majority, Wheel, Crumbling Walls/Triang, Tree, HQS) plus grid and
  composition substrates;
* :mod:`repro.core` — colorings, probe oracles, witnesses, strategy trees,
  exact optimal probe-complexity solvers and Monte-Carlo estimators;
* :mod:`repro.algorithms` — every probing algorithm analyzed in the paper
  (Probe_CW, Probe_Tree, Probe_HQS, R_Probe_Maj, R_Probe_CW, R_Probe_Tree,
  R_Probe_HQS, IR_Probe_HQS) plus generic baselines;
* :mod:`repro.analysis` — the paper's closed-form bounds, technical lemmas,
  availability recursions, Yao-principle machinery and finite-size scaling
  fits;
* :mod:`repro.experiments` — drivers regenerating Table 1 and every
  per-theorem experiment in the registry (``repro-probe list``).
"""

from repro.core import (
    Color,
    Coloring,
    ColoringOracle,
    Estimate,
    Witness,
    probabilistic_probe_complexity,
    probe_complexity,
)
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
    default_deterministic_algorithm,
    default_randomized_algorithm,
)
from repro.systems import (
    HQS,
    CrumblingWall,
    GridSystem,
    MajoritySystem,
    QuorumSystem,
    TreeSystem,
    TriangSystem,
    WheelSystem,
)

__version__ = "1.0.0"

__all__ = [
    "Color",
    "Coloring",
    "ColoringOracle",
    "Estimate",
    "Witness",
    "probabilistic_probe_complexity",
    "probe_complexity",
    "IRProbeHQS",
    "ProbeCW",
    "ProbeHQS",
    "ProbeMaj",
    "ProbeTree",
    "RProbeCW",
    "RProbeHQS",
    "RProbeMaj",
    "RProbeTree",
    "default_deterministic_algorithm",
    "default_randomized_algorithm",
    "HQS",
    "CrumblingWall",
    "GridSystem",
    "MajoritySystem",
    "QuorumSystem",
    "TreeSystem",
    "TriangSystem",
    "WheelSystem",
    "__version__",
]
