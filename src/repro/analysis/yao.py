"""Yao's-principle machinery for randomized lower bounds (Section 4).

Yao's theorem reduces lower-bounding randomized algorithms to exhibiting a
*hard input distribution* on which every deterministic algorithm is slow in
expectation.  The paper uses three such distributions:

* **Theorem 4.2 (Majority)** — uniform over colorings with exactly
  ``k + 1`` red and ``k`` green elements (``n = 2k + 1``); the closed-form
  value is ``n − (n − 1)/(n + 3)``.
* **Theorem 4.6 (Crumbling walls)** — uniform over colorings with exactly
  one green element in every row; the value is ``(n + k)/2``.
* **Theorem 4.8 (Tree)** — all nodes at depth ``< h − 1`` are green; in
  every height-1 bottom subtree exactly two of the three nodes are red,
  uniformly and independently; the value is ``2(n + 1)/3``.

Each distribution comes in two forms:

* a :class:`~repro.core.distributions.ColoringSource`
  (``MajorityHardSource`` / ``CWHardSource`` / ``TreeHardSource``),
  registered in the coloring-source registry as ``majority_hard`` /
  ``cw_hard`` / ``tree_hard`` so experiment drivers, the sweep runner and
  the CLI resolve it by name like any other scenario; its
  ``sample_matrix`` draws a whole trial batch as the ``(trials, n)`` bool
  red matrix the kernels of :mod:`repro.core.batched` /
  :mod:`repro.core.bitpacked` consume, and
  :func:`repro.core.engine.stream_probes` estimates an algorithm's
  expected probes on it;
* an explicit :class:`~repro.core.coloring.ColoringDistribution`
  (``*_hard_distribution``) for exact best-deterministic computations on
  small systems via
  :meth:`repro.core.exact.ExactSolver.best_deterministic_under`.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.core.coloring import Coloring, ColoringDistribution
from repro.core.distributions import (
    ColoringSource,
    FixedCountSource,
    register_source,
    require_system,
)
from repro.systems.crumbling_walls import CrumblingWall
from repro.systems.majority import MajoritySystem
from repro.systems.tree import TreeSystem


# -- Majority (Theorem 4.2) -------------------------------------------------------------------


class MajorityHardSource(FixedCountSource):
    """Theorem 4.2 hard distribution as a registered coloring source.

    Uniform over colorings with exactly ``k + 1`` red elements — the
    exact-count source with the count pinned to the quorum size.
    """

    name = "majority_hard"

    def __init__(self, system: MajoritySystem) -> None:
        super().__init__(system.n, system.quorum_size)


def majority_hard_distribution(system: MajoritySystem) -> ColoringDistribution:
    """Explicit hard distribution of Theorem 4.2 (small ``n`` only)."""
    return ColoringDistribution.exact_reds(system.n, system.quorum_size)


def majority_lower_bound(n: int) -> float:
    """The closed-form Yao bound of Theorem 4.2: ``n − (n − 1)/(n + 3)``."""
    if n % 2 == 0:
        raise ValueError("Majority requires odd n")
    return n - (n - 1) / (n + 3)


# -- Crumbling walls (Theorem 4.6) ---------------------------------------------------------------


class CWHardSource(ColoringSource):
    """Theorem 4.6 hard distribution as a registered coloring source.

    All elements red except exactly one uniformly chosen green per wall
    row; the sorted column arrays are precomputed once at construction.
    """

    name = "cw_hard"

    def __init__(self, system: CrumblingWall) -> None:
        self._n = system.n
        self._columns = [
            np.asarray(sorted(row), dtype=np.intp) - 1 for row in system.rows
        ]

    @property
    def n(self) -> int:
        return self._n

    def _sample_matrix(self, trials, generator):
        red = np.ones((trials, self._n), dtype=bool)
        rows_idx = np.arange(trials)
        for columns in self._columns:
            green = columns[generator.integers(columns.size, size=trials)]
            red[rows_idx, green] = False
        return red


def cw_hard_distribution(system: CrumblingWall) -> ColoringDistribution:
    """Explicit hard distribution of Theorem 4.6 (small walls only)."""
    row_choices = [sorted(row) for row in system.rows]
    colorings = []
    for greens in itertools.product(*row_choices):
        red = system.universe - frozenset(greens)
        colorings.append(Coloring(system.n, red))
    return ColoringDistribution.uniform(colorings)


def cw_lower_bound(system: CrumblingWall) -> float:
    """The closed-form Yao bound of Theorem 4.6: ``(n + k)/2``."""
    return (system.n + system.num_rows) / 2.0


# -- Tree (Theorem 4.8) ------------------------------------------------------------------------


def _tree_hard_trios(system: TreeSystem) -> list[list[int]]:
    """The ``(root, left, right)`` trios of the height-1 bottom subtrees."""
    if system.height < 1:
        raise ValueError("the Theorem 4.8 distribution needs height >= 1")
    trios = []
    for root in range(1, system.n + 1):
        if system.depth_of(root) == system.height - 1:
            left, right = system.children(root)
            trios.append([root, left, right])
    return trios


class TreeHardSource(ColoringSource):
    """Theorem 4.8 hard distribution as a registered coloring source.

    Every node above the bottom height-1 subtrees is green; each bottom
    ``(root, left, right)`` trio has exactly two red members, the green one
    chosen uniformly and independently per subtree.  The trios are derived
    once at construction.
    """

    name = "tree_hard"

    def __init__(self, system: TreeSystem) -> None:
        self._n = system.n
        self._trios = np.asarray(_tree_hard_trios(system), dtype=np.intp) - 1  # (m, 3)

    @property
    def n(self) -> int:
        return self._n

    def _sample_matrix(self, trials, generator):
        trios = self._trios
        red = np.zeros((trials, self._n), dtype=bool)
        red[:, trios.ravel()] = True
        choice = generator.integers(3, size=(trials, trios.shape[0]))
        green = trios[np.arange(trios.shape[0])[None, :], choice]  # (trials, m)
        red[np.arange(trials)[:, None], green] = False
        return red


def tree_hard_distribution(system: TreeSystem) -> ColoringDistribution:
    """Explicit hard distribution of Theorem 4.8 (small trees only)."""
    trios = _tree_hard_trios(system)
    colorings = []
    for greens in itertools.product(*[range(3) for _ in trios]):
        red: set[int] = set()
        for trio, green_index in zip(trios, greens):
            red.update(v for i, v in enumerate(trio) if i != green_index)
        colorings.append(Coloring(system.n, red))
    return ColoringDistribution.uniform(colorings)


def tree_lower_bound(n: int) -> float:
    """The closed-form Yao bound of Theorem 4.8: ``2(n + 1)/3``."""
    return 2.0 * (n + 1) / 3.0


def tree_subtree_expected_probes() -> float:
    """Expected probes within one hard-distribution subtree (the ``8/3`` of
    Theorem 4.8's proof): the algorithm must find the two red nodes among
    three, and the green node is equally likely to be probed first, second
    or third.
    """
    return (3 + 3 + 2) / 3.0


register_source(
    "majority_hard",
    lambda system, p: MajorityHardSource(
        require_system(system, MajoritySystem, "majority_hard")
    ),
    "Thm 4.2 hard distribution: uniform colorings with exactly k+1 reds",
)
register_source(
    "cw_hard",
    lambda system, p: CWHardSource(
        require_system(system, CrumblingWall, "cw_hard")
    ),
    "Thm 4.6 hard distribution: one uniform green per wall row, rest red",
)
register_source(
    "tree_hard",
    lambda system, p: TreeHardSource(
        require_system(system, TreeSystem, "tree_hard")
    ),
    "Thm 4.8 hard distribution: two of three red in every bottom subtree",
)


# -- generic helpers ---------------------------------------------------------------------------


def yao_bound_via_exact(system, distribution: ColoringDistribution) -> float:
    """Exact best-deterministic expected cost under ``distribution``.

    Thin wrapper over :class:`repro.core.exact.ExactSolver` kept here so the
    lower-bound experiments read naturally; only usable on small universes.
    """
    from repro.core.exact import ExactSolver

    return ExactSolver(system).best_deterministic_under(distribution)
