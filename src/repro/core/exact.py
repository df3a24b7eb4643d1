"""Exact (optimal) probe complexities on small universes.

The probe complexity measures of Section 2.3 are defined as optima over all
probe strategy trees.  On small universes the optima can be computed exactly
by dynamic programming over *knowledge states*: the pair (elements known
green, elements known red).  A state is terminal when the knowledge already
settles the witness — the known-green set contains a quorum, or the
known-red set is a transversal.  Otherwise the algorithm must probe some
element, and

* for the deterministic worst case (``PC``) the adversary picks the worse
  outcome (minimax),
* for the probabilistic model (``PPC_p``) the outcome is green with
  probability ``q = 1 - p`` (expectimax),
* for Yao-style bounds the outcome probabilities are conditioned on an
  explicit input distribution.

These exact optima back the paper's ``Maj3`` worked example (PC = 3,
PPC_{1/2} = 5/2, PCR = 8/3) and the optimality claim for Probe_HQS
(Theorem 3.9), and serve as ground truth in the test-suite.

Knowledge states are represented as ``(green_mask, red_mask)`` integer
pairs (see :mod:`repro.core.bitmask`).  Each measure — ``PC``, or
``PPC_p`` at one ``p`` — has one value function over them, which its value
and its optimal strategy tree both read: for ``n <= 15`` the vectorized
sweep over all ``3^n`` states (its array lives for one query; the solver
keeps the root value), above that the memoized recursion, whose memo lives
on the solver so that a value and then its tree, or ``PPC_p`` at several
``p``, reuse every solved state.  Only ``PC`` at ``16 <= n <= 21`` takes
the word-batched packed mask-DP instead.  The state space has size ``3^n``,
so the computations are intended for ``n`` up to :data:`EXACT_LIMIT`.
"""

from __future__ import annotations

import itertools

from repro.core.coloring import Color, ColoringDistribution
from repro.core.strategy_tree import Leaf, ProbeNode, StrategyNode, StrategyTree
from repro.systems.base import QuorumSystem
from repro.systems.boolean import CharacteristicFunction

#: Hard cap on the universe size accepted by the exact solvers.  Up to
#: :data:`_TABLE_DP_LIMIT` the vectorized table sweep keeps values and trees
#: in the seconds range; up to :data:`_PACKED_DP_LIMIT` the word-batched
#: mask-DP (64 bit-sliced DP cells per ``uint64`` word, two rolling levels)
#: keeps ``PC`` solves inside workstation memory — the peak footprint is
#: ``2 * max_k C(n,k) * 2^k * (B + 1) / 8`` bytes with ``B = n.bit_length()``
#: value planes, roughly 0.06 GB at n = 18, 1 GB at n = 20, 9 GB at n = 22
#: and 70 GB at n = 24.  Everything else above the table limit runs the
#: recursive dict DP, whose time and memory grow as ``3^n``, so treat the
#: upper end as headroom for structured Yao distributions and partial
#: queries (where the settled/consistency pruning bites), not full solves.
EXACT_LIMIT = 24

#: Universe-size cap for the vectorized full-table DP (memory-bound: the
#: table holds all ``3^n`` knowledge states as numpy float64 arrays).
_TABLE_DP_LIMIT = 15

#: Universe-size cap for the word-batched packed mask-DP used by
#: ``probe_complexity`` above :data:`_TABLE_DP_LIMIT` (memory bound above).
_PACKED_DP_LIMIT = 21

#: Sentinel distinguishing "not cached" from a cached ``None`` (unsettled).
_MISSING = object()


def _check_size(system: QuorumSystem) -> None:
    if system.n > EXACT_LIMIT:
        raise ValueError(
            f"exact probe-complexity computation is limited to n <= {EXACT_LIMIT}; "
            f"{system.name} has n = {system.n}"
        )


def _check_probability(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"failure probability must be in [0, 1], got {p}")


def _combine(measure):
    """How a probe's two outcome values merge: the adversary's worse one for
    ``"pc"``, the expectimax blend for a failure probability ``p``."""
    if measure == "pc":
        return lambda on_green, on_red: on_green if on_green >= on_red else on_red
    q = 1.0 - measure
    return lambda on_green, on_red: q * on_green + measure * on_red


# -- word-batched mask-DP (bit-sliced PC over packed uint64 lanes) ----------------
#
# The packed DP re-indexes the 3^n knowledge states as (K, r): K the mask of
# *known* elements, r the red assignment within K, giving one array of 2^|K|
# DP cells per known-mask.  Cells are packed 64 per uint64 word along the
# red-assignment axis and PC values are stored *bit-sliced* (B = n.bit_length()
# planes per level, exactly the carry-save representation of
# :mod:`repro.core.bitpacked`), so max / min / +1 over 64 states cost a
# handful of word ops.  Probing element i from state (K, r) leads to
# (K | bit_i, r) on green and (K | bit_i, r | bit_i) on red; in the
# compressed indexing both children live in the child mask's array at lanes
# that differ only in bit ``pos`` (the rank of i within K | bit_i), so the
# child gather is an even/odd lane split along that bit — word-aligned
# slicing for pos >= 6 and a shift-compaction ladder inside each word for
# pos < 6.  Levels roll: computing level k (k elements known) needs only
# level k + 1, which bounds memory by the two largest adjacent levels
# instead of the whole 3^n table (see :data:`EXACT_LIMIT`).

_ALL_ONES = 0xFFFFFFFFFFFFFFFF


def _alternating_mask(block: int):
    """uint64 pattern of ``block`` one-bits then ``block`` zero-bits, repeated."""
    import numpy as np

    value = 0
    for t in range(64):
        if ((t // block) & 1) == 0:
            value |= 1 << t
    return np.uint64(value)


_ALT_MASKS = {1 << p: _alternating_mask(1 << p) for p in range(6)}


def _compress_even(words, p: int):
    """Compact the lanes whose bit ``p`` of the lane index is 0 (``p < 6``).

    Classic block-unzip: each word's kept 2^p-lane blocks end up contiguous
    in its low 32 bits (garbage above).  The odd lanes are obtained by
    pre-shifting the word right by ``2^p``.
    """
    import numpy as np

    block = 1 << p
    out = words & _ALT_MASKS[block]
    step = block
    while step < 32:
        out = (out | (out >> np.uint64(step))) & _ALT_MASKS[2 * step]
        step *= 2
    return out


def _split_lanes(plane, p: int):
    """Split a packed child plane into its (green, red) parent-lane planes.

    ``plane`` has shape ``(rows, child_words)`` over the child level's
    2^(k+1)-lane axis; the result planes have the parent's 2^k lanes:
    green keeps lanes with bit ``p`` of the lane index clear, red those with
    it set (the probed element's red bit sits at position ``p`` of the
    child's compressed index).
    """
    import numpy as np

    rows, child_words = plane.shape
    if child_words == 1:
        # The whole child level fits one word; both halves stay in-word.
        green = _compress_even(plane, p)
        red = _compress_even(plane >> np.uint64(1 << p), p)
        return green, red
    if p < 6:
        even = _compress_even(plane, p).reshape(rows, child_words // 2, 2)
        odd = _compress_even(plane >> np.uint64(1 << p), p).reshape(
            rows, child_words // 2, 2
        )
        thirty_two = np.uint64(32)
        green = even[:, :, 0] | (even[:, :, 1] << thirty_two)
        red = odd[:, :, 0] | (odd[:, :, 1] << thirty_two)
        return green, red
    block_words = 1 << (p - 6)
    view = plane.reshape(rows, child_words // (2 * block_words), 2, block_words)
    green = view[:, :, 0, :].reshape(rows, child_words // 2)
    red = view[:, :, 1, :].reshape(rows, child_words // 2)
    return np.ascontiguousarray(green), np.ascontiguousarray(red)


def _planes_ge(a, b):
    """Per-lane ``a >= b`` over two bit-sliced unsigned integers."""
    import numpy as np

    full = np.uint64(_ALL_ONES)
    gt = np.zeros_like(a[0])
    eq = np.full_like(a[0], full)
    for i in range(len(a) - 1, -1, -1):
        gt |= eq & a[i] & ~b[i]
        eq &= ~(a[i] ^ b[i])
    return gt | eq


def _planes_select(mask, a, b):
    """Per-lane ``a if mask else b`` over bit-sliced integers."""
    return [(x & mask) | (y & ~mask) for x, y in zip(a, b)]


def _planes_max(a, b):
    return _planes_select(_planes_ge(a, b), a, b)


def _planes_min_into(dest, cand) -> None:
    """``dest = min(dest, cand)`` per lane, in place."""
    keep = _planes_ge(cand, dest)  # dest <= cand -> keep dest
    for i in range(len(dest)):
        dest[i] = (dest[i] & keep) | (cand[i] & ~keep)


def _planes_incr(planes) -> None:
    """``planes += 1`` per lane, in place (fixed width; callers size the
    plane count so the carry can never leave the top plane)."""
    import numpy as np

    carry = np.full_like(planes[0], np.uint64(_ALL_ONES))
    for i in range(len(planes)):
        tmp = planes[i]
        planes[i] = tmp ^ carry
        carry = tmp & carry


class ExactSolver:
    """Dynamic-programming solver for optimal probe strategies.

    One solver instance holds a memo per measure (``"pc"``, or a failure
    probability ``p``) plus a shared settled-witness cache, all keyed by
    ``(green_mask, red_mask)`` knowledge states.  The caches persist
    across queries, so a solver is cheap to reuse and a fresh instance is
    only needed for a different system.
    """

    def __init__(self, system: QuorumSystem) -> None:
        _check_size(system)
        self._system = system
        self._full = (1 << system.n) - 1
        # Knowledge states are keyed by the single integer
        # ``(green_mask << n) | red_mask`` — int keys hash markedly faster
        # than tuples in the multi-million-state DP sweeps.
        # Settled-witness colors, shared by every measure below.
        self._settled: dict[int, Color | None] = {}
        # State values per measure: every state the recursion solved above
        # n = 15, only the root (key 0) on the table route.
        self._values: dict[object, dict[int, float]] = {}
        # Per-distribution Yao DP caches; distributions are compared by
        # identity, and kept referenced so ids stay unique.
        self._yao_caches: list[tuple[ColoringDistribution, dict[int, float]]] = []
        # Lazy state tables of the vectorized full-table DP (n <= 15, see
        # _tables), shared by PC and every PPC_p.
        self._state_tables = None
        # The 2^n characteristic-function table (bool per green mask) shared
        # by the trit-table DP and the packed mask-DP, plus the packed DP's
        # cached result.
        self._contains_table = None
        self._packed_pc_result: int | None = None

    # -- vectorized full-table DP ---------------------------------------------

    def _tables(self):
        """Build (or fetch) the trit-coded knowledge-state tables.

        State ``s`` encodes element ``i`` in base-3 digit ``i``: 0 unknown,
        1 known green, 2 known red.  The settled predicate factors through
        the two ``2^n`` mask tables — ``contains_quorum_mask`` of the green
        mask and of the complement of the red mask — so it costs ``2^n``
        characteristic-function calls, not ``3^n``.  ``trit[mask]`` is the
        code of the state knowing ``mask`` green, so state ``(green, red)``
        has code ``trit[green] + 2 * trit[red]``.
        """
        if self._state_tables is not None:
            return self._state_tables
        import numpy as np

        n = self._system.n
        n3 = 3**n
        codes = np.arange(n3, dtype=np.int64)
        green_idx = np.zeros(n3, dtype=np.int32)
        red_idx = np.zeros(n3, dtype=np.int32)
        unknown_count = np.zeros(n3, dtype=np.int8)
        tmp = codes.copy()
        for i in range(n):
            digit = tmp % 3
            tmp //= 3
            green_idx |= (digit == 1).astype(np.int32) << i
            red_idx |= (digit == 2).astype(np.int32) << i
            unknown_count += digit == 0
        del tmp
        contains_table = self._contains_np_table()
        settled = contains_table[green_idx] | ~contains_table[self._full - red_idx]
        # Group codes by unknown count so each DP level is one fancy-index.
        levels = [codes[unknown_count == u] for u in range(n + 1)]
        trit = np.zeros(1 << n, dtype=np.int64)
        for i in range(n):  # masks with top bit i extend those below it
            trit[1 << i : 2 << i] = trit[: 1 << i] + 3**i
        self._state_tables = (levels, settled, trit)
        return self._state_tables

    def _table_dp(self, combine):
        """Run the level-by-level DP over the full state table.

        ``combine(value_on_green, value_on_red)`` merges the two child-value
        arrays of the probed element (``max`` for PC, the expectimax blend
        for PPC).  Returns the value of every trit-coded state.
        """
        import numpy as np

        n = self._system.n
        levels, settled, _ = self._tables()
        pow3 = [3**i for i in range(n)]
        value = np.zeros(3**n, dtype=np.float64)
        for u in range(1, n + 1):
            states = levels[u]
            active = states[~settled[states]]
            if active.size == 0:
                continue
            best = np.full(active.size, np.inf)
            for i in range(n):
                p3 = pow3[i]
                is_unknown = (active // p3) % 3 == 0
                idx = active[is_unknown]
                if idx.size == 0:
                    continue
                candidate = combine(value[idx + p3], value[idx + 2 * p3])
                best[is_unknown] = np.minimum(best[is_unknown], candidate)
            value[active] = 1.0 + best
        return value

    def _contains_np_table(self):
        """The ``2^n`` bool table of ``contains_quorum_mask``, built once."""
        if self._contains_table is None:
            import numpy as np

            contains = self._system.contains_quorum_mask
            n = self._system.n
            self._contains_table = np.fromiter(
                (contains(mask) for mask in range(1 << n)), dtype=bool, count=1 << n
            )
        return self._contains_table

    # -- word-batched packed mask-DP (PC) --------------------------------------

    def _settled_words(self, masks, set_elems, k, words, contains_table):
        """Packed settled bits for every ``(K, r)`` state of level ``k``.

        Returns a ``(rows, words)`` uint64 array: bit ``r`` of row ``K`` is
        the settled predicate of red assignment ``r`` (compressed over K's
        set bits).  Computed in row blocks so the transient full-mask
        arrays stay bounded regardless of the level size.
        """
        import numpy as np

        from repro.core.bitpacked import pack_matrix

        full = contains_table.size - 1
        rows = masks.size
        lanes = 1 << k
        out = np.empty((rows, words), dtype=np.uint64)
        lane_idx = np.arange(lanes, dtype=np.int64)
        lane_sel = [np.flatnonzero((lane_idx >> j) & 1) for j in range(k)]
        bit_vals = (np.int64(1) << set_elems) if k else None
        block = max(1, (1 << 21) // lanes)
        for r0 in range(0, rows, block):
            mb = masks[r0 : r0 + block]
            rb = mb.size
            red_full = np.zeros((rb, lanes), dtype=np.int64)
            for j in range(k):
                red_full[:, lane_sel[j]] |= bit_vals[r0 : r0 + rb, j : j + 1]
            green_full = mb[:, None] ^ red_full
            st = contains_table[green_full] | ~contains_table[full ^ red_full]
            out[r0 : r0 + rb] = pack_matrix(st.T).words.T
        return out

    def _packed_pc(self) -> int:
        """PC via the word-batched mask-DP (see the module helpers above).

        Level ``k`` holds one bit-sliced value array per known-mask row;
        probing element ``i`` reads the child mask's array split along the
        probed element's lane bit, the adversary max and the strategy min
        run as bit-sliced comparator circuits, and only two adjacent levels
        are ever alive.  The DP runs over the elements that matter only: a
        dummy element, whose flip never changes a row of the
        ``contains_quorum_mask`` table, never settles a state, so probing it
        never lowers the cost.
        """
        import numpy as np

        from repro.core.bitpacked import popcount64

        contains_table = self._contains_np_table()
        relevant = [
            i
            for i in range(self._system.n)
            if not np.array_equal(*contains_table.reshape(-1, 2, 1 << i).swapaxes(0, 1))
        ]
        n = len(relevant)
        codes = np.arange(1 << n, dtype=np.int64)
        if n < self._system.n:
            # The table over the relevant elements; a dummy's bit is moot.
            spread = np.zeros_like(codes)
            for j, i in enumerate(relevant):
                spread |= ((codes >> j) & 1) << i
            contains_table = contains_table[spread]
        width = n.bit_length()  # PC values live in [0, n]
        counts = popcount64(codes.astype(np.uint64))
        level_masks = [codes[counts == k] for k in range(n + 1)]
        # Level n: full knowledge always settles the witness, so value 0.
        top_words = max(1, (1 << n) >> 6)
        prev = [np.zeros((1, top_words), dtype=np.uint64) for _ in range(width)]
        for k in range(n - 1, -1, -1):
            masks = level_masks[k]
            rows = masks.size
            lanes = 1 << k
            words = max(1, lanes >> 6)
            child_masks = level_masks[k + 1]
            child_words = max(1, (lanes * 2) >> 6)
            bits = ((masks[:, None] >> np.arange(n)) & 1).astype(bool)
            set_elems = (
                np.nonzero(bits)[1].reshape(rows, k)
                if k
                else np.empty((rows, 0), dtype=np.int64)
            )
            unset_elems = np.nonzero(~bits)[1].reshape(rows, n - k)
            settled = self._settled_words(masks, set_elems, k, words, contains_table)
            running = [np.empty((rows, words), dtype=np.uint64) for _ in range(width)]
            for j in range(n - k):
                elem = unset_elems[:, j]
                bit = np.int64(1) << elem
                child = masks | bit
                child_rows = np.searchsorted(child_masks, child)
                pos = popcount64((child & (bit - 1)).astype(np.uint64))
                for p in np.unique(pos):
                    sel = np.flatnonzero(pos == p)
                    block = max(1, (1 << 21) // child_words)
                    for s0 in range(0, sel.size, block):
                        rows_sel = sel[s0 : s0 + block]
                        gathered = child_rows[rows_sel]
                        green = []
                        red = []
                        for plane in prev:
                            g, r = _split_lanes(plane[gathered], int(p))
                            green.append(g)
                            red.append(r)
                        cand = _planes_max(green, red)
                        if j == 0:
                            for b in range(width):
                                running[b][rows_sel] = cand[b]
                        else:
                            dest = [running[b][rows_sel] for b in range(width)]
                            _planes_min_into(dest, cand)
                            for b in range(width):
                                running[b][rows_sel] = dest[b]
            _planes_incr(running)
            live = ~settled
            for b in range(width):
                running[b] &= live
            prev = running
        root = 0
        for b in range(width):
            root |= int(prev[b][0, 0] & np.uint64(1)) << b
        return root

    def packed_probe_complexity(self) -> int:
        """``PC(S)`` via the word-batched mask-DP, regardless of ``n``.

        Bit-identical to :meth:`probe_complexity` (the tests cross-check it
        against the trit-table sweep and the dict DP); exposed separately
        so the packed path can be exercised and benchmarked at any size up
        to :data:`EXACT_LIMIT`.
        """
        if self._packed_pc_result is None:
            self._packed_pc_result = self._packed_pc()
        return self._packed_pc_result

    def _settled_at(self, green: int, red: int) -> Color | None:
        key = (green << self._system.n) | red
        try:
            return self._settled[key]
        except KeyError:
            pass
        system = self._system
        if system.contains_quorum_mask(green):
            value: Color | None = Color.GREEN
        elif not system.contains_quorum_mask(self._full & ~red):
            value = Color.RED
        else:
            value = None
        self._settled[key] = value
        return value

    # -- one value function per measure: PC ("pc") and PPC_p (p) ---------------------

    def _value_fn(self, measure):
        """``value(green, red)`` of ``measure``: up to :data:`_TABLE_DP_LIMIT`
        the table DP's array (held by this function only) read at trit code
        ``T[green] + 2 * T[red]``, above it the memoized recursion."""
        if self._system.n > _TABLE_DP_LIMIT:
            return self._recursive_value_fn(measure)
        import numpy as np

        values = self._table_dp(np.maximum if measure == "pc" else _combine(measure))
        trit = memoryview(self._tables()[2])  # indexes to plain ints, copy-free
        return lambda green, red: values.item(trit[green] + 2 * trit[red])

    def _recursive_value_fn(self, measure):
        """The memoized recursive DP of ``measure``; its memo is the solver's
        per-measure dict, so every state it solves is kept for later queries."""
        memo = self._values.setdefault(measure, {})
        memo_get = memo.get
        combine = _combine(measure)
        settled_memo = self._settled
        contains = self._system.contains_quorum_mask
        full = self._full
        n = self._system.n
        inf = float("inf")
        _missing = _MISSING

        def value(green: int, red: int):
            key = (green << n) | red
            cached = memo_get(key)
            if cached is not None:
                return cached
            # The settled test of _settled_at, inlined: a method call per
            # state costs ~25% in this loop.
            settled = settled_memo.get(key, _missing)
            if settled is _missing:
                if contains(green):
                    settled = Color.GREEN
                elif not contains(full & ~red):
                    settled = Color.RED
                else:
                    settled = None
                settled_memo[key] = settled
            if settled is not None:
                memo[key] = 0
                return 0
            best = inf
            m = full & ~(green | red)
            while m:
                bit = m & -m
                m ^= bit
                g2 = green | bit
                a = memo_get((g2 << n) | red)
                if a is None:
                    a = value(g2, red)
                r2 = red | bit
                b = memo_get((green << n) | r2)
                if b is None:
                    b = value(green, r2)
                outcome = combine(a, b)
                if outcome < best:
                    best = outcome
                    if best == 0:  # both children settled; no probe beats 1
                        break
            result = 1 + best
            memo[key] = result
            return result

        return value

    def _root_value(self, measure):
        """The no-knowledge state's value of ``measure``, kept per measure."""
        memo = self._values.setdefault(measure, {})
        if 0 not in memo:
            memo[0] = self._value_fn(measure)(0, 0)
        return memo[0]

    def _optimal_tree(self, measure) -> StrategyTree:
        """The tree that probes, in every unsettled state, the lowest element
        whose combined child values under ``measure`` are least."""
        value = self._value_fn(measure)
        combine = _combine(measure)

        def build(green: int, red: int) -> StrategyNode:
            settled = self._settled_at(green, red)
            if settled is not None:
                return Leaf(settled)
            best_bit = 0
            best_cost = float("inf")
            m = self._full & ~(green | red)
            while m:
                bit = m & -m
                m ^= bit
                cost = combine(value(green | bit, red), value(green, red | bit))
                if cost < best_cost:
                    best_cost = cost
                    best_bit = bit
            return ProbeNode(
                element=best_bit.bit_length(),
                on_green=build(green | best_bit, red),
                on_red=build(green, red | best_bit),
            )

        return StrategyTree(self._system, build(0, 0))

    def probe_complexity(self) -> int:
        """The deterministic worst-case probe complexity ``PC(S)``."""
        if _TABLE_DP_LIMIT < self._system.n <= _PACKED_DP_LIMIT:
            return self.packed_probe_complexity()
        return round(self._root_value("pc"))

    def is_evasive(self) -> bool:
        """True when ``PC(S) = n``, i.e. the system is evasive.

        The paper (Lemma 2.2, from [PW02]) notes that Maj, Wheel, CW and
        Tree are all evasive.
        """
        return self.probe_complexity() == self._system.n

    def probabilistic_probe_complexity(self, p: float) -> float:
        """The optimal expected probe count ``PPC_p(S)`` in the i.i.d. model."""
        _check_probability(p)
        return float(self._root_value(p))

    def optimal_strategy_tree(self, p: float) -> StrategyTree:
        """An optimal strategy tree for the probabilistic model at ``p``."""
        _check_probability(p)
        return self._optimal_tree(p)

    def optimal_worst_case_tree(self) -> StrategyTree:
        """A strategy tree achieving the deterministic worst-case optimum."""
        return self._optimal_tree("pc")

    # -- best deterministic strategy under an input distribution (Yao) ---------------

    def best_deterministic_under(self, distribution: ColoringDistribution) -> float:
        """Minimum expected probes of a deterministic strategy under ``distribution``.

        By Yao's principle (Section 4) this is a lower bound on the
        randomized worst-case probe complexity ``PCR(S)`` for any input
        distribution.  The strategy must still terminate with a proper
        witness (a monochromatic certificate among probed elements), exactly
        as in the paper's model.
        """
        if distribution.n != self._system.n:
            raise ValueError("distribution universe does not match the system")
        memo: dict[int, float] | None = None
        for known, cache in self._yao_caches:
            if known is distribution:
                memo = cache
                break
        if memo is None:
            memo = {}
            self._yao_caches.append((distribution, memo))
        # (green_mask_of_coloring, red_mask_of_coloring, probability) rows.
        support = [
            (w.coloring.green_mask, w.coloring.red_mask, w.probability)
            for w in distribution.support
        ]
        settled = self._settled_at
        full = self._full
        n = self._system.n

        def value(green: int, red: int) -> float:
            key = (green << n) | red
            try:
                return memo[key]
            except KeyError:
                pass
            if settled(green, red) is not None:
                memo[key] = 0.0
                return 0.0
            consistent = [
                row
                for row in support
                if green & ~row[0] == 0 and red & ~row[1] == 0
            ]
            total = sum(row[2] for row in consistent)
            if total == 0:
                # Unreachable knowledge state under this distribution; its
                # cost never contributes to the expectation.
                memo[key] = 0.0
                return 0.0
            best = float("inf")
            m = full & ~(green | red)
            while m:
                bit = m & -m
                m ^= bit
                green_mass = sum(row[2] for row in consistent if row[0] & bit)
                prob_green = green_mass / total
                cost = (
                    1.0
                    + prob_green * value(green | bit, red)
                    + (1.0 - prob_green) * value(green, red | bit)
                )
                if cost < best:
                    best = cost
            memo[key] = best
            return best

        return value(0, 0)


# -- convenience wrappers --------------------------------------------------------------


def probe_complexity(system: QuorumSystem) -> int:
    """Exact deterministic worst-case probe complexity ``PC(S)``."""
    return ExactSolver(system).probe_complexity()


def probabilistic_probe_complexity(system: QuorumSystem, p: float = 0.5) -> float:
    """Exact probabilistic probe complexity ``PPC_p(S)``."""
    return ExactSolver(system).probabilistic_probe_complexity(p)


def yao_lower_bound(system: QuorumSystem, distribution: ColoringDistribution) -> float:
    """Yao lower bound on ``PCR(S)`` from an explicit hard distribution."""
    return ExactSolver(system).best_deterministic_under(distribution)


def permutation_algorithm_worst_expected(system: QuorumSystem) -> float:
    """Exact worst-case expected probes of the uniform random-permutation
    algorithm.

    The algorithm draws a uniformly random order of the universe and probes
    in that order until a witness is found.  For each input coloring the
    expected probe count is averaged over all ``n!`` permutations exactly,
    and the maximum over all ``2^n`` colorings is returned.  This matches the
    paper's ``Maj3`` example, where the value is ``8/3``, and the analysis of
    Algorithm R_Probe_Maj (Theorem 4.2).

    The inner loop shares one memoized settled-witness cache across all
    permutations and colorings, so identical probe prefixes (which dominate
    the ``n! × 2^n`` sweep) cost a dictionary lookup each.

    Only feasible for very small systems (``n <= 8`` or so).
    """
    if system.n > 8:
        raise ValueError("exact permutation analysis is limited to n <= 8")
    f = CharacteristicFunction(system)
    n = system.n
    universe = range(1, n + 1)
    orders = list(itertools.permutations(universe))
    worst = 0.0
    for red_size in range(n + 1):
        for red in itertools.combinations(universe, red_size):
            red_mask = 0
            for e in red:
                red_mask |= 1 << (e - 1)
            total = 0
            for order in orders:
                total += _probes_in_order_mask(f, red_mask, order)
            expected = total / len(orders)
            worst = max(worst, expected)
    return worst


def _probes_in_order_mask(
    f: CharacteristicFunction, red_mask: int, order: tuple[int, ...]
) -> int:
    green = 0
    red = 0
    settled = f.witness_settled_mask
    for i, element in enumerate(order, start=1):
        bit = 1 << (element - 1)
        if red_mask & bit:
            red |= bit
        else:
            green |= bit
        if settled(green, red) is not None:
            return i
    return len(order)
