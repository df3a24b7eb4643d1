"""Per-seed pins of the randomized gate kernels through the engine.

R_Probe_Tree, R_Probe_HQS and IR_Probe_HQS draw their order choices from
the chunk's algorithm generator, so every estimate they produce depends on
exactly which raw words a kernel draws and what it makes of them.  The
blake2s digests below pin the bit-plane order-choice stream
(:func:`repro.core.bitpacked._order_choices`, stream ``bitplane-v2``): the
height-0 cases draw nothing and keep the digests the numpy kernels set,
every other case was regenerated when the order choices moved from
``generator.integers`` to raw-word rejection draws.  A kernel rewrite keeps
them only by making the same draws in the same order and computing the
same per-trial probe counts and witnesses.

The cases cover what a packed kernel could get wrong that a single
aligned chunk would not show: chunk sizes that start chunks mid-word (63,
100) and one trial at a time, a process pool, sources that sample a bool
matrix and pack it (``fixed_count``, ``correlated_groups``), and
:func:`~repro.core.batched.batched_run` on trial counts with padding lanes.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.algorithms import IRProbeHQS, RProbeHQS, RProbeTree
from repro.core.batched import batched_run
from repro.core.bitpacked import (
    PackedColorings,
    _permutation_masks,
    pack_matrix,
    run_packed,
    sample_packed,
    unpack_lanes,
)
from repro.core.distributions import BernoulliSource, build_source
from repro.core.engine import stream_probes
from repro.systems import HQS, TreeSystem

ALGORITHMS = {
    "RProbeTree-h0": lambda: RProbeTree(TreeSystem(0)),
    "RProbeTree-h1": lambda: RProbeTree(TreeSystem(1)),
    "RProbeTree-h5": lambda: RProbeTree(TreeSystem(5)),
    "RProbeHQS-h0": lambda: RProbeHQS(HQS(0)),
    "RProbeHQS-h1": lambda: RProbeHQS(HQS(1)),
    "RProbeHQS-h4": lambda: RProbeHQS(HQS(4)),
    "IRProbeHQS-h0": lambda: IRProbeHQS(HQS(0)),
    "IRProbeHQS-h1": lambda: IRProbeHQS(HQS(1)),
    "IRProbeHQS-h2": lambda: IRProbeHQS(HQS(2)),
    "IRProbeHQS-h3": lambda: IRProbeHQS(HQS(3)),
    "IRProbeHQS-h4": lambda: IRProbeHQS(HQS(4)),
}

P = 0.4
SEED = 19

#: case -> stream_probes keyword arguments (``source`` names a registered
#: source built for the algorithm's system at ``P``).
STREAM_CASES = {
    "chunk-1": dict(trials=150, chunk_size=1),
    "chunk-63": dict(trials=777, chunk_size=63),
    "chunk-100": dict(trials=777, chunk_size=100),
    "chunk-2048": dict(trials=4200, chunk_size=2048),
    "jobs-2": dict(trials=1500, chunk_size=256, jobs=2),
    "fixed_count": dict(trials=777, chunk_size=100, source="fixed_count"),
    "correlated_groups": dict(trials=777, chunk_size=100, source="correlated_groups"),
}

#: case -> trial count of one batched_run call.
BATCHED_CASES = {f"batched-{trials}": trials for trials in (1, 63, 65, 777)}

# blake2s-128 of the merged histogram (int64) followed by witness_red
# (int64) for stream cases, and of probes (int64) followed by
# witness_green (bool) for batched cases.
DIGESTS = {
    "RProbeTree-h0/chunk-1": "c9d7c513464e0b10257711a52d18da53",
    "RProbeTree-h0/chunk-63": "111f93a9f77873ec686d2b7081b84fb4",
    "RProbeTree-h0/chunk-100": "111f93a9f77873ec686d2b7081b84fb4",
    "RProbeTree-h0/chunk-2048": "932a4f0429e71683b4696810735e1f7b",
    "RProbeTree-h0/jobs-2": "d2655c9f044a203d4e96c113d1818058",
    "RProbeTree-h0/fixed_count": "9e4b6a01cf94578cf99432c2d408b471",
    "RProbeTree-h0/correlated_groups": "aa12131600b2bf566983f3f29d292bf1",
    "RProbeTree-h0/batched-1": "49afcce72acd714b3a497d460ff106f8",
    "RProbeTree-h0/batched-63": "8939cd3a55fc5c0f6254939b87cde2e7",
    "RProbeTree-h0/batched-65": "33814573d45f177f4b1efe4a4603c6c5",
    "RProbeTree-h0/batched-777": "cdeb46269ba380c1c2b98e7f2504607e",
    "RProbeTree-h1/chunk-1": "b7c48599452c9ce947444633fd3661a4",
    "RProbeTree-h1/chunk-63": "01fffdbd597eb25d273ce81b743b1cc5",
    "RProbeTree-h1/chunk-100": "b2ffdf0583e71f9ae2367f28ca2275b5",
    "RProbeTree-h1/chunk-2048": "9a621217c7c9aff76da62adb3a5f01c6",
    "RProbeTree-h1/jobs-2": "e327761d936bcf5481e1339ee701d2c3",
    "RProbeTree-h1/fixed_count": "0aca60891ea50a775adaa666a6cb9397",
    "RProbeTree-h1/correlated_groups": "5b14d9251e89a2c81f3d0d5defacebe3",
    "RProbeTree-h1/batched-1": "910174bc76a2cb1cdb26591d60a11ca6",
    "RProbeTree-h1/batched-63": "2a9b04a338e7325894bcbb65c77ca686",
    "RProbeTree-h1/batched-65": "30dc50bcea959223bc552cf8243bc8b6",
    "RProbeTree-h1/batched-777": "df7ff34d33b508ad73e9d74226783874",
    "RProbeTree-h5/chunk-1": "f21029ec0422bb0f6d891582399f4f99",
    "RProbeTree-h5/chunk-63": "19fb3b2d2f19ab6ce987771b84046f77",
    "RProbeTree-h5/chunk-100": "3322c3abe1598dee0e1775e3b3b9d3c9",
    "RProbeTree-h5/chunk-2048": "8d2d625727b48bc32b8eee48f058bdb4",
    "RProbeTree-h5/jobs-2": "0afb55132d2bdb60b1d873a4c03980ce",
    "RProbeTree-h5/fixed_count": "e1e515aef985e7affdba5ef102552851",
    "RProbeTree-h5/correlated_groups": "ba5dfc482f8f5a2c282187f46e22b46f",
    "RProbeTree-h5/batched-1": "4a17d87855cbc0ccbc80cb28d10b032b",
    "RProbeTree-h5/batched-63": "22f8f0f94a4122cdbe9cbb9f33633188",
    "RProbeTree-h5/batched-65": "13f9a1317d1b72edd429990117545840",
    "RProbeTree-h5/batched-777": "8a345988505e0af526d4d6a88e9bdb36",
    "RProbeHQS-h0/chunk-1": "c9d7c513464e0b10257711a52d18da53",
    "RProbeHQS-h0/chunk-63": "111f93a9f77873ec686d2b7081b84fb4",
    "RProbeHQS-h0/chunk-100": "111f93a9f77873ec686d2b7081b84fb4",
    "RProbeHQS-h0/chunk-2048": "932a4f0429e71683b4696810735e1f7b",
    "RProbeHQS-h0/jobs-2": "d2655c9f044a203d4e96c113d1818058",
    "RProbeHQS-h0/fixed_count": "9e4b6a01cf94578cf99432c2d408b471",
    "RProbeHQS-h0/correlated_groups": "aa12131600b2bf566983f3f29d292bf1",
    "RProbeHQS-h0/batched-1": "49afcce72acd714b3a497d460ff106f8",
    "RProbeHQS-h0/batched-63": "8939cd3a55fc5c0f6254939b87cde2e7",
    "RProbeHQS-h0/batched-65": "33814573d45f177f4b1efe4a4603c6c5",
    "RProbeHQS-h0/batched-777": "cdeb46269ba380c1c2b98e7f2504607e",
    "RProbeHQS-h1/chunk-1": "b7c48599452c9ce947444633fd3661a4",
    "RProbeHQS-h1/chunk-63": "52cd90ec427234c12817ec7c0f1a09e3",
    "RProbeHQS-h1/chunk-100": "693827baac0daefb94ea873cd700bd93",
    "RProbeHQS-h1/chunk-2048": "27e986526ffb6f6202455498e127a553",
    "RProbeHQS-h1/jobs-2": "5bdde14b960c9d9dccc8c6091866a590",
    "RProbeHQS-h1/fixed_count": "ca1de5cc6adbe45cca73bc87250fce0c",
    "RProbeHQS-h1/correlated_groups": "905741af178f1de8cf2da9215580355d",
    "RProbeHQS-h1/batched-1": "910174bc76a2cb1cdb26591d60a11ca6",
    "RProbeHQS-h1/batched-63": "79e0a7839b1422b2ea0b040f4fd3ff9a",
    "RProbeHQS-h1/batched-65": "08d796ed4a7d51118f197fc4a1a2fab1",
    "RProbeHQS-h1/batched-777": "1454fd252f8ec4a93724560e1867d5df",
    "RProbeHQS-h4/chunk-1": "da0f496e1a65a112314b22d0c0aeba5a",
    "RProbeHQS-h4/chunk-63": "a4fc7f337356b354eef2bbfff2cc5ade",
    "RProbeHQS-h4/chunk-100": "ca41c25524909844d061ef63bf4a133d",
    "RProbeHQS-h4/chunk-2048": "63ac9b9f65f6341be1edefdca14b77d6",
    "RProbeHQS-h4/jobs-2": "00a8bab484b644a348a5e2f8913a0263",
    "RProbeHQS-h4/fixed_count": "df6b9d3713127122d9a298ffce951211",
    "RProbeHQS-h4/correlated_groups": "116787e50bb4b332cf5a931cde730a96",
    "RProbeHQS-h4/batched-1": "3c2a240d967a64c42ca3353b551a894a",
    "RProbeHQS-h4/batched-63": "38bdc0e3dd9795ce8e2f6ddb5c97ffa5",
    "RProbeHQS-h4/batched-65": "419d641a2405ffad3d8299480061d953",
    "RProbeHQS-h4/batched-777": "ff84a9fa9882a87bd1d105ca17a83e12",
    "IRProbeHQS-h0/chunk-1": "c9d7c513464e0b10257711a52d18da53",
    "IRProbeHQS-h0/chunk-63": "111f93a9f77873ec686d2b7081b84fb4",
    "IRProbeHQS-h0/chunk-100": "111f93a9f77873ec686d2b7081b84fb4",
    "IRProbeHQS-h0/chunk-2048": "932a4f0429e71683b4696810735e1f7b",
    "IRProbeHQS-h0/jobs-2": "d2655c9f044a203d4e96c113d1818058",
    "IRProbeHQS-h0/fixed_count": "9e4b6a01cf94578cf99432c2d408b471",
    "IRProbeHQS-h0/correlated_groups": "aa12131600b2bf566983f3f29d292bf1",
    "IRProbeHQS-h0/batched-1": "49afcce72acd714b3a497d460ff106f8",
    "IRProbeHQS-h0/batched-63": "8939cd3a55fc5c0f6254939b87cde2e7",
    "IRProbeHQS-h0/batched-65": "33814573d45f177f4b1efe4a4603c6c5",
    "IRProbeHQS-h0/batched-777": "cdeb46269ba380c1c2b98e7f2504607e",
    "IRProbeHQS-h1/chunk-1": "b7c48599452c9ce947444633fd3661a4",
    "IRProbeHQS-h1/chunk-63": "52cd90ec427234c12817ec7c0f1a09e3",
    "IRProbeHQS-h1/chunk-100": "693827baac0daefb94ea873cd700bd93",
    "IRProbeHQS-h1/chunk-2048": "27e986526ffb6f6202455498e127a553",
    "IRProbeHQS-h1/jobs-2": "5bdde14b960c9d9dccc8c6091866a590",
    "IRProbeHQS-h1/fixed_count": "ca1de5cc6adbe45cca73bc87250fce0c",
    "IRProbeHQS-h1/correlated_groups": "905741af178f1de8cf2da9215580355d",
    "IRProbeHQS-h1/batched-1": "910174bc76a2cb1cdb26591d60a11ca6",
    "IRProbeHQS-h1/batched-63": "79e0a7839b1422b2ea0b040f4fd3ff9a",
    "IRProbeHQS-h1/batched-65": "08d796ed4a7d51118f197fc4a1a2fab1",
    "IRProbeHQS-h1/batched-777": "1454fd252f8ec4a93724560e1867d5df",
    "IRProbeHQS-h2/chunk-1": "c2b3e5d1a427887eece26f6285a9c1f6",
    "IRProbeHQS-h2/chunk-63": "9a4dbd5d14fd531bbdccc7fff19b5232",
    "IRProbeHQS-h2/chunk-100": "8234566203b803feb778656356e0c850",
    "IRProbeHQS-h2/chunk-2048": "841167c8200f6cc38545b48d3f838dcd",
    "IRProbeHQS-h2/jobs-2": "c30cd3ad9393ccc5c38d95fdee4eb48a",
    "IRProbeHQS-h2/fixed_count": "9d4bba3b4df323b8f7f355138adc3e6a",
    "IRProbeHQS-h2/correlated_groups": "01217744e27041f6ba98a9f2cde4b833",
    "IRProbeHQS-h2/batched-1": "7065f2f6340b536d17ac70696414612d",
    "IRProbeHQS-h2/batched-63": "d4a2c3afd4ceaedb352bc0329cbdb59e",
    "IRProbeHQS-h2/batched-65": "4f92dd745224ece6f9b58e1bd26bcee3",
    "IRProbeHQS-h2/batched-777": "6283b90531658a07c2f29fa42887a6c7",
    "IRProbeHQS-h3/chunk-1": "dc5879d3110232b5fc8e262184a8b7ac",
    "IRProbeHQS-h3/chunk-63": "b58b8d340292242cf0f0c42060a7d987",
    "IRProbeHQS-h3/chunk-100": "89059c16137eb221fe83d956c470dfb6",
    "IRProbeHQS-h3/chunk-2048": "7c170cf8772925ee76a9f9728211ffa2",
    "IRProbeHQS-h3/jobs-2": "c7643a813b89de9b58b98476ab4c8c74",
    "IRProbeHQS-h3/fixed_count": "d7bb2605cf06d58edfd0e712e6edddc5",
    "IRProbeHQS-h3/correlated_groups": "f671f64c4762dd283919bbf5fe01bc94",
    "IRProbeHQS-h3/batched-1": "089ea1578cd13fe9cac718ce8757ab19",
    "IRProbeHQS-h3/batched-63": "fce0fd92126e9e8a2d101abbe49ec329",
    "IRProbeHQS-h3/batched-65": "6b90f74b811db5690a028deed90be3f2",
    "IRProbeHQS-h3/batched-777": "f0f1f91723a0f705883de78eecd2f8d2",
    "IRProbeHQS-h4/chunk-1": "16b05799e4834b99872868ee31623fa5",
    "IRProbeHQS-h4/chunk-63": "818aab851db45028dfc5aa5a6e534fa3",
    "IRProbeHQS-h4/chunk-100": "9f9114bd6b6b6815961fc1505cee1b8b",
    "IRProbeHQS-h4/chunk-2048": "5782f354c31041498872122e67926379",
    "IRProbeHQS-h4/jobs-2": "b77a405facdb5ae6b3b5b69d1b6c6d9a",
    "IRProbeHQS-h4/fixed_count": "f2a5bbbddd89591e00871632483bddb3",
    "IRProbeHQS-h4/correlated_groups": "d50769acb4493aa342396c1aef5e5ba1",
    "IRProbeHQS-h4/batched-1": "c0588b7f198906beb6ee17a70f68673e",
    "IRProbeHQS-h4/batched-63": "b8ed02c2ce5fccb7a1b378a3e030fbe2",
    "IRProbeHQS-h4/batched-65": "640389bd79043f8555103b5319310a56",
    "IRProbeHQS-h4/batched-777": "1ac19380acc9de1667782b679994630d",
}


def _digest(*parts: bytes) -> str:
    return hashlib.blake2s(b"".join(parts), digest_size=16).hexdigest()


def stream_digest(name: str, case: str) -> str:
    algorithm = ALGORITHMS[name]()
    kwargs = dict(STREAM_CASES[case])
    source = kwargs.pop("source", None)
    if source is not None:
        kwargs["source"] = build_source(source, algorithm.system, P)
    else:
        kwargs["p"] = P
    result = stream_probes(algorithm, seed=SEED, **kwargs)
    return _digest(
        np.asarray(result.histogram, dtype=np.int64).tobytes(),
        np.int64(result.witness_red).tobytes(),
    )


def batched_digest(name: str, case: str) -> str:
    algorithm = ALGORITHMS[name]()
    trials = BATCHED_CASES[case]
    red = np.random.default_rng(2026).random((trials, algorithm.system.n)) < P
    probes, witness_green = batched_run(algorithm, red, rng=np.random.default_rng(7))
    return _digest(
        probes.astype(np.int64).tobytes(), witness_green.astype(bool).tobytes()
    )


@pytest.mark.parametrize("case", list(STREAM_CASES))
@pytest.mark.parametrize("name", list(ALGORITHMS))
def test_stream_probes_matches_pinned_digest(name, case):
    assert stream_digest(name, case) == DIGESTS[f"{name}/{case}"]


@pytest.mark.parametrize("case", list(BATCHED_CASES))
@pytest.mark.parametrize("name", list(ALGORITHMS))
def test_batched_run_matches_pinned_digest(name, case):
    assert batched_digest(name, case) == DIGESTS[f"{name}/{case}"]


#: The six permutations of a gate's children, indexed by the drawn six-way
#: choice ``k``: the order the sequential algorithms' shuffle is matched
#: against.
PERMUTATIONS_3 = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]


def test_permutation_masks_follow_the_lexicographic_table():
    # 600 lanes cover every index many times over; the code planes are the
    # bits of k, packed 64 lanes to a word.
    trials = 600
    k = np.arange(trials) % 6
    assert set(k.tolist()) == set(range(6))
    code = pack_matrix((k[:, None] >> np.arange(3)) & 1).words.T
    masks = _permutation_masks(code)
    for position in range(3):
        for child in range(3):
            expected = [PERMUTATIONS_3[value][position] == child for value in k]
            np.testing.assert_array_equal(unpack_lanes(masks[position][child], trials), expected)


@pytest.mark.parametrize("name", ["RProbeTree-h5", "RProbeHQS-h4", "IRProbeHQS-h4"])
@pytest.mark.parametrize("trials", [1, 63, 65, 777])
def test_padding_lanes_never_count(name, trials):
    algorithm = ALGORITHMS[name]()
    n = algorithm.system.n
    packed = sample_packed(BernoulliSource(n, P), n, trials, np.random.default_rng(trials))
    dirty = PackedColorings(packed.words | ~packed.valid_mask()[:, None], trials)
    clean = run_packed(algorithm, packed, np.random.default_rng(5))
    for got, expected in zip(run_packed(algorithm, dirty, np.random.default_rng(5)), clean):
        np.testing.assert_array_equal(got, expected)
