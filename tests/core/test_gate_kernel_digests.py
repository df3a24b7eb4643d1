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
same per-trial probe counts and witnesses.  The stream cases on Bernoulli
colorings (``chunk-*``, ``jobs-2``) were re-taken when those colorings
moved to the tail-queue stream ``bitplane-v3``; the ``batched-*`` cases
draw their colorings with ``generator.random`` and the padding test with
the frozen ``bitplane_v2_packed`` fixture, so they pin the kernels alone.

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
    unpack_lanes,
)
from repro.core.distributions import build_source
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
    "RProbeTree-h0/chunk-1": "47b0672379a45e4927991d8a183d46f5",
    "RProbeTree-h0/chunk-63": "991552f9b224c5ef99382377ef76c644",
    "RProbeTree-h0/chunk-100": "991552f9b224c5ef99382377ef76c644",
    "RProbeTree-h0/chunk-2048": "71a6a4b0e15d45975f03abafc8327b5f",
    "RProbeTree-h0/jobs-2": "aee7d9a1a3979968e1224477ea1ad819",
    "RProbeTree-h0/fixed_count": "9e4b6a01cf94578cf99432c2d408b471",
    "RProbeTree-h0/correlated_groups": "aa12131600b2bf566983f3f29d292bf1",
    "RProbeTree-h0/batched-1": "49afcce72acd714b3a497d460ff106f8",
    "RProbeTree-h0/batched-63": "8939cd3a55fc5c0f6254939b87cde2e7",
    "RProbeTree-h0/batched-65": "33814573d45f177f4b1efe4a4603c6c5",
    "RProbeTree-h0/batched-777": "cdeb46269ba380c1c2b98e7f2504607e",
    "RProbeTree-h1/chunk-1": "823d8951b656891bbe52e3daaa24d0ad",
    "RProbeTree-h1/chunk-63": "d59567bacc4585977a3303fe7abbe797",
    "RProbeTree-h1/chunk-100": "d59567bacc4585977a3303fe7abbe797",
    "RProbeTree-h1/chunk-2048": "ffdb242b682cee3c13ad2c442d3a4ad4",
    "RProbeTree-h1/jobs-2": "3d631eb77bc4ac67809cd8d9ff135a70",
    "RProbeTree-h1/fixed_count": "0aca60891ea50a775adaa666a6cb9397",
    "RProbeTree-h1/correlated_groups": "5b14d9251e89a2c81f3d0d5defacebe3",
    "RProbeTree-h1/batched-1": "910174bc76a2cb1cdb26591d60a11ca6",
    "RProbeTree-h1/batched-63": "2a9b04a338e7325894bcbb65c77ca686",
    "RProbeTree-h1/batched-65": "30dc50bcea959223bc552cf8243bc8b6",
    "RProbeTree-h1/batched-777": "df7ff34d33b508ad73e9d74226783874",
    "RProbeTree-h5/chunk-1": "f5d278e4ef9756d5b5debfa5c0616f8e",
    "RProbeTree-h5/chunk-63": "e0b8e7d53870808dcac0a0de519a3e02",
    "RProbeTree-h5/chunk-100": "0b718e09d8a46099fbc9b0a286b9f6c0",
    "RProbeTree-h5/chunk-2048": "fb1d9284fc76543c5e0c512f00e96997",
    "RProbeTree-h5/jobs-2": "29b33adefbb16d5951315892553d7d32",
    "RProbeTree-h5/fixed_count": "e1e515aef985e7affdba5ef102552851",
    "RProbeTree-h5/correlated_groups": "ba5dfc482f8f5a2c282187f46e22b46f",
    "RProbeTree-h5/batched-1": "4a17d87855cbc0ccbc80cb28d10b032b",
    "RProbeTree-h5/batched-63": "22f8f0f94a4122cdbe9cbb9f33633188",
    "RProbeTree-h5/batched-65": "13f9a1317d1b72edd429990117545840",
    "RProbeTree-h5/batched-777": "8a345988505e0af526d4d6a88e9bdb36",
    "RProbeHQS-h0/chunk-1": "47b0672379a45e4927991d8a183d46f5",
    "RProbeHQS-h0/chunk-63": "991552f9b224c5ef99382377ef76c644",
    "RProbeHQS-h0/chunk-100": "991552f9b224c5ef99382377ef76c644",
    "RProbeHQS-h0/chunk-2048": "71a6a4b0e15d45975f03abafc8327b5f",
    "RProbeHQS-h0/jobs-2": "aee7d9a1a3979968e1224477ea1ad819",
    "RProbeHQS-h0/fixed_count": "9e4b6a01cf94578cf99432c2d408b471",
    "RProbeHQS-h0/correlated_groups": "aa12131600b2bf566983f3f29d292bf1",
    "RProbeHQS-h0/batched-1": "49afcce72acd714b3a497d460ff106f8",
    "RProbeHQS-h0/batched-63": "8939cd3a55fc5c0f6254939b87cde2e7",
    "RProbeHQS-h0/batched-65": "33814573d45f177f4b1efe4a4603c6c5",
    "RProbeHQS-h0/batched-777": "cdeb46269ba380c1c2b98e7f2504607e",
    "RProbeHQS-h1/chunk-1": "0c23964e464334973d9b7b855832db7b",
    "RProbeHQS-h1/chunk-63": "b5bf88a0a94e40c4bfb089d491951ae2",
    "RProbeHQS-h1/chunk-100": "313d09f8abd0dce02e1ad81f1bcbba8a",
    "RProbeHQS-h1/chunk-2048": "6e1bdeb9f59ae59eae534321a69ccba9",
    "RProbeHQS-h1/jobs-2": "6140cc080c8bf8af1c8fce9396a5c7eb",
    "RProbeHQS-h1/fixed_count": "ca1de5cc6adbe45cca73bc87250fce0c",
    "RProbeHQS-h1/correlated_groups": "905741af178f1de8cf2da9215580355d",
    "RProbeHQS-h1/batched-1": "910174bc76a2cb1cdb26591d60a11ca6",
    "RProbeHQS-h1/batched-63": "79e0a7839b1422b2ea0b040f4fd3ff9a",
    "RProbeHQS-h1/batched-65": "08d796ed4a7d51118f197fc4a1a2fab1",
    "RProbeHQS-h1/batched-777": "1454fd252f8ec4a93724560e1867d5df",
    "RProbeHQS-h4/chunk-1": "7c3638d5e4b3a2d02025e7edb47c49a5",
    "RProbeHQS-h4/chunk-63": "35bfcb0bc09460e14e23a83d14362e69",
    "RProbeHQS-h4/chunk-100": "fd10ee9c94f2a895cd83f14ce3999641",
    "RProbeHQS-h4/chunk-2048": "ee4b878b907239ace598675a5b8d6cec",
    "RProbeHQS-h4/jobs-2": "fc53acb36a4938904a9f1cd4f5634a7f",
    "RProbeHQS-h4/fixed_count": "df6b9d3713127122d9a298ffce951211",
    "RProbeHQS-h4/correlated_groups": "116787e50bb4b332cf5a931cde730a96",
    "RProbeHQS-h4/batched-1": "3c2a240d967a64c42ca3353b551a894a",
    "RProbeHQS-h4/batched-63": "38bdc0e3dd9795ce8e2f6ddb5c97ffa5",
    "RProbeHQS-h4/batched-65": "419d641a2405ffad3d8299480061d953",
    "RProbeHQS-h4/batched-777": "ff84a9fa9882a87bd1d105ca17a83e12",
    "IRProbeHQS-h0/chunk-1": "47b0672379a45e4927991d8a183d46f5",
    "IRProbeHQS-h0/chunk-63": "991552f9b224c5ef99382377ef76c644",
    "IRProbeHQS-h0/chunk-100": "991552f9b224c5ef99382377ef76c644",
    "IRProbeHQS-h0/chunk-2048": "71a6a4b0e15d45975f03abafc8327b5f",
    "IRProbeHQS-h0/jobs-2": "aee7d9a1a3979968e1224477ea1ad819",
    "IRProbeHQS-h0/fixed_count": "9e4b6a01cf94578cf99432c2d408b471",
    "IRProbeHQS-h0/correlated_groups": "aa12131600b2bf566983f3f29d292bf1",
    "IRProbeHQS-h0/batched-1": "49afcce72acd714b3a497d460ff106f8",
    "IRProbeHQS-h0/batched-63": "8939cd3a55fc5c0f6254939b87cde2e7",
    "IRProbeHQS-h0/batched-65": "33814573d45f177f4b1efe4a4603c6c5",
    "IRProbeHQS-h0/batched-777": "cdeb46269ba380c1c2b98e7f2504607e",
    "IRProbeHQS-h1/chunk-1": "0c23964e464334973d9b7b855832db7b",
    "IRProbeHQS-h1/chunk-63": "b5bf88a0a94e40c4bfb089d491951ae2",
    "IRProbeHQS-h1/chunk-100": "313d09f8abd0dce02e1ad81f1bcbba8a",
    "IRProbeHQS-h1/chunk-2048": "6e1bdeb9f59ae59eae534321a69ccba9",
    "IRProbeHQS-h1/jobs-2": "6140cc080c8bf8af1c8fce9396a5c7eb",
    "IRProbeHQS-h1/fixed_count": "ca1de5cc6adbe45cca73bc87250fce0c",
    "IRProbeHQS-h1/correlated_groups": "905741af178f1de8cf2da9215580355d",
    "IRProbeHQS-h1/batched-1": "910174bc76a2cb1cdb26591d60a11ca6",
    "IRProbeHQS-h1/batched-63": "79e0a7839b1422b2ea0b040f4fd3ff9a",
    "IRProbeHQS-h1/batched-65": "08d796ed4a7d51118f197fc4a1a2fab1",
    "IRProbeHQS-h1/batched-777": "1454fd252f8ec4a93724560e1867d5df",
    "IRProbeHQS-h2/chunk-1": "be4daf8c4d680c48dcaec048454c1b1f",
    "IRProbeHQS-h2/chunk-63": "7f5616a3dd2cbef3b260af969a9ba86b",
    "IRProbeHQS-h2/chunk-100": "6af0d77fad9a6ad71c24da3dc4de2537",
    "IRProbeHQS-h2/chunk-2048": "bf925cc7cae36a46f5b669c7dd3cd385",
    "IRProbeHQS-h2/jobs-2": "55d28b6fc26e7b194d5e0f970c693ab3",
    "IRProbeHQS-h2/fixed_count": "9d4bba3b4df323b8f7f355138adc3e6a",
    "IRProbeHQS-h2/correlated_groups": "01217744e27041f6ba98a9f2cde4b833",
    "IRProbeHQS-h2/batched-1": "7065f2f6340b536d17ac70696414612d",
    "IRProbeHQS-h2/batched-63": "d4a2c3afd4ceaedb352bc0329cbdb59e",
    "IRProbeHQS-h2/batched-65": "4f92dd745224ece6f9b58e1bd26bcee3",
    "IRProbeHQS-h2/batched-777": "6283b90531658a07c2f29fa42887a6c7",
    "IRProbeHQS-h3/chunk-1": "b620c314bc8e616dc262505545428905",
    "IRProbeHQS-h3/chunk-63": "97b2b1a8541305c06d9dd29a210d5a2a",
    "IRProbeHQS-h3/chunk-100": "e4abbebfc28a8d0a9af2d427c52c8e7b",
    "IRProbeHQS-h3/chunk-2048": "ea01bd0486272e267b7ad3ec9e9b2efe",
    "IRProbeHQS-h3/jobs-2": "358d68ae3c2f34200fc2c3206b914013",
    "IRProbeHQS-h3/fixed_count": "d7bb2605cf06d58edfd0e712e6edddc5",
    "IRProbeHQS-h3/correlated_groups": "f671f64c4762dd283919bbf5fe01bc94",
    "IRProbeHQS-h3/batched-1": "089ea1578cd13fe9cac718ce8757ab19",
    "IRProbeHQS-h3/batched-63": "fce0fd92126e9e8a2d101abbe49ec329",
    "IRProbeHQS-h3/batched-65": "6b90f74b811db5690a028deed90be3f2",
    "IRProbeHQS-h3/batched-777": "f0f1f91723a0f705883de78eecd2f8d2",
    "IRProbeHQS-h4/chunk-1": "622c7b52000fa3f9165a25ea8883b6de",
    "IRProbeHQS-h4/chunk-63": "b234c0fb7980073641822a9b0f1582f0",
    "IRProbeHQS-h4/chunk-100": "8519d87e8eb174bd9a6c25e2842885e1",
    "IRProbeHQS-h4/chunk-2048": "a2d217b2e1292c228340f665af69979c",
    "IRProbeHQS-h4/jobs-2": "b2106ff5fdaa48c509802db40d6bc9d0",
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
def test_padding_lanes_never_count(name, trials, bitplane_v2_packed):
    algorithm = ALGORITHMS[name]()
    n = algorithm.system.n
    packed = bitplane_v2_packed(n, P, trials, trials)
    dirty = PackedColorings(packed.words | ~packed.valid_mask()[:, None], trials)
    clean = run_packed(algorithm, packed, np.random.default_rng(5))
    for got, expected in zip(run_packed(algorithm, dirty, np.random.default_rng(5)), clean):
        np.testing.assert_array_equal(got, expected)
