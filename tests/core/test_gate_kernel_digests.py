"""Per-seed pins of the randomized gate kernels through the engine.

R_Probe_Tree, R_Probe_HQS and IR_Probe_HQS draw their order choices from
the chunk's algorithm generator, so every estimate they produce depends on
exactly which ``generator.integers`` calls a kernel makes and what it makes
of them.  The blake2s digests below were taken from the numpy gate kernels
these algorithms ran on before they moved to bit-planes; a kernel rewrite
keeps them only by making the same draws in the same order and computing
the same per-trial probe counts and witnesses.

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
    _draw_planes,
    _permutation_masks,
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
    "RProbeTree-h1/chunk-1": "81a81330b878341e261243453c3b066d",
    "RProbeTree-h1/chunk-63": "01fffdbd597eb25d273ce81b743b1cc5",
    "RProbeTree-h1/chunk-100": "453aa752c843fe9ad9dd7aae4c09f3b8",
    "RProbeTree-h1/chunk-2048": "8a40a022adea10547d64bbbcb56e3695",
    "RProbeTree-h1/jobs-2": "647c787b31cb10bd59da1ab76b578ca0",
    "RProbeTree-h1/fixed_count": "c1b19d68c0a3e48f7e6bfa43850e7e6e",
    "RProbeTree-h1/correlated_groups": "6c5f75c5a9389043c6417d357fccf7b3",
    "RProbeTree-h1/batched-1": "95df30a9264733ed953d2170a38193e0",
    "RProbeTree-h1/batched-63": "30d8b36f97cc833b96585c723737d0b0",
    "RProbeTree-h1/batched-65": "e54b3723cf69ff532fcd690771508096",
    "RProbeTree-h1/batched-777": "3fe87e789275ec4c202b92193b24e817",
    "RProbeTree-h5/chunk-1": "eae46452fa1b4139bc73df535b4bae72",
    "RProbeTree-h5/chunk-63": "c90c51e62007392a7cefd5475b27996e",
    "RProbeTree-h5/chunk-100": "3b45bdb9060e732b9424a2e3a64d7973",
    "RProbeTree-h5/chunk-2048": "bee4e15f7d01e44cd0b28b22174ce1d1",
    "RProbeTree-h5/jobs-2": "328fcee8b0ba9ae299a6b8ec819ff689",
    "RProbeTree-h5/fixed_count": "3bd7e36d8cc8a73716f2affcf963c462",
    "RProbeTree-h5/correlated_groups": "60b15a76e113311170a59360105ad942",
    "RProbeTree-h5/batched-1": "4431802c58fea732d3126edb100d13bb",
    "RProbeTree-h5/batched-63": "d5a8b12173e872e734efdfb415eb8f05",
    "RProbeTree-h5/batched-65": "25985ad67979a59cb538e6c97e97ac75",
    "RProbeTree-h5/batched-777": "b840dfe71a7abd4c9fb614f937b05e2b",
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
    "RProbeHQS-h1/chunk-1": "019dfabb204d76d5e35c340fa49bbbb4",
    "RProbeHQS-h1/chunk-63": "2112b8c7456739f3ee80b3fef9aef78b",
    "RProbeHQS-h1/chunk-100": "57e9a7ba489120b66e273a62fcc56eee",
    "RProbeHQS-h1/chunk-2048": "75635c7cfc16e154c79c758f84ae3c9b",
    "RProbeHQS-h1/jobs-2": "ad18e5ac8c2bc48529bc4005d88e52b7",
    "RProbeHQS-h1/fixed_count": "8bfdd8ed086dc0ea8cdad56b72b1e9e6",
    "RProbeHQS-h1/correlated_groups": "4358422b3493d7ade152ed8122f3e70f",
    "RProbeHQS-h1/batched-1": "95df30a9264733ed953d2170a38193e0",
    "RProbeHQS-h1/batched-63": "ac21caf9bfad8f645ab9207a32fc89db",
    "RProbeHQS-h1/batched-65": "e48e5a56942c1860c3e6911c7a2d16d0",
    "RProbeHQS-h1/batched-777": "88241645ddbf562789be92e54ea67eba",
    "RProbeHQS-h4/chunk-1": "fac382c1a5b6ea264fe783afafdb7468",
    "RProbeHQS-h4/chunk-63": "ce1bf1beaf475aeaff83bd2a632580a3",
    "RProbeHQS-h4/chunk-100": "6c33c2d6f425c95e604b231dce0ab3c9",
    "RProbeHQS-h4/chunk-2048": "e2db79e501bc21c69d7741390d19051a",
    "RProbeHQS-h4/jobs-2": "530963712b2535753ab47684f6bdd3d0",
    "RProbeHQS-h4/fixed_count": "6430d94c3603e795a10a0b54115bc525",
    "RProbeHQS-h4/correlated_groups": "7d0b2074ad914d79eb612b213baa6c4f",
    "RProbeHQS-h4/batched-1": "36cc3ffcb5526e838f1f57c1fc623100",
    "RProbeHQS-h4/batched-63": "f4291159862722d5244a8c97c9a9b70e",
    "RProbeHQS-h4/batched-65": "80eac292d2bf3cd1531a6c325f57eef3",
    "RProbeHQS-h4/batched-777": "ec9b362c689be72339d29178cbd0b1d3",
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
    "IRProbeHQS-h1/chunk-1": "019dfabb204d76d5e35c340fa49bbbb4",
    "IRProbeHQS-h1/chunk-63": "2112b8c7456739f3ee80b3fef9aef78b",
    "IRProbeHQS-h1/chunk-100": "57e9a7ba489120b66e273a62fcc56eee",
    "IRProbeHQS-h1/chunk-2048": "75635c7cfc16e154c79c758f84ae3c9b",
    "IRProbeHQS-h1/jobs-2": "ad18e5ac8c2bc48529bc4005d88e52b7",
    "IRProbeHQS-h1/fixed_count": "8bfdd8ed086dc0ea8cdad56b72b1e9e6",
    "IRProbeHQS-h1/correlated_groups": "4358422b3493d7ade152ed8122f3e70f",
    "IRProbeHQS-h1/batched-1": "95df30a9264733ed953d2170a38193e0",
    "IRProbeHQS-h1/batched-63": "ac21caf9bfad8f645ab9207a32fc89db",
    "IRProbeHQS-h1/batched-65": "e48e5a56942c1860c3e6911c7a2d16d0",
    "IRProbeHQS-h1/batched-777": "88241645ddbf562789be92e54ea67eba",
    "IRProbeHQS-h2/chunk-1": "ebf84857d7a51a4b055cc37a83ce8fec",
    "IRProbeHQS-h2/chunk-63": "fb3193c9c149d41c2e031478d1ceff54",
    "IRProbeHQS-h2/chunk-100": "477afc37564532bd8ae9044627c7448a",
    "IRProbeHQS-h2/chunk-2048": "70bf541ef3d2a1d2e7d5920841d6d805",
    "IRProbeHQS-h2/jobs-2": "c7003f6d689d733a945b0403e25469cb",
    "IRProbeHQS-h2/fixed_count": "cdf322d15fd12430c5b4485d3e4fd00c",
    "IRProbeHQS-h2/correlated_groups": "ed41f15aed3b6fe9b7594ebb9a07ed85",
    "IRProbeHQS-h2/batched-1": "ee0e228d0f5cec826a0927f970e3ddb7",
    "IRProbeHQS-h2/batched-63": "68e5275394146f72f894ce69da4c556c",
    "IRProbeHQS-h2/batched-65": "e73d01dff36063ff4687649aeb907fa2",
    "IRProbeHQS-h2/batched-777": "c7f3502eb84fbe742d2fcc2368dae654",
    "IRProbeHQS-h3/chunk-1": "20725a8deb2aafbe4c38992a78201afc",
    "IRProbeHQS-h3/chunk-63": "5f361b3eda76c08d220051dd94175686",
    "IRProbeHQS-h3/chunk-100": "271b3a99fe0f6ec9b911510f7d823732",
    "IRProbeHQS-h3/chunk-2048": "21160108904678c9a18e84de2ee6b7f4",
    "IRProbeHQS-h3/jobs-2": "037f5430e7143ba7fcb866cf794f7b1b",
    "IRProbeHQS-h3/fixed_count": "678c76e068bd9f69950599d7fa89bde9",
    "IRProbeHQS-h3/correlated_groups": "b1ced9de89c2e6d1a3d97cf0031f7e6d",
    "IRProbeHQS-h3/batched-1": "1ed3b4492704626abe1dbbbe27390307",
    "IRProbeHQS-h3/batched-63": "4ea619312abe41df1e7b07da475212e7",
    "IRProbeHQS-h3/batched-65": "ac3587768b64837925ccef8bbaff780d",
    "IRProbeHQS-h3/batched-777": "5a505eb109deca8706a946e728563690",
    "IRProbeHQS-h4/chunk-1": "10c57bf194031882ccbd6017b209ce7a",
    "IRProbeHQS-h4/chunk-63": "cd426cb11bf0ffb04c03203330958c32",
    "IRProbeHQS-h4/chunk-100": "710920783980734f04f6eb928d6156e0",
    "IRProbeHQS-h4/chunk-2048": "de218374aa9bfe55e6507844cc028c78",
    "IRProbeHQS-h4/jobs-2": "45c2d37ed91b5217aeab632602994f61",
    "IRProbeHQS-h4/fixed_count": "f3f3b34b199c57dd8a2a074028ed8451",
    "IRProbeHQS-h4/correlated_groups": "409d871b92f4ef9b24045539691f9dc6",
    "IRProbeHQS-h4/batched-1": "3c2a240d967a64c42ca3353b551a894a",
    "IRProbeHQS-h4/batched-63": "f5c96a6af4d6e9e77e7158aaa515e988",
    "IRProbeHQS-h4/batched-65": "9ee5d8ac0b32d65beb0d340ca61dadbc",
    "IRProbeHQS-h4/batched-777": "e3a63cc8f0da57abc470ad7118ee4436",
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


#: The six permutations of a gate's children, indexed by the drawn
#: ``integers(6)`` value: the order the sequential algorithms' shuffle is
#: matched against.
PERMUTATIONS_3 = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]


def test_permutation_masks_follow_the_lexicographic_table():
    # 600 draws of one gate cover every index many times over.
    trials = 600
    [code] = _draw_planes(np.random.default_rng(0), 6, trials, [1])
    k = np.random.default_rng(0).integers(6, size=trials)
    assert set(k.tolist()) == set(range(6))
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
