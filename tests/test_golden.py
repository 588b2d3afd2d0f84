"""Golden SHA-256 digests of the engine's exact outputs.

The series and report digests were computed before the Hilbert fold and
`TruncatedSeries.mul` moved onto the gcd lattice, the digest of the
`stemsize verify --suite torsion` stdout (seed 1729) before its exhaustive
scans moved to pure-Python integer prefix sums, the torsion digests for
seeds 1720-1723 before those scans shared one table of each kind per run,
the A(n;t) and P(A;t) digests while `ehp` still counted by listing every
sequence, and the digest of the whole `stemsize verify --suite all` stdout
before `instantiate` took each subtree's degree floor from its own walk, so
any change of an output byte under a later kernel change fails here.  Each series digest covers one
configuration over all of its truncations.  To print the table for the
code on the path (only when an output is meant to change), run
``python tests/test_golden.py``.
"""

import contextlib
import hashlib
import io
import json

import pytest

from stemsize.algebra import hilbert, hilbert_cumulative
from stemsize.asymptotics import bracketing_check
from stemsize.cli import main
from stemsize.ehp import a_series, admissible_series
from stemsize.presets import max_over_h, preset

PRIMES = (2, 3, 5)
TRUNCS = (0, 1, 2, 97, 4096)
MAX_OVER_H_TRUNCS = (0, 1, 2, 97)
A_TRUNCS = (0, 1, 2, 97, 150)
ADMISSIBLE_TRUNCS = (0, 1, 2, 97, 250)

# (preset name, keyword arguments): every preset with valid parameters.
PRESET_CASES = (
    ("may_e1", {"drop_q0": True}),
    ("may_e1", {"drop_q0": True, "simplify_odd": True}),
    ("may_model", {}),
    ("dual_steenrod", {}),
    ("s_k", {"k": 0}),
    ("s_k", {"k": 1}),
    ("s_k", {"k": 2}),
    ("r_h_e2", {"h": 1}),
    ("r_h_e2", {"h": 2}),
    ("r_h_e2", {"h": 3}),
    ("r_h_einf", {"h": 1}),
    ("r_h_einf", {"h": 2}),
    ("r_h_einf", {"h": 3}),
    ("y_h_lifted", {"h": 1}),
    ("y_h_lifted", {"h": 2}),
    ("mrs_e2_model", {"h": 1}),
    ("mrs_e2_model", {"h": 2}),
    ("yn_conj", {"h": 1}),
    ("yn_conj", {"h": 2}),
    ("yn_conj", {"h": 3}),
    ("q_poly", {"drop_q0": True}),
)

# (model, p, largest m); every m from 2 up to it is covered.
BRACKET_CASES = (
    ("may_model", 2, 6),
    ("may_model", 3, 4),
    ("may_model", 5, 3),
    ("r_h_e2", 2, 6),
    ("r_h_e2", 3, 4),
    ("r_h_e2", 5, 3),
    ("r_h_einf", 2, 6),
    ("r_h_einf", 3, 4),
    ("r_h_einf", 5, 3),
)


def _digest(parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\n")
    return h.hexdigest()


def _preset_digest(name, p, kwargs):
    spec = preset(name, p, **kwargs)
    parts = []
    for n in TRUNCS:
        parts.append(hilbert(spec, n).to_json())
        parts.append(hilbert_cumulative(spec, n).to_json())
    return spec.label, _digest(parts)


def _bracket_digest(model, p, m_top):
    return f"{model} p={p} m=2..{m_top}", _digest(
        json.dumps(bracketing_check(p, m, model).to_json_obj(), sort_keys=True)
        for m in range(2, m_top + 1)
    )


def _max_over_h_digest(family, p):
    parts = []
    for n in MAX_OVER_H_TRUNCS:
        best = max_over_h(family, p, n)
        parts.append(best.series.to_json())
        parts.append(json.dumps(best.argmax))
    return f"max_over_h {family} p={p}", _digest(parts)


def _a_series_digest(p, n):
    return f"a_series p={p} n={n}", _digest(
        a_series(p, n, trunc).to_json() for trunc in A_TRUNCS
    )


def _admissible_digest(p):
    return f"admissible_series p={p}", _digest(
        admissible_series(p, trunc).to_json() for trunc in ADMISSIBLE_TRUNCS
    )


def _verify_digest(suite, seed):
    """SHA-256 of the `stemsize verify` stdout, as `sha256sum` prints it."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(["verify", "--suite", suite, "--seed", str(seed)])
    label = f"verify --suite {suite} --seed {seed}"
    return label, hashlib.sha256(buf.getvalue().encode()).hexdigest()


PRESET_PARAMS = [(name, p, kw) for name, kw in PRESET_CASES for p in PRIMES]
MAX_OVER_H_PARAMS = [(f, p) for f in ("r_h_e2", "r_h_einf") for p in PRIMES]
VERIFY_CASES = (
    ("torsion", 1720), ("torsion", 1721), ("torsion", 1722), ("torsion", 1723),
    ("torsion", 1729), ("all", 1729),
)
A_CASES = ((2, 1), (2, 2), (2, 5), (3, 1), (3, 4), (5, 2), (7, 3))
ADMISSIBLE_PRIMES = (2, 3, 5, 7)


def _id(value):
    if isinstance(value, dict):
        return ",".join(f"{k}={v}" for k, v in value.items()) or "-"
    return str(value)


GOLDEN = {
    "may_e1(p=2, drop_q0)": "065b4625fa36ca8177e3bdd61d5075d65a2ab6fbfbf2a18c483f7f9f48dd62cb",
    "may_e1(p=3, drop_q0)": "4e5b6af03bedf90844b0b6a23d689775557251200a7fc6246117980d1edc59d8",
    "may_e1(p=5, drop_q0)": "0f929238c697baf41968f408f3a683d106195e06318a23faaf23ab66ad16a8f8",
    "may_e1(p=2, drop_q0, simplify_odd)": "065b4625fa36ca8177e3bdd61d5075d65a2ab6fbfbf2a18c483f7f9f48dd62cb",
    "may_e1(p=3, drop_q0, simplify_odd)": "59d311e1a2f0b9fde8e4d7a30f53d2218ef9b977e815687338e0598da4a13d3b",
    "may_e1(p=5, drop_q0, simplify_odd)": "bc5900016a00d67017f04e35c7802790b63bde907c871de359ef0e2f1e91e889",
    "may_model(p=2)": "e2ab8c58f53b1bb8bc452379de6332f972c74c8c94f542b33e7255853b0619e4",
    "may_model(p=3)": "70404888aeaea669b0f991bc9cead6a8c0ea3a3ca073a650e6717a88cef52d62",
    "may_model(p=5)": "4fa8e4fdd17acfdcc45a2bb0e7cf3a2d166bcc4b27f71d01a91bcecd1fc0d736",
    "dual_steenrod(p=2)": "6dfebefab340767a323b6980c9780545ff1030b123f617a244dda07037b264f1",
    "dual_steenrod(p=3)": "0a832a7b04277d25ff8c1548a56fddf8bc77f12b2cdffb53896efa7413f9c5dc",
    "dual_steenrod(p=5)": "3a1cd1c9fe15768ed11c0197c54225f9d733356c46b0b0f258b33de7f12c57ae",
    "s_k(p=2, k=0)": "48e4b4edc68303af36d7355c88a78b4042d1142256bb11b907d02845c727eaca",
    "s_k(p=3, k=0)": "bb50332b81133176d4ebc8be4fe6dd8f0ea8fa481c2a02db767f5e25fba46e10",
    "s_k(p=5, k=0)": "b3e934cb68d8061575b75561c8eaa14ed4d8054a62ded7e98c326781d4b229d4",
    "s_k(p=2, k=1)": "fb40385b10de7fe20839f0d55cf2114fa9a5625b4a2755b82edda58b94854050",
    "s_k(p=3, k=1)": "b9d0710b128257f87fe5b182df16333a6b78bea0be2216fd8df4e7ab2cd11d8b",
    "s_k(p=5, k=1)": "56cb09b67cb81c35402b0657dd077809ac167373f2fd0cd734ef82160606677a",
    "s_k(p=2, k=2)": "6ed59a14e086dcf2071eabab09fe4ffc6629cd0f10fcc15f9ba7ef9de83dd8fe",
    "s_k(p=3, k=2)": "7fe162b58896c2116b5ee0be7872f9a462b567ac64a06e2e620cb5ec603c2725",
    "s_k(p=5, k=2)": "981e0c652ee78dbfe12b254456e30a3aa6862a2dff60952bd51a6b14c0347b71",
    "r_h_e2(p=2, h=1)": "fb40385b10de7fe20839f0d55cf2114fa9a5625b4a2755b82edda58b94854050",
    "r_h_e2(p=3, h=1)": "b9d0710b128257f87fe5b182df16333a6b78bea0be2216fd8df4e7ab2cd11d8b",
    "r_h_e2(p=5, h=1)": "56cb09b67cb81c35402b0657dd077809ac167373f2fd0cd734ef82160606677a",
    "r_h_e2(p=2, h=2)": "fd5b04ca968060f4a3d0394ffa6164430f01760f37c0810c54744262d8b6c293",
    "r_h_e2(p=3, h=2)": "8f98b373b5eb013a8b4187e15ed9a3c04de9a9405ea91841695c09c671c2a362",
    "r_h_e2(p=5, h=2)": "6960c78521bc182e55d2e9e75ef3f7713d2cb4664fcfe308b3bd2ed476c5851d",
    "r_h_e2(p=2, h=3)": "51acf9d1e6906cd35a1a1c33b9499fc3af79a02b17c1d2753a934ccd985122b2",
    "r_h_e2(p=3, h=3)": "f28623310a8ebed16ead2a45687fc4c4c49dbb5e4b5af37bd08d74bf376c1442",
    "r_h_e2(p=5, h=3)": "b9612b9a1434fb41da438015c30abddf11117d28a464aeaa78645d5b5a8c124c",
    "r_h_einf(p=2, h=1)": "fb40e32faa0d916dfdc86db7c16e51b11ab1fc0424a3d5e708a667cfa4938ae0",
    "r_h_einf(p=3, h=1)": "fb40e32faa0d916dfdc86db7c16e51b11ab1fc0424a3d5e708a667cfa4938ae0",
    "r_h_einf(p=5, h=1)": "fb40e32faa0d916dfdc86db7c16e51b11ab1fc0424a3d5e708a667cfa4938ae0",
    "r_h_einf(p=2, h=2)": "af208505e9d29c422fef2996827facddbda97d3f393b773b5415d4f8884f9860",
    "r_h_einf(p=3, h=2)": "677b9f13c95552d316b1d4246b83eff3165ad8b80bc97eb391e41aa35bd6361e",
    "r_h_einf(p=5, h=2)": "5ec5615584fd7d83e7b7aa58499a100f7e8073a226c50fc90a3722ad79eae861",
    "r_h_einf(p=2, h=3)": "0fcf54e6ca9dba7c86192203e73f882d9e9030353af1af8b1a21c5f0d2ba621c",
    "r_h_einf(p=3, h=3)": "2c8b61ff0a209e0d0725bc64c97078253a719ac933ae4bcf0a37df8487cfc358",
    "r_h_einf(p=5, h=3)": "264df074351b521cd58266566684b679384c01f90331d4efe97e3865594e3f74",
    "y_h_lifted(p=2, h=1)": "a8a326157a826d4070eb9fada07fd42f25fc8a7f564653a19325e7bd7ddc083a",
    "y_h_lifted(p=3, h=1)": "2cd16c89f0385a80d174cf07a4e00a647334b6ab4486cdee89f14ce215d7216d",
    "y_h_lifted(p=5, h=1)": "bf4b51fdb79276cdaa776f70c161fff6dfa2961dea0a5015b085394499f03bcc",
    "y_h_lifted(p=2, h=2)": "c43bbd8cd88d07f91dda8905b47c366e3f381b42614210522d4ce852210459a4",
    "y_h_lifted(p=3, h=2)": "5744539dbaba128a7ceb9457b0d947c49bf13a7df4debdbcaa648328a52b2b42",
    "y_h_lifted(p=5, h=2)": "fb40e32faa0d916dfdc86db7c16e51b11ab1fc0424a3d5e708a667cfa4938ae0",
    "mrs_e2_model(p=2, h=1)": "7cc9c4168dc3a047006e5e220978f47e132fd57b6c8547eb5e7a86f00c965d95",
    "mrs_e2_model(p=3, h=1)": "1b3787b9b7a4451ae8c02620d86707693a490342fd8f04cc55abb7c7e541c0ad",
    "mrs_e2_model(p=5, h=1)": "6bbd80086716266d06e8c7cf638b2d71af0e57399787ee198f441d8aae743041",
    "mrs_e2_model(p=2, h=2)": "de83e8943655a99d9077e0f20dfbf60bfbd5c4e51d5cd78e1b3cbeddbd7e0739",
    "mrs_e2_model(p=3, h=2)": "dc30298d7c3f187f550fb5ac1649899e67f5d73804a1e9510e8227a3eb8f46cb",
    "mrs_e2_model(p=5, h=2)": "4fd8191722ad4214e0835e26c2086c5ca0253f8cef62aa492d908a219db87129",
    "yn_conj(p=2, h=1)": "3ce46de63911029b25bdd11cd61ead729efdccd53ced72d4b5ea5b638c13ce16",
    "yn_conj(p=3, h=1)": "9884cb6c2ff10b21ee38af387a85c30f4c5358945499d67993db72403de1c43c",
    "yn_conj(p=5, h=1)": "fc88177d4afc9fe1382e607db4e4b90a54d38d4590e77c5d39eb751a39648371",
    "yn_conj(p=2, h=2)": "341979c6b7ce5cd97ddd14f8eacda62a3f72c3405f7aae3806bf75f12d673011",
    "yn_conj(p=3, h=2)": "65b4375cedfd42a9e26c6d2a5b2828aa51ed205280358ca851592d08eea6503c",
    "yn_conj(p=5, h=2)": "df784be1bb91243db24959a5ec3ad6c4499c97074c3e73265b4d68657114039f",
    "yn_conj(p=2, h=3)": "88238d05e7ef3b67e118e4f576ed17f567133ecc92595b4a622517a7ac1f1f0f",
    "yn_conj(p=3, h=3)": "8b2af4e41c3883865fa784181b5d572f137e0011b0b5f51f8553fd8861d2b8d3",
    "yn_conj(p=5, h=3)": "b944a8b9a9ae0d73405c27684f5006c3fbd81c78b4ad9c48b1eac6eaecd7ad74",
    "q_poly(p=2, drop_q0)": "2d2205cd27565813683c5745fce6ce0576ca02ac2c038e6b1f8419d347669424",
    "q_poly(p=3, drop_q0)": "5260f1e4caa9aed9ddd7522f8be840b39c8dcbdea4c7ec609ec752c76cd4ebba",
    "q_poly(p=5, drop_q0)": "8d3f024ace659c30a8a10d15e50d2353cd501f22c484398530ab7d754db4272d",
    "may_model p=2 m=2..6": "81b2af8dbc85a9fdb531694ea06d7b4fdbdb53dc91bae5b9ceef6b0a28dbbf90",
    "may_model p=3 m=2..4": "aaa138ef9af7024f8f99ede85121be1e086ec010e905df1fe33918f015f5f5c9",
    "may_model p=5 m=2..3": "513cbd80e5f75e0c46900820fa958fefc6bb9e36175908c9eb028430ffb90570",
    "r_h_e2 p=2 m=2..6": "34a4c75fb40db664e7cec4ff3c279c879e6f06482e38b2784be6a236b4f015d9",
    "r_h_e2 p=3 m=2..4": "9ced27393565b9b60e1cbfa60a5fac5b7e8ae3b5a6e303e513597aed95311fea",
    "r_h_e2 p=5 m=2..3": "98394ec4a5ce57a1bb7ce207c699691df0a757c95025eece1cc1cd2767a60193",
    "r_h_einf p=2 m=2..6": "1e4a4a8356e2bd2bb0e8b9923a4bab6d56267b620c67986f75fba808d28bf802",
    "r_h_einf p=3 m=2..4": "65ac5027f8ef57c085feea3df6b5200b1f3a49d8aa693122ac73c8b408adcfc9",
    "r_h_einf p=5 m=2..3": "1912a7b7113b29b87c42c378300e68b9d32960cf068de3283e3386df0d8c4506",
    "max_over_h r_h_e2 p=2": "7a642e25f0c176546d10e7e9d275c13416df0680fa4c2a9ca4438143a5b75574",
    "max_over_h r_h_e2 p=3": "c7b694b854c1e3a99e4deb0758fe1c7d0d3f77875daa10a5e7742e8f07cf88cb",
    "max_over_h r_h_e2 p=5": "3a7dcb4d81d31a2989ddf096b46ddb58baabbf76a8de05a19c750752ddf5f89e",
    "max_over_h r_h_einf p=2": "5d95dfdab873822088d397f912d7a1271df0087b61ec677c8609f6b0d07014f3",
    "max_over_h r_h_einf p=3": "9ec9355d50555dcb23add044954a98a01753cd3a91d7fb5eb32af35c7974aa15",
    "max_over_h r_h_einf p=5": "4ab9be895625f3a4c0dee3493565f14239efe96c6c799cd16408d3d7fafc8787",
    "verify --suite torsion --seed 1720": "74f4bbfcfa3dc03fa4794c43ccbf17b6ff977b7a58ac953038f4bf839cc4191a",
    "verify --suite torsion --seed 1721": "a3f8eee286f567a8ecf33332c983e399181e80cc4d02ddb8be59dc2fb7b98a5e",
    "verify --suite torsion --seed 1722": "ef19117ddef81a73a6ca9cf3f64c25db27ab4a9a191d1dbabbc98189fb8c4432",
    "verify --suite torsion --seed 1723": "c7c6ae61730c4bac8c0ead403078e4d0031e9b6be3b5cb7a7f276d4eb7a0c9e2",
    "verify --suite torsion --seed 1729": "09afce0b636fd30027c4773c012e2c540df77edca76745b736cee14742bb9cad",
    "verify --suite all --seed 1729": "04ff473ac4905e63032d68533c55f3750fbf55fe63a1edce95d892cbb1089001",
    "a_series p=2 n=1": "4fc5490d694a79106023740968b69b3baa1b7c21f91c60294c2b777c968d6a1a",
    "a_series p=2 n=2": "c412e98ba5c05e4a9055f96463c54bb36b76e101547dd53048dc4d5c3713eed4",
    "a_series p=2 n=5": "894d037a0a68fd38876cc59eab692daf851ed5738930b817d950759e6a3feb01",
    "a_series p=3 n=1": "3ae335cf5b8d9d6409ea6efc709ac4e5d5aeb429d1649bb6a80056a7754ab6a0",
    "a_series p=3 n=4": "b613a47dc1d931236ed7a7035f5c1b2da15cb1437690d6ec41a4db02443500b0",
    "a_series p=5 n=2": "8d6a99cd93ad721068103c5527f355e490de2e9d84db727996ac7d758f909f59",
    "a_series p=7 n=3": "994c24467b004be7433822a1a0230eef81ebcc4d6dd4ad12323551007ab838b9",
    "admissible_series p=2": "bc7c5427a4b465dc0b2d2acf22d55992c0f9061d346e7d06fd0d8fd5af1a0936",
    "admissible_series p=3": "638c15e288a76672d52fc9c43203f5271c40bd8b36edc0721c5e2a46686754fd",
    "admissible_series p=5": "8cc8a22b12d42d9b43b6862185a25843912e182c6d5eee81d9ebf6e256664fb4",
    "admissible_series p=7": "ad908f1d2e59becbf3a59fa7f8f3a4170a179da46902168cddb5c895ff5f94b4",
}


@pytest.mark.parametrize("name,p,kwargs", PRESET_PARAMS, ids=_id)
def test_preset_series(name, p, kwargs):
    label, digest = _preset_digest(name, p, kwargs)
    assert digest == GOLDEN[label]


@pytest.mark.parametrize("model,p,m_top", BRACKET_CASES, ids=_id)
def test_bracketing_reports(model, p, m_top):
    label, digest = _bracket_digest(model, p, m_top)
    assert digest == GOLDEN[label]


@pytest.mark.parametrize("family,p", MAX_OVER_H_PARAMS, ids=_id)
def test_max_over_h(family, p):
    label, digest = _max_over_h_digest(family, p)
    assert digest == GOLDEN[label]


@pytest.mark.parametrize("suite,seed", VERIFY_CASES, ids=_id)
def test_verify_report(suite, seed):
    label, digest = _verify_digest(suite, seed)
    assert digest == GOLDEN[label]


@pytest.mark.parametrize("p,n", A_CASES, ids=_id)
def test_a_series(p, n):
    label, digest = _a_series_digest(p, n)
    assert digest == GOLDEN[label]


@pytest.mark.parametrize("p", ADMISSIBLE_PRIMES, ids=_id)
def test_admissible_series(p):
    label, digest = _admissible_digest(p)
    assert digest == GOLDEN[label]


if __name__ == "__main__":
    rows = [_preset_digest(name, p, kw) for name, p, kw in PRESET_PARAMS]
    rows += [_bracket_digest(*case) for case in BRACKET_CASES]
    rows += [_max_over_h_digest(*case) for case in MAX_OVER_H_PARAMS]
    rows += [_verify_digest(*case) for case in VERIFY_CASES]
    rows += [_a_series_digest(*case) for case in A_CASES]
    rows += [_admissible_digest(p) for p in ADMISSIBLE_PRIMES]
    print("GOLDEN = {")
    for label, digest in rows:
        print(f"    {label!r}: {digest!r},")
    print("}")
