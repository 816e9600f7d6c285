"""Golden digests of construction outputs.

`GOLDEN` holds the SHA-256 of `serialize_machine` for a fixed set of
constructions on the corpus, first recorded when transitions were still
frozen dataclasses.  A change of representation or of loop order inside
a construction must leave every output byte-identical.  The
constructions run in a child process under a random `PYTHONHASHSEED`,
so no digest may depend on set or dict order that follows string
hashes.

`ORDER` holds, for the same outputs, the SHA-256 of the states in
iteration order and of each (state, symbol, guard) key's transitions in
order.  The serialized form sorts its lines and cannot see either
order, yet every run, move table and search reads transitions through
`machine._index`, key by key, and some loops follow the iteration order
of `m.states`.  Both orders follow string hashes, so this child runs
under the fixed `PYTHONHASHSEED` 0.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

GOLDEN = {
    "prefix(M_ab1)": "e91498c793d4b03e19337048d7fac86ec789f33843028fbe3ab9e5a013857ccf",
    "suffix(M_ab1)": "2fe5e50b62b9788c12ad3ff4289cfad02c392cc517d737b8a72be28f69778746",
    "infix(M_ab1)": "3c0b2d50b6f4116d998ff1c6b12a5f3b628ec1fad8c2b4750750de185f1dc18d",
    "outfix(M_ab1)": "f0e41d4a2a9afc0d882e676387b29378bd31c3383dfc507f6caacff9abb27fe4",
    "embed2(M_ab1)": "974f65f9ab529535c6554a15f1ae2b3c0fff4adf2378a2921ef92e460807a710",
    "prefix(mod_counter)": "6caaa529b60681fe00040be855e6131ffae74592c37f09be9aed0a40fe11e7f6",
    "suffix(mod_counter)": "2e8df6b9fc922ffe58d0c8ec21a31135866af0c5b2da2c0e1902e49fa32ac44a",
    "infix(mod_counter)": "bbbb142146e9a48db4a770b97f9dfa3ee88020bf587630114b6c5c25fda6765a",
    "outfix(mod_counter)": "839b491393075b687cc2bebd5d412f3787c59e6b3f9c3f87ddf2b522f03ab91f",
    "embed2(mod_counter)": "09e5f8ec502b116e9b0083245e763bfe3e73103a2c17120e05ee6a45a4d9a077",
    "prefix(pf_ab)": "c0ed007d4f54666c52b0a2cf691ca39ac742cf767fee36bb78b767ab74e10c79",
    "suffix(pf_ab)": "27101c11a10c2120629da654cc4ad7f5dccefe21923c622904230b51ba1f66c6",
    "infix(pf_ab)": "ce2532b5ccec0d03e7e80c05f82ba503897be07933a37000a0915b6c1e4d8d00",
    "outfix(pf_ab)": "849cff24f5dcb74f154100e84602f1ff62fe4cdd6fed6bb4bacc4771aefa2d34",
    "embed2(pf_ab)": "5cf8e925cdcb245d9a8a5d814e5f5feaed416b1686df706cb3f919a0f1ff0786",
    "concat_ncm(M_ab,pf_ab)": "0c0227660c560663e4bcb24deba9baec2886d525657e4e790524b951eb7c3b0e",
    "not(M_ab)": "09fed23b5d0c5af179f80173a6253636775a28a955ae9cf9fb96622dd4ff7c1d",
    "and(M_ab,M_ab1)": "af5ec899514241ca073ec29f950127780183a8ba5ca0708696728ea578587d9b",
    "or(M_ab,M_ab1)": "91bc49a73cb81242d9cb92147d4f75bf3e44eb7fe875969ef131f9e5b581fd8d",
    "product_intersection(M_ab,M_ab1)":
        "af5ec899514241ca073ec29f950127780183a8ba5ca0708696728ea578587d9b",
    "inverse_apply(T_shuffle,M_ab)":
        "9ea9c387c3dfff8f77e2405af268a2fc41a769e7337466415ffbc390a0dd00ce",
    "intersect_regular(M_ab,ends_b)":
        "01a83898d948875abd2024800cfeac6f01810e8ce7cca967cdd2dce62d326a8e",
    "concat_pf_regular_dcm(ab,M_ab)":
        "588450d2d0a336fcff713b2c692a33cf351aba7782deef21fe0edc3907e625ce",
    "concat_dcmne_regular(strip(M_ab),ends_b)":
        "7e3f6f5f0724b9791ff8db2f64194b69005bae61a4b24e4952855f7767bac7ff",
    "concat_dcm1_regular(M_ab1,ends_b)":
        "c47ffe6b7b27609d61d377e27f5698bc04930ca0136e262d840ef60a22925fd7",
    "inverse_prefix_dcm1(M_ab1)":
        "38f2f5bb7b69c607f9c6d4fd465c18086b92920d4f196f576a97c4838dde459d",
    "strip(M_ab)": "f9047ee1062a55ce87acf7b8761ee76c5d0eafc38be65ee9796c35f3dc43d7d8",
    "strip(mod_counter)": "d7145ea3179cc920c7af445399a8492e50e880a46313e822aaab0fd778d19e1f",
    "left_quotient_word(M_ab,ba)":
        "06aff9520999895d155c5f97e8b81652fd1ab9070b4a97744e4408d032d28445",
    "left_quotient_word(M_ab,aab)":
        "7fbe22b7c83b54d8dd922a36bcd19ca997f15f47afae92f4d7634aaf29ca41ad",
    "forward_image_ncm(T_shuffle)":
        "024354c7ae19729335fee70dc2c023f8a1012d9d0a00684831e3d613b5afecf2",
}

ORDER = {
    "prefix(M_ab1)": "7aaef09e610bf5094f0670cf41521e511a40ae2e06aefc82727d0e1a96470b06",
    "suffix(M_ab1)": "15d79fe2c13c09fe316f699b767d90296228795f968d76c6e91255c32404e7d4",
    "infix(M_ab1)": "2d80da14299bff3df4b96d0b88403d4485fa7479900cc93df7d0d7e58af1b685",
    "outfix(M_ab1)": "b24b249d7211dc1f91c4ecaad7db177a0dc51d61334cea015cf3ecd27ebf5cb4",
    "embed2(M_ab1)": "b7a6879511e5131450e491ddeb10ffb58c95b6ab5139131ff3561ae35d430a2d",
    "prefix(mod_counter)": "815a247b64be7c1812fe33b2340a51aafe713973ec4b5c62b46e3fe9e7064faf",
    "suffix(mod_counter)": "98eed9f64a4bdce3a8cded2ddcc56fd6c93472b951f425e7cc3ef6b61c5ace6c",
    "infix(mod_counter)": "d54a75c63b844b6d87e570b33eb6243dcc4ea5ba2d91406d978c77fcd3f5b5a8",
    "outfix(mod_counter)": "496df30d64a9cad01ea2b6b3801a5cf04af18d4c640584741b6ee14ed3bd6cc2",
    "embed2(mod_counter)": "03f6e13d33669a40b299c14587a82aad00b0b5f6ceae275997e7dcd18a16da7d",
    "prefix(pf_ab)": "156200437db34a8c50e08caf84a26b01584862d54d2286a5230306f772084885",
    "suffix(pf_ab)": "64976f5b797b3b74e66173a9b2db6ddf460e26b552ae9761ebda6d0289dec433",
    "infix(pf_ab)": "dead647796b98318fc4b9f0ec41b7c9d15757f5952d41b711fdbb1c1df6c50f7",
    "outfix(pf_ab)": "abfc7df5d87986ebd9f990549ff921c13dd5d771c0251f4c31ca1dfc73ddf292",
    "embed2(pf_ab)": "d0ca4de6a0f6ed29f6267f5fc42e766db9b54fb5f107cd9098c86aa3df93191f",
    "concat_ncm(M_ab,pf_ab)": "ee8c6d8f5ce391191bcd09d098fad29d0d687c24d012cfafcdfcc21a96df0177",
    "not(M_ab)": "eaa4b3909d218c17be936f55f2e5709b3a5644d7c32baa0e6c1b4c1f8886499b",
    "and(M_ab,M_ab1)": "98e5ddb8596632075bcdeb62a74675e1e82bcca4348c808824de8503e2c8d0c7",
    "or(M_ab,M_ab1)": "996d36f50acdb72c6c142bd51c9ec6f56dd1f01cdd6b3f5182af0fc28a2b81a6",
    "product_intersection(M_ab,M_ab1)":
        "98e5ddb8596632075bcdeb62a74675e1e82bcca4348c808824de8503e2c8d0c7",
    "inverse_apply(T_shuffle,M_ab)":
        "8b899c396aa8ce55597b1d371f513241e40b62ac6ea4b226f8ebea8a69e18451",
    "intersect_regular(M_ab,ends_b)":
        "24214fa590c5da9abacd00d1e653082fd017edff0c1166e8623d15fd416292be",
    "concat_pf_regular_dcm(ab,M_ab)":
        "f30453b07c4200b6f0a419e43b556da83143d15b78fc6e76dd1ead19edbd1490",
    "concat_dcmne_regular(strip(M_ab),ends_b)":
        "525195577afc2faae08c73cb2be41afbe7115a075013df4086f178c53f73a4c9",
    "concat_dcm1_regular(M_ab1,ends_b)":
        "35c13872ea2899980822d2e9c2d7a2ae2c495a3ae90242f7fb0dfbb8f986cdde",
    "inverse_prefix_dcm1(M_ab1)":
        "f39343aefc3180854321c63f3caf5e141cfdfc6323a634abfd59b2fd18f303e3",
    "strip(M_ab)": "ab265d97919070c7d7d46590f39ab5e031f46e94c244a066b88d1c555f5b2a14",
    "strip(mod_counter)": "3be4c394434b97948707a8dc0bb0eaa7a906306aa4279adf3450e09aa3d9e79c",
    "left_quotient_word(M_ab,ba)":
        "02dbd4e5346a71e29db538b1e60bd74e53e05e9118b7c213f10d0748f351998f",
    "left_quotient_word(M_ab,aab)":
        "145483d824dbb6660d4fc8632ea160c35f0c1dd413e1e861e3da5d2bfff5e43c",
    "forward_image_ncm(T_shuffle)":
        "125ee9caf8cb362fafc6d38ef8b96cc41a9ebde7a26dd682cf2e607643440008",
}

_CHILD = """
import hashlib
from rbcm.constructions import (
    boolean_dcm, concat_dcm1_regular, concat_dcmne_regular, concat_ncm,
    concat_pf_regular_dcm, intersect_regular, inverse_insertion_ncm,
    inverse_prefix_dcm1, left_quotient_word, prepare_for_regular_concat,
    product_intersection, strip_end_marker_one_counter,
)
from rbcm.corpus import load_corpus
from rbcm.fileformat import serialize_machine
from rbcm.machine import _index
from rbcm.regular import Dfa, word_dfa
from rbcm.transducer import forward_image_ncm, inverse_apply

c = {n: load_corpus(n).artifact for n in ("M_ab", "M_ab1", "mod_counter", "pf_ab", "T_shuffle")}
# words over {a, b} that end in b; integer states keep every state's repr
# free of string hashes
ends_b = Dfa({0, 1}, ("a", "b"), 0, {1}, {(0, "a"): 0, (0, "b"): 1, (1, "a"): 0, (1, "b"): 1})
outs = {}
for name in ("M_ab1", "mod_counter", "pf_ab"):
    for mode in ("prefix", "suffix", "infix", "outfix"):
        outs[f"{mode}({name})"] = inverse_insertion_ncm(c[name], mode)
    outs[f"embed2({name})"] = inverse_insertion_ncm(c[name], "embed", gaps=2)
outs["concat_ncm(M_ab,pf_ab)"] = concat_ncm(c["M_ab"], c["pf_ab"])
outs["not(M_ab)"] = boolean_dcm(c["M_ab"], None, "not")
outs["and(M_ab,M_ab1)"] = boolean_dcm(c["M_ab"], c["M_ab1"], "and")
outs["or(M_ab,M_ab1)"] = boolean_dcm(c["M_ab"], c["M_ab1"], "or")
outs["product_intersection(M_ab,M_ab1)"] = product_intersection(c["M_ab"], c["M_ab1"])
outs["inverse_apply(T_shuffle,M_ab)"] = inverse_apply(c["T_shuffle"], c["M_ab"])
outs["intersect_regular(M_ab,ends_b)"] = intersect_regular(c["M_ab"], ends_b)
outs["concat_pf_regular_dcm(ab,M_ab)"] = concat_pf_regular_dcm(word_dfa("ab", "ab"), c["M_ab"])
outs["concat_dcmne_regular(strip(M_ab),ends_b)"] = concat_dcmne_regular(
    prepare_for_regular_concat(strip_end_marker_one_counter(c["M_ab"])), ends_b)
outs["concat_dcm1_regular(M_ab1,ends_b)"] = concat_dcm1_regular(c["M_ab1"], ends_b)
outs["inverse_prefix_dcm1(M_ab1)"] = inverse_prefix_dcm1(c["M_ab1"])
outs["strip(M_ab)"] = strip_end_marker_one_counter(c["M_ab"])
outs["strip(mod_counter)"] = strip_end_marker_one_counter(c["mod_counter"])
outs["left_quotient_word(M_ab,ba)"] = left_quotient_word(c["M_ab"], "ba")
outs["left_quotient_word(M_ab,aab)"] = left_quotient_word(c["M_ab"], "aab")
outs["forward_image_ncm(T_shuffle)"] = forward_image_ncm(c["T_shuffle"])
for key, m in outs.items():
    # states in iteration order, then each (state, symbol, guard) key's
    # transitions in order, the keys sorted by repr
    rows = sorted((repr((src, sym, g)), repr(ts))
                  for (src, sym), by_guard in _index(m).items() for g, ts in by_guard.items())
    order = repr((list(m.states), rows))
    print(key, hashlib.sha256(serialize_machine(m).encode()).hexdigest(),
          hashlib.sha256(order.encode()).hexdigest())
"""


def _digests(seed):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONHASHSEED": seed,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", _CHILD], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return {key: (data, order) for key, data, order in map(str.split, run.stdout.splitlines())}


def test_construction_outputs_match_golden_digests():
    seed = str(random.randrange(2 ** 32))
    got = {key: data for key, (data, _order) in _digests(seed).items()}
    assert got == GOLDEN, f"PYTHONHASHSEED={seed}"


def test_construction_outputs_keep_state_and_per_key_order():
    got = _digests("0")
    assert {key: data for key, (data, _order) in got.items()} == GOLDEN
    assert {key: order for key, (_data, order) in got.items()} == ORDER
