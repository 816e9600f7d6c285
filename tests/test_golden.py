"""Golden digests of construction outputs.

The SHA-256 of `serialize_machine` for a fixed set of constructions on
the corpus, recorded when transitions were still frozen dataclasses.  A
change of representation or of loop order inside a construction must
leave every output byte-identical.  The constructions run in a child
process under a random `PYTHONHASHSEED`, so no digest may depend on set
or dict order that follows string hashes.
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
}

_CHILD = """
import hashlib
from rbcm.constructions import (
    boolean_dcm, concat_ncm, inverse_insertion_ncm, product_intersection,
)
from rbcm.corpus import load_corpus
from rbcm.fileformat import serialize_machine
from rbcm.transducer import inverse_apply

c = {n: load_corpus(n).artifact for n in ("M_ab", "M_ab1", "mod_counter", "pf_ab", "T_shuffle")}
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
for key, m in outs.items():
    print(key, hashlib.sha256(serialize_machine(m).encode()).hexdigest())
"""


def test_construction_outputs_match_golden_digests():
    seed = str(random.randrange(2 ** 32))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONHASHSEED": seed,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", _CHILD], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    got = dict(line.split() for line in run.stdout.splitlines())
    assert got == GOLDEN, f"PYTHONHASHSEED={seed}"
