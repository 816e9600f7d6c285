"""The three workloads as lists of operations.

`build(workload, rng, workdir)` generates the inputs from the seeded
`rng`, writes the files the workload reads, and returns the operations
of one round plus a warm-up callable.  An operation is timed as a whole;
its `check` runs after the timed region and compares the result with
`reference` (predicates, the reference simulator and the operation
definitions), never with a stored copy of an earlier result.

A few operations fail today because of a fault in the program.  They use
fixed inputs (no seed), fail in every round, and carry the fault in
`Op.fault`: what goes wrong and the wrong verdict it gives.  The runner
counts such an operation as failed only when it gives that verdict; any
other wrong result, a raise included, is reported as wrong.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

import gen
import reference as ref

@dataclass(frozen=True)
class Fault:
    """A known program fault: what goes wrong, and the wrong verdict."""
    what: str
    verdict: str

    def shows_in(self, result):
        return isinstance(result, dict) and result.get("verdict") == self.verdict


CAP_EMPTY = Fault("decide.linear_feasible searches multipliers in [0, 4096] only, "
                  "so is_empty(L_R) answers 'empty' for R >= 65", "empty")
CAP_INFINITE = Fault("decide.linear_feasible searches multipliers in [0, 4096] only, "
                     "so is_infinite(L_R) answers 'finite' for R >= 46", "finite")


@dataclass
class Op:
    id: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]   # None when right, else why not
    fault: Optional[Fault] = None              # known program fault, if it fails


@dataclass
class Family:
    """What the benchmark knows about an input language."""
    alphabet: tuple
    accepts: Callable[[str], bool]
    nonempty: bool
    infinite: bool


def _verdict(expected, got):
    return None if got == expected else f"expected {expected!r}, got {got!r}"


def _corpus(names):
    from rbcm.corpus import corpus_text
    return {n: corpus_text(n) for n in names}


CORPUS_FAMILIES = {
    "M_ab": Family(("a", "b"), ref.is_anbn, True, True),
    "M_ab1": Family(("a", "b"), lambda w: ref.is_anbn(w, 1), True, True),
    "M_neq": Family(("#", "a", "b"), ref.is_neq, True, True),
    "mod_counter": Family(("a",), ref.is_even, True, True),
    "pf_ab": Family(("a", "b"), lambda w: w == "ab", True, False),
    "pf_hash": Family(("#",), lambda w: w == "#", True, False),
}


# ---------------------------------------------------------------------------
# simulate


def shuffle_output(w):
    """T_shuffle: the a/b projection when the c/d projection is c^m d^m."""
    cd = "".join(ch for ch in w if ch in "cd")
    m = len(cd) // 2
    return "".join(ch for ch in w if ch in "ab") if cd == "c" * m + "d" * m else None


def _shuffle_word(rng, n):
    m = n // 10
    ab = [rng.choice("ab") for _ in range(n - 2 * m)]
    slots = sorted(rng.sample(range(n), 2 * m))
    cd = iter("c" * m + "d" * m)
    out, j = [], 0
    for i in range(n):
        if j < len(slots) and slots[j] == i:
            out.append(next(cd))
            j += 1
        else:
            out.append(ab.pop())
    return "".join(out)


# word lengths of `simulate`: many operations of a few to a hundred
# milliseconds rather than a few long ones, so that a round takes 1-2 s:
# a run then has a dozen rounds or more, and the machine's speed,
# measured once per round (worker.one_round), holds through a round
MAB_SIZES = (300, 1000, 1500, 3000, 6000, 10_000)    # member on M_ab
MAB1_SIZES = (250, 500, 1000, 1500, 3000)            # run_deterministic on M_ab1
LR_SIZES = ((3, 30), (4, 25), (5, 20), (10, 5), (10, 10), (20, 3), (30, 2))  # (R, p)
SHUFFLE_SIZES = (250, 500, 1000, 3000, 10_000)       # transduce_det on T_shuffle
# a near miss changes one letter in the last twentieth of the word, so
# that its run costs nearly what the accepted word's does, whatever the seed
NEAR_END = 0.95
NEQ_DRAINS = (50, 100, 150, 200, 250)                # stay moves at the end of M_neq words
MOD_SIZES = (100, 150, 200, 250, 300)                # a^n on mod_counter: a drain of n
# word lengths for nondeterministic membership; the search over runs of
# the M_neq insertions grows fastest with the length, and its cost also
# depends on the seeded letters, so these words are kept short enough to
# stay below the 90th percentile of the operations' times
SIZES = {("M_ab1", "infix"): (100, 150, 200), ("M_ab1", "outfix"): (60, 100, 140),
         ("M_ab1", "embed2"): (50, 75, 100), ("M_neq", "infix"): (100, 150, 200),
         ("M_neq", "outfix"): (24, 32, 40), ("M_neq", "embed2"): (16, 22, 28)}


def simulate(rng, workdir):
    from rbcm import decide, machine, transducer
    from rbcm.constructions import inverse_insertion_ncm
    from rbcm.fileformat import parse_machine

    texts = _corpus(["M_ab", "M_ab1", "M_neq", "mod_counter", "T_shuffle"])
    M = {n: parse_machine(t) for n, t in texts.items()}
    ops = []

    def member(tag, m, word, pred):
        ops.append(Op(f"member.{tag}", lambda: decide.member(m, word),
                      lambda got: _verdict(pred(word), got)))

    def run(tag, m, word, pred):
        ops.append(Op(f"run.{tag}", lambda: machine.run_deterministic(m, word).verdict,
                      lambda got: _verdict("accept" if pred(word) else "reject", got)))

    for n in MAB_SIZES:
        acc = "a" * (n // 2) + "b" * (n // 2)
        member(f"M_ab.{n}.acc", M["M_ab"], acc, ref.is_anbn)
        member(f"M_ab.{n}.miss", M["M_ab"], gen.flip(rng, acc, NEAR_END, "ab"), ref.is_anbn)
    for n in MAB1_SIZES:
        acc = "a" * (n // 2) + "b" * (n // 2)
        pred = lambda w: ref.is_anbn(w, 1)
        run(f"M_ab1.{n}.acc", M["M_ab1"], acc, pred)
        run(f"M_ab1.{n}.miss", M["M_ab1"], gen.flip(rng, acc, NEAR_END, "ab"), pred)
    for R, p in LR_SIZES:
        lr = parse_machine(gen.lr_text(R))
        acc = ref.lr_word(R, p)
        pred = lambda w, R=R: ref.is_lr(w, R)
        run(f"L_{R}.{len(acc)}.acc", lr, acc, pred)
        run(f"L_{R}.{len(acc)}.miss", lr, gen.flip(rng, acc, NEAR_END, "abc"), pred)
    for drain in NEQ_DRAINS:
        acc = gen.neq_word(rng, drain, 1)
        a_at = [i for i, ch in enumerate(acc) if ch == "a"]
        i = rng.choice(a_at)
        member(f"M_neq.drain{drain}.acc", M["M_neq"], acc, ref.is_neq)
        member(f"M_neq.drain{drain}.miss", M["M_neq"], acc[:i] + "#" + acc[i + 1:], ref.is_neq)
    for n in MOD_SIZES:
        member(f"mod_counter.{n}.acc", M["mod_counter"], "a" * n, ref.is_even)
        member(f"mod_counter.{n}.miss", M["mod_counter"], "a" * (n + 1), ref.is_even)
    tsh = M["T_shuffle"]
    for n in SHUFFLE_SIZES:
        acc = _shuffle_word(rng, n)
        d_at = [i for i, ch in enumerate(acc) if ch == "d"]
        i = rng.choice(d_at)
        for tag, w in (("acc", acc), ("miss", acc[:i] + "c" + acc[i + 1:])):
            ops.append(Op(f"transduce.T_shuffle.{n}.{tag}",
                          lambda w=w: transducer.transduce_det(tsh, w),
                          lambda got, w=w: _verdict(shuffle_output(w), got)))

    # nondeterministic membership on the paper's insertion outputs
    ab1, neq = ref.parse(texts["M_ab1"]), ref.parse(texts["M_neq"])
    preds = {
        ("M_ab1", "infix"): lambda w: "ab" in w,     # every a^n b^n, n >= 1, contains ab
        ("M_neq", "infix"): ref.has_factor_neq,
        ("M_ab1", "outfix"): ref.outfix_anbn,
        ("M_neq", "outfix"): ref.outfix_neq,
        ("M_ab1", "embed2"): lambda w: ref.embed_member(ab1, w, 2),
        ("M_neq", "embed2"): lambda w: ref.embed_member(neq, w, 2),
    }
    for (base, mode), pred in preds.items():
        if mode == "embed2":
            nm = inverse_insertion_ncm(M[base], "embed", gaps=2)
        else:
            nm = inverse_insertion_ncm(M[base], mode)
        for size in SIZES[base, mode]:
            acc, miss = _insertion_words(rng, base, mode, size)
            member(f"{mode}_{base}.{size}.acc", nm, acc, pred)
            member(f"{mode}_{base}.{size}.miss", nm, miss, pred)

    def warm():
        decide.member(M["M_ab"], "aabb")
        decide.member(inverse_insertion_ncm(M["M_ab1"], "infix"), "bab")
        transducer.transduce_det(tsh, "acbd")

    return ops, warm


def _junk(rng, n, letters):
    return "".join(rng.choice(letters) for _ in range(n))


def _insertion_words(rng, base, mode, n):
    """An accepted word of length n for the insertion `mode` of `base`,
    and its near miss: one letter changed so that it is rejected."""
    if base == "M_ab1":
        if mode == "outfix":
            # a^k J b^k; with the first letter changed, a split would
            # need a run of k a's inside the random J
            k = n // 4
            acc = "a" * k + _junk(rng, n - 2 * k, "ab") + "b" * k
            return acc, "b" + acc[1:]
        # b^x a b^z a^t has exactly one factor ab; over {a, b} a word is
        # in the infix and in the 2-gap embedding of a^n b^n (n >= 1) iff
        # it contains ab, so changing that a to b rejects it.  The search
        # cost depends on x and z, so they are fixed.
        x = z = n // 3
        acc = "b" * x + "a" + "b" * z + "a" * (n - x - z - 1)
        return acc, acc[:x] + "b" + acc[x + 1:]
    # M_neq: one factor #y# with one more a than b and no other '#';
    # every insertion of M_neq needs two '#', so changing the last one
    # rejects (and the search runs to the end of the word)
    y = ["a"] * (n // 4 + 1) + ["b"] * (n // 4)
    rng.shuffle(y)
    core = "#" + "".join(y) + "#"
    rest = n - len(core)
    if mode == "infix":
        left = rng.randint(0, rest)
        acc = _junk(rng, left, "ab") + core + _junk(rng, rest - left, "ab")
    else:
        cut = rng.randint(1, len(core) - 1)
        acc = core[:cut] + _junk(rng, rest, "ab") + core[cut:]
    i = acc.rindex("#")
    return acc, acc[:i] + rng.choice("ab") + acc[i + 1:]


# ---------------------------------------------------------------------------
# decide

# R from 24 to 65 comes closely spaced: those queries take 15-35 ms, around
# the 90th percentile of the workload's times, which a gap there would make jump
LR_VALUES = (2, 3, 4, 6, 8, 12, 16, 24, 28, 32, 36, 40, 45, 46, 50, 56, 64, 65, 100, 200)
BLOCK_INSTANCES = 2   # seeded block machines of each shape in gen.SHAPES
PARIKH_LEN = 9        # Parikh images are checked on all words up to this length


def cli_json(argv):
    """Run the command line in-process and return its JSON verdict."""
    from rbcm.cli import run_cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv + ["--json"])
    text = out.getvalue().strip()
    if not text:
        return {"exit": code, "stderr": err.getvalue().strip()}
    got = json.loads(text.splitlines()[-1])
    got["exit"] = code
    return got


def _parikh_vectors(words, letters):
    return {tuple(w.count(x) for x in letters) for w in words}


def _linear_vectors(sets, limit):
    """All vectors of the semilinear set with letter total <= limit."""
    out = set()
    for comp in sets:
        base, periods = tuple(comp["base"]), [tuple(p) for p in comp["periods"]]
        if any(sum(p) == 0 for p in periods):
            return None                     # a period adds no letters: not a letter image
        todo = [base] if sum(base) <= limit else []
        seen = set(todo)
        while todo:
            v = todo.pop()
            out.add(v)
            for p in periods:
                nv = tuple(a + b for a, b in zip(v, p))
                if sum(nv) <= limit and nv not in seen:
                    seen.add(nv)
                    todo.append(nv)
    return out


def decide_ops(rng, workdir):
    from rbcm.constructions import inverse_insertion_ncm
    from rbcm.fileformat import parse_machine, serialize_machine

    fams, files, refm = {}, {}, {}

    def put(name, text, fam):
        path = os.path.join(workdir, name + ".mach")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        files[name], fams[name], refm[name] = path, fam, ref.parse(text)

    for R in LR_VALUES:
        put(f"L_{R}", gen.lr_text(R),
            Family(("a", "b", "c"), lambda w, R=R: ref.is_lr(w, R), True, True))
    texts = _corpus(["M_ab", "M_ab1", "M_neq", "mod_counter", "pf_ab", "pf_hash"])
    for name, text in texts.items():
        put(name, text, CORPUS_FAMILIES[name])
    # insertion outputs of the corpus: their languages come from the
    # definition applied to the base language
    inserted = (("M_ab1", "infix", 1), ("M_ab", "outfix", 1), ("pf_ab", "prefix", 1),
                ("mod_counter", "suffix", 1), ("pf_ab", "embed", 2))
    for base, mode, gaps in inserted:
        out = inverse_insertion_ncm(parse_machine(texts[base]), mode, gaps)
        bfam = CORPUS_FAMILIES[base]
        lang = {w for w in ref.words_upto(bfam.alphabet, PARIKH_LEN) if bfam.accepts(w)}
        pred = _insertion_pred(mode, gaps, lang)
        put(f"{mode}{gaps}_{base}", serialize_machine(out),
            Family(bfam.alphabet, pred, bfam.nonempty, bfam.nonempty))
    blocks = []
    for i in range(BLOCK_INSTANCES):
        for shape in gen.SHAPES:
            spec = gen.block_spec(rng, f"blk_{shape}_{i}", shape)
            put(spec.name, spec.text(),
                Family(spec.alphabet, spec.accepts, spec.nonempty(), spec.nonempty()))
            blocks.append(spec.name)

    ops = []

    def query(name, argv, check, fault=None):
        ops.append(Op(f"{argv[0]}{'.witness' if '--witness' in argv else ''}.{name}",
                      lambda: cli_json(argv), check, fault))

    def empty(name, witness=False, fault=None):
        fam = fams[name]
        argv = ["empty", files[name]] + (["--witness"] if witness else [])

        def check(got):
            want = "empty" if not fam.nonempty else "nonempty"
            if got.get("verdict") != want:
                return f"expected {want}, got {got}"
            if witness and fam.nonempty:
                w = got.get("witness")
                if w is None or not fam.accepts(w) or not ref.member(refm[name], w):
                    return f"witness {w!r} is not accepted"
            return None
        query(name, argv, check, fault)

    def infinite(name, fault=None):
        fam = fams[name]
        want = "infinite" if fam.infinite else "finite"
        query(name, ["infinite", files[name]],
              lambda got: None if got.get("verdict") == want else f"expected {want}, got {got}",
              fault)

    def parikh(name):
        fam = fams[name]

        def check(got):
            letters = sorted(fam.alphabet)
            if got.get("details", {}).get("letters") != letters:
                return f"unexpected letter order in {got}"
            words = [w for w in ref.words_upto(letters, PARIKH_LEN) if fam.accepts(w)]
            want = _parikh_vectors(words, letters)
            have = _linear_vectors(got["details"]["linear_sets"], PARIKH_LEN)
            if have != want:
                return (f"letter counts up to {PARIKH_LEN} differ: missing "
                        f"{sorted(want - (have or set()))[:5]}, extra {sorted((have or set()) - want)[:5]}")
            return None
        query(name, ["parikh", files[name]], check)

    def compare(n1, n2, mode):
        f1, f2 = fams[n1], fams[n2]
        # the pairs below differ, when they do, on words shorter than this
        words = list(ref.words_upto(f1.alphabet, 7))
        diff = [w for w in words if f1.accepts(w) and not f2.accepts(w)]
        if mode == "equal":
            diff += [w for w in words if f2.accepts(w) and not f1.accepts(w)]
        want = "false" if diff else "true"

        def check(got):
            if got.get("verdict") != want:
                return f"expected {want}, got {got}"
            if want == "false":
                w = got.get("witness")
                in1 = w is not None and f1.accepts(w) and ref.member(refm[n1], w)
                in2 = w is not None and f2.accepts(w) and ref.member(refm[n2], w)
                if w is None or in1 == in2:
                    return f"counterexample {w!r} does not separate the languages"
            return None
        ops.append(Op(f"compare.{mode}.{n1}.{n2}",
                      lambda: cli_json(["compare", files[n1], files[n2], "--mode", mode]),
                      check))

    for R in LR_VALUES:
        empty(f"L_{R}", fault=CAP_EMPTY if R >= 65 else None)
        infinite(f"L_{R}", fault=CAP_INFINITE if R >= 46 else None)
    empty("L_2", witness=True)
    empty("M_neq", witness=True)
    for name in ("M_ab", "M_ab1", "mod_counter", "pf_ab", "pf_hash") + tuple(blocks):
        empty(name)
        empty(name, witness=True)
        infinite(name)
        parikh(name)
    for base, mode, gaps in inserted:
        name = f"{mode}{gaps}_{base}"
        empty(name)
        infinite(name)
    compare("M_ab1", "M_ab", "subset")
    compare("M_ab", "M_ab1", "subset")
    compare("M_ab", "M_ab", "equal")
    compare("pf_ab", "M_ab", "subset")
    compare("blk_clash_0", "blk_pair1_0", "subset")
    compare("blk_pair1_0", "blk_clash_0", "subset")

    def warm():
        cli_json(["empty", files["M_ab"]])
        cli_json(["compare", files["pf_ab"], files["M_ab"], "--mode", "subset"])

    return ops, warm


def _insertion_pred(mode, gaps, lang):
    if mode == "prefix":
        return lambda w: ref.prefix_def(lang, w)
    if mode == "suffix":
        return lambda w: ref.suffix_def(lang, w)
    if mode == "infix":
        return lambda w: ref.infix_def(lang, w)
    return lambda w: ref.embed_def(lang, w, gaps)


# ---------------------------------------------------------------------------
# construct

CHECK_LEN = 6          # construction languages are compared on all words up to this length

# fixed shapes of the random machines, with the size (states,
# transitions) each should have once its budget is part of the state
# (gen.annotated_size).  The machines are drawn once, from POOL_SEED;
# the run's seed renames their states and reorders their counters and
# transitions (gen.relabel).  Two draws of the same shape and size can
# differ in the cost of an operation by a factor of four: drawn from the
# run's seed, they moved a round's time between 1.58 and 1.99 s over
# five seeds.
POOL_SEED = 1
RANDOM_SHAPES = {
    "R1": ((20, 64), dict(states=4, k=1, l=1, alphabet="ab", marked=True)),
    "R2": ((110, 560), dict(states=3, k=2, l=2, alphabet="ab", marked=True)),
    "R3": ((500, 3900), dict(states=4, k=3, l=1, alphabet="ab", marked=False)),
    "R4": ((28, 99), dict(states=4, k=1, l=2, alphabet="ab", marked=False, det=False)),
    "R5": ((20, 60), dict(states=3, k=1, l=3, alphabet="ab", marked=True)),
}
INSTANCES = 3


def construct_ops(rng, workdir):
    # operations reach rbcm through its modules, so that a traced run sees them
    from rbcm import constructions as cons, fileformat, transducer

    texts = _corpus(["M_ab", "M_ab1", "mod_counter", "pf_ab", "T_shuffle"])
    pool = random.Random(POOL_SEED)
    for i in range(INSTANCES):
        for shape, (size, params) in RANDOM_SHAPES.items():
            name = f"{shape}_{i}"
            texts[name] = gen.relabel(rng, gen.rand_sized(pool, name, size, **params), name)
    for name, text in texts.items():
        with open(os.path.join(workdir, name + ".mach"), "w", encoding="utf-8") as fh:
            fh.write(text)
    M = {n: fileformat.parse_machine(t) for n, t in texts.items()}
    refm = {n: ref.parse(t) for n, t in texts.items()}
    langs = {}

    def lang(name, n=CHECK_LEN):
        if (name, n) not in langs:
            langs[name, n] = ref.language(refm[name], n)
        return langs[name, n]

    ops = []

    def op(tag, build, definition, cap=None):
        """`definition(w)` says whether w must be in the output language."""
        def run():
            text = fileformat.serialize_machine(build())
            return text, fileformat.serialize_machine(fileformat.parse_machine(text))

        def check(got):
            text, again = got
            if again != text:
                return "serialize(parse(serialize(m))) differs from serialize(m)"
            out = ref.parse(text)
            have = ref.language(out, CHECK_LEN, cap)
            want = {w for w in ref.words_upto(out.alphabet, CHECK_LEN) if definition(w)}
            if have != want:
                return (f"language differs up to {CHECK_LEN}: missing {sorted(want - have)[:4]}, "
                        f"extra {sorted(have - want)[:4]}")
            return None
        ops.append(Op(tag, run, check))

    def insert(base, mode, gaps=1):
        if mode in ("prefix", "suffix", "infix"):
            d = {"prefix": ref.prefix_def, "suffix": ref.suffix_def, "infix": ref.infix_def}[mode]
            op(f"insert.{mode}.{base}", lambda: cons.inverse_insertion_ncm(M[base], mode),
               lambda w: d(lang(base), w))
        else:
            op(f"insert.{mode}{gaps}.{base}", lambda: cons.inverse_insertion_ncm(M[base], mode, gaps),
               lambda w: ref.embed_def(lang(base), w, gaps))

    def concat(a, b):
        op(f"concat.{a}.{b}", lambda: cons.concat_ncm(M[a], M[b]),
           lambda w: ref.concat_def(lang(a), lang(b), w))

    def boolean(mode, a, b=None):
        truth = {"not": lambda w: w not in lang(a),
                 "and": lambda w: w in lang(a) and w in lang(b),
                 "or": lambda w: w in lang(a) or w in lang(b)}[mode]
        op(f"{mode}.{a}" + (f".{b}" if b else ""),
           lambda: cons.boolean_dcm(M[a], M[b] if b else None, mode), truth)

    def product(a, b):
        op(f"product.{a}.{b}", lambda: cons.product_intersection(M[a], M[b]),
           lambda w: w in lang(a) and w in lang(b))

    def strip(a):
        op(f"strip_end_marker.{a}", lambda: cons.strip_end_marker_one_counter(M[a]),
           lambda w: w in lang(a))

    def inverse_prefix(a):
        op(f"inverse_prefix.{a}", lambda: cons.inverse_prefix_dcm1(M[a]),
           lambda w: ref.prefix_def(lang(a), w))

    def quotient(a):
        u = "".join(rng.choice("ab") for _ in range(3))
        op(f"quotient.{a}.{u}", lambda: cons.left_quotient_word(M[a], u),
           lambda w: u + w in lang(a, CHECK_LEN + len(u)))

    def inverse_apply(a):
        op(f"inverse_apply.T_shuffle.{a}",
           lambda: transducer.inverse_apply(M["T_shuffle"], M[a]),
           lambda w: bool(ref.outputs(refm["T_shuffle"], w) & lang(a)))

    for base in ("M_ab1", "mod_counter"):
        for mode in ("prefix", "suffix", "infix", "outfix"):
            insert(base, mode)
    for base in ("pf_ab", "M_ab1"):
        for gaps in (1, 2, 3):
            insert(base, "embed", gaps)
    concat("M_ab", "pf_ab")
    boolean("not", "M_ab")
    boolean("not", "mod_counter")
    boolean("or", "M_ab1", "pf_ab")
    for a in ("M_ab", "mod_counter"):
        strip(a)
    inverse_prefix("M_ab1")
    quotient("M_ab")
    inverse_apply("M_ab")
    # every word over {a, b} is its own T_shuffle image, and T_shuffle
    # writes nothing else; the image machine guesses erased c's with
    # incrementing stay loops, so its language is searched with a cap
    op("forward_image.T_shuffle", lambda: transducer.forward_image_ncm(M["T_shuffle"]),
       lambda w: w in ref.outputs(refm["T_shuffle"], w), cap=CHECK_LEN + 2)

    for i in range(INSTANCES):
        r1, r2, r3, r4, r5 = (f"{s}_{i}" for s in RANDOM_SHAPES)
        for base in (r1, r2, r4):
            for mode in ("prefix", "suffix", "infix", "outfix"):
                insert(base, mode)
        insert(r1, "embed", 2)
        concat(r1, r4)
        concat(r2, "M_ab1")
        for a in (r1, r2, r5):
            boolean("not", a)
        boolean("and", r1, r5)
        product("M_ab", r1)
        product(r1, r4)
        product(r2, "M_ab1")
        for a in (r1, r5):
            strip(a)
        quotient(r2)
        quotient(r3)
        inverse_apply(r1)

    def warm():
        cons.boolean_dcm(M["pf_ab"], None, "not")
        fileformat.serialize_machine(fileformat.parse_machine(texts["M_ab"]))

    return ops, warm


def build(workload, rng, workdir):
    return {"simulate": simulate, "decide": decide_ops, "construct": construct_ops}[workload](rng, workdir)
