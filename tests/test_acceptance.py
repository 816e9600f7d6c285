"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Every criterion checks the implementation against an independent route
(hand tables, brute-force oracles, or replayed evidence); the two routes
are never collapsed into one computation.
"""

import dataclasses
import itertools
import json
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from rbcm import constructions as cons
from rbcm.cli import run_cli
from rbcm.corpus import CATALOG, corpus_text, load_corpus
from rbcm.decide import (
    enumerate_words,
    is_empty,
    make_non_exiting,
    member,
    parikh_image,
    prefix_free_check_machine,
    semilinear_member,
    to_one_reversal,
)
from rbcm.errors import MachineError, NotPrefixFree, PreconditionViolated
from rbcm.fileformat import parse_machine, serialize_machine
from rbcm.machine import (
    DIR_NONE,
    EOT,
    POS,
    RIGHT,
    STAY,
    ZERO,
    CounterMachine,
    Transition,
    run_deterministic,
    validate_machine,
)
from rbcm.regular import Dfa, full_dfa, word_dfa
from rbcm.transducer import (
    CounterTransducer,
    inverse_apply,
    to_null_transducer,
)

from oracles import (
    concat_language,
    dfa_language,
    dfa_member,
    empty_word_acceptor,
    is_prefix_free,
    naive_language,
    naive_member,
    stepper,
    words_upto,
)
from randgen import machine_pool

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


@contextmanager
def criterion(capsys, num, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\nCRITERION {num:2d} ({label}): FAIL", flush=True)
        raise
    with capsys.disabled():
        print(f"\nCRITERION {num:2d} ({label}): PASS", flush=True)


def _corpus_machines():
    out = []
    for name in CATALOG:
        art = load_corpus(name).artifact
        if isinstance(art, CounterMachine):
            out.append(art)
    return out


def _mach(name, k, l, alphabet, initial, finals, trans, marked, det=True):
    m = CounterMachine(name, k, l, frozenset(s for t in trans for s in (t.src, t.dst)) | {initial},
                       tuple(alphabet), initial, frozenset(finals), tuple(trans),
                       marked, det)
    assert validate_machine(m) == []
    return m


# ---------------------------------------------------------------------------
# criterion 1: construction suite vs brute-force language oracles


def _lang(cache, m, depth=7):
    key = id(m)
    if key not in cache:
        cache[key] = naive_language(m, depth)
    return cache[key]


def test_criterion_01_construction_oracles(capsys):
    with criterion(capsys, 1, "constructions vs oracles"):
        started = time.monotonic()
        pool = (_corpus_machines()
                + machine_pool(9001, 80, alphabet="ab")
                + machine_pool(9002, 20, alphabet="a"))
        cache = {}
        mismatches = []
        successes = {}
        ne_cache = {}

        def non_exiting(mm):
            # make_non_exiting is the slowest construction; memoize it so
            # the binary concatenations reuse the unary pass's result.
            key = id(mm)
            if key not in ne_cache:
                try:
                    ne_cache[key] = make_non_exiting(mm)
                except MachineError as exc:
                    ne_cache[key] = exc
            val = ne_cache[key]
            if isinstance(val, MachineError):
                raise val
            return val

        def check(op, result, oracle, alphabet, max_len=7):
            successes[op] = successes.get(op, 0) + 1
            for w in words_upto(alphabet, max_len):
                if member(result, w) != oracle(w):
                    mismatches.append((op, result.name, w))

        def attempt(op, build, oracle, alphabet):
            try:
                result = build()
            except MachineError:
                return
            check(op, result, oracle, alphabet)

        by_alpha = {}
        for m in pool:
            by_alpha.setdefault(m.alphabet, []).append(m)

        for m in pool:
            lang = _lang(cache, m)
            al = m.alphabet
            attempt("to_one_reversal", lambda: to_one_reversal(m),
                    lambda w, L=lang: w in L, al)
            word = "".join(al)[:2]
            d = word_dfa(word, al)
            attempt("intersect_regular",
                    lambda: cons.intersect_regular(m, d),
                    lambda w, L=lang, d=d: w in L and dfa_member(d, w), al)
            attempt("boolean_not",
                    lambda: cons.boolean_dcm(m, None, "not"),
                    lambda w, L=lang: w not in L, al)
            attempt("make_non_exiting",
                    lambda: non_exiting(m),
                    lambda w, L=lang: w in L, al)
            attempt("inverse_prefix_dcm1",
                    lambda: cons.inverse_prefix_dcm1(m),
                    lambda w, L=lang: any(w[:i] in L for i in range(len(w) + 1)),
                    al)
            attempt("concat_dcm1_regular",
                    lambda: cons.concat_dcm1_regular(m, d),
                    lambda w, C=concat_language(lang, dfa_language(d, 7), 7): w in C,
                    al)
            attempt("concat_pf_regular_dcm",
                    lambda: cons.concat_pf_regular_dcm(d, m),
                    lambda w, C=concat_language(dfa_language(d, 7), lang, 7): w in C,
                    al)
            for prefix in ("", al[0], word):
                attempt("left_quotient_word",
                        lambda p=prefix: cons.left_quotient_word(m, p),
                        lambda w, p=prefix, mm=m: naive_member(mm, p + w), al)
            for mode, oracle in (
                ("prefix", lambda w, L=lang: any(w[:i] in L
                                                 for i in range(len(w) + 1))),
                ("suffix", lambda w, L=lang: any(w[i:] in L
                                                 for i in range(len(w) + 1))),
                ("infix", lambda w, L=lang: any(
                    w[i:j] in L
                    for i in range(len(w) + 1) for j in range(i, len(w) + 1))),
                ("outfix", lambda w, L=lang: any(
                    w[:i] + w[j:] in L
                    for i in range(len(w) + 1) for j in range(i, len(w) + 1))),
            ):
                attempt(f"inverse_insertion_{mode}",
                        lambda md=mode: cons.inverse_insertion_ncm(m, md),
                        oracle, al)

        # binary operations on consecutive same-alphabet pairs
        for group in by_alpha.values():
            for m1, m2 in zip(group, group[1:]):
                l1, l2 = _lang(cache, m1), _lang(cache, m2)
                al = m1.alphabet
                attempt("product_intersection",
                        lambda: cons.product_intersection(m1, m2),
                        lambda w: w in l1 and w in l2, al)
                attempt("boolean_and",
                        lambda: cons.boolean_dcm(m1, m2, "and"),
                        lambda w: w in l1 and w in l2, al)
                attempt("boolean_or",
                        lambda: cons.boolean_dcm(m1, m2, "or"),
                        lambda w: w in l1 or w in l2, al)
                cat = concat_language(l1, l2, 7)
                attempt("concat_ncm",
                        lambda: cons.concat_ncm(m1, m2),
                        lambda w: w in cat, al)
                attempt("concat_pf_dcmne_dcm",
                        lambda: cons.concat_pf_dcmne_dcm(
                            non_exiting(m1), m2),
                        lambda w: w in cat, al)
                d2 = word_dfa(al[0], al)
                attempt("concat_dcmne_regular",
                        lambda: cons.concat_dcmne_regular(
                            cons.prepare_for_regular_concat(
                                non_exiting(m1)), d2),
                        lambda w, C=concat_language(l1, dfa_language(d2, 7), 7):
                            w in C,
                        al)

        elapsed = time.monotonic() - started
        assert mismatches == [], mismatches[:20]
        missing = [op for op in (
            "to_one_reversal", "intersect_regular", "boolean_not",
            "make_non_exiting", "inverse_prefix_dcm1", "concat_dcm1_regular",
            "concat_pf_regular_dcm", "left_quotient_word",
            "inverse_insertion_prefix", "inverse_insertion_suffix",
            "inverse_insertion_infix", "inverse_insertion_outfix",
            "product_intersection", "boolean_and", "boolean_or", "concat_ncm",
            "concat_pf_dcmne_dcm", "concat_dcmne_regular",
        ) if not successes.get(op)]
        assert missing == [], missing
        assert elapsed < 300, elapsed


# ---------------------------------------------------------------------------
# criterion 2: end-marker elimination round trip and co-simulation


def _reversals(values):
    used = direction = 0
    for prev, cur in zip(values, values[1:]):
        delta = cur - prev
        if delta == 0:
            continue
        d = 1 if delta > 0 else -1
        if direction and d != direction:
            used += 1
        direction = d
    return used


def test_criterion_02_end_marker_round_trip(capsys):
    with criterion(capsys, 2, "end-marker elimination"):
        for name in ("M_ab", "M_ab1", "mod_counter"):
            m = load_corpus(name).artifact
            out, info = cons.strip_end_marker_one_counter(m, return_info=True)
            tail, loop = info["tail"], info["loop"]
            me = info["annotated"]
            assert not out.marked
            assert all(t.symbol != EOT for t in out.transitions)
            assert out.k == 1

            def delta_d(c):
                if c < tail:
                    return c
                return tail + ((c - tail) % loop if loop else 0)

            for w in words_upto(m.alphabet, 10):
                want = naive_member(m, w)
                trace_out = run_deterministic(out, w)
                assert (trace_out.verdict == "accept") == want, (name, w)
                counters = [cfg.counters[0] for cfg, _ in trace_out.steps]
                assert _reversals(counters) <= out.l, (name, w)

                trace_me = run_deterministic(me, w)
                for i in range(min(len(trace_me.steps), len(trace_out.steps))):
                    cm = trace_me.steps[i][0]
                    co = trace_out.steps[i][0]
                    if cm.consumed != i or co.consumed != i:
                        break
                    st = co.state
                    c = cm.counters[0]
                    e = co.counters[0]
                    assert st.base == cm.state, (name, w, i)
                    assert c == st.d + e, (name, w, i)
                    assert st.d + st.j == delta_d(c), (name, w, i)


# ---------------------------------------------------------------------------
# criterion 3: structural budget contracts of the concatenations


def _anbnc_machine():
    trans = [
        Transition("s0", "a", ZERO, "s0", RIGHT, (1,)),
        Transition("s0", "a", POS, "s0", RIGHT, (1,)),
        Transition("s0", "b", POS, "s1", RIGHT, (-1,)),
        Transition("s1", "b", POS, "s1", RIGHT, (-1,)),
        Transition("s0", "c", ZERO, "f", RIGHT, (0,)),
        Transition("s1", "c", ZERO, "f", RIGHT, (0,)),
    ]
    return _mach("anbnc", 1, 1, ("a", "b", "c"), "s0", {"f"}, trans, False)


def test_criterion_03_budget_contracts(capsys):
    with criterion(capsys, 3, "construction budget contracts"):
        pf = make_non_exiting(_anbnc_machine())
        m2 = dataclasses.replace(load_corpus("M_ab").artifact,
                                 alphabet=("a", "b", "c"))
        cat = cons.concat_pf_dcmne_dcm(pf, m2)
        assert cat.k == pf.k + m2.k
        assert all(len(t.guard) == cat.k and len(t.deltas) == cat.k
                   for t in cat.transitions)
        lang = concat_language(naive_language(pf, 5), naive_language(m2, 5), 6)
        for w in words_upto(("a", "b", "c"), 6):
            assert member(cat, w) == (w in lang), w

        prepared = cons.prepare_for_regular_concat(pf)
        d = word_dfa("ab", ("a", "b", "c"))
        reg = cons.concat_dcmne_regular(prepared, d)
        assert reg.deterministic
        assert len(reg.states) <= len(prepared.states) * 2 ** len(d.states)

        one = cons.concat_dcm1_regular(load_corpus("M_ab").artifact,
                                       word_dfa("ab", ("a", "b")))
        assert one.k == 1


# ---------------------------------------------------------------------------
# criterion 4: emptiness vs bounded enumeration, witnesses re-verified


def test_criterion_04_emptiness(capsys):
    with criterion(capsys, 4, "emptiness vs enumeration"):
        started = time.monotonic()
        pool = (_corpus_machines()
                + machine_pool(4242, 100, alphabet="ab")
                + machine_pool(4243, 50, alphabet="ab", deterministic=False)
                + machine_pool(4244, 50, alphabet="a"))
        for m in pool:
            short_words = enumerate_words(m, 10)
            empty, witness = is_empty(m, want_witness=True)
            if short_words:
                assert not empty, m.name
            if empty:
                assert not short_words, m.name
                assert witness is None
            else:
                assert witness is not None
                assert member(m, witness), (m.name, witness)
                assert naive_member(m, witness), (m.name, witness)
        assert time.monotonic() - started < 600


# ---------------------------------------------------------------------------
# criterion 5: letter-count image of the a^n b^n machine


def test_criterion_05_parikh_image(capsys):
    with criterion(capsys, 5, "letter-count image"):
        m = load_corpus("M_ab").artifact
        sl = parikh_image(m)
        counts = {(w.count("a"), w.count("b"))
                  for w in naive_language(m, 12)}
        assert counts == {(n, n) for n in range(7)}
        for i in range(13):
            for j in range(13 - i):
                assert semilinear_member(sl, (i, j)) == ((i, j) in counts), (i, j)


# ---------------------------------------------------------------------------
# criterion 6: inverse image under the silent transducer is the identity


def test_criterion_06_null_transducer_identity(capsys):
    with criterion(capsys, 6, "silent-transducer identity"):
        lam = empty_word_acceptor(())
        for m in _corpus_machines():
            back = inverse_apply(to_null_transducer(m), lam)
            for w in words_upto(m.alphabet, 7):
                assert member(back, w) == naive_member(m, w), (m.name, w)


# ---------------------------------------------------------------------------
# criterion 7: inverse image of a^n b^n under the shuffle transducer


def test_criterion_07_shuffle_inverse_image(capsys):
    with criterion(capsys, 7, "shuffle inverse image"):
        t = load_corpus("T_shuffle").artifact
        m_ab = load_corpus("M_ab").artifact
        inv = inverse_apply(t, m_ab)

        def checker(w):
            ab = "".join(ch for ch in w if ch in "ab")
            cd = "".join(ch for ch in w if ch in "cd")
            n, m = len(ab) // 2, len(cd) // 2
            return ab == "a" * n + "b" * n and cd == "c" * m + "d" * m

        table = [
            ("", True), ("ab", True), ("cd", True), ("acbd", True),
            ("cadb", True), ("aabbcd", True), ("adbc", False), ("ba", False),
            ("dc", False), ("acbdcd", False), ("ca", False), ("abdc", False),
        ]
        assert len(table) == 12
        for w, expected in table:
            assert checker(w) == expected, w
            assert member(inv, w) == expected, w


# ---------------------------------------------------------------------------
# criterion 8: divergence certificates are replayable evidence


def _replay_never_halts(m, word, steps=10_000):
    successors = stepper(m)
    cfg = (m.initial, 0, (0,) * m.k, ((DIR_NONE, 0),) * m.k)
    for _ in range(steps):
        assert not (cfg[1] == len(word) and cfg[0] in m.finals)
        options = successors(word, cfg)
        assert len(options) == 1, "run got stuck or branched"
        cfg = options[0][1]


def _check_certificate(m, word):
    trace = run_deterministic(m, word)
    if trace.verdict != "diverge":
        return False
    cert = trace.certificate
    assert cert is not None
    c1 = trace.steps[cert.t1][0]
    c2 = trace.steps[cert.t2][0]
    assert cert.t1 < cert.t2
    assert c1.state == c2.state
    assert c1.consumed == c2.consumed
    assert m.status(c1.counters) == m.status(c2.counters)
    assert c1.budgets == c2.budgets
    assert cert.growth == tuple(b - a for a, b in zip(c1.counters, c2.counters))
    assert all(g >= 0 for g in cert.growth)
    _replay_never_halts(m, word)
    return True


def test_criterion_08_divergence_certificates(capsys):
    with criterion(capsys, 8, "divergence certificates"):
        found = 0
        for m in machine_pool(777, 100, alphabet="ab"):
            for w in words_upto(m.alphabet, 3):
                found += _check_certificate(m, w)

        growing = _mach("grow", 1, 1, ("a",), "q0", {"dead"}, [
            Transition("q0", EOT, ZERO, "q1", STAY, (1,)),
            Transition("q1", EOT, POS, "q1", STAY, (1,)),
            Transition("dead", "a", ZERO, "dead", RIGHT, (0,)),
        ], True)
        flat = _mach("flat", 0, 0, ("a",), "q0", {"dead"}, [
            Transition("q0", EOT, "", "q1", STAY, ()),
            Transition("q1", EOT, "", "q0", STAY, ()),
            Transition("dead", "a", "", "dead", RIGHT, ()),
        ], True)
        inner = _mach("inner_stay", 0, 0, ("a",), "q0", {"q0"}, [
            Transition("q0", "a", "", "q0", STAY, ()),
        ], False)
        for adversarial, word in ((growing, ""), (flat, ""), (inner, "a")):
            assert _check_certificate(adversarial, word), adversarial.name
            found += 1
        assert found >= 3, found


# ---------------------------------------------------------------------------
# criterion 9: prefix-freeness decision vs pairwise brute force


def test_criterion_09_prefix_freeness(capsys):
    with criterion(capsys, 9, "prefix-freeness decision"):
        pool = _corpus_machines() + machine_pool(31337, 50, alphabet="ab")
        for m in pool:
            got = prefix_free_check_machine(m)
            want = is_prefix_free(naive_language(m, 8))
            assert got == want, m.name


# ---------------------------------------------------------------------------
# criterion 10: command-line round trips and exit codes


def test_criterion_10_cli(capsys, tmp_path):
    with criterion(capsys, 10, "command-line interface"):
        for name in CATALOG:
            src = CORPUS_DIR / f"{name}.mach"
            parsed = parse_machine(src.read_text())
            copy = tmp_path / f"{name}.mach"
            copy.write_text(serialize_machine(parsed))
            assert run_cli(["validate", str(copy)]) == 0
            assert parse_machine(copy.read_text()) == parse_machine(
                serialize_machine(parse_machine(copy.read_text())))

        mab = tmp_path / "M_ab.mach"
        mab.write_text(corpus_text("M_ab"))
        assert run_cli(["member", str(mab), "--word", "aabb"]) == 0
        assert run_cli(["member", str(mab), "--word", "ba"]) == 1
        assert run_cli(["empty", str(mab), "--witness"]) == 1
        assert run_cli(["infinite", str(mab)]) == 0
        assert run_cli(["compare", str(mab), str(mab), "--mode", "equal"]) == 0

        out = tmp_path / "rev.mach"
        assert run_cli(["op", "to_one_reversal", str(mab), "-o", str(out)]) == 0
        assert run_cli(["member", str(out), "--word", "aabb"]) == 0

        assert run_cli([]) == 2
        assert run_cli(["member", str(mab)]) == 2
        assert run_cli(["op", "make_non_exiting", str(mab),
                        "-o", str(tmp_path / "x.mach")]) == 3
        bad = tmp_path / "bad.mach"
        bad.write_text("machine broken\nkind dcm\n")
        assert run_cli(["validate", str(bad)]) == 4
        inf = tmp_path / "inf.mach"
        inf.write_text(corpus_text("M_ab").replace("reversals 1",
                                                   "reversals inf"))
        assert run_cli(["infinite", str(inf)]) == 3
        assert run_cli(["corpus", "get", "nope"]) == 3
        capsys.readouterr()
        assert run_cli(["enum", str(mab), "--max-len", "4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["details"]["words"] == ["", "ab", "aabb"]
