import pytest

import rbcm.constructions as cons
from rbcm.constructions import (
    boolean_dcm,
    concat_dcm1_regular,
    concat_dcmne_regular,
    concat_ncm,
    concat_pf_dcmne_dcm,
    concat_pf_regular_dcm,
    intersect_regular,
    inverse_insertion_ncm,
    inverse_prefix_dcm1,
    left_quotient_word,
    make_non_exiting,
    prepare_for_regular_concat,
    product_intersection,
    strip_end_marker_one_counter,
)
from rbcm.corpus import load_corpus
from rbcm.decide import enumerate_words, is_empty, member
from rbcm.errors import NotPrefixFree
from rbcm.fileformat import parse_machine
from rbcm.machine import (
    EOT, RIGHT, STAY, CounterMachine, Transition, enforce_reversal_control,
    stay_acyclic_check,
)
from rbcm.regular import Dfa, full_dfa, machine_from_dfa, word_dfa

from oracles import concat_language, naive_language, naive_member, words_upto


def _lang(m, n):
    return set(enumerate_words(m, n))


@pytest.fixture(scope="module")
def m_ab():
    return load_corpus("M_ab").artifact


@pytest.fixture(scope="module")
def m_ab1():
    return load_corpus("M_ab1").artifact


def test_intersect_regular_examples(m_ab):
    m_neq = load_corpus("M_neq").artifact
    # DFA for #a*b*#
    d = Dfa(frozenset({0, 1, 2, 3, "x"}), ("a", "b", "#"), 0, frozenset({3}),
            {(0, "#"): 1, (1, "a"): 1, (1, "b"): 2, (1, "#"): 3,
             (2, "b"): 2, (2, "#"): 3, (2, "a"): "x",
             (0, "a"): "x", (0, "b"): "x",
             (3, "a"): "x", (3, "b"): "x", (3, "#"): "x",
             ("x", "a"): "x", ("x", "b"): "x", ("x", "#"): "x"})
    prod = intersect_regular(m_neq, d)
    assert member(prod, "#aab#") and not member(prod, "#ab#")
    assert not member(prod, "#ba#"), "in M_neq order a before b is required here"

    same = intersect_regular(m_ab, full_dfa("ab"))
    assert _lang(same, 6) == _lang(m_ab, 6)

    nothing = Dfa(frozenset({0}), ("a", "b"), 0, frozenset(),
                  {(0, "a"): 0, (0, "b"): 0})
    assert is_empty(intersect_regular(m_ab, nothing))[0]


def test_boolean_complement_and_involution(m_ab):
    neg = boolean_dcm(m_ab, None, "not")
    assert member(neg, "a") and not member(neg, "ab")
    assert _lang(neg, 5) == set(words_upto("ab", 5)) - _lang(m_ab, 5)
    back = boolean_dcm(neg, None, "not")
    assert _lang(back, 6) == _lang(m_ab, 6)


def test_boolean_and_or(m_ab, m_ab1):
    both = boolean_dcm(m_ab, m_ab1, "and")
    assert _lang(both, 6) == _lang(m_ab1, 6)
    either = boolean_dcm(m_ab, m_ab1, "or")
    assert _lang(either, 6) == _lang(m_ab, 6)


def test_strip_end_marker_examples(m_ab):
    out = strip_end_marker_one_counter(m_ab)
    assert not out.marked and out.k == 1 and out.deterministic
    assert all(t.symbol != "$" for t in out.transitions)
    assert member(out, "aabb")
    assert _lang(out, 8) == naive_language(m_ab, 8)


def test_make_non_exiting_examples():
    # machine for {#} with spurious transitions out of the final state
    # into a dead loop; removing them keeps the language {#}
    ts = (Transition("q0", "#", "", "q1", RIGHT, ()),
          Transition("q1", "#", "", "q2", RIGHT, ()),
          Transition("q2", "#", "", "q2", RIGHT, ()))
    m = CounterMachine("hashloop", 0, 0, frozenset({"q0", "q1", "q2"}), ("#",),
                       "q0", frozenset({"q1"}), ts, False, True)
    ne = make_non_exiting(m)
    assert all(t.src not in ne.finals for t in ne.transitions)
    assert naive_language(ne, 3) == {"#"}
    with pytest.raises(NotPrefixFree):
        make_non_exiting(machine_from_dfa(full_dfa("a")))
    m_pf = CounterMachine("hash", 0, 0, frozenset({"q0", "q1"}), ("#",),
                          "q0", frozenset({"q1"}), ts[:1], False, True)
    ne = make_non_exiting(m_pf)
    assert ne.transitions == m_pf.transitions, "already non-exiting: fixed point"


def test_concat_pf_dcmne_dcm_examples(m_ab):
    hash_m = machine_from_dfa(word_dfa("#", "#ab"))
    m_ab_wide = _widen(m_ab, ("#", "a", "b"))
    out = concat_pf_dcmne_dcm(hash_m, m_ab_wide)
    assert out.k == hash_m.k + m_ab_wide.k
    assert member(out, "#ab") and member(out, "#") and not member(out, "ab")
    assert member(out, "#aabb") and not member(out, "#aab")


def _widen(m, alphabet):
    """Same machine over a larger alphabet (extra letters never accepted)."""
    from dataclasses import replace
    return replace(m, alphabet=tuple(alphabet))


def test_concat_pf_dcmne_dcm_precondition_is_necessary(monkeypatch):
    # Bypass the non-exiting check and feed the non-prefix-free {a, ab}:
    # the construction commits at the first final visit and loses "ab"+"a".
    ts = (Transition("q0", "a", "", "q1", RIGHT, ()),
          Transition("q1", "b", "", "q2", RIGHT, ()))
    m = CounterMachine("a_or_ab", 0, 0, frozenset({"q0", "q1", "q2"}),
                       ("a", "b"), "q0", frozenset({"q1", "q2"}), ts,
                       False, True)
    monkeypatch.setattr(cons, "_is_non_exiting", lambda m: True)
    out = concat_pf_dcmne_dcm(m, m)
    expected = {u + v for u in ("a", "ab") for v in ("a", "ab")}
    got = {w for w in words_upto("ab", 4) if member(out, w)}
    assert got != expected, "bypassing the precondition must go wrong"
    assert "aba" in expected - got, "'ab'+'a' is lost by early commitment"


def test_concat_dcmne_regular_examples(m_ab):
    m1 = prepare_for_regular_concat(strip_end_marker_one_counter(m_ab))
    bstar = Dfa(frozenset({0, 1}), ("a", "b"), 0, frozenset({0}),
                {(0, "b"): 0, (0, "a"): 1, (1, "a"): 1, (1, "b"): 1})
    out = concat_dcmne_regular(m1, bstar)
    assert out.deterministic
    assert member(out, "aabbb") and member(out, "aabb") and not member(out, "aab")
    lam = word_dfa("", "ab")
    same = concat_dcmne_regular(m1, lam)
    assert _lang(same, 6) == _lang(m_ab, 6)


def test_concat_dcm1_regular_and_inverse_prefix(m_ab, m_ab1):
    out = concat_dcm1_regular(m_ab, word_dfa("", "ab"))
    assert out.k == 1
    assert _lang(out, 6) == _lang(m_ab, 6)

    pref = inverse_prefix_dcm1(m_ab1)
    assert pref.k == 1
    expect = {w for w in words_upto("ab", 6)
              if any(naive_member(m_ab1, w[:i]) for i in range(len(w) + 1))}
    assert {w for w in words_upto("ab", 6) if member(pref, w)} == expect
    assert member(pref, "abba") and not member(pref, "ba")


# a^n b^n (n >= 1), or a^n b^j a^i with 1 <= j < n and i >= 1: the first
# `a` after the b's drains what is left of the counter with the
# terminating stay cycle `q3 a p -> q3 S -1`, the machine's only one.
DRAIN = """
machine drain
kind dcm
acceptance marked
counters 1
reversals 1
alphabet a b
states q0 q1 q3 q4 acc
initial q0
final acc
trans q0 a * -> q0 R +1
trans q0 b p -> q1 R -1
trans q1 b p -> q1 R -1
trans q1 a p -> q3 S 0
trans q3 a p -> q3 S -1
trans q3 a z -> q4 R 0
trans q4 a z -> q4 R 0
trans q1 $ z -> acc S 0
trans q4 $ z -> acc S 0
"""


def test_inverse_prefix_accepts_terminating_stay_drain():
    m = parse_machine(DRAIN)
    assert not stay_acyclic_check(enforce_reversal_control(m))
    pref = inverse_prefix_dcm1(m)
    for w in words_upto("ab", 7):
        expect = any(naive_member(m, w[:i]) for i in range(len(w) + 1))
        assert member(pref, w) == expect, w


def test_concat_pf_regular_dcm_examples(m_ab):
    m_ab_wide = _widen(m_ab, ("#", "a", "b"))
    out = concat_pf_regular_dcm(word_dfa("#", "#ab"), m_ab_wide)
    assert out.k == m_ab_wide.k
    assert member(out, "#aabb") and not member(out, "aabb")
    with pytest.raises(NotPrefixFree):
        concat_pf_regular_dcm(full_dfa("a"), _widen(m_ab, ("a",)))


def test_left_quotient_word_examples(m_ab):
    q = left_quotient_word(m_ab, "a")
    assert member(q, "abb") and member(q, "b") and not member(q, "ab")
    ident = left_quotient_word(m_ab, "")
    assert _lang(ident, 6) == _lang(m_ab, 6)
    dead = left_quotient_word(m_ab, "bb")
    assert is_empty(dead)[0]


def test_concat_ncm_examples(m_ab):
    out = concat_ncm(m_ab, m_ab)
    assert not out.deterministic
    assert member(out, "abab") and member(out, "abaabb") and not member(out, "aba")
    expected = {u + v for u in naive_language(m_ab, 6)
                for v in naive_language(m_ab, 6) if len(u + v) <= 6}
    assert _lang(out, 6) == expected

    lam = machine_from_dfa(word_dfa("", "ab"))
    same = concat_ncm(m_ab, lam)
    assert _lang(same, 6) == _lang(m_ab, 6)

    nothing = CounterMachine("void", 0, 0, frozenset({"q"}), ("a", "b"),
                             "q", frozenset(), (), False, True)
    assert is_empty(concat_ncm(nothing, m_ab))[0]


def test_concat_ncm_first_machine_accepts_empty_word_through_end_moves(m_ab1):
    # {"", "a"}: the empty word is accepted only by a move on the end
    # marker, and "a" only after draining the counter at the end
    ts = (Transition("q0", EOT, "z", "f", STAY, (0,)),
          Transition("q0", "a", "z", "q1", RIGHT, (1,)),
          Transition("q1", EOT, "p", "q2", STAY, (-1,)),
          Transition("q2", EOT, "z", "f", STAY, (0,)))
    m1 = CounterMachine("eps_or_a", 1, 1, frozenset({"q0", "q1", "q2", "f"}),
                        ("a", "b"), "q0", frozenset({"f"}), ts, True, True)
    out = concat_ncm(m1, m_ab1)
    expected = concat_language(naive_language(m1, 6), naive_language(m_ab1, 6), 6)
    assert "ab" in expected
    assert _lang(out, 6) == expected


def test_inverse_insertion_modes(m_ab1):
    lang = naive_language(m_ab1, 6)
    checks = {
        "prefix": lambda w: any(w[:i] in lang for i in range(len(w) + 1)),
        "suffix": lambda w: any(w[i:] in lang for i in range(len(w) + 1)),
        "infix": lambda w: any(w[i:j] in lang for i in range(len(w) + 1)
                               for j in range(i, len(w) + 1)),
        "outfix": lambda w: any(w[:i] + w[j:] in lang
                                for i in range(len(w) + 1)
                                for j in range(i, len(w) + 1)),
    }
    for mode, check in checks.items():
        out = inverse_insertion_ncm(m_ab1, mode)
        got = {w for w in words_upto("ab", 6) if member(out, w)}
        assert got == {w for w in words_upto("ab", 6) if check(w)}, mode
    assert member(inverse_insertion_ncm(m_ab1, "infix"), "babb")


def test_embed_one_gap_equals_outfix(m_ab1):
    emb = inverse_insertion_ncm(m_ab1, "embed", gaps=1)
    out = inverse_insertion_ncm(m_ab1, "outfix")
    for w in words_upto("ab", 5):
        assert member(emb, w) == member(out, w), w


def test_embed_two_gaps():
    ab = machine_from_dfa(word_dfa("ab", "ab"))
    emb2 = inverse_insertion_ncm(ab, "embed", gaps=2)
    lang = {"ab"}

    def removable(w, gaps):
        if w in lang:
            return True
        if gaps == 0:
            return False
        return any(removable(w[:i] + w[j:], gaps - 1)
                   for i in range(len(w) + 1) for j in range(i + 1, len(w) + 1))

    for w in words_upto("ab", 5):
        assert member(emb2, w) == removable(w, 2), w


def test_product_intersection_language(m_ab, m_ab1):
    prod = product_intersection(m_ab, m_ab1)
    assert _lang(prod, 6) == _lang(m_ab1, 6)
    assert prod.k == m_ab.k + m_ab1.k
