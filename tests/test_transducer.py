"""Tests for counter transducers and inverse/forward images."""

import dataclasses

import pytest

from rbcm.corpus import load_corpus
from rbcm.machine import CounterMachine
from rbcm.transducer import (
    CounterTransducer,
    forward_image_ncm,
    inverse_apply,
    to_null_transducer,
    transduce_det,
    validate_transducer,
)
from rbcm.decide import enumerate_words, member

from oracles import empty_word_acceptor, naive_language, words_upto


@pytest.fixture(scope="module")
def t_shuffle():
    return load_corpus("T_shuffle").artifact


@pytest.fixture(scope="module")
def m_ab():
    return load_corpus("M_ab").artifact


def test_validate_transducer_accepts_corpus(t_shuffle):
    assert validate_transducer(t_shuffle) == []


def test_validate_transducer_flags_stray_output_letter(t_shuffle):
    bad_trans = tuple(
        tr._replace(output="x") if tr.output else tr
        for tr in t_shuffle.machine.transitions
    )
    bad = CounterTransducer(
        dataclasses.replace(t_shuffle.machine, transitions=bad_trans),
        t_shuffle.out_alphabet,
    )
    assert any("foreign" in e for e in validate_transducer(bad))


def test_transduce_det_on_shuffle(t_shuffle):
    # a/b letters are echoed, c/d letters drive the counter silently.
    assert transduce_det(t_shuffle, "acbd") == "ab"
    assert transduce_det(t_shuffle, "") == ""
    assert transduce_det(t_shuffle, "cabd") == "ab"
    assert transduce_det(t_shuffle, "aabb") == "aabb"
    # Unbalanced c/d input is rejected.
    assert transduce_det(t_shuffle, "abd") is None
    assert transduce_det(t_shuffle, "ac") is None


def test_to_null_transducer_preserves_domain(t_shuffle):
    null = to_null_transducer(t_shuffle)
    assert all(tr.output == "" for tr in null.machine.transitions)
    dom = t_shuffle.machine
    for w in words_upto(dom.alphabet, 5):
        assert (transduce_det(t_shuffle, w) is not None) == (
            transduce_det(null, w) is not None
        )


def test_to_null_transducer_accepts_bare_machine(m_ab):
    null = to_null_transducer(m_ab)
    assert isinstance(null, CounterTransducer)
    lang = naive_language(m_ab, 6)
    for w in words_upto(m_ab.alphabet, 6):
        assert member(null.machine, w) == (w in lang)


def test_inverse_apply_null_transducer_is_identity(m_ab):
    lam = empty_word_acceptor(())
    back = inverse_apply(to_null_transducer(m_ab), lam)
    lang = naive_language(m_ab, 6)
    for w in words_upto(m_ab.alphabet, 6):
        assert member(back, w) == (w in lang)


def test_inverse_apply_requires_matching_alphabets(t_shuffle, m_ab):
    with pytest.raises(Exception, match="alphabet"):
        inverse_apply(t_shuffle, dataclasses.replace(m_ab, alphabet=("x",)))


def test_inverse_apply_shuffle_against_anbn(t_shuffle, m_ab):
    # Words whose a/b projection is a^n b^n and whose c/d projection is
    # c^m d^m, checked against the direct definition.
    inv = inverse_apply(t_shuffle, m_ab)

    def expected(w):
        ab = "".join(ch for ch in w if ch in "ab")
        cd = "".join(ch for ch in w if ch in "cd")
        n2, m2 = len(ab) // 2, len(cd) // 2
        return ab == "a" * n2 + "b" * n2 and cd == "c" * m2 + "d" * m2

    for w in words_upto(("a", "b", "c", "d"), 4):
        assert member(inv, w) == expected(w), w


def _identity_transducer(m: CounterMachine) -> CounterTransducer:
    trans = tuple(
        tr if tr.symbol == "$" else tr._replace(output=tr.symbol)
        for tr in m.transitions
    )
    return CounterTransducer(
        dataclasses.replace(m, transitions=trans), m.alphabet)


def test_forward_image_of_identity_transducer(m_ab):
    img = forward_image_ncm(_identity_transducer(m_ab))
    lang = naive_language(m_ab, 6)
    assert set(enumerate_words(img, 6)) == lang


def test_forward_image_of_shuffle_is_full(t_shuffle):
    # Every a/b word arises as the image of itself (no c/d letters used).
    img = forward_image_ncm(t_shuffle)
    assert set(enumerate_words(img, 4)) == set(words_upto(("a", "b"), 4))
