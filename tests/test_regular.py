from hypothesis import given, settings
from hypothesis import strategies as st

from rbcm.regular import (
    Dfa,
    UnaryDFA,
    align_unary_family,
    dfa_from_machine,
    full_dfa,
    machine_from_dfa,
    periodic_to_unary,
    prefix_free_check_dfa,
    word_dfa,
)

from oracles import dfa_language, dfa_member, words_upto


def _ab_star_ab():
    # (ab)* over {a,b}
    return Dfa(
        states=frozenset({"e", "m", "d"}), alphabet=("a", "b"), initial="e",
        finals=frozenset({"e"}),
        delta={("e", "a"): "m", ("e", "b"): "d", ("m", "a"): "d",
               ("m", "b"): "e", ("d", "a"): "d", ("d", "b"): "d"})


def test_word_dfa_accepts_exactly_the_word():
    d = word_dfa("ab", "ab")
    assert dfa_language(d, 4) == {"ab"}


def test_full_dfa_accepts_everything():
    d = full_dfa("ab")
    assert dfa_language(d, 3) == set(words_upto("ab", 3))


def test_prefix_free_check_dfa():
    assert prefix_free_check_dfa(word_dfa("ab", "ab"))
    assert not prefix_free_check_dfa(_ab_star_ab())  # lambda prefixes "ab"
    assert not prefix_free_check_dfa(full_dfa("a"))


def test_machine_dfa_round_trip():
    d = _ab_star_ab()
    m = machine_from_dfa(d)
    assert m.k == 0 and not m.marked and m.deterministic
    d2 = dfa_from_machine(m)
    assert dfa_language(d2, 6) == dfa_language(d, 6)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 5), st.integers(1, 6), st.data())
def test_periodic_to_unary_matches_definition(tail, loop, data):
    accept = frozenset(
        i for i in range(tail + loop) if data.draw(st.booleans(), label=f"bit{i}"))
    u = periodic_to_unary(tail, loop, accept)
    assert isinstance(u, UnaryDFA)

    def member(i):
        return (i in accept) if i < tail else ((tail + (i - tail) % loop) in accept)

    for i in range(tail + 4 * loop + 4):
        assert u.accepts(i) == member(i), i
    assert u.accept <= set(range(u.tail + u.loop))
    # canonical: any tail t and loop p that describe the set have
    # t >= u.tail and p a multiple of u.loop; both sides are periodic
    # with period `loop` from max(t, tail) on, so one window decides
    for t in range(tail + loop + 1):
        for p in range(1, loop + 1):
            if all(member(i) == member(i + p) for i in range(t, max(t, tail) + loop)):
                assert t >= u.tail and p % u.loop == 0, (t, p, u)


def test_align_unary_family_preserves_members():
    a = periodic_to_unary(1, 2, frozenset({0, 1}))   # 0 and odd numbers
    b = periodic_to_unary(3, 3, frozenset({2, 4}))
    tail, loop, accepts = align_unary_family([a, b])
    assert loop % 2 == 0 and loop % 3 == 0
    for i in range(tail + 2 * loop):
        j = i if i < tail else tail + (i - tail) % loop
        assert (j in accepts[0]) == a.accepts(i)
        assert (j in accepts[1]) == b.accepts(i)
