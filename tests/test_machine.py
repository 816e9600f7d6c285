import dataclasses
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbcm.corpus import load_corpus
from rbcm.decide import member
from rbcm.errors import NondeterministicInput
from rbcm.fileformat import parse_machine
from rbcm.machine import (
    EOT,
    RIGHT,
    STAY,
    CounterMachine,
    Transition,
    accepts,
    enforce_reversal_control,
    run_deterministic,
    validate_machine,
)

from oracles import lasso_run, naive_member, words_upto
from randgen import machine_pool, rand_machine


def _mk(transitions, *, k=1, l=1, states=("s0", "s1"), initial="s0",
        finals=("s1",), alphabet=("a", "b"), marked=True, deterministic=True):
    return CounterMachine(
        "t", k, l, frozenset(states), tuple(alphabet), initial,
        frozenset(finals), tuple(transitions), marked, deterministic)


def test_validate_accepts_corpus_machines(corpus_machines):
    for m in corpus_machines:
        assert validate_machine(m) == []


def test_validate_rejects_zero_guarded_decrement():
    m = _mk([Transition("s0", "a", "z", "s1", RIGHT, (-1,))])
    assert any("decrement" in e for e in validate_machine(m))


def test_validate_rejects_moving_eot_transition():
    m = _mk([Transition("s0", EOT, "z", "s1", RIGHT, (0,))])
    assert any(EOT in e or "end" in e.lower() for e in validate_machine(m))


def test_validate_rejects_unknown_states_and_symbols():
    m = _mk([Transition("s0", "x", "z", "ghost", RIGHT, (0,))])
    errs = validate_machine(m)
    assert any("target not in state set" in e for e in errs)
    assert any("symbol not in alphabet" in e for e in errs)


def test_validate_rejects_duplicate_keys_on_deterministic_machine():
    ts = [Transition("s0", "a", "z", "s0", RIGHT, (0,)),
          Transition("s0", "a", "z", "s1", RIGHT, (0,))]
    m = _mk(ts)
    assert any("deterministic" in e for e in validate_machine(m))


def test_run_deterministic_matches_corpus_tables(corpus_entries):
    for entry in corpus_entries:
        m = getattr(entry.artifact, "machine", entry.artifact)
        for word, expected in entry.membership:
            trace = run_deterministic(m, word)
            assert (trace.verdict == "accept") == expected, (entry.name, word)


def test_run_deterministic_rejects_nondeterministic_machine(nondet_pool):
    m = next(m for m in nondet_pool if not m.deterministic)
    with pytest.raises(NondeterministicInput):
        run_deterministic(m, "a")


def test_reversal_budget_prunes_second_reversal():
    # counter goes up on a, down on b, up again on a: needs 2 reversals
    ts = [Transition("s0", "a", g, "s0", RIGHT, (1,)) for g in "zp"]
    ts += [Transition("s0", "b", "p", "s1", RIGHT, (-1,))]
    ts += [Transition("s1", "b", "p", "s1", RIGHT, (-1,))]
    ts += [Transition("s1", "a", g, "s0", RIGHT, (1,)) for g in "zp"]
    ts += [Transition("s0", EOT, "z", "f", STAY, (0,)),
           Transition("s1", EOT, "z", "f", STAY, (0,))]
    m1 = _mk(ts, states=("s0", "s1", "f"), finals=("f",), l=1)
    m2 = _mk(ts, states=("s0", "s1", "f"), finals=("f",), l=3)
    assert accepts(m1, "ab")
    assert not accepts(m1, "abab"), "second climb needs a second reversal"
    assert accepts(m2, "abab")


def test_divergence_has_replayable_certificate():
    ts = [Transition("s0", EOT, "z", "s0", STAY, (0,))]
    m = _mk(ts, states=("s0", "s1"), finals=("s1",))
    trace = run_deterministic(m, "")
    assert trace.verdict == "diverge"
    cert = trace.certificate
    assert cert is not None
    c1 = trace.steps[cert.t1][0]
    c2 = trace.steps[cert.t2][0]
    assert c1.state == c2.state and c1.consumed == c2.consumed
    assert all(g >= 0 for g in cert.growth)


def _same_as_lasso_oracle(m, word):
    """Compare run_deterministic with the full-segment scan; returns the
    verdict, or None when the oracle's step cap cut the run short."""
    try:
        verdict, steps, cert = lasso_run(m, word)
    except RuntimeError:
        return None
    trace = run_deterministic(m, word)
    got = [(c.state, c.consumed, c.counters, c.budgets, t) for c, t in trace.steps]
    got_cert = None if trace.certificate is None else (
        trace.certificate.t1, trace.certificate.t2, trace.certificate.growth)
    assert (trace.verdict, got, got_cert) == (verdict, steps, cert), (m, word)
    return verdict


def test_run_deterministic_matches_lasso_oracle():
    rng = random.Random(2024)
    seen = {}
    for i in range(400):
        m = rand_machine(rng, max_k=3, l=rng.choice((0, 1, 2, 3, None)),
                         stay_up=True, density=rng.choice((0.8, 1.0)), name=f"r{i}")
        for _ in range(8):
            n = rng.randint(0, 60)
            j = rng.randint(0, n)
            w = ("".join(rng.choice("ab") for _ in range(n)) if rng.random() < 0.5
                 else "a" * j + "b" * (n - j))
            v = _same_as_lasso_oracle(m, w)
            seen[v] = seen.get(v, 0) + 1
    assert min(seen.get(v, 0) for v in ("accept", "reject", "diverge")) > 200, seen
    assert seen.get(None, 0) < 10, seen
    # long terminating drains, under the corpus budgets and under `reversals inf`
    mod, neq = load_corpus("mod_counter").artifact, load_corpus("M_neq").artifact
    for m in (mod, neq):
        for machine in (m, dataclasses.replace(m, l=None)):
            for n in (0, 1, 2, 57, 300):
                word = "a" * n if m is mod else "#" + "a" * n + "b" * (n + n % 2) + "#"
                assert _same_as_lasso_oracle(machine, word) is not None


# Under `reversals inf`: the counter is zero between two visits of one
# key, so the growth between them proves nothing and the run rejects.
ZERO_BETWEEN = """
machine zero_between
kind dcm
acceptance marked
counters 1
reversals inf
alphabet a
states q0 q1 q2 q3 f
initial q0
final f
trans q0 $ z -> q1 S +1
trans q1 $ p -> q2 S -1
trans q2 $ z -> q3 S +1
trans q3 $ p -> q1 S +1
"""
# Under `reversals inf`: P is visited at (3, 2), then (2, 1), then (3, 2)
# again; the lasso closes against the first visit, not the fallen second.
FALL_THEN_REPEAT = """
machine fall_then_repeat
kind dcm
acceptance marked
counters 2
reversals inf
alphabet a
states s s1 s2 s3 s4 P Q U V W f
initial s
final f
trans s $ zz -> s1 S +1 +1
trans s1 $ pp -> s2 S +1 +1
trans s2 $ pp -> s3 S +1 +1
trans s3 $ pp -> s4 S +1 0
trans s4 $ pp -> P S -1 -1
trans P $ pp -> Q S -1 -1
trans Q $ pp -> P S 0 0
trans Q $ pz -> U S +1 +1
trans U $ pp -> V S +1 +1
trans V $ pp -> W S +1 +1
trans W $ pp -> P S -1 -1
"""


@pytest.mark.parametrize("text, verdict, cert", [
    (ZERO_BETWEEN, "reject", None),
    (FALL_THEN_REPEAT, "diverge", (5, 12, (0, 0))),
])
def test_unbounded_budget_keeps_every_earlier_step(text, verdict, cert):
    m = parse_machine(text)
    assert _same_as_lasso_oracle(m, "") == verdict
    got = run_deterministic(m, "").certificate
    assert (got and (got.t1, got.t2, got.growth)) == cert


def test_long_drains_cost_linear_time():
    mod, neq = load_corpus("mod_counter").artifact, load_corpus("M_neq").artifact
    start = time.perf_counter()
    assert member(mod, "a" * 20_000)
    assert member(neq, "#" + "a" * 20_001 + "b" * 20_000 + "#")
    assert time.perf_counter() - start < 10


def test_enforce_reversal_control_preserves_language(det_pool):
    for m in det_pool[:8]:
        me = enforce_reversal_control(m)
        assert me.budget_explicit
        for w in words_upto("ab", 5):
            assert accepts(me, w) == naive_member(m, w), (m.name, w)


def test_member_matches_oracle_on_nondet_machines(nondet_pool):
    from rbcm.decide import member
    for m in nondet_pool:
        for w in words_upto("ab", 5):
            assert member(m, w) == naive_member(m, w), (m.name, w)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="ab", max_size=10))
def test_m_ab_language_is_matched_counts_in_order(w):
    m = load_corpus("M_ab").artifact
    expected = w == "a" * (len(w) // 2) + "b" * (len(w) // 2) and len(w) % 2 == 0
    assert accepts(m, w) == expected


@settings(max_examples=150, deadline=None)
@given(st.text(alphabet="ab#", max_size=8))
def test_m_neq_language_is_delimited_unequal_counts(w):
    m = load_corpus("M_neq").artifact
    expected = (len(w) >= 2 and w[0] == "#" and w[-1] == "#"
                and w[1:-1].count("a") != w[1:-1].count("b"))
    assert accepts(m, w) == expected
