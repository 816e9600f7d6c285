import os
import subprocess
import sys
from pathlib import Path

import pytest

from rbcm.corpus import load_corpus
from rbcm import decide
from rbcm.decide import (
    _ncm_explore,
    _probe_witness,
    compare,
    end_marker_behavior,
    enumerate_words,
    is_empty,
    is_infinite,
    linear_feasible,
    linear,
    member,
    parikh_image,
    prefix_free_check_machine,
    semilinear_member,
    solve_diophantine,
    to_one_reversal,
)
from rbcm.machine import (
    EOT,
    RIGHT,
    STAY,
    CounterMachine,
    Transition,
    enforce_reversal_control,
    run_deterministic,
)

from oracles import naive_member, words_upto


def _three_reversal_machine():
    """a^i b^j a^k with j <= i; counter path up-down-up-down (3 reversals)."""
    ts = [Transition("s0", "a", g, "s0", RIGHT, (1,)) for g in "zp"]
    ts += [Transition("s0", "b", "p", "s1", RIGHT, (-1,))]
    ts += [Transition("s1", "b", "p", "s1", RIGHT, (-1,))]
    ts += [Transition("s1", "a", g, "s2", RIGHT, (1,)) for g in "zp"]
    ts += [Transition("s2", "a", g, "s2", RIGHT, (1,)) for g in "zp"]
    for q in ("s0", "s1", "s2"):
        ts.append(Transition(q, EOT, "p", q + "_d", STAY, (-1,)))
        ts.append(Transition(q + "_d", EOT, "p", q + "_d", STAY, (-1,)))
        ts.append(Transition(q, EOT, "z", "f", STAY, (0,)))
        ts.append(Transition(q + "_d", EOT, "z", "f", STAY, (0,)))
    states = {"s0", "s1", "s2", "s0_d", "s1_d", "s2_d", "f"}
    return CounterMachine("updownup", 1, 3, frozenset(states), ("a", "b"),
                          "s0", frozenset({"f"}), tuple(ts), True, True)


def test_to_one_reversal_preserves_language():
    m = _three_reversal_machine()
    out = to_one_reversal(m)
    assert out.l == 1 and out.budget_explicit
    for w in words_upto("ab", 6):
        assert member(out, w) == naive_member(m, w), w


def test_to_one_reversal_is_annotation_only_at_budget_one():
    m = load_corpus("M_ab").artifact
    out = to_one_reversal(m)
    assert out.l == 1
    for w in words_upto("ab", 6):
        assert member(out, w) == naive_member(m, w), w


def test_member_and_enumerate_agree_on_corpus(corpus_machines):
    for m in corpus_machines:
        words = set(enumerate_words(m, 6))
        for w in words_upto(m.alphabet, 6):
            assert (w in words) == member(m, w), (m.name, w)


def test_is_empty_on_corpus_and_witnesses(corpus_machines):
    for m in corpus_machines:
        depth = 10 if len(m.alphabet) <= 2 else 7
        empty, witness = is_empty(m)
        assert empty == (enumerate_words(m, depth) == [])
        if not empty:
            assert witness is not None and member(m, witness)


def test_unbounded_reversing_stay_loop_is_explored_exactly():
    """a^n b^n, but an 'a' after the b's starts a stay loop whose counter
    reverses forever; with `reversals inf` the exploration must still
    settle every word."""
    ts = [Transition("s0", "a", g, "s0", RIGHT, (1,)) for g in "zp"]
    ts += [Transition("s0", "b", "p", "s1", RIGHT, (-1,)),
           Transition("s1", "b", "p", "s1", RIGHT, (-1,)),
           Transition("s0", EOT, "z", "f", STAY, (0,)),
           Transition("s1", EOT, "z", "f", STAY, (0,)),
           Transition("s1", "a", "z", "t", STAY, (1,)),
           Transition("t", "a", "p", "u", STAY, (-1,)),
           Transition("u", "a", "z", "t", STAY, (1,))]
    m = CounterMachine("revloop", 1, None, frozenset({"s0", "s1", "f", "t", "u"}),
                       ("a", "b"), "s0", frozenset({"f"}), tuple(ts), True, True)
    assert run_deterministic(m, "aba").verdict == "diverge"
    words = list(words_upto(m.alphabet, 6))
    _accepted, undecided = _ncm_explore(m, words, 6 + 16)
    assert not undecided
    assert enumerate_words(m, 6) == [
        w for w in words if run_deterministic(m, w).verdict == "accept"]


def test_probe_is_one_bounded_search(monkeypatch):
    """Accepts only 'a', after a stay run that lifts the counter to 25,
    past the probe's cap: the probe misses the word without settling it
    with `member`, enumeration settles it, and emptiness proves it."""
    n = 25
    ts = [Transition("s0", "a", "z", "c0", RIGHT, (0,))]
    ts += [Transition(f"c{i}", EOT, "z" if i == 0 else "p", f"c{i + 1}", STAY, (1,))
           for i in range(n)]
    ts += [Transition(f"c{n}", EOT, "p", f"c{n}", STAY, (-1,)),
           Transition(f"c{n}", EOT, "z", "f", STAY, (0,))]
    states = frozenset({"s0", "f"} | {f"c{i}" for i in range(n + 1)})
    m = CounterMachine("late", 1, 1, states, ("a",), "s0", frozenset({"f"}),
                       tuple(ts), True, True)
    assert run_deterministic(m, "a").verdict == "accept"
    with monkeypatch.context() as p:
        p.setattr(decide, "member", lambda *_: pytest.fail("probe called member"))
        assert _probe_witness(m) is None
    assert enumerate_words(m, 3) == ["a"]
    assert is_empty(m) == (False, "a")


def _run_python(code, *flags, hashseed="0"):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONHASHSEED": hashseed,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *flags, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)


def test_parikh_image_is_the_same_in_every_process():
    code = ("from rbcm.corpus import load_corpus\n"
            "from rbcm.decide import parikh_image\n"
            "m = load_corpus('M_neq').artifact\n"
            "print([(c.base, sorted(c.periods)) for c in parikh_image(m)])\n")
    runs = [_run_python(code, hashseed=seed) for seed in ("1", "2")]
    for r in runs:
        assert r.returncode == 0, r.stderr
    assert runs[0].stdout == runs[1].stdout


def test_witness_check_runs_under_optimize():
    code = ("import rbcm.decide as d\n"
            "from rbcm.corpus import load_corpus\n"
            "print('optimized' if not __debug__ else 'debug')\n"
            "d.member = lambda m, w: False\n"
            "try:\n"
            "    d.is_empty(load_corpus('M_ab').artifact)\n"
            "except AssertionError as exc:\n"
            "    print('rejected:', exc)\n")
    r = _run_python(code, "-O")
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[0] == "optimized"
    assert "rejected: witness" in r.stdout


def test_is_empty_detects_empty_languages():
    m = load_corpus("M_ab1").artifact
    dead = m.__class__(**{**m.__dict__, "finals": frozenset()})
    empty, witness = is_empty(dead)
    assert empty and witness is None


def test_is_infinite_on_corpus():
    expectations = {"M_ab": True, "M_ab1": True, "M_neq": True,
                    "mod_counter": True, "pf_ab": False, "pf_hash": False}
    for name, expected in expectations.items():
        m = load_corpus(name).artifact
        assert is_infinite(m) == expected, name


def test_parikh_image_matches_enumeration_on_corpus(corpus_machines):
    for m in corpus_machines:
        if len(m.alphabet) > 2:
            continue  # the three-letter machine gets its own spot check below
        sets = parikh_image(m)
        letters = sorted(m.alphabet)
        seen = {tuple(w.count(a) for a in letters) for w in enumerate_words(m, 6)}
        vectors = _vectors(len(letters), 6)
        for v in vectors:
            assert semilinear_member(sets, v) == (v in seen), (m.name, v)


def test_parikh_image_spot_checks_three_letter_machine():
    m = load_corpus("M_neq").artifact
    sets = parikh_image(m)
    # letters sorted: #, a, b
    for vector, expected in [((2, 1, 0), True), ((2, 2, 1), True),
                             ((3, 0, 1), True), ((2, 0, 0), False),
                             ((2, 1, 1), False), ((0, 1, 0), False)]:
        assert semilinear_member(sets, vector) == expected, vector


def _vectors(dim, total):
    if dim == 0:
        return [()]
    out = []
    for head in range(total + 1):
        for rest in _vectors(dim - 1, total - head):
            out.append((head,) + rest)
    return out


def test_compare_subset_and_equal_on_corpus():
    m_ab = load_corpus("M_ab").artifact
    m_ab1 = load_corpus("M_ab1").artifact
    ok, cex = compare(m_ab1, m_ab, "subset")
    assert ok and cex is None
    ok, cex = compare(m_ab, m_ab1, "subset")
    assert not ok and cex == ""
    ok, _ = compare(m_ab, m_ab, "equal")
    assert ok
    ok, cex = compare(m_ab, m_ab1, "equal")
    assert not ok and member(m_ab, cex) != member(m_ab1, cex)


def test_prefix_free_check_machine_on_corpus():
    expectations = {"M_ab": False, "M_ab1": True, "M_neq": False,
                    "mod_counter": False, "pf_ab": True, "pf_hash": True}
    for name, expected in expectations.items():
        m = load_corpus(name).artifact
        assert prefix_free_check_machine(m) == expected, name


def test_linear_feasible_basic():
    c = linear((0, 0), frozenset({(1, 0), (0, 1)}))
    assert linear_feasible(c, [((1, 1), "==", 3)]) is not None
    assert linear_feasible(c, [((2, 0), "==", 1)]) is None
    assert linear_feasible(c, [((1, 0), ">=", 1), ((1, 0), "<=", 0)]) is None
    sol = linear_feasible(c, [((1, -1), "==", 0), ((1, 1), ">=", 4)])
    assert sol is not None


def test_solve_diophantine_realizes_solutions():
    particulars, basis = solve_diophantine([((1, 1), 2)], 2)
    sols = set(particulars)
    assert all(x + y == 2 for x, y in sols)
    assert (2, 0) in sols or (0, 2) in sols or (1, 1) in sols
    for b in basis:
        assert b[0] + b[1] == 0 and all(v >= 0 for v in b)


def _eot_accepts(m, state, value, step_cap=10000):
    """Independent end-of-tape simulation from (state, counter=value)."""
    seen = set()
    q, c = state, value
    for _ in range(step_cap):
        if q in m.finals:
            return True
        if (q, c) in seen:
            return False
        seen.add((q, c))
        opts = [t for t in m.transitions
                if t.src == q and t.symbol == EOT
                and (t.guard == ("p" if c > 0 else "z"))]
        if not opts:
            return False
        (t,) = opts
        q, c = t.dst, c + t.deltas[0]
    raise RuntimeError("eot sim did not settle")


def test_end_marker_behavior_matches_simulation():
    m = load_corpus("mod_counter").artifact
    me = enforce_reversal_control(m)
    for q in me.states:
        u = end_marker_behavior(me, q)
        for i in range(40):
            assert u.accepts(i) == _eot_accepts(me, q, i), (q, i)


def test_end_marker_behavior_mod_counter_start_state_is_even():
    m = load_corpus("mod_counter").artifact
    me = enforce_reversal_control(m)
    u = end_marker_behavior(me, me.initial)
    for i in range(30):
        assert u.accepts(i) == (i % 2 == 0)
