import os
import random
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from rbcm.constructions import (
    boolean_dcm, end_marker_behavior, intersect_regular, inverse_insertion_ncm,
    product_intersection,
)
from rbcm.corpus import CATALOG, load_corpus
from rbcm.errors import InfiniteBudget
from rbcm import decide
from rbcm.fileformat import parse_machine
from rbcm.decide import (
    _ncm_explore,
    _parikh_paths,
    _probe_witness,
    _weight_counters_letters,
    build_phase_automaton,
    compare,
    enumerate_words,
    is_empty,
    is_infinite,
    linear_feasible,
    linear,
    member,
    parikh_image,
    prefix_free_check_machine,
    rational_feasible,
    semilinear_member,
    sl_dedup,
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
from rbcm.regular import UnaryDFA, word_dfa

from oracles import (
    OracleBudgetExceeded,
    elimination_infinite,
    elimination_nonempty,
    eot_accepts,
    fm_feasible,
    letter_total_weight,
    min_scan_paths,
    naive_language,
    naive_member,
    ncm_explore_reference,
    pairwise_dedup,
    phase_automaton_reference,
    realize,
    stay_counter_cap,
    window_feasible,
    words_upto,
)
from randgen import eot_machine, lr_machine, machine_pool, rand_machine


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


def _control_dead_machines():
    """Machines with states that cannot reach a final state in one phase.
    `reads_to_final`: s0 and s1 reach f only by reading (every `$` move
    runs into the non-final sink d).  `ends_to_final`: s0 and d reach f
    only at end of tape (reading a b leads to g, which reads forever).
    `dead_start`: no final state is reachable at all, and the initial
    state reads a into itself, so the initial node has a self-loop."""
    def machine(name, l, states, finals, ts):
        return CounterMachine(name, 1, l, frozenset(states), ("a", "b"), "s0",
                              frozenset(finals), tuple(ts), True, True)

    up = [Transition("s0", "a", g, "s0", RIGHT, (1,)) for g in "zp"]
    drain = [Transition("s0", EOT, "p", "d", STAY, (-1,)),
             Transition("d", EOT, "p", "d", STAY, (-1,))]
    reads = machine("reads_to_final", 3, ("s0", "s1", "s2", "d", "f", "t"), ("f",), up + drain + [
        Transition("s0", "b", "p", "s1", RIGHT, (-1,)),
        Transition("s1", "b", "p", "s1", RIGHT, (-1,)),
        Transition("s1", "a", "z", "f", RIGHT, (0,)),
        Transition("s1", "a", "p", "s2", RIGHT, (1,)),
        Transition("s2", "a", "z", "s2", RIGHT, (1,)),
        Transition("s2", "a", "p", "s2", RIGHT, (1,)),
        Transition("s1", EOT, "p", "d", STAY, (-1,)),
        Transition("f", "b", "z", "t", RIGHT, (0,))])
    ends = machine("ends_to_final", 1, ("s0", "d", "f", "g"), ("f",), up + drain + [
        Transition("d", EOT, "z", "f", STAY, (0,)),
        Transition("s0", "b", "p", "g", RIGHT, (0,)),
        Transition("g", "a", "p", "g", RIGHT, (0,)),
        Transition("g", "b", "p", "g", RIGHT, (-1,)),
        Transition("f", "a", "z", "g", RIGHT, (1,))])
    dead = machine("dead_start", 1, ("s0", "s1", "f"), ("f",), [
        Transition("s0", "a", "z", "s0", RIGHT, (0,)),
        Transition("s0", "b", "z", "s1", RIGHT, (1,)),
        Transition("s1", "b", "p", "s1", RIGHT, (-1,)),
        Transition("s1", EOT, "z", "s1", STAY, (0,)),
        Transition("f", "a", "z", "f", RIGHT, (0,))])
    return [reads, ends, dead]


def _phase_pool(corpus_machines):
    """Budgets 1 to 7, budget-explicit machines among them, and the
    machines whose builds skip control-dead nodes most: the hand-written
    ones, the complemented products of `compare` over the deterministic
    corpus pairs and the word products of `_member_pipeline`."""
    rng = random.Random(12)
    draws = [rand_machine(rng, l=(1, 2, 3)[i % 3], deterministic=i % 2 == 0)
             for i in range(150)]
    # the eager split of two counters at l = 5 takes about a second
    draws += [rand_machine(rng, l=(5, 7)[i % 2], max_k=1, deterministic=i % 4 < 2)
              for i in range(40)]
    neq = load_corpus("M_neq").artifact
    split = [_three_reversal_machine()] + [replace(neq, l=l) for l in (1, 3, 5)]
    hand = _control_dead_machines()
    pool = corpus_machines + [lr_machine(R) for R in range(1, 11)] + split + hand
    explicit = [enforce_reversal_control(m) for m in pool + draws[:12]]
    dets = [m for m in corpus_machines if m.deterministic]
    products = [product_intersection(a, boolean_dcm(b, None, "not"))
                for a in dets for b in dets if a.alphabet == b.alphabet]
    words = [(m, w) for m in corpus_machines + hand for w in words_upto(m.alphabet, 2)]
    words += [(lr_machine(R), "a" * (R * R) + "b" * R + c) for R in range(1, 5) for c in ("c", "cc")]
    products += [intersect_regular(m, word_dfa(w, m.alphabet)) for m, w in words]
    return pool + draws + explicit + [to_one_reversal(m) for m in split] + products


def test_phase_automaton_matches_split_reference(corpus_machines):
    """The phase automaton explored straight from the machine is the one
    the written-out split gives: the same nodes and accepting nodes, and
    the same edges in the same order, which fixes the elimination order
    and so every downstream output.  Edges are numbered by their position
    in the trimmed list."""
    for m in _phase_pool(corpus_machines):
        got, want = build_phase_automaton(m), phase_automaton_reference(m)
        assert (got.k, got.initial, got.nodes, got.accepting) == \
            (want.k, want.initial, want.nodes, want.accepting), m.name
        assert got.edges == want.edges, m.name
        assert [e.eid for e in got.edges] == list(range(len(got.edges))), m.name


def _live_sets(m):
    """(live_read, live_eot) by fixed-point iteration: the states that
    reach a final state along `$` moves, and those that reach one of
    these along letter moves."""
    def back(seeds, moves):
        live, grew = set(seeds), True
        while grew:
            grew = False
            for t in moves:
                if t.dst in live and t.src not in live:
                    live.add(t.src)
                    grew = True
        return live

    live_eot = back(m.finals, [t for t in m.transitions if t.symbol == EOT])
    return back(live_eot, [t for t in m.transitions if t.symbol != EOT]), live_eot


class _LookupSpy:
    """A move table or transition index that records the (state, symbol)
    of every lookup."""

    def __init__(self, inner, seen):
        self.inner, self.seen = inner, seen

    def __getitem__(self, key):
        self.seen.append(key[:2])
        return self.inner[key]

    def get(self, key, default=None):
        self.seen.append(key)
        return self.inner.get(key, default)


def test_phase_automaton_pays_only_for_live_nodes(corpus_machines, monkeypatch):
    """The build makes one `PhaseEdge` per edge of the trimmed automaton,
    and looks up moves only for nodes whose machine state can reach a
    final state: along `$` moves at end of tape, along letter moves and
    then `$` moves while reading.  The initial node is looked up even when
    its state is dead (`dead_start`), since the trim keeps it."""
    made, seen = [], []
    real_edge, real_moves, real_index = decide.PhaseEdge, decide._moves, decide._index

    def counting_edge(*args):
        made.append(None)
        return real_edge(*args)

    monkeypatch.setattr(decide, "PhaseEdge", counting_edge)
    monkeypatch.setattr(decide, "_moves", lambda m: _LookupSpy(real_moves(m), seen))
    monkeypatch.setattr(decide, "_index", lambda m: _LookupSpy(real_index(m), seen))
    hand = _control_dead_machines()
    machines = (corpus_machines + [lr_machine(R) for R in range(1, 41)]
                + hand + [enforce_reversal_control(m) for m in hand])
    for m in machines:
        made.clear()
        seen.clear()
        pa = build_phase_automaton(m)
        assert len(made) == len(pa.edges), m.name
        live_read, live_eot = _live_sets(m)
        assert seen, m.name
        for q, sym in seen:
            live = live_eot if sym == EOT else live_read | {m.initial}
            assert q in live, (m.name, q, sym)


def _proof_route_answers(machines, words, pairs):
    out = []
    for m, want_witness in machines:
        out += [is_empty(m, want_witness), is_infinite(m), parikh_image(m)]
    out += [decide._member_pipeline(m, w) for m, w in words]
    out += [compare(a, b, "subset") for a, b in pairs]
    return out


def test_decisions_never_build_the_split(corpus_machines, monkeypatch):
    """With the split and the budget annotation unavailable to `decide`,
    the proof route answers as it does over the written-out split."""
    machines = [(m, True) for m in corpus_machines]
    machines += [(lr_machine(R), True) for R in range(1, 41)]
    words = [(m, w) for m in corpus_machines for w in words_upto(m.alphabet, 2)]
    words += [(lr_machine(R), "a" * (R * R) + "b" * R + c)
              for R in range(1, 11) for c in ("c", "cc")]
    dets = [m for m in corpus_machines if m.deterministic and m.name != "M_neq"]
    pairs = [(a, b) for a in dets for b in dets if a.alphabet == b.alphabet]
    with monkeypatch.context() as eager:
        eager.setattr(decide, "build_phase_automaton", phase_automaton_reference)
        want = _proof_route_answers(machines, words, pairs)

    def refuse(*args, **kwargs):
        raise AssertionError("a decision procedure built the one-reversal split")

    monkeypatch.setattr(decide, "to_one_reversal", refuse)
    monkeypatch.setattr(decide, "annotate_budgets", refuse)
    assert _proof_route_answers(machines, words, pairs) == want
    neq = replace(load_corpus("M_neq").artifact, l=7)
    start = time.perf_counter()
    assert is_infinite(neq)
    assert time.perf_counter() - start < 1


def _emptiness_answers(corpus, machines, pairs, words):
    out = [is_empty(m, want_witness) for m in machines for want_witness in (True, False)]
    out += [compare(a, b, mode) for a, b in pairs for mode in ("subset", "equal")]
    out += [prefix_free_check_machine(m) for m in corpus]
    out += [decide._member_pipeline(m, w) for m, w in words]
    return out


def test_emptiness_never_runs_state_elimination(corpus_machines, monkeypatch):
    """Emptiness, comparison, prefix-freeness and the membership fallback
    answer from edge counts alone: with state elimination unavailable to
    `decide`, they answer as before."""
    machines = corpus_machines + [lr_machine(R) for R in range(1, 41)]
    dets = [m for m in corpus_machines if m.deterministic]
    pairs = [(a, b) for a in dets for b in dets if a.alphabet == b.alphabet]
    assert any(a.name == b.name == "M_neq" for a, b in pairs)
    words = [(lr_machine(R), "a" * (R * R) + "b" * R + c)
             for R in range(1, 21) for c in ("c", "cc")]
    want = _emptiness_answers(corpus_machines, machines, pairs, words)
    assert want[-2:] == [True, False]

    def refuse(*args, **kwargs):
        raise AssertionError("an emptiness check ran state elimination")

    monkeypatch.setattr(decide, "_parikh_paths", refuse)
    assert _emptiness_answers(corpus_machines, machines, pairs, words) == want


def test_is_empty_verdicts_match_elimination_oracle(corpus_machines):
    """The edge-count verdict is state elimination's on the corpus, L_R
    for R <= 200, the criterion-1 and criterion-4 pools, the 44 draws
    before draw 44, and the products that `compare` builds over the
    deterministic corpus pairs, whose empty verdicts need the
    back-at-zero rows.  The last machine of pool 4243 is left out:
    elimination does not finish on it."""
    rng = random.Random(5)
    dets = [m for m in corpus_machines if m.deterministic]
    pool = (corpus_machines + [lr_machine(R) for R in range(1, 201)]
            + machine_pool(9001, 80, alphabet="ab") + machine_pool(9002, 20, alphabet="a")
            + machine_pool(4242, 100, alphabet="ab")
            + machine_pool(4243, 50, alphabet="ab", deterministic=False)[:49]
            + machine_pool(4244, 50, alphabet="a")
            + [rand_machine(rng, l=(1, 2, 3)[i % 3]) for i in range(44)]
            + [product_intersection(a, boolean_dcm(b, None, "not"))
               for a in dets for b in dets if a.alphabet == b.alphabet])
    empty = 0
    for m in pool:
        verdict, _ = is_empty(m, want_witness=False)
        assert verdict == (not elimination_nonempty(build_phase_automaton(m))), m.name
        empty += verdict
    assert 0 < empty < len(pool)


def test_emptiness_is_fast_where_elimination_is_not():
    """`compare(M_neq, M_neq, 'equal')` took 2.3 s by state elimination;
    on the last machine of pool 4243 elimination did not finish in 5 s."""
    neq = load_corpus("M_neq").artifact
    start = time.perf_counter()
    assert compare(neq, neq, "equal") == (True, None)
    assert time.perf_counter() - start < 1
    m = machine_pool(4243, 50, alphabet="ab", deterministic=False)[49]
    start = time.perf_counter()
    assert is_empty(m, want_witness=False) == (False, None)
    assert time.perf_counter() - start < 1


def test_only_prefix_freeness_runs_the_probe(corpus_machines, monkeypatch):
    """`is_empty`, `compare` and `member` never run the short-word probe:
    with it raising, the emptiness verdicts on the corpus and L_R for
    R <= 40 and the subset verdicts over the deterministic corpus pairs
    are state elimination's, every witness is accepted, and membership
    in the nondeterministic corpus machines is the oracle's."""
    machines = corpus_machines + [lr_machine(R) for R in range(1, 41)]
    dets = [m for m in corpus_machines if m.deterministic and m.name != "M_neq"]
    pairs = [(a, b) for a in dets for b in dets if a.alphabet == b.alphabet]
    want = [not elimination_nonempty(build_phase_automaton(m)) for m in machines]
    want += [not elimination_nonempty(build_phase_automaton(
        product_intersection(a, boolean_dcm(b, None, "not")))) for a, b in pairs]
    assert True in want and False in want

    def refuse(m):
        raise AssertionError("the short-word probe ran")

    monkeypatch.setattr(decide, "_probe_witness", refuse)
    got = [is_empty(m) for m in machines]
    got += [compare(a, b, "subset") for a, b in pairs]
    assert [verdict for verdict, _ in got] == want
    for m, (_, w) in zip(machines, got):
        assert w is None or (member(m, w) and naive_member(m, w)), (m.name, w)
    for (a, b), (_, w) in zip(pairs, got[len(machines):]):
        assert w is None or (member(a, w) and not member(b, w)), (a.name, b.name, w)
    for m in corpus_machines:
        if not m.deterministic:
            for w in words_upto(m.alphabet, 4):
                assert member(m, w) == naive_member(m, w), (m.name, w)


def test_emptiness_needs_a_finite_budget():
    """A `reversals inf` machine has no phase automaton, so emptiness and
    comparison raise, even where a short word is accepted."""
    m_ab = replace(load_corpus("M_ab").artifact, l=None)
    with pytest.raises(InfiniteBudget):
        is_empty(m_ab)
    with pytest.raises(InfiniteBudget):
        compare(m_ab, load_corpus("M_ab1").artifact, "subset")


def test_flow_witness_reads_l_r_words():
    """The witness comes from edge counts: on L_R it is a word
    a^(R*R*p) b^(R*p) c^p that the oracle accepts."""
    for R in range(1, 13):
        m = lr_machine(R)
        start = time.perf_counter()
        empty, w = is_empty(m)
        elapsed = time.perf_counter() - start
        p = w.count("c")
        assert not empty and p >= 1, (R, w)
        assert w == "a" * (R * R * p) + "b" * (R * p) + "c" * p, (R, w)
        assert naive_member(m, w), R
        if R == 4:
            assert elapsed < 1, elapsed


def _flow_witness(pa):
    used = decide._accepting_counts(pa)
    return None if used is None else decide._euler_word(pa.initial, used)


def test_flow_witness_exists_iff_nonempty(corpus_machines, monkeypatch):
    """On the criterion-4 pools an Euler path over edge counts exists
    exactly for the machines that state elimination finds nonempty, and
    its word is accepted; some machines need a connectivity branch to get
    it."""
    pool = (list(corpus_machines) + machine_pool(4242, 100, alphabet="ab")
            + machine_pool(4243, 50, alphabet="ab", deterministic=False)
            + machine_pool(4244, 50, alphabet="a"))
    branched = []
    stray_component = decide._stray_component

    def spy(initial, edges):
        found = stray_component(initial, edges)
        branched.append(found is not None)
        return found

    monkeypatch.setattr(decide, "_stray_component", spy)
    for m in pool:
        pa = build_phase_automaton(m)
        # a probe hit settles the machines whose Parikh image is too large
        nonempty = _probe_witness(m) is not None or elimination_nonempty(pa)
        w = _flow_witness(pa)
        assert (w is not None) == nonempty, m.name
        if w is not None:
            assert member(m, w) and naive_member(m, w), (m.name, w)
    assert any(branched)


def test_member_matches_oracle_with_stay_increments():
    """`naive_member` bounds the counters once no incrementing stay lies
    on a stay cycle over (state, guard) nodes, so `member` is checked on
    such machines too: one whose incrementing stay loops on its state but
    leaves its guard, and pool draws with l = 1 and 2."""
    m = CounterMachine(
        "stay_inc", 1, 1, frozenset({"q", "r"}), ("a",), "q", frozenset({"r"}),
        (Transition("q", "a", "z", "q", STAY, (1,)),
         Transition("q", "a", "p", "r", RIGHT, (-1,)),
         Transition("r", "a", "z", "q", STAY, (0,))),
        False, True)
    assert stay_counter_cap(m, 7) == 7 + 8
    assert [member(m, "a" * n) for n in range(8)] == [n == 1 for n in range(8)]
    for n in range(8):
        assert naive_member(m, "a" * n) == (n == 1), n
    checked, refused, verdicts = 0, 0, set()
    for det in (True, False):
        for l in (1, 2):
            for m in machine_pool(8100 + l, 60, stay_up=True, deterministic=det, l=l):
                if not any(t.move == STAY and max(t.deltas, default=0) > 0
                           for t in m.transitions):
                    continue
                try:
                    stay_counter_cap(m, 0)
                except ValueError:
                    refused += 1
                    continue
                checked += 1
                for w in words_upto(m.alphabet, 5):
                    got = member(m, w)
                    assert got == naive_member(m, w), (m.name, w)
                    verdicts.add(got)
    assert checked >= 30 and refused >= 30 and verdicts == {True, False}, (checked, refused)


def test_member_and_enumerate_agree_on_corpus(corpus_machines):
    for m in corpus_machines:
        words = set(enumerate_words(m, 6))
        for w in words_upto(m.alphabet, 6):
            assert (w in words) == member(m, w), (m.name, w)
        for w in ("?", "".join(m.alphabet) + "?", "?" + m.alphabet[0]):
            assert not member(m, w), (m.name, w)


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


def _late_machine():
    """Accepts only 'a', after a stay run that lifts the counter to 25."""
    n = 25
    ts = [Transition("s0", "a", "z", "c0", RIGHT, (0,))]
    ts += [Transition(f"c{i}", EOT, "z" if i == 0 else "p", f"c{i + 1}", STAY, (1,))
           for i in range(n)]
    ts += [Transition(f"c{n}", EOT, "p", f"c{n}", STAY, (-1,)),
           Transition(f"c{n}", EOT, "z", "f", STAY, (0,))]
    states = frozenset({"s0", "f"} | {f"c{i}" for i in range(n + 1)})
    return CounterMachine("late", 1, 1, states, ("a",), "s0", frozenset({"f"}),
                          tuple(ts), True, True)


def test_probe_is_one_bounded_search(monkeypatch):
    """The `late` machine's stay run passes the probe's cap: the probe
    misses 'a' without settling it with `member`, enumeration settles
    it, and emptiness proves it."""
    m = _late_machine()
    assert run_deterministic(m, "a").verdict == "accept"
    with monkeypatch.context() as p:
        p.setattr(decide, "member", lambda *_: pytest.fail("probe called member"))
        assert _probe_witness(m) is None
    assert enumerate_words(m, 3) == ["a"]
    assert is_empty(m) == (False, "a")


def test_member_makes_one_run_search_before_the_pipeline(monkeypatch):
    """On a nondeterministic copy of the `late` machine the run search at
    cap len(word) + 16 leaves 'a' open; the word product settles it,
    with no second search at a larger cap."""
    m = replace(_late_machine(), deterministic=False)
    calls = []
    explore, pipeline = decide._ncm_explore, decide._member_pipeline
    monkeypatch.setattr(decide, "_ncm_explore",
                        lambda *args: calls.append("explore") or explore(*args))
    monkeypatch.setattr(decide, "_member_pipeline",
                        lambda *args: calls.append("pipeline") or pipeline(*args))
    assert member(m, "a")
    assert calls == ["explore", "pipeline"]


def _climb_machine(accept_last):
    """Accepts only 'a', nondeterministically: reading 'a' leads to the
    final state f, or to c, whose end-of-tape stay loop lifts the counter
    without bound.  The search pops the move pushed last first, so with
    `accept_last` it pops the accepting run before the climb."""
    to_c = Transition("s0", "a", "z", "c", RIGHT, (0,))
    to_f = Transition("s0", "a", "z", "f", RIGHT, (0,))
    ts = [to_c, to_f] if accept_last else [to_f, to_c]
    ts += [Transition("c", EOT, g, "c", STAY, (1,)) for g in "zp"]
    return CounterMachine("climb", 1, 1, frozenset({"s0", "c", "f"}), ("a",), "s0",
                          frozenset({"f"}), tuple(ts), True, False)


def _looked_up_states(monkeypatch, call):
    """The states of the move-table lookups that `call()` makes."""
    states = []
    moves = decide._moves

    class Spy:
        def __init__(self, table):
            self.table = table

        def __getitem__(self, key):
            states.append(key[0])
            return self.table[key]

    with monkeypatch.context() as p:
        p.setattr(decide, "_moves", lambda m: Spy(moves(m)))
        call()
    return states


def test_run_search_stops_at_the_last_accepting_run(monkeypatch):
    """Once every target has an accepting run the search makes no more
    lookups: the climb that the full search would follow to the cap is
    never stepped, duplicate targets count once, and the answer is the
    full search's at every cap and node budget."""
    m = _climb_machine(accept_last=True)
    assert _looked_up_states(monkeypatch, lambda: member(m, "a")) == ["s0"]
    assert _looked_up_states(monkeypatch, lambda: _ncm_explore(m, ["a", "a"], 17)) == ["s0"]
    late = _climb_machine(accept_last=False)    # the climb comes first
    assert _looked_up_states(monkeypatch, lambda: member(late, "a")).count("c") == 18
    for targets in (["a"], ["", "a", "aa"]):
        for cap in (0, 1, len("a") + 16):
            assert _ncm_explore(m, targets, cap) == ncm_explore_reference(
                m, targets, cap, decide.NCM_NODE_BUDGET), (targets, cap)
        for budget in (1, 3):
            with monkeypatch.context() as p:
                p.setattr(decide, "NCM_NODE_BUDGET", budget)
                got = _ncm_explore(m, targets, 17)
            assert got == ncm_explore_reference(m, targets, 17, budget), (targets, budget)


def test_run_search_stops_once_every_target_is_accepted():
    """The complement of an empty machine accepts every word: enumeration
    and the probe find them all, through the stop on the last target."""
    none = CounterMachine("none", 1, 1, frozenset({"q0"}), ("a", "b"), "q0",
                          frozenset(), (), False, True)
    m = boolean_dcm(none, None, "not")
    words = list(words_upto(m.alphabet, 6))
    assert enumerate_words(m, 6) == words
    assert set(words) == naive_language(m, 6)
    assert _probe_witness(m) == words


def _explore_targets(m, rng):
    """Every word up to 5 letters (4 on a larger alphabet) and eight
    longer words that extend them, so the targets share prefixes."""
    short = list(words_upto(m.alphabet, 5 if len(m.alphabet) <= 2 else 4))
    longer = [rng.choice(short) + "".join(rng.choice(m.alphabet)
                                          for _ in range(rng.randint(1, 5)))
              for _ in range(8)]
    return short + longer


def test_ncm_explore_matches_string_prefix_reference(nondet_pool, monkeypatch):
    """The trie explorer returns the reference's (accepted, undecided)
    exactly: at caps low enough to cut prefixes and end-of-tape runs
    (the stay_up pool's stay moves may increment), and with a node
    budget low enough to run out."""
    rng = random.Random(11)
    machines = list(nondet_pool) + [
        rand_machine(rng, deterministic=False, l=2, stay_up=True) for _ in range(12)] + [
        inverse_insertion_ncm(load_corpus(name).artifact, mode)
        for name in ("M_ab1", "M_neq")
        for mode in ("prefix", "suffix", "infix", "outfix", "embed")]
    cut = exhausted = 0
    for m in machines:
        words = _explore_targets(m, rng)
        longest = max(map(len, words))
        for cap in (0, 1, 2, longest + 16):
            got = _ncm_explore(m, words, cap)
            assert got == ncm_explore_reference(m, words, cap, decide.NCM_NODE_BUDGET), \
                (m.name, cap)
            cut += bool(got[1])
        full = _ncm_explore(m, words, longest + 16)
        with monkeypatch.context() as p:
            p.setattr(decide, "NCM_NODE_BUDGET", 40)
            low = _ncm_explore(m, words, longest + 16)
        assert low == ncm_explore_reference(m, words, longest + 16, 40), m.name
        if low != full:
            assert low[1] == set(words) - low[0]
            exhausted += 1
    assert cut and exhausted


def test_member_and_enumeration_do_not_depend_on_node_budget(corpus_machines, monkeypatch):
    m_ab1 = load_corpus("M_ab1").artifact
    machines = list(corpus_machines) + [
        inverse_insertion_ncm(m_ab1, mode) for mode in ("infix", "outfix")]

    def answers():
        return [([member(m, w) for w in words_upto(m.alphabet, 4)], enumerate_words(m, 4))
                for m in machines]

    expected = answers()
    monkeypatch.setattr(decide, "NCM_NODE_BUDGET", 10)
    assert answers() == expected
    for m in machines[-2:]:     # the budget runs out: nothing is left to the cap
        words = list(words_upto(m.alphabet, 4))
        accepted, undecided = _ncm_explore(m, words, 4 + 16)
        assert undecided and undecided == set(words) - accepted


def _run_python(code, *flags, hashseed="0"):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONHASHSEED": hashseed,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *flags, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)


def test_parikh_image_is_the_same_in_every_process():
    """Phase nodes hold None, whose hash varies between processes: the
    Parikh image and the flow witnesses, those of the corpus and those
    that need a connectivity branch among them, must not depend on it."""
    code = (f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "from randgen import lr_machine, machine_pool\n"
            "from rbcm.corpus import CATALOG, load_corpus\n"
            "from rbcm.decide import build_phase_automaton, is_empty, parikh_image\n"
            "from rbcm.decide import _accepting_counts, _euler_word\n"
            "m = load_corpus('M_neq').artifact\n"
            "print([(c.base, sorted(c.periods)) for c in parikh_image(m)])\n"
            "print(is_empty(lr_machine(2)))\n"
            "corpus = [load_corpus(name).artifact for name in CATALOG]\n"
            "print([is_empty(getattr(a, 'machine', a)) for a in corpus])\n"
            "pool = machine_pool(4243, 50, alphabet='ab', deterministic=False)\n"
            "pas = [build_phase_automaton(pool[i]) for i in (16, 21, 33)]\n"
            "print([_euler_word(pa.initial, _accepting_counts(pa)) for pa in pas])\n")
    runs = [_run_python(code, hashseed=seed) for seed in ("1", "2")]
    for r in runs:
        assert r.returncode == 0, r.stderr
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.splitlines()[1] == "(False, 'aaaabbc')"


def test_witness_check_runs_under_optimize():
    """The re-check rejects witnesses from edge counts (M_ab, two
    letters, and L_2, seven letters) also under python -O."""
    code = (f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "import rbcm.decide as d\n"
            "from randgen import lr_machine\n"
            "from rbcm.corpus import load_corpus\n"
            "print('optimized' if not __debug__ else 'debug')\n"
            "d.member = lambda m, w: False\n"
            "for m in (load_corpus('M_ab').artifact, lr_machine(2)):\n"
            "    try:\n"
            "        d.is_empty(m)\n"
            "    except AssertionError as exc:\n"
            "        print('rejected:', exc)\n")
    r = _run_python(code, "-O")
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == ["optimized", "rejected: witness 'ab' is not accepted",
                                     "rejected: witness 'aaaabbc' is not accepted"]


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


def test_pump_lp_keeps_simple_cycle_columns():
    """`mod_counter` pumps along a loop whose nodes have one edge in and
    one out among the cycle edges: its chain must keep a column in the
    pump LP, cut at the node that names its component.  The prefix-free
    machines have no pump at all."""
    for name, want in [("mod_counter", (True, "pump flow")), ("pf_ab", (False, "no pump")),
                       ("pf_hash", (False, "no pump"))]:
        assert is_infinite(load_corpus(name).artifact, want_route=True) == want, name


@pytest.fixture(scope="module")
def pump_pool(corpus_machines):
    """(machine, phase automaton, what `_pump_counts` returned) for each
    machine of the infiniteness pools, from one `is_infinite` call each,
    made while state elimination raises.  The corpus, L_R for R <= 40,
    the criterion-4 pools, pools 31337 and 9001, the 44 draws before
    draw 44, and stay-up draws with l = 1, 2, 3.  The last machine of
    pool 4243 is left out: the oracle takes more than 10 s on it."""
    rng = random.Random(5)
    pool = (corpus_machines + [lr_machine(R) for R in range(1, 41)]
            + machine_pool(4242, 100, alphabet="ab")
            + machine_pool(4243, 50, alphabet="ab", deterministic=False)[:49]
            + machine_pool(4244, 50, alphabet="a")
            + machine_pool(31337, 50, alphabet="ab") + machine_pool(9001, 40, alphabet="ab")
            + [rand_machine(rng, l=(1, 2, 3)[i % 3]) for i in range(44)]
            + [m for l in (1, 2, 3) for m in machine_pool(8100 + l, 60, stay_up=True, l=l)])
    found = []
    pump_counts = decide._pump_counts

    def spy(pa):
        found.append((pa, pump_counts(pa)))
        return found[-1][1]

    def refuse(*args, **kwargs):
        raise AssertionError("is_infinite ran state elimination")

    out = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decide, "_parikh_paths", refuse)
        mp.setattr(decide, "_pump_counts", spy)
        for m in pool:
            verdict = is_infinite(m)
            pa, (route, used, pumped) = found.pop()
            assert verdict == (used is not None), m.name
            out.append((m, pa, route, used, pumped))
    return out


def test_is_infinite_matches_elimination_oracle(pump_pool):
    """The verdict from edge counts is state elimination's on every
    machine of the pools; each route answers some of them."""
    routes = {}
    for m, pa, route, used, _ in pump_pool:
        assert (used is not None) == elimination_infinite(pa), (m.name, route)
        routes.setdefault((route, used is not None), m.name)
    assert len(pump_pool) == 560
    assert set(routes) == {("no pump", False), ("pump flow", True),
                           ("pump and flow", True), ("pump and flow", False)}, routes


def _plus(used, pumped, n):
    counts = {e.eid: [e, c] for e, c in used}
    for e, c in pumped:
        counts[e.eid][1] += n * c
    return [tuple(ec) for ec in counts.values()]


def test_infinite_verdicts_carry_a_pump(pump_pool):
    """Each "infinite" verdict on a pool machine with at most 60 phase
    nodes comes with a path z and a pump y on z's edges: the Euler words
    of z + y and z + 2y read every letter the counts hold, the oracle
    accepts both, and their lengths differ."""
    checked = 0
    for m, pa, route, used, pumped in pump_pool:
        if used is None or len(pa.nodes) > 60:
            continue
        try:
            stay_counter_cap(m, 0)
        except ValueError:
            continue        # runs the oracle cannot bound
        assert pumped and {e for e, _ in pumped} <= {e for e, _ in used}, m.name
        words = []
        for n in (1, 2):
            counts = _plus(used, pumped, n)
            words.append(decide._euler_word(pa.initial, counts))
            assert len(words[-1]) == sum(c for e, c in counts if e.letter is not None), m.name
            assert naive_member(m, words[-1]), (m.name, route, words[-1])
        assert len(words[0]) < len(words[1]), (m.name, words)
        checked += 1
    assert checked >= 300, checked


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
    # fractional LP vertices; every solution has x >= 65, resp. x >= 92
    cons = [((6, 10), ">=", 999), ((6, 10), "<=", 1001), ((1, -1), ">=", 1)]
    x, y = realize(c, linear_feasible(c, cons))
    assert 3 * x + 5 * y == 500 and x > y
    x, y = realize(c, linear_feasible(c, [((3, 4), ">=", 74), ((2, -1), ">=", 183)]))
    assert 3 * x + 4 * y >= 74 and 2 * x - y >= 183
    # rationally feasible along unbounded directions, with no integer point
    c3 = linear((0, 0, 0), frozenset({(1, 0, 0), (0, 1, 0), (0, 0, 1)}))
    for comp, cons in [
            (c, [((3, -3), "==", 1)]),
            (c, [((90, -90), "==", 1)]),
            (c3, [((3, -3, 1), "==", 1), ((0, 0, 1), "==", 0)]),
            (c3, [((1, 90, -90), "==", 1), ((1, 0, 0), "<=", 0)]),
            (c, [((90, -90), ">=", 1), ((90, -90), "<=", 89)]),
            # the <= row pins b = d = 0 on every rational point, which
            # leaves 2c - 2a = 1
            (linear((0,) * 4, [tuple(int(i == j) for j in range(4)) for i in range(4)]),
             [((-2, -3, 2, -1), "==", 1), ((-2, 2, 2, 3), "<=", 1)])]:
        start = time.perf_counter()
        assert linear_feasible(comp, cons) is None, cons
        assert time.perf_counter() - start < 0.2, cons


def _system_rows(comp, cons):
    """cons over comp's sorted periods: (periods, eqs, ges) with every row
    written as row . n >= rhs or row . n == rhs."""
    periods = sorted(comp.periods)
    eqs, ges = [], []
    for coeffs, op, rhs in cons:
        row = tuple(sum(a * b for a, b in zip(coeffs, p)) for p in periods)
        r = rhs - sum(a * b for a, b in zip(coeffs, comp.base))
        if op == "<=":
            row, r = tuple(-v for v in row), -r
        (eqs if op == "==" else ges).append((row, r))
    return periods, eqs, ges


def _random_system(rng, shape):
    """A linear set and constraints of one shape: as `_end_mode_constraints`
    writes them (dims inc, dec per counter, then letters), as
    `semilinear_member` does (a target vector), or a plain system over
    unit periods."""
    if shape == "generic":
        n = rng.randint(1, 4)
        comp = linear((0,) * n, [tuple(int(i == j) for i in range(n)) for j in range(n)])
        cons = [(tuple(rng.randint(-3, 3) for _ in range(n)), rng.choice(("==", ">=", "<=")),
                 rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))]
        return comp, cons
    dims = 2 * rng.randint(1, 2) + 1 if shape == "end_mode" else rng.randint(1, 3)
    base = tuple(rng.randint(0, 3) for _ in range(dims))
    periods = [tuple(rng.choice((0, 0, 1, 2, 3, 5)) for _ in range(dims))
               for _ in range(rng.randint(1, 4))]
    comp = linear(base, periods)
    cons = []
    if shape == "member":
        for d in range(dims):
            target = rng.randint(0, 15) if d or rng.random() < 0.7 else rng.randint(100, 400)
            cons.append((tuple(int(i == d) for i in range(dims)), "==", target))
        return comp, cons
    k = dims // 2
    for i in range(k):
        row = tuple(1 if j == i else -1 if j == k + i else 0 for j in range(dims))
        op = rng.choice(("==", ">=", None))
        if op:
            cons.append((row, op, 0 if op == "==" else 1))
    return comp, cons or [((0,) * (dims - 1) + (1,), ">=", rng.randint(0, 9))]


def test_linear_feasible_matches_window_oracle():
    """Seeded systems of the shapes the decision procedures build: where
    the window search over [0, 64] finds multipliers, linear_feasible
    finds some too, and every dict it returns meets every constraint,
    also where the smallest multipliers lie beyond the window."""
    rng = random.Random(77)
    found = {True: 0, False: 0}
    beyond = 0
    for i in range(2400):
        comp, cons = _random_system(rng, ("end_mode", "member", "generic")[i % 3])
        periods, eqs, ges = _system_rows(comp, cons)
        want = window_feasible(eqs, ges, len(periods), 64)
        got = linear_feasible(comp, cons)
        if want is not None:
            assert all(sum(a * b for a, b in zip(row, want)) == r for row, r in eqs)
            assert got is not None, (comp, cons)
        found[got is not None] += 1
        if got is None:
            continue
        assert set(got) == set(periods)
        assert all(type(v) is int and v >= 0 for v in got.values())
        vec = realize(comp, got)
        for coeffs, op, rhs in cons:
            value = sum(a * b for a, b in zip(coeffs, vec))
            assert {"==": value == rhs, ">=": value >= rhs, "<=": value <= rhs}[op], (comp, cons)
        beyond += want is None
    assert found[True] > 600 and found[False] > 600 and beyond > 20, (found, beyond)


def test_rational_feasible_matches_fourier_motzkin():
    """Seeded systems (n <= 6, at most 5 rows, coefficients in [-3, 3],
    equality and >= rows): the simplex answers None exactly when
    Fourier-Motzkin finds the system infeasible, and every x it returns
    meets every row exactly."""
    rng = random.Random(2024)
    feasible = 0
    for _ in range(2400):
        n = rng.randint(0, 6)
        eqs, ges = [], []
        for _ in range(rng.randint(0, 5)):
            row = (tuple(rng.randint(-3, 3) for _ in range(n)), rng.randint(-3, 3))
            (eqs if rng.random() < 0.4 else ges).append(row)
        x = rational_feasible(eqs, ges, n)
        assert (x is not None) == fm_feasible(ges, n, eqs), (eqs, ges, n)
        if x is None:
            continue
        feasible += 1
        assert len(x) == n and all(isinstance(v, Fraction) and v >= 0 for v in x)
        assert all(sum(c * v for c, v in zip(row, x)) == r for row, r in eqs)
        assert all(sum(c * v for c, v in zip(row, x)) >= r for row, r in ges)
    assert 600 < feasible < 1800, feasible


def test_solve_diophantine_realizes_solutions():
    particulars, basis = solve_diophantine([((1, 1), 2)], 2)
    sols = set(particulars)
    assert all(x + y == 2 for x, y in sols)
    assert (2, 0) in sols or (0, 2) in sols or (1, 1) in sols
    for b in basis:
        assert b[0] + b[1] == 0 and all(v >= 0 for v in b)


# ---------------------------------------------------------------------------
# end-of-tape behaviour (constructions.end_marker_behavior) against the
# step-by-step oracle


def _check_end_marker_behavior(m):
    me = enforce_reversal_control(m)
    for q in me.states:
        u = end_marker_behavior(me, q)
        for v in range(u.tail + 3 * u.loop + len(me.states)):
            assert u.accepts(v) == eot_accepts(me, q, v), (m.name, q, v, u)


def test_end_marker_behavior_matches_simulation():
    m = load_corpus("mod_counter").artifact
    me = enforce_reversal_control(m)
    for q in me.states:
        u = end_marker_behavior(me, q)
        for i in range(40):
            assert u.accepts(i) == eot_accepts(me, q, i), (q, i)


def _one_counter_machines(source):
    if source == "eot_machine":
        rng = random.Random(0)
        return [eot_machine(rng, name=f"eot_{i}") for i in range(1500)]
    if source == "corpus":
        entries = (load_corpus(name).artifact for name in CATALOG)
        return [m for m in entries if isinstance(m, CounterMachine)
                and m.k == 1 and m.marked and m.deterministic]
    rng = random.Random(7)
    draws = (rand_machine(rng, max_k=1, marked=True, stay_up=True, l=(1, 2, 3, None)[i % 4],
                          name=f"stay_up_{i}") for i in range(400))
    return [m for m in draws if m.k == 1]


@pytest.mark.parametrize("source", ["eot_machine", "corpus", "rand_machine_stay_up"])
def test_end_marker_behavior_matches_oracle(source):
    machines = _one_counter_machines(source)
    assert len(machines) >= {"eot_machine": 1500, "corpus": 2, "rand_machine_stay_up": 100}[source]
    for m in machines:
        _check_end_marker_behavior(m)


def test_end_marker_behavior_of_a_zero_loop_without_finals():
    """From (s0, v) the run drains to (s0, 0), climbs through s1 to
    (s0, 2) and drains again: it repeats (s0, 0) and never accepts."""
    me = enforce_reversal_control(parse_machine(
        "machine zero_loop\nkind dcm\nacceptance marked\ncounters 1\n"
        "reversals inf\nalphabet a\nstates s0 s1\ninitial s0\nfinal\n"
        "trans s0 $ p -> s0 S -1\ntrans s0 $ z -> s1 S 1\ntrans s1 $ p -> s0 S 1\n"))
    for q in ("s0", "s1"):
        assert end_marker_behavior(me, q) == UnaryDFA(0, 1, frozenset())
        assert not any(eot_accepts(me, q, v) for v in range(10))


def test_end_marker_behavior_mod_counter_start_state_is_even():
    m = load_corpus("mod_counter").artifact
    me = enforce_reversal_control(m)
    u = end_marker_behavior(me, me.initial)
    for i in range(30):
        assert u.accepts(i) == (i % 2 == 0)


# ---------------------------------------------------------------------------
# state elimination against the min-scan, pairwise-dedup oracle

ORACLE_CAP = 2000  # components per set; the oracle's dedup is quadratic in it


def _elimination_machines(group, corpus_machines):
    if group == "corpus":
        return corpus_machines
    if group == "L_R":
        return [lr_machine(R) for R in (1, 2, 3, 4, 6)]
    # Parikh images grow exponentially with the phase automaton: draw 44
    # has 256 edges and its largest image 716 676 components.
    rng = random.Random(5)
    draws = [rand_machine(rng, l=(1, 2, 3)[i % 3]) for i in range(48)]
    return [m for m in draws if len(build_phase_automaton(m).edges) <= 64]


@pytest.mark.parametrize("group", ["corpus", "L_R", "random"])
def test_parikh_paths_matches_min_scan_oracle(group, corpus_machines):
    machines = _elimination_machines(group, corpus_machines)
    compared = 0
    for m in machines:
        pa = build_phase_automaton(m)
        width = len(pa.edges)
        pos = {e.eid: i for i, e in enumerate(pa.edges)}

        def per_edge(e):
            return tuple(int(i == pos[e.eid]) for i in range(width))

        weights = [_weight_counters_letters(pa), letter_total_weight(pa),
                   (per_edge, width)]
        for target in sorted(pa.accepting, key=repr):
            for weight, dims in weights:
                got = _parikh_paths(pa, target, weight, dims)
                try:
                    want = min_scan_paths(pa, target, weight, dims, cap=ORACLE_CAP)
                except OracleBudgetExceeded:
                    continue
                assert [(c.base, c.periods) for c in got] == list(want), (m.name, target)
                compared += 1
    assert len(machines) >= {"corpus": 7, "L_R": 5, "random": 40}[group]
    assert compared >= {"corpus": 30, "L_R": 15, "random": 250}[group], compared


def _random_linear_sets(rng, count):
    bases = [(0, 0), (1, 0), (0, 2), (1, 1)]
    pool = [(1, 0), (0, 1), (1, 1), (2, 3)]
    out = []
    for _ in range(count):
        if out and rng.random() < 0.25:
            c = rng.choice(out)  # the same object again, or an equal copy
            out.append(c if rng.random() < 0.5 else linear(c.base, c.periods))
            continue
        periods = [p for p in pool if rng.random() < 0.5]
        out.append(linear(rng.choice(bases), periods))
    return out


def test_sl_dedup_matches_pairwise_oracle():
    rng = random.Random(11)
    for _ in range(400):
        comps = _random_linear_sets(rng, rng.randint(0, 30))
        got, want = sl_dedup(comps), pairwise_dedup(comps)
        assert got == want
        assert all(a is b for a, b in zip(got, want))  # first occurrences kept


def test_l_r_is_nonempty_and_infinite_up_to_40():
    # from R = 46 the smallest multipliers pass 4096 (4230 at R = 46)
    for R in [*range(1, 41), 46, 50, 56, 64, 65, 100, 200]:
        m = lr_machine(R)
        assert is_empty(m, want_witness=False) == (False, None), R
        assert is_infinite(m), R


def test_m_neq_compare_and_infinite_cost_is_bounded():
    neq = load_corpus("M_neq").artifact
    start = time.perf_counter()
    assert compare(neq, neq, "equal") == (True, None)
    assert is_infinite(neq)
    assert time.perf_counter() - start < 30
