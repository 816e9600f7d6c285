import dataclasses
import itertools
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbcm.cli import run_cli
from rbcm.constructions import left_quotient_word
from rbcm.corpus import CATALOG, corpus_text, load_corpus
from rbcm.decide import member
from rbcm.errors import NondeterministicInput
from rbcm.fileformat import parse_machine, serialize_machine
from rbcm import machine
from rbcm.machine import (
    EOT,
    RIGHT,
    STAY,
    POS,
    Configuration,
    CounterMachine,
    RunSteps,
    Transition,
    accepts,
    all_guards,
    enforce_reversal_control,
    run_deterministic,
    validate_machine,
)
from rbcm.transducer import CounterTransducer, transduce_det

from oracles import lasso_run, naive_member, words_upto
from randgen import lr_machine, machine_pool, rand_machine


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
    assert trace.steps.rows == steps, (m, word)
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


def _stretch_machine(rng, l):
    """A random deterministic machine over {a, b} whose moves mostly loop
    on their source: right loops that run over letter runs, and stays that
    mostly lower counters, so that a stay loop drains a counter to 0 and
    its guard flips.  The end-of-tape moves mostly drain in place or go
    to `f`, the one final state that is sure to exist, which has no
    moves."""
    states = [f"q{i}" for i in range(rng.randint(1, 3))]
    k = rng.randint(1, 2)
    ts = []
    for src in states:
        for sym in ("a", "b", EOT):
            for guard in all_guards(k):
                if rng.random() < 0.05:
                    continue
                move = STAY if sym == EOT or rng.random() < 0.2 else RIGHT
                if sym == EOT:
                    dst = rng.choice([src] * 6 + ["f"] * 3 + states)
                else:
                    dst = src if rng.random() < 0.75 else rng.choice(states)
                if move == RIGHT:
                    pools = [(0, 1, 1, -1) if g == POS else (0, 1) for g in guard]
                else:
                    pools = [(-1, -1, -1, 0, 1) if g == POS else (0, 0, 0, 1) for g in guard]
                ts.append(Transition(src, sym, guard, dst, move,
                                     tuple(rng.choice(p) for p in pools)))
    finals = ["f"] + [q for q in states if rng.random() < 0.15]
    m = CounterMachine(f"stretch_{l}", k, l, frozenset(states + ["f"]), ("a", "b"),
                       states[0], frozenset(finals), tuple(ts), True, True)
    assert validate_machine(m) == [], validate_machine(m)
    return m


# A right stretch fills the counter, a lowering stay stretch drains it to
# 0 on the first b, and under the flipped guard a stay loop closes a lasso
# at the first step after the drain.
DRAIN_THEN_LOOP = """
machine drain_then_loop
kind dcm
acceptance marked
counters 1
reversals 1
alphabet a b
states s d f
initial s
final f
trans s a * -> s R +1
trans s b * -> d S 0
trans s $ z -> f S 0
trans d b p -> d S -1
trans d b z -> d S 0
"""


# Under `reversals inf` the drain of a^n's count falls to 0, climbs to 3
# and falls to 2 under the drain's key again: the lasso closes against the
# drain step at 2, which only a record of every stay step can find.
REDRAIN = """
machine redrain
kind dcm
acceptance marked
counters 1
reversals inf
alphabet a
states s d u v w f
initial s
final f
trans s a * -> s R +1
trans s $ p -> d S 0
trans s $ z -> f S 0
trans d $ p -> d S -1
trans d $ z -> u S +1
trans u $ p -> v S +1
trans v $ p -> w S +1
trans w $ p -> d S -1
"""


def test_stretches_match_lasso_oracle():
    """Runs that spend their steps in self-loop stretches give the
    oracle's rows, verdict and certificate: right loops under every
    budget, lowering stays under finite budgets, on words of letter runs
    up to 300 letters long."""
    rng = random.Random(25)
    seen = {}
    stretched = {RIGHT: 0, STAY: 0}     # runs with a stretch of each kind

    def check(m, w):
        v = _same_as_lasso_oracle(m, w)
        seen[v] = seen.get(v, 0) + 1
        for move in {t.move for _, _, _, _, t, count in run_deterministic(m, w).steps.runs
                     if count > 1}:
            stretched[move] += 1

    for i in range(200):
        m = _stretch_machine(rng, (0, 1, 2, 3, None)[i % 5])
        for _ in range(4):
            # the oracle rescans a stay segment at each step, so most runs are short
            check(m, "".join(rng.choice("ab") * rng.randint(1, rng.choice((20, 300)))
                             for _ in range(rng.randint(0, 2))))
    drain = parse_machine(DRAIN_THEN_LOOP)
    for n in (0, 1, 2, 300):
        for tail in ("", "b", "ba", "bab"):
            check(drain, "a" * n + tail)
    assert _same_as_lasso_oracle(drain, "a" * 5 + "b") == "diverge"
    cert = run_deterministic(drain, "a" * 5 + "b").certificate
    assert (cert.t1, cert.t2) == (11, 12)   # 5 a's, the stay into d, 5 drain steps
    redrain = parse_machine(REDRAIN)
    for l in (None, 1, 2, 3):
        for n in (0, 1, 2, 5, 40, 300):
            check(dataclasses.replace(redrain, l=l), "a" * n)
    cert = run_deterministic(redrain, "a" * 5).certificate
    assert (cert.t1, cert.t2, cert.growth) == (9, 15, (0,))
    mab, neq = load_corpus("M_ab").artifact, load_corpus("M_neq").artifact
    for n in (1, 2, 299, 300):
        for w in ("a" * n + "b" * n, "a" * n + "b" * (n - 1), "a" * n + "b" * n + "a"):
            check(mab, w)
            check(dataclasses.replace(mab, l=None), w)
        check(neq, "#" + "a" * n + "b" * (n + 1) + "#")
        check(neq, "#" + "a" * n + "#" + "b" * n + "#")
    for R in (2, 3):
        check(lr_machine(R), "a" * (R * R * 20) + "b" * (R * 20) + "c" * 20)
    assert min(seen.get(v, 0) for v in ("accept", "reject", "diverge")) > 100, seen
    assert seen.get(None, 0) < 10, seen
    assert stretched[RIGHT] > 250 and stretched[STAY] > 20, stretched


def _lookups(monkeypatch, call):
    """`call()`'s result and the number of move-table lookups it made."""
    real, counts = machine._moves, []

    class Spy:
        def __init__(self, table):
            self.table = table

        def __getitem__(self, key):
            counts.append(key)
            return self.table[key]

    monkeypatch.setattr(machine, "_moves", lambda m: Spy(real(m)))
    got = call()
    monkeypatch.setattr(machine, "_moves", real)
    return got, len(counts)


def test_a_stretch_costs_one_lookup(monkeypatch):
    """A right loop over a letter run and a lowering `$` drain are looked
    up once per stretch, not once per letter or per stay."""
    mab, neq = load_corpus("M_ab").artifact, load_corpus("M_neq").artifact
    assert _lookups(monkeypatch, lambda: member(mab, "a" * 5000 + "b" * 5000)) <= (True, 10)
    got, n = _lookups(monkeypatch, lambda: member(neq, "#" + "a" * 2001 + "b" * 2000 + "#"))
    assert got and n <= 12, n
    got, n = _lookups(monkeypatch, lambda: member(mab, "a" * 5000 + "b" * 4999))
    assert not got and n <= 10, n


def _oracle_pairs(m, word):
    verdict, steps, cert = lasso_run(m, word)
    return verdict, [(Configuration(*row[:4]), row[4]) for row in steps], cert


def test_run_steps_reads_like_a_list_of_pairs():
    """`RunTrace.steps` is a read-only sequence of (Configuration,
    Transition or None) pairs: it answers `len`, indexing from either end,
    iteration, slicing, `==` and `repr` as the list of the oracle's pairs
    does."""
    loop = _mk([Transition("s0", EOT, "z", "s0", STAY, (0,))])
    mab = load_corpus("M_ab").artifact
    runs = [(mab, "aabb"), (mab, "aab"), (mab, ""), (loop, "")]
    rng = random.Random(11)
    runs += [(rand_machine(rng, max_k=2, l=1, stay_up=True), "ab" * rng.randint(0, 6))
             for _ in range(30)]
    seen = set()
    for m, word in runs:
        verdict, pairs, cert = _oracle_pairs(m, word)
        trace = run_deterministic(m, word)
        steps = trace.steps
        seen.add(verdict)
        assert trace.verdict == verdict
        assert len(steps) == len(pairs)
        assert [steps[i] for i in range(len(pairs))] == pairs
        assert [steps[-i] for i in range(1, len(pairs) + 1)] == pairs[::-1]
        assert list(steps) == pairs and list(iter(steps)) == pairs
        assert steps[1:3] == pairs[1:3] and steps[::-1] == pairs[::-1] and steps[:] == pairs
        assert steps == pairs and pairs == steps and steps == run_deterministic(m, word).steps
        assert steps != pairs[:-1] and steps != tuple(pairs) and repr(steps) == repr(pairs)
        assert steps.index(pairs[-1]) == len(pairs) - 1 and pairs[0] in steps
        with pytest.raises(IndexError):
            steps[len(pairs)]
        with pytest.raises(TypeError):
            steps[0] = pairs[0]
        if cert is not None:
            t1, t2, growth = cert
            assert (trace.certificate.t1, trace.certificate.t2) == (t1, t2)
            assert steps[trace.certificate.t1][0] == pairs[t1][0]
            assert steps[trace.certificate.t2][0] == pairs[t2][0]
    assert seen == {"accept", "reject", "diverge"}


def _verdict_answers(tmp_path, capsys):
    """What the runs behind a verdict answer: `member` and `accepts` on
    the deterministic corpus machines and on L_R for R <= 10 (an accepted
    word and a near miss each), `transduce_det` on T_shuffle,
    `left_quotient_word` on the corpus machines, and `rbcm run` (without
    --trace) and `rbcm member`."""
    entries = [load_corpus(name) for name in CATALOG]
    machines = [(e.artifact, [w for w, _ in e.membership]) for e in entries
                if not isinstance(e.artifact, CounterTransducer) and e.artifact.deterministic]
    machines += [(lr_machine(R), ["a" * (R * R) + "b" * R + c for c in ("c", "cc")])
                 for R in range(1, 11)]
    out = [(m.name, w, member(m, w), accepts(m, w)) for m, words in machines for w in words]
    shuffle = load_corpus("T_shuffle")
    out += [transduce_det(shuffle.artifact, w) for w, _ in shuffle.membership]
    for m, words in machines[:-10]:
        out += [serialize_machine(left_quotient_word(m, w[:i]))
                for w in words for i in range(len(w) + 1) if set(w) <= set(m.alphabet)]
    for e in entries:
        f = tmp_path / f"{e.name}.mach"
        f.write_text(corpus_text(e.name))
        for w, _ in e.membership:
            for cmd in ("run", "member"):
                out.append((run_cli([cmd, str(f), "--word", w]), capsys.readouterr()))
    return out


def test_verdict_runs_build_no_configuration(tmp_path, capsys, monkeypatch):
    """A run that only answers a verdict, an output or a boundary builds no
    Configuration: with the class made to raise in every rbcm module that
    holds it, all the answers stay the same."""
    want = _verdict_answers(tmp_path, capsys)
    assert any(code == 0 for code, _ in want[-20:]) and any(code == 1 for code, _ in want[-20:])

    def refuse(*args, **kwargs):
        raise AssertionError("a Configuration was built")

    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "")
        if (name == "rbcm" or name.startswith("rbcm.")) and "Configuration" in vars(mod):
            monkeypatch.setattr(mod, "Configuration", refuse)
    with pytest.raises(AssertionError, match="Configuration"):
        run_deterministic(load_corpus("M_ab").artifact, "ab").steps[0]
    assert _verdict_answers(tmp_path, capsys) == want


def test_verdict_runs_spell_no_rows(tmp_path, capsys, monkeypatch):
    """A run that only answers a verdict, an output, a boundary or a step
    count reads its stretches and never spells out its per-step rows."""
    want = _verdict_answers(tmp_path, capsys)

    def refuse(self):
        raise AssertionError("the rows were spelled out")

    monkeypatch.setattr(RunSteps, "rows", property(refuse))
    with pytest.raises(AssertionError, match="rows"):
        run_deterministic(load_corpus("M_ab").artifact, "ab").steps[0]
    assert _verdict_answers(tmp_path, capsys) == want


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


def _transition_list(rng):
    """A reachable block r*, an unreachable block u* whose moves may
    enter r*, a cycle back to the initial state, exact repeats, and in
    some draws an end-of-tape move on an unreachable state only."""
    reach = [f"r{i}" for i in range(rng.randint(1, 6))]
    unreach = [("u", i) for i in range(rng.randint(1, 3))]
    eot_only_unreachable = rng.random() < 0.3
    ts = []
    for _ in range(rng.randint(1, 30)):
        src = rng.choice(reach + unreach)
        dst = rng.choice(reach if src in reach else reach + unreach)
        if not eot_only_unreachable and rng.random() < 0.15:
            ts.append(Transition(src, EOT, rng.choice("zp"), dst, STAY, (0,)))
        else:
            ts.append(Transition(src, rng.choice("ab"), rng.choice("zp"), dst,
                                 rng.choice((RIGHT, STAY)), (rng.choice((0, 1)),)))
    ts.append(Transition(rng.choice(reach), "a", "z", reach[0], RIGHT, (0,)))
    if eot_only_unreachable:
        ts.append(Transition(unreach[0], EOT, "z", rng.choice(reach), STAY, (0,)))
    for _ in range(rng.randint(0, 8)):
        ts.insert(rng.randint(0, len(ts)), rng.choice(ts))
    rng.shuffle(ts)
    finals = rng.sample(reach + unreach, rng.randint(0, len(reach + unreach)))
    return reach[0], finals, ts


def test_build_machine_matches_dedupe_then_trim_reference():
    """`build_machine` explores a move function; given the moves of each
    source in list order, it writes out the machine that deduplicating
    the list first and trimming it second gives: the same states in the
    same iteration order, the same finals, `marked` and flags, and the
    same transitions with each (state, symbol, guard) key's in the same
    order.  The global order of the transitions is not kept: it follows
    the walk, and serialization sorts lines while every run reads them
    through `_index`, key by key."""
    from rbcm.machine import _index, build_machine

    from oracles import build_machine_reference
    seen = {"repeat": 0, "unreachable source": 0, "cycle": 0, "$ only unreachable": 0}
    for seed in range(400):
        rng = random.Random(seed)
        initial, finals, ts = _transition_list(rng)
        marked = None if seed % 4 else bool(seed % 8)
        by_src = {}
        for t in ts:
            by_src.setdefault(t.src, []).append(t)
        args = (f"b{seed}", 1, 1, ("a", "b"), initial)
        got = build_machine(*args, set(finals).__contains__, lambda q: by_src.get(q, ()),
                            marked=marked, deterministic=False)
        want = build_machine_reference(*args, finals, ts, marked=marked, deterministic=False)
        assert dataclasses.replace(got, transitions=()) == \
            dataclasses.replace(want, transitions=()), seed
        assert list(got.states) == list(want.states), seed
        assert set(got.transitions) == set(want.transitions), seed
        assert _index(got) == _index(want), seed
        seen["repeat"] += len(set(ts)) < len(ts)
        seen["unreachable source"] += any(t.src not in got.states for t in ts)
        seen["cycle"] += any(t.dst == initial for t in got.transitions)
        if marked is None and not any(t.symbol == EOT for t in got.transitions) \
                and any(t.symbol == EOT for t in ts):
            assert not got.marked       # only kept transitions count
            seen["$ only unreachable"] += 1
    assert min(seen.values()) >= 20, seen


def test_enforce_reversal_control_matches_reference(det_pool, nondet_pool):
    """Same states (in iteration order), finals and transitions (in
    order) as the plain worklist, for l = 1, 2, 3 and k <= 3; and every
    transition's ends are the very objects held in `states`."""
    from oracles import enforce_reversal_control_reference
    pool = (det_pool + nondet_pool + machine_pool(1003, 12, max_k=3)
            + machine_pool(1004, 12, max_k=3, deterministic=False))
    assert {m.k for m in pool} == {0, 1, 2, 3}
    for m in pool:
        for l in (1, 2, 3):
            ml = dataclasses.replace(m, l=l)
            got = enforce_reversal_control(ml)
            want = enforce_reversal_control_reference(ml)
            assert got == want, (m.name, l)
            assert list(got.states) == list(want.states), (m.name, l)
            assert list(got.finals) == list(want.finals), (m.name, l)
            assert got.transitions == want.transitions, (m.name, l)
            member = {s: s for s in got.states}
            assert got.initial is member[got.initial]
            for t in got.transitions:
                assert t.src is member[t.src] and t.dst is member[t.dst], (m.name, l, t)


def _budget_space(m):
    """Every budget annotation that `_step_budgets` reaches from the fresh
    one under the machine's deltas."""
    from rbcm.machine import _step_budgets, fresh_budgets
    deltas = {t.deltas for t in m.transitions}
    seen = {fresh_budgets(m.k)}
    work = list(seen)
    while work:
        budgets = work.pop()
        for d in deltas:
            nb = _step_budgets(budgets, d, m.l)
            if nb is not None and nb not in seen:
                seen.add(nb)
                work.append(nb)
    return seen


def test_move_table_entries_unpack_to_their_transition():
    """Every `_moves(m)` entry is a plain (t, nb, dst, move, deltas) tuple
    whose last three items are t's fields and whose nb is t's step of the
    budgets; the entries at a key are the transitions of that (state,
    symbol, guard) that the budget allows, in index order.  The tables
    are filled by the run, the run search and the phase automaton first,
    then by a sweep over every key."""
    from rbcm.decide import _ncm_explore, build_phase_automaton
    from rbcm.machine import _index, _moves, _step_budgets
    machines = [getattr(e, "machine", e) for e in
                (load_corpus(name).artifact for name in CATALOG)]
    machines += [lr_machine(R) for R in range(1, 7)]
    machines += machine_pool(2020, 8) + machine_pool(2021, 8, deterministic=False, l=2)
    machines += machine_pool(2022, 4, l=None, stay_up=True)
    entries = 0
    for m in machines:
        table = _moves(m)
        words = list(words_upto(m.alphabet, 3))
        if m.deterministic:
            for w in words:
                run_deterministic(m, w)
        else:
            _ncm_explore(m, words, cap=4)
        if m.l is not None:
            build_phase_automaton(m)
        filled = len(table)
        symbols = tuple(m.alphabet) + (EOT,)
        statuses = list(itertools.product((False, True), repeat=m.k))
        for budgets in _budget_space(m):
            for q in m.states:
                for sym in symbols:
                    for status in statuses:
                        table[q, sym, status, budgets]
        assert filled and len(table) >= filled, m.name
        index = _index(m)
        for (q, sym, status, budgets), moves in table.items():
            guard = "".join("p" if s else "z" for s in status)
            want = [t for t in index.get((q, sym), {}).get(guard, ())
                    if _step_budgets(budgets, t.deltas, m.l) is not None]
            assert [e[0] for e in moves] == want, (m.name, q, sym, status, budgets)
            for entry in moves:
                assert type(entry) is tuple and len(entry) == 5, (m.name, entry)
                t, nb, dst, move, deltas = entry
                assert (dst, move, deltas) == (t.dst, t.move, t.deltas), (m.name, t)
                assert nb == _step_budgets(budgets, t.deltas, m.l), (m.name, t, budgets)
                entries += 1
    assert entries > 1000, entries


def test_transition_is_an_immutable_value():
    """Equal fields give equal transitions with equal hashes; no field can
    be assigned; `key` and `_replace` work."""
    a = Transition("q", "a", "zp", ("r", 1), RIGHT, (1, 0))
    b = Transition("q", "a", "zp", ("r", 1), RIGHT, (1, 0), "")
    assert a == b and hash(a) == hash(b) and a is not b
    assert a.output == "" and a.key() == ("q", "a", "zp")
    assert a != a._replace(output="x") and a._replace(dst=("r", 1)) == a
    c = a._replace(src="s", deltas=(0, -1))
    assert (c.src, c.symbol, c.guard, c.dst, c.move, c.deltas) == \
        ("s", "a", "zp", ("r", 1), RIGHT, (0, -1))
    assert c.key() == ("s", "a", "zp") and a.src == "q"
    assert len({a, b, c}) == 2
    for field in ("src", "dst", "deltas", "output"):
        with pytest.raises(AttributeError):
            setattr(a, field, None)
    with pytest.raises(AttributeError):
        a.extra = 1


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
