import random
import time
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbcm.constructions import concat_ncm, inverse_insertion_ncm, product_intersection
from rbcm.corpus import CATALOG, corpus_text, load_corpus
from rbcm.errors import ParseError
from rbcm.fileformat import parse_machine, serialize_machine
from rbcm.machine import (
    EOT, RIGHT, STAY, CounterMachine, Transition, all_guards, enforce_reversal_control,
)
from rbcm.transducer import CounterTransducer, inverse_apply

from oracles import PlainMachine, plain_parse, plain_serialize
from randgen import machine_pool, rand_machine

GOOD = """\
machine demo
kind dcm
acceptance marked
counters 1
reversals 1
alphabet a b
states s0 f
initial s0
final f
trans s0 a * -> s0 R +1
trans s0 $ z -> f S 0
"""


def test_parse_basic_fields():
    m = parse_machine(GOOD)
    assert m.name == "demo" and m.k == 1 and m.l == 1
    assert m.marked and m.deterministic
    assert m.alphabet == ("a", "b")
    # `*` expanded to both guards
    assert sorted(t.guard for t in m.transitions if t.symbol == "a") == ["p", "z"]


def test_round_trip_is_identity_on_corpus_files():
    for name in CATALOG:
        first = serialize_machine(parse_machine(corpus_text(name)))
        second = serialize_machine(parse_machine(first))
        assert first == second, name


def test_comments_and_blank_lines_ignored():
    text = "# heading\n\n" + GOOD.replace("final f", "final f\n# trailing note")
    assert serialize_machine(parse_machine(text)) == serialize_machine(parse_machine(GOOD))


def _expect_parse_error(text, fragment, line=None):
    with pytest.raises(ParseError) as exc:
        parse_machine(text)
    assert fragment in str(exc.value)
    if line is not None:
        assert exc.value.line == line


def test_unknown_state_is_positioned_parse_error():
    bad = GOOD.replace("trans s0 a * -> s0 R +1", "trans s0 a * -> nowhere R +1")
    _expect_parse_error(bad, "unknown state", line=10)


def test_nondeterministic_transitions_under_kind_dcm_rejected():
    bad = GOOD + "trans s0 a z -> f R 0\n"
    _expect_parse_error(bad, "nondeterministic")


def test_kind_ncm_forces_nondeterministic_flag():
    m = parse_machine(GOOD.replace("kind dcm", "kind ncm"))
    assert not m.deterministic


def test_assorted_parse_errors():
    _expect_parse_error(GOOD.replace("kind dcm", "kind dfa"), "kind must be")
    _expect_parse_error(GOOD.replace("acceptance marked", "acceptance maybe"), "acceptance")
    _expect_parse_error(GOOD.replace("counters 1", "counters -2"), "counters")
    _expect_parse_error(GOOD.replace("reversals 1", "reversals many"), "reversals")
    _expect_parse_error(GOOD + "counters 2\n", "duplicate")
    _expect_parse_error(GOOD + "outalphabet a\n", "only allowed for transducers")
    _expect_parse_error("\n".join(GOOD.splitlines()[1:]), "missing machine")
    _expect_parse_error(GOOD.replace("-> s0 R +1", "-> s0 R"), "counter deltas")
    _expect_parse_error(GOOD.replace("* -> s0 R +1", "q -> s0 R +1"), "guard")


def test_zero_counter_machines_use_dash_placeholders():
    text = corpus_text("pf_ab")
    m = parse_machine(text)
    assert m.k == 0
    assert all(t.guard == "" and t.deltas == () for t in m.transitions)
    assert 'trans q0 a - -> q1 R -' in serialize_machine(m)


def test_transducer_outputs_quoted_including_empty():
    text = corpus_text("T_shuffle")
    t = parse_machine(text)
    assert isinstance(t, CounterTransducer)
    s = serialize_machine(t)
    assert 'output ""' in s and 'output "a"' in s
    assert serialize_machine(parse_machine(s)) == s


def test_reversals_inf_round_trips():
    m = parse_machine(GOOD.replace("reversals 1", "reversals inf"))
    assert m.l is None
    assert "reversals inf" in serialize_machine(m)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_round_trip_identity_on_generated_machines(seed):
    (m,) = machine_pool(seed, 1)
    first = serialize_machine(m)
    again = serialize_machine(parse_machine(first))
    assert first == again


REPEATS = """\
machine r
kind dcm
acceptance unmarked
counters 1
reversals 1
alphabet a
states q
initial q
final q
trans q a * -> q R 0
trans q a z -> q R 0
"""


def test_exact_repeats_are_dropped_before_determinism_is_decided():
    m = parse_machine(REPEATS)
    assert m.deterministic and len(m.transitions) == 2
    n = parse_machine(REPEATS.replace("kind dcm", "kind ncm"))
    assert len(n.transitions) == 2
    assert Counter(parse_machine(serialize_machine(n)).transitions) == Counter(n.transitions)


def _unwrap(obj):
    if isinstance(obj, CounterTransducer):
        return obj.machine, obj.out_alphabet
    return obj, None


def _parsed(text):
    """`parse_machine`'s answer in the oracle's form."""
    try:
        m, out_alphabet = _unwrap(parse_machine(text))
    except ParseError as exc:
        return exc.line, str(exc)
    trans = tuple((t.src, t.symbol, t.guard, t.dst, t.move, t.deltas, t.output)
                  for t in m.transitions)
    return PlainMachine(m.name, m.k, m.l, m.states, m.alphabet, m.initial, m.finals,
                        trans, m.marked, m.deterministic, out_alphabet)


def _oracle(text):
    got = plain_parse(text)
    if isinstance(got, PlainMachine):
        return got
    exc = ParseError(*got)
    return exc.line, str(exc)


def _file_layer_samples():
    """The corpus, 48 seeded draws with 0 to 3 counters (every third a
    transducer) and construction outputs with composite states."""
    objs = [load_corpus(name).artifact for name in CATALOG]
    rng = random.Random(4242)
    for i in range(48):
        m = rand_machine(rng, max_k=3, deterministic=i % 2 == 0, name=f"draw{i}")
        if i % 3 == 0:
            m = replace(m, transitions=tuple(
                t._replace(output=rng.choice(("", "x", "xy", "yx"))) for t in m.transitions))
            m = CounterTransducer(m, ("x", "y"))
        objs.append(m)
    mab, mab1, pf = (load_corpus(n).artifact for n in ("M_ab", "M_ab1", "pf_ab"))
    objs += [enforce_reversal_control(mab), product_intersection(mab, mab1),
             concat_ncm(mab, pf), inverse_insertion_ncm(mab, "infix"),
             inverse_apply(load_corpus("T_shuffle").artifact, mab)]
    return objs


def test_file_layer_matches_plain_oracle():
    samples = _file_layer_samples()
    assert {_unwrap(o)[0].k for o in samples} == {0, 1, 2, 3}
    assert any(not isinstance(q, str) for o in samples for q in _unwrap(o)[0].states)
    for name in CATALOG:
        assert _parsed(corpus_text(name)) == _oracle(corpus_text(name)), name
    for obj in samples:
        text = serialize_machine(obj)
        assert text == plain_serialize(*_unwrap(obj))
        assert _parsed(text) == _oracle(text)
        assert serialize_machine(parse_machine(text)) == text


def _mutate(rng, text):
    """`text` with one line broken (or one transition line repeated)."""
    lines = text.splitlines()
    trans = [i for i, line in enumerate(lines) if line.startswith("trans")]
    how = rng.choice(("drop", "extra", "guard", "delta", "state", "move", "output", "repeat"))
    i = rng.choice(trans) if trans and how not in ("drop", "extra") else rng.randrange(len(lines))
    tokens = lines[i].split()
    if how == "drop" and tokens:
        del tokens[rng.randrange(len(tokens))]
    elif how == "extra":
        tokens.insert(rng.randint(0, len(tokens)),
                      rng.choice(("x", "->", "0", "-", "output", '"a"', "*", "trans", "$")))
    elif how == "guard" and len(tokens) > 3:
        tokens[3] = rng.choice(("q", "zz", "z*x", "-", "*", "pz", "**", "zpz", "Z"))
    elif how == "delta" and len(tokens) > 7:
        tokens[rng.randrange(7, len(tokens))] = rng.choice(("x", "2", "+1", "1.0", "--1", "-", ""))
    elif how == "state" and len(tokens) > 5:
        tokens[rng.choice((1, 5))] = rng.choice(("nowhere", "s", "q", "$"))
    elif how == "move" and len(tokens) > 6:
        tokens[6] = rng.choice(("L", "s", "RR", "-", "S", "R"))
    elif how == "output":
        cut = tokens.index("output") if "output" in tokens else len(tokens)
        tokens[cut:] = rng.choice((["output"], ["output", "a"], ["output", '"a'],
                                   ["outputs", '""'], ["output", '"a"', '"b"'], ['"'],
                                   ["output", '"z"'], ["output", '""']))
    elif how == "repeat":
        copy = tokens[:]
        if len(copy) > 3 and copy[3] != "-" and rng.random() < 0.5:
            copy[3] = "".join(rng.choice((c, "*")) for c in copy[3])
        lines.insert(rng.randint(0, len(lines)), " ".join(copy))
    if how != "repeat":
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def test_malformed_files_match_plain_oracle():
    rng = random.Random(777)
    texts = [corpus_text(name) for name in CATALOG]
    texts += [serialize_machine(o) for o in _file_layer_samples()[len(CATALOG):][::4]]
    outcomes = Counter()
    for _ in range(1200):
        text = _mutate(rng, rng.choice(texts))
        got = _parsed(text)
        assert got == _oracle(text), text
        outcomes[isinstance(got, PlainMachine)] += 1
    assert outcomes[True] > 100 and outcomes[False] > 600, outcomes


def test_round_trip_cost_is_linear():
    rng = random.Random(12)
    states = [("q", i, (i % 7, "x")) for i in range(8_400)]
    trans = []
    for q in states:
        for sym in ("a", "b", EOT):
            for g in all_guards(3):
                deltas = tuple(rng.choice((-1, 0, 1) if c == "p" else (0, 1)) for c in g)
                trans.append(Transition(q, sym, g, rng.choice(states),
                                        STAY if sym == EOT else RIGHT, deltas))
    m = CounterMachine(name="big", k=3, l=2, states=frozenset(states), alphabet=("a", "b"),
                       initial=states[0], finals=frozenset(states[::5]),
                       transitions=tuple(trans), marked=True, deterministic=True)
    start = time.perf_counter()
    text = serialize_machine(m)
    again = serialize_machine(parse_machine(text))
    elapsed = time.perf_counter() - start
    assert again == text and text.count("\ntrans ") == len(trans) > 200_000
    assert elapsed < 10, elapsed
