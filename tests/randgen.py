"""Seeded random machine generator for the test suites.

Machines have at most 4 states, at most 2 counters, reversal budget 1
and an alphabet of at most 2 letters.  Stay transitions never increase a
counter, which keeps the naive oracle exact and rules out unbounded
stay pumping.  `stay_up=True` lifts that restriction for the tests of
the deterministic run: stay moves may then add +1, and half of them loop
on their source state, which gives pumps and terminating drains.

`lr_machine(R)` builds the fixed family L_R, whose shortest word grows
as R squared.
"""

from __future__ import annotations

import random

from rbcm.machine import (
    EOT,
    POS,
    RIGHT,
    STAY,
    CounterMachine,
    Transition,
    all_guards,
    validate_machine,
)


def rand_machine(rng: random.Random, *, max_states=4, max_k=2, alphabet="ab",
                 deterministic=True, marked=None, name=None, l=1,
                 stay_up=False, density=0.8) -> CounterMachine:
    n = rng.randint(1, max_states)
    k = rng.randint(0, max_k)
    if marked is None:
        marked = rng.random() < 0.5
    states = tuple(f"q{i}" for i in range(n))
    finals = frozenset(q for q in states if rng.random() < 0.4)
    if not finals:
        finals = frozenset({rng.choice(states)})
    symbols = list(alphabet) + ([EOT] if marked else [])
    transitions = []
    for src in states:
        for sym in symbols:
            for guard in all_guards(k):
                fanout = 0
                if deterministic:
                    if rng.random() < density:
                        fanout = 1
                else:
                    fanout = rng.choice((0, 1, 1, 2))
                seen = set()
                for _ in range(fanout):
                    dst = rng.choice(states)
                    if sym == EOT:
                        move = STAY
                    else:
                        move = RIGHT if rng.random() < 0.85 else STAY
                    if stay_up and move == STAY and rng.random() < 0.5:
                        dst = src
                    deltas = []
                    for i in range(k):
                        if move == STAY:
                            pool = (0, 0, -1) if guard[i] == POS else (0,)
                            if stay_up:
                                pool += (1,)
                        else:
                            pool = (0, 1, -1, 0) if guard[i] == POS else (0, 1, 0)
                        deltas.append(rng.choice(pool))
                    t = Transition(src, sym, guard, dst, move, tuple(deltas))
                    if (t.dst, t.move, t.deltas) in seen:
                        continue
                    seen.add((t.dst, t.move, t.deltas))
                    transitions.append(t)
    m = CounterMachine(
        name=name or f"rand{rng.randint(0, 10**6)}",
        k=k, l=l, states=frozenset(states), alphabet=tuple(alphabet),
        initial=states[0], finals=finals, transitions=tuple(transitions),
        marked=marked, deterministic=deterministic)
    assert validate_machine(m) == [], validate_machine(m)
    return m


def machine_pool(seed, count, **kwargs):
    rng = random.Random(seed)
    return [rand_machine(rng, name=f"rand_{seed}_{i}", **kwargs)
            for i in range(count)]


def lr_machine(R: int) -> CounterMachine:
    """L_R = { a^(R*R*p) b^(R*p) c^p : p >= 1 }, deterministic, with 2
    counters, reversal budget 1 and 2R + 2 states.  Each b costs R
    decrements of counter 1 (one consuming move plus R - 1 stay moves)
    and one increment of counter 2; each c costs R decrements of counter
    2; the end of the tape accepts when both counters are zero."""
    B = [f"B{i}" for i in range(1, R)] + ["Bd"]
    C = [f"C{i}" for i in range(1, R)] + ["Cd"]
    ts = [Transition("A", "a", g, "A", RIGHT, (1, 0)) for g in all_guards(2)]
    ts += [Transition("A", "b", "pz", B[0], RIGHT, (-1, 1)),
           Transition("Bd", "b", "pp", B[0], RIGHT, (-1, 1)),
           Transition("Bd", "c", "zp", C[0], RIGHT, (0, -1)),
           Transition("Cd", "c", "zp", C[0], RIGHT, (0, -1)),
           Transition("Cd", EOT, "zz", "F", STAY, (0, 0))]
    for i in range(R - 1):
        ts += [Transition(B[i], x, POS + g, B[i + 1], STAY, (-1, 0))
               for x in ("b", "c", EOT) for g in all_guards(1)]
        ts += [Transition(C[i], x, "zp", C[i + 1], STAY, (0, -1)) for x in ("c", EOT)]
    states = frozenset(["A", "F"] + B + C)
    m = CounterMachine(name=f"L_{R}", k=2, l=1, states=states, alphabet=("a", "b", "c"),
                       initial="A", finals=frozenset({"F"}), transitions=tuple(ts),
                       marked=True, deterministic=True)
    assert validate_machine(m) == [], validate_machine(m)
    return m
