"""Finite automata helpers: DFAs, their counter-free machines, and unary
tail/loop sets."""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .errors import PreconditionViolated
from .machine import RIGHT, CounterMachine, Transition, _reachable


@dataclass
class Dfa:
    """Total deterministic finite automaton.  delta maps (state, symbol)."""

    states: set
    alphabet: tuple
    initial: object
    finals: set
    delta: dict

    def accepts(self, word: str) -> bool:
        q = self.initial
        for ch in word:
            if ch not in self.alphabet:
                return False
            q = self.delta[(q, ch)]
        return q in self.finals


def validate_dfa(d: Dfa) -> list:
    errs = []
    if d.initial not in d.states:
        errs.append("initial state missing")
    for f in d.finals:
        if f not in d.states:
            errs.append(f"final state {f!r} missing")
    for q in d.states:
        for a in d.alphabet:
            if (q, a) not in d.delta:
                errs.append(f"missing transition ({q!r}, {a!r})")
            elif d.delta[(q, a)] not in d.states:
                errs.append(f"transition ({q!r}, {a!r}) leaves the state set")
    return errs


def word_dfa(word: str, alphabet) -> Dfa:
    """DFA for the single word, |word| + 2 states including the sink."""
    alphabet = tuple(alphabet)
    n = len(word)
    states = set(range(n + 1)) | {"sink"}
    delta = {}
    for i in range(n + 1):
        for a in alphabet:
            delta[(i, a)] = i + 1 if i < n and word[i] == a else "sink"
    for a in alphabet:
        delta[("sink", a)] = "sink"
    return Dfa(states, alphabet, 0, {n}, delta)


def full_dfa(alphabet) -> Dfa:
    """DFA accepting every word over the alphabet."""
    alphabet = tuple(alphabet)
    return Dfa({0}, alphabet, 0, {0}, {(0, a): 0 for a in alphabet})


def _edges(d: Dfa):
    return [(q, p) for (q, _a), p in d.delta.items()]


def trim_states(d: Dfa):
    """States both reachable and co-accessible."""
    edges = _edges(d)
    co = _reachable(d.finals, [(p, q) for q, p in edges])
    return {q for q in _reachable([d.initial], edges) if q in co}


def prefix_free_check_dfa(d: Dfa) -> bool:
    """No accepted word is a proper prefix of another accepted word."""
    live = trim_states(d)
    if not live:
        return True
    # within the trimmed automaton, an edge out of a final state would
    # extend an accepted word towards another accepting state
    for (q, _a), p in d.delta.items():
        if q in live and q in d.finals and p in live:
            return False
    return True


@dataclass(frozen=True)
class UnaryDFA:
    """Minimal unary automaton in tail/loop form.

    Position i < tail is state i of the tail; beyond that the automaton
    cycles with period `loop`.  `accept` lists accepting positions in
    range(tail + loop).
    """

    tail: int
    loop: int
    accept: frozenset

    def accepts(self, i: int) -> bool:
        if i < self.tail:
            return i in self.accept
        return self.tail + ((i - self.tail) % self.loop) in self.accept


def periodic_to_unary(tail: int, loop: int, accept) -> UnaryDFA:
    """Canonical UnaryDFA of the set whose membership bits are `accept`
    over range(tail + loop), repeating with period `loop` from `tail` on:
    the least period (a divisor of `loop`), then the shortest tail."""
    if loop < 1 or tail < 0:
        raise ValueError("need loop >= 1 and tail >= 0")
    accept = set(accept)
    bits = [i in accept for i in range(tail + loop)]
    cycle = bits[tail:]
    loop = next(p for p in range(1, loop + 1)
                if loop % p == 0 and cycle == cycle[p:] + cycle[:p])
    while tail and bits[tail - 1] == bits[tail - 1 + loop]:
        tail -= 1
    return UnaryDFA(tail, loop, frozenset(i for i in range(tail + loop) if bits[i]))


def align_unary_family(family) -> tuple:
    """Common shape for a family of UnaryDFAs.

    Returns (tail, loop, accept_sets): tail is at least 1 (constructions
    that bake unary behaviour into finite control need a nonzero tail),
    loop is the lcm of the loops, and accept_sets[i] lists accepting
    positions of family[i] in range(tail + loop).
    """
    family = list(family)
    if not family:
        raise ValueError("empty family")
    tail = max(1, max(u.tail for u in family))
    loop = lcm(*(u.loop for u in family))
    accept_sets = [
        frozenset(p for p in range(tail + loop) if u.accepts(p))
        for u in family
    ]
    return tail, loop, accept_sets


def machine_from_dfa(d: Dfa, name: str = "dfa", trim: bool = True) -> CounterMachine:
    """Counter-free machine (k = 0) with the DFA's language.

    With trim=True only live states are kept, which drops dead sinks and
    keeps prefix-free DFAs non-exiting.
    """
    keep = trim_states(d) if trim else set(d.states)
    if d.initial not in keep:
        # empty language: single non-final state
        return CounterMachine(name, 0, 0, frozenset({"q0"}), tuple(d.alphabet),
                              "q0", frozenset(), (), False, True)
    transitions = tuple(
        Transition(q, a, "", d.delta[(q, a)], RIGHT, ())
        for q in sorted(keep, key=repr) for a in d.alphabet
        if d.delta[(q, a)] in keep
    )
    return CounterMachine(
        name, 0, 0, frozenset(keep), tuple(d.alphabet), d.initial,
        frozenset(set(d.finals) & keep), transitions, False, True)


def dfa_from_machine(m: CounterMachine, sink="_sink") -> Dfa:
    """View a counter-free, deterministic, right-moving machine as a DFA."""
    if m.k != 0 or not m.deterministic or m.marked:
        raise PreconditionViolated("need an unmarked deterministic machine with no counters")
    if any(t.move != RIGHT for t in m.transitions):
        raise PreconditionViolated("stay moves have no DFA counterpart")
    while sink in m.states:
        sink = sink + "_"
    states = set(m.states) | {sink}
    delta = {}
    for t in m.transitions:
        delta[(t.src, t.symbol)] = t.dst
    for q in states:
        for a in m.alphabet:
            delta.setdefault((q, a), sink)
    return Dfa(states, m.alphabet, m.initial, set(m.finals), delta)
