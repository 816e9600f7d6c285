"""Finite automata helpers: DFAs, products, and unary tail/loop analysis."""

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


def dfa_complement(d: Dfa) -> Dfa:
    return Dfa(set(d.states), d.alphabet, d.initial,
               set(d.states) - set(d.finals), dict(d.delta))


def dfa_combine(d1: Dfa, d2: Dfa, mode: str) -> Dfa:
    """Product construction; mode is one of 'and', 'or', 'diff'."""
    if tuple(d1.alphabet) != tuple(d2.alphabet):
        raise PreconditionViolated("dfa_combine needs matching alphabets")
    if mode not in ("and", "or", "diff"):
        raise ValueError(f"unknown combine mode {mode!r}")
    init = (d1.initial, d2.initial)
    states = {init}
    delta = {}
    work = [init]
    while work:
        q1, q2 = work.pop()
        for a in d1.alphabet:
            dst = (d1.delta[(q1, a)], d2.delta[(q2, a)])
            delta[((q1, q2), a)] = dst
            if dst not in states:
                states.add(dst)
                work.append(dst)
    def final(q):
        f1, f2 = q[0] in d1.finals, q[1] in d2.finals
        if mode == "and":
            return f1 and f2
        if mode == "or":
            return f1 or f2
        return f1 and not f2
    return Dfa(states, d1.alphabet, init, {q for q in states if final(q)}, delta)


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


def minimize_dfa(d: Dfa) -> Dfa:
    """Moore partition refinement over the reachable part."""
    reach = _reachable([d.initial], _edges(d))
    part = {}
    for q in reach:
        part[q] = 0 if q in d.finals else 1
    while True:
        sig = {q: (part[q],) + tuple(part[d.delta[(q, a)]] for a in d.alphabet)
               for q in reach}
        renum = {}
        newpart = {}
        for q in sorted(reach, key=repr):
            s = sig[q]
            if s not in renum:
                renum[s] = len(renum)
            newpart[q] = renum[s]
        if newpart == part:
            break
        part = newpart
    states = set(part.values())
    delta = {(part[q], a): part[d.delta[(q, a)]] for q in reach for a in d.alphabet}
    finals = {part[q] for q in reach if q in d.finals}
    return Dfa(states, d.alphabet, part[d.initial], finals, delta)


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


def unary_canonicalize(d: Dfa) -> UnaryDFA:
    """Canonical tail/loop form of a unary DFA, validated against it."""
    if len(d.alphabet) != 1:
        raise PreconditionViolated("unary_canonicalize needs a one-letter alphabet")
    a = d.alphabet[0]
    mind = minimize_dfa(d)
    seq = [mind.initial]
    seen = {mind.initial: 0}
    while True:
        nxt = mind.delta[(seq[-1], a)]
        if nxt in seen:
            tail = seen[nxt]
            loop = len(seq) - tail
            break
        seen[nxt] = len(seq)
        seq.append(nxt)
    accept = frozenset(i for i in range(tail + loop) if seq[i] in mind.finals)
    out = UnaryDFA(tail, loop, accept)
    q = d.initial
    for i in range(2 * len(d.states) + loop + 1):
        if out.accepts(i) != (q in d.finals):
            raise AssertionError(f"unary canonicalization mismatch at {i}")
        q = d.delta[(q, a)]
    return out


def periodic_to_unary(tail: int, loop: int, accept) -> UnaryDFA:
    """Build a canonical UnaryDFA from explicit tail/loop data."""
    if loop < 1 or tail < 0:
        raise ValueError("need loop >= 1 and tail >= 0")
    n = tail + loop
    states = set(range(n))
    delta = {(i, "a"): (i + 1 if i + 1 < n else tail) for i in range(n)}
    d = Dfa(states, ("a",), 0, {i for i in range(n) if i in set(accept)}, delta)
    return unary_canonicalize(d)


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
