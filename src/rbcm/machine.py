"""One-way counter machines with reversal-bounded counters.

A machine has k nonnegative counters.  Each transition is keyed by the
current state, the symbol under the head (a letter or the end-of-tape
marker) and a guard giving the zero/positive status of every counter.
A transition moves the head right or keeps it in place and adds -1, 0
or +1 to each counter.  Acceptance: some reachable configuration has
consumed the whole input and sits in a final state.  Runs that would
take any counter through more than `l` direction reversals are cut off.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, replace
from typing import Iterable, Optional

from .errors import NondeterministicInput, PreconditionViolated

EOT = "$"  # end-of-tape marker as it appears in transition symbols
STAY = "S"
RIGHT = "R"
ZERO = "z"
POS = "p"

# counter direction tags used in reversal budgets
DIR_NONE = "n"
DIR_UP = "u"
DIR_DOWN = "d"


@dataclass(frozen=True)
class Transition:
    src: object
    symbol: str          # letter or EOT
    guard: str           # k chars, each 'z' or 'p'
    dst: object
    move: str            # STAY or RIGHT
    deltas: tuple        # k ints in {-1, 0, +1}
    output: str = ""     # transducer output word; empty for plain machines

    def key(self):
        return (self.src, self.symbol, self.guard)


@dataclass(frozen=True)
class CounterMachine:
    name: str
    k: int
    l: Optional[int]     # reversal budget per counter; None means unbounded
    states: frozenset
    alphabet: tuple      # sorted single-character symbols
    initial: object
    finals: frozenset
    transitions: tuple
    marked: bool         # True: machine may read the end-of-tape marker
    deterministic: bool
    budget_explicit: bool = False

    def status(self, counters) -> str:
        return "".join([POS if c > 0 else ZERO for c in counters])


@dataclass(frozen=True)
class Configuration:
    state: object
    consumed: int        # number of input letters read so far
    counters: tuple
    budgets: tuple       # per counter: (direction tag, reversals used)


@dataclass(frozen=True)
class DivergenceCertificate:
    """Lasso evidence for an infinite run.

    Step indices t1 < t2 in the trace share state, guard pattern and
    budget annotation, consume no input in between, and every counter
    grows by `growth[i] >= 0`; strictly growing counters stay positive
    throughout the window, so the segment repeats forever.  `t2` is the
    first step of the run at which any such lasso closes, and `t1` is the
    earliest step that closes one with it.
    """

    t1: int
    t2: int
    growth: tuple


@dataclass
class RunTrace:
    steps: list          # [(Configuration, Transition or None), ...]
    verdict: str         # "accept" | "reject" | "diverge"
    certificate: Optional[DivergenceCertificate] = None


def fresh_budgets(k: int) -> tuple:
    return tuple((DIR_NONE, 0) for _ in range(k))


def initial_configuration(m: CounterMachine) -> Configuration:
    return Configuration(m.initial, 0, (0,) * m.k, fresh_budgets(m.k))


def _step_budgets(budgets, deltas, l):
    """Per-counter (direction, used) budgets after applying `deltas`, or
    None when a counter would pass `l` reversals.

    With l None only the directions are recorded (used stays 0): the
    count can never block a move, and keeping it would make the
    annotations of a reversing loop grow forever.
    """
    out = []
    for entry, delta in zip(budgets, deltas):
        if delta:
            d, used = entry
            want = DIR_UP if delta > 0 else DIR_DOWN
            if d != want:
                # a decrement never fires from DIR_NONE (the value is zero)
                if d != DIR_NONE and l is not None:
                    used += 1
                    if used > l:
                        return None
                entry = (want, used)
        out.append(entry)
    return tuple(out)


def _reachable(seeds, edges) -> dict:
    """Nodes reachable from `seeds` along (u, v) `edges`, seeds included,
    as an insertion-ordered dict (used as an ordered set)."""
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
    seen = dict.fromkeys(seeds)
    work = list(seen)
    while work:
        for v in adj.get(work.pop(), ()):
            if v not in seen:
                seen[v] = None
                work.append(v)
    return seen


def apply_deltas(counters, deltas):
    return tuple(map(operator.add, counters, deltas))


def validate_machine(m: CounterMachine) -> list:
    """Structural checks.  Returns a list of human-readable violations."""
    errs = []
    if m.k < 0:
        errs.append("negative counter count")
    if m.l is not None and m.l < 0:
        errs.append("negative reversal budget")
    if m.initial not in m.states:
        errs.append("initial state not in state set")
    for f in m.finals:
        if f not in m.states:
            errs.append(f"final state {f!r} not in state set")
    seen_syms = set()
    for a in m.alphabet:
        if not isinstance(a, str) or len(a) != 1:
            errs.append(f"alphabet symbol {a!r} is not a single character")
        if a == EOT:
            errs.append("alphabet must not contain the end-of-tape marker")
        if a in seen_syms:
            errs.append(f"duplicate alphabet symbol {a!r}")
        seen_syms.add(a)
    keys = {}
    for t in m.transitions:
        where = f"transition {t.src!r} --{t.symbol}/{t.guard}-->"
        if t.src not in m.states:
            errs.append(f"{where} source not in state set")
        if t.dst not in m.states:
            errs.append(f"{where} target not in state set")
        if t.symbol != EOT and t.symbol not in m.alphabet:
            errs.append(f"{where} symbol not in alphabet")
        if t.symbol == EOT and not m.marked:
            errs.append(f"{where} end-of-tape transition on an unmarked machine")
        if t.symbol == EOT and t.move != STAY:
            errs.append(f"{where} end-of-tape transitions must stay in place")
        if len(t.guard) != m.k or any(g not in (ZERO, POS) for g in t.guard):
            errs.append(f"{where} malformed guard")
        if len(t.deltas) != m.k or any(d not in (-1, 0, 1) for d in t.deltas):
            errs.append(f"{where} malformed counter deltas")
        if t.move not in (STAY, RIGHT):
            errs.append(f"{where} malformed move")
        for g, d in zip(t.guard, t.deltas):
            if g == ZERO and d < 0:
                errs.append(f"{where} decrements a counter guarded zero")
        keys.setdefault(t.key(), 0)
        keys[t.key()] += 1
    if m.deterministic:
        for key, n in keys.items():
            if n > 1:
                errs.append(f"{n} transitions share key {key!r} on a deterministic machine")
    return errs


def _index(m: CounterMachine):
    """(src, symbol) -> guard -> [transitions], cached on the machine."""
    cached = m.__dict__.get("_trans_index")
    if cached is None:
        cached = {}
        for t in m.transitions:
            cached.setdefault((t.src, t.symbol), {}).setdefault(t.guard, []).append(t)
        object.__setattr__(m, "_trans_index", cached)
    return cached


def current_symbol(m: CounterMachine, config: Configuration, word: str) -> str:
    return word[config.consumed] if config.consumed < len(word) else EOT


def applicable_steps(m, config, symbol):
    """All (transition, successor) pairs respecting guards and budgets."""
    guard = m.status(config.counters)
    out = []
    for t in _index(m).get((config.state, symbol), {}).get(guard, ()):
        budgets = _step_budgets(config.budgets, t.deltas, m.l)
        if budgets is None:
            continue
        succ = Configuration(
            t.dst,
            config.consumed + (1 if t.move == RIGHT else 0),
            apply_deltas(config.counters, t.deltas),
            budgets,
        )
        out.append((t, succ))
    return out


def step(m: CounterMachine, config: Configuration, word: str) -> list:
    """Successor configurations of `config` while reading `word`."""
    return [c for _, c in applicable_steps(m, config, current_symbol(m, config, word))]


def run_deterministic(m: CounterMachine, word: str) -> RunTrace:
    """Run a deterministic machine, with exact divergence detection.

    The run diverges at step t2 when an earlier step t1 of the same stay
    segment (the steps since the last input-consuming move) has the same
    state, guard pattern and budget annotation, no counter is smaller at
    t2, and every strictly growing counter stayed positive throughout
    [t1, t2].  The certificate's t2 is the first step at which any such
    lasso closes, and its t1 is the earliest step that qualifies.

    Cost: O(k) per step when `m.l` is finite.  Two steps with the same
    annotation have the same (direction, used) for every counter, so no
    counter reversed between them: a counter that fell can never climb
    back, and a key keeps only its latest step.  With `m.l` None the
    directions may flip and return, so every earlier step of the key is
    kept and checked.
    """
    if not m.deterministic:
        raise NondeterministicInput("run_deterministic needs a deterministic machine")
    index = _index(m)
    prune = m.l is not None
    config = initial_configuration(m)
    steps = []
    # stay segment bookkeeping since the last input-consuming move:
    earlier = {}              # lasso key -> [(trace index, counters)]
    last_zero = [-1] * m.k    # last trace index at which counter i was 0
    while True:
        t2 = len(steps)
        state, consumed, counters, budgets = (
            config.state, config.consumed, config.counters, config.budgets)
        if consumed == len(word) and state in m.finals:
            steps.append((config, None))
            return RunTrace(steps, "accept")
        status = m.status(counters)
        for i, c in enumerate(counters):
            if not c:
                last_zero[i] = t2
        entries = earlier.setdefault((state, status, budgets), [])
        for t1, c1 in entries:
            growth = tuple(b - a for a, b in zip(c1, counters))
            if all(g >= 0 for g in growth) and \
                    all(last_zero[i] < t1 for i, g in enumerate(growth) if g):
                steps.append((config, None))
                return RunTrace(steps, "diverge", DivergenceCertificate(t1, t2, growth))
        if prune:
            entries.clear()     # none of them can qualify later (see above)
        entries.append((t2, counters))
        symbol = word[consumed] if consumed < len(word) else EOT
        options = []
        for t in index.get((state, symbol), {}).get(status, ()):
            nb = _step_budgets(budgets, t.deltas, m.l)
            if nb is not None:
                options.append((t, nb))
        if not options:
            steps.append((config, None))
            return RunTrace(steps, "reject")
        if len(options) > 1:
            raise NondeterministicInput(f"multiple transitions applicable from {state!r}")
        t, nb = options[0]
        steps.append((config, t))
        if t.move == RIGHT:
            consumed += 1
            earlier = {}
            last_zero = [-1] * m.k
        config = Configuration(t.dst, consumed, apply_deltas(counters, t.deltas), nb)


def accepts(m: CounterMachine, word: str) -> bool:
    return run_deterministic(m, word).verdict == "accept"


def enforce_reversal_control(m: CounterMachine) -> CounterMachine:
    """Push the reversal budget into the finite control.

    States become (state, budget annotation) pairs and transitions that
    would exceed the budget are dropped, so downstream constructions can
    treat the transition relation as the exact behaviour.
    """
    if m.budget_explicit:
        return m
    if m.l is None:
        return replace(m, budget_explicit=True)
    idx = _index(m)
    start = (m.initial, fresh_budgets(m.k))
    states = {start}
    transitions = []
    work = [start]
    symbols = list(m.alphabet) + ([EOT] if m.marked else [])
    while work:
        q, bud = work.pop()
        for sym in symbols:
            for guard, ts in idx.get((q, sym), {}).items():
                for t in ts:
                    nb = _step_budgets(bud, t.deltas, m.l)
                    if nb is None:
                        continue
                    dst = (t.dst, nb)
                    if dst not in states:
                        states.add(dst)
                        work.append(dst)
                    transitions.append(Transition(
                        (q, bud), t.symbol, t.guard, dst, t.move, t.deltas,
                        t.output))
    finals = frozenset(s for s in states if s[0] in m.finals)
    return CounterMachine(
        name=m.name + "_rc",
        k=m.k,
        l=m.l,
        states=frozenset(states),
        alphabet=m.alphabet,
        initial=start,
        finals=finals,
        transitions=tuple(transitions),
        marked=m.marked,
        deterministic=m.deterministic,
        budget_explicit=True,
    )


def all_guards(k: int) -> tuple:
    return tuple("".join(g) for g in itertools.product(ZERO + POS, repeat=k))


def _fresh_state(states, base):
    cand = base
    n = 0
    while cand in states:
        n += 1
        cand = f"{base}{n}"
    return cand


def combine_budgets(l1, l2):
    """Reversal budget of a machine that drives the counters of two
    machines side by side."""
    if l1 is None or l2 is None:
        return None
    return max(l1, l2)


def build_machine(name, k, l, alphabet, initial, finals, transitions, *,
                  marked=None, deterministic, budget_explicit=True) -> CounterMachine:
    """Assemble a machine from its transitions, keeping only the states
    reachable from `initial`.  `marked` defaults to whether any
    transition reads the end-of-tape marker."""
    transitions = tuple(dict.fromkeys(transitions))
    if marked is None:
        marked = any(t.symbol == EOT for t in transitions)
    states = _reachable([initial], ((t.src, t.dst) for t in transitions))
    return CounterMachine(
        name=name, k=k, l=l,
        states=frozenset(states),
        alphabet=tuple(alphabet),
        initial=initial,
        finals=frozenset(f for f in finals if f in states),
        transitions=tuple(t for t in transitions if t.src in states),
        marked=marked,
        deterministic=deterministic,
        budget_explicit=budget_explicit,
    )


def no_stay_into_final(m: CounterMachine) -> CounterMachine:
    """Retarget mid-input stay moves into final states at non-final twins
    with identical behaviour."""
    if not m.deterministic:
        raise PreconditionViolated("no_stay_into_final needs a deterministic machine")
    transitions = list(m.transitions)
    twins = {t.dst: ("nsif", t.dst) for t in transitions
             if t.move == STAY and t.symbol != EOT and t.dst in m.finals}
    for f, tw in twins.items():
        transitions += [replace(t, src=tw) for t in m.transitions if t.src == f]
    transitions = [
        replace(t, dst=twins[t.dst])
        if t.move == STAY and t.symbol != EOT and t.dst in twins else t
        for t in transitions
    ]
    return replace(m, states=m.states | frozenset(twins.values()),
                   transitions=tuple(transitions))


def totalize_dead_state(m: CounterMachine) -> CounterMachine:
    """Route every missing (state, letter, guard) to a non-final
    right-looping sink."""
    dead = _fresh_state(m.states, "_dead")
    states = m.states | {dead}
    transitions = list(m.transitions)
    have = {t.key() for t in transitions}
    for q in sorted(states, key=repr):
        for sym in m.alphabet:
            for g in all_guards(m.k):
                if (q, sym, g) not in have:
                    transitions.append(Transition(q, sym, g, dead, RIGHT, (0,) * m.k))
    return replace(m, states=states, transitions=tuple(transitions))


def _guard_after(guard_char, delta):
    """Possible statuses of one counter after applying delta under guard_char."""
    if guard_char == ZERO:
        return [POS] if delta > 0 else [ZERO]
    if delta < 0:
        return [ZERO, POS]
    return [POS]


def stay_acyclic_check(m: CounterMachine) -> bool:
    """True if the stay graph over (state, guard) nodes has no cycle.

    Conservative: True implies every stay run terminates.  End-of-tape
    stays are included.
    """
    adj = {}
    for t in m.transitions:
        if t.move != STAY:
            continue
        src = (t.src, t.guard)
        for g in itertools.product(*(_guard_after(gc, d)
                                     for gc, d in zip(t.guard, t.deltas))):
            adj.setdefault(src, set()).add((t.dst, "".join(g)))
    WHITE, GREY, BLACK = 0, 1, 2
    color = {}
    for root in list(adj):
        if color.get(root, WHITE) != WHITE:
            continue
        stack = [(root, iter(adj.get(root, ())))]
        color[root] = GREY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                c = color.get(nxt, WHITE)
                if c == GREY:
                    return False
                if c == WHITE:
                    color[nxt] = GREY
                    stack.append((nxt, iter(adj.get(nxt, ()))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return True
