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

import functools
import itertools
import operator
import re
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

from .errors import InfiniteBudget, NondeterministicInput, PreconditionViolated

EOT = "$"  # end-of-tape marker as it appears in transition symbols
STAY = "S"
RIGHT = "R"
ZERO = "z"
POS = "p"

# counter direction tags used in reversal budgets
DIR_NONE = "n"
DIR_UP = "u"
DIR_DOWN = "d"


class Transition(NamedTuple):
    """One move, compared and hashed by value; `t._replace(...)` copies
    it with some fields changed."""

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


@dataclass(frozen=True, slots=True)
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


class RunSteps(Sequence):
    """Read-only view of a run's steps as (Configuration, Transition or
    None) pairs.

    `runs` holds one (state, consumed, counters, budgets, Transition or
    None, count) entry per stretch: `count` steps in a row that take the
    same self-loop move from the same key, the first of them from the
    configuration the entry gives.  `rows` spells the stretches out, one
    (state, consumed, counters, budgets, Transition or None) tuple per
    step: the configuration before the step and the move taken from it.
    It is built on its first read and kept.  A pair is built only when it
    is read, and `len` builds nothing.  Slices are lists of pairs, and a
    view equals a list that holds the same pairs.
    """

    __slots__ = ("runs", "_len", "_rows")

    def __init__(self, runs, length):
        self.runs = runs
        self._len = length      # the sum of the entries' counts
        self._rows = None

    @property
    def rows(self):
        if self._rows is None:
            self._rows = list(_spell(self.runs))
        return self._rows

    def __len__(self):
        return self._len

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [_pair(row) for row in self.rows[i]]
        return _pair(self.rows[i])

    def __iter__(self):
        return map(_pair, self.rows)

    def __eq__(self, other):
        if isinstance(other, RunSteps):
            return self.rows == other.rows
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __repr__(self):
        return repr(list(self))


def _spell(runs):
    """The rows of the stretches in `runs`, one per step."""
    for state, consumed, counters, budgets, t, count in runs:
        yield state, consumed, counters, budgets, t
        for j in range(1, count):
            yield (state, consumed + j if t.move == RIGHT else consumed,
                   _after(counters, t.deltas, j), budgets, t)


def _after(counters, deltas, j):
    """The counters after `j` moves that each add `deltas`."""
    return tuple([c + j * d for c, d in zip(counters, deltas)])


def _pair(row):
    return Configuration(*row[:4]), row[4]


@dataclass
class RunTrace:
    steps: RunSteps      # (Configuration, Transition or None) per step, each
    # pair built when it is read, from the stretches in `steps.runs`
    verdict: str         # "accept" | "reject" | "diverge"
    certificate: Optional[DivergenceCertificate] = None


def fresh_budgets(k: int) -> tuple:
    return tuple((DIR_NONE, 0) for _ in range(k))


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
    return _walk(seeds, lambda u: adj.get(u, ()))


def _walk(seeds, succ) -> dict:
    """`_reachable` over a successor function: node -> its successors.
    `succ` is called once per node reached."""
    seen = dict.fromkeys(seeds)
    work = list(seen)
    while work:
        for v in succ(work.pop()):
            if v not in seen:
                seen[v] = None
                work.append(v)
    return seen


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
    states = m.states
    shapes = {}     # (symbol, guard, deltas, move) -> its violations
    for src, symbol, guard, dst, move, deltas, _ in m.transitions:
        shape = (symbol, guard, deltas, move)
        bad = shapes.get(shape)
        if bad is None:
            bad = shapes[shape] = _shape_violations(m, *shape)
        if bad or src not in states or dst not in states:
            where = f"transition {src!r} --{symbol}/{guard}-->"
            if src not in states:
                errs.append(f"{where} source not in state set")
            if dst not in states:
                errs.append(f"{where} target not in state set")
            errs += [f"{where} {e}" for e in bad]
    if m.deterministic:
        keys = Counter((t.src, t.symbol, t.guard) for t in m.transitions)
        for key, n in keys.items():
            if n > 1:
                errs.append(f"{n} transitions share key {key!r} on a deterministic machine")
    return errs


def _shape_violations(m, symbol, guard, deltas, move):
    """What is wrong with a transition reading `symbol` under `guard`,
    whatever its source and target."""
    errs = []
    if symbol != EOT and symbol not in m.alphabet:
        errs.append("symbol not in alphabet")
    if symbol == EOT and not m.marked:
        errs.append("end-of-tape transition on an unmarked machine")
    if symbol == EOT and move != STAY:
        errs.append("end-of-tape transitions must stay in place")
    if len(guard) != m.k or any(g not in (ZERO, POS) for g in guard):
        errs.append("malformed guard")
    if len(deltas) != m.k or any(d not in (-1, 0, 1) for d in deltas):
        errs.append("malformed counter deltas")
    if move not in (STAY, RIGHT):
        errs.append("malformed move")
    for g, d in zip(guard, deltas):
        if g == ZERO and d < 0:
            errs.append("decrements a counter guarded zero")
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


class _MoveTable(dict):
    """(state, symbol, status, budgets) -> the moves that the guard and
    the reversal budget allow there, filled on first lookup, each a plain
    (transition, new budgets, dst, move, deltas) tuple: the step loops
    unpack it and never read a field of the transition, which costs
    twice a slot read on a tuple subclass.  `status` holds `bool(c)` per
    counter (counters are never negative: validate_machine rejects a
    decrement under a zero guard).  The keys are finite: budgets are
    bounded for a finite `l` and keep directions only for `l` None."""

    __slots__ = ("index", "l")

    def __init__(self, m: CounterMachine):
        super().__init__()
        self.index = _index(m)
        self.l = m.l

    def __missing__(self, key):
        state, symbol, status, budgets = key
        guard = "".join([POS if s else ZERO for s in status])
        moves = []
        for t in self.index.get((state, symbol), {}).get(guard, ()):
            deltas = t.deltas
            nb = _step_budgets(budgets, deltas, self.l)
            if nb is not None:
                moves.append((t, nb, t.dst, t.move, deltas))
        moves = self[key] = tuple(moves)
        return moves


def _moves(m: CounterMachine) -> _MoveTable:
    """The machine's move table, cached on the machine."""
    cached = m.__dict__.get("_move_table")
    if cached is None:
        cached = _MoveTable(m)
        object.__setattr__(m, "_move_table", cached)
    return cached


def _room(counters, deltas):
    """How many times in a row a move that keeps its state and budgets
    is taken from `counters` under one guard: 1 when it changes a zero
    counter, else the least counter it lowers (each lowered counter must
    be >= 1 before the step), or None when it lowers none."""
    room = None
    for c, d in zip(counters, deltas):
        if d:
            if not c:
                return 1
            if d < 0 and (room is None or c < room):
                room = c
    return room


@functools.cache
def _letter_run(a):
    """`match(word, pos)` of the run of letter `a` that starts at `pos`."""
    return re.compile(re.escape(a) + "+").match


def run_deterministic(m: CounterMachine, word: str) -> RunTrace:
    """Run a deterministic machine, with exact divergence detection.

    The run diverges at step t2 when an earlier step t1 of the same stay
    segment (the steps since the last input-consuming move) has the same
    state, guard pattern and budget annotation, no counter is smaller at
    t2, and every strictly growing counter stayed positive throughout
    [t1, t2].  The certificate's t2 is the first step at which any such
    lasso closes, and its t1 is the earliest step that qualifies.

    Stretches.  A move taken at a key (state, symbol, guard, budgets)
    that leads back to the same state and budgets, and changes only
    counters that are positive, meets the same key again as long as the
    symbol stays and every counter it lowers stays >= 1; so it is taken
    again, and the whole stretch is one step of the loop and one entry of
    `RunTrace.steps.runs`.  A right move repeats over the run of its
    letter, cut at the least counter it lowers.  A stay that lowers a
    counter repeats until a lowered counter reaches 0, and is taken in
    one stretch only when `m.l` is finite.

    Cost: one move-table lookup and one entry per stretch, plus the
    letter run's scan in C and O(k) lasso bookkeeping per stay stretch;
    a step outside a loop pays one letter comparison (right moves) or
    two equality tests (stays) more.  No Configuration and no per-step
    row is built until `RunTrace.steps` is read.

    Step t1 of a lasso takes a stay move, and t2 has t1's key and
    symbol, so t2 takes the same stay move: a step that reads input
    never closes a lasso, and the record it would leave is dropped at
    once.  Two steps with the same annotation have the same (direction,
    used) for every counter when `m.l` is finite, so no counter reversed
    between them: a counter that fell can never climb back, and a key
    keeps only its latest step.  Hence a stretch skips no lasso: inside
    a right stretch none can close, and inside a stay stretch each step
    meets only the step before it, under the same key with a lowered
    counter one higher.  The check runs at a stretch's first step as at
    any step, and the stretch leaves its last step as the key's record.
    With `m.l` None the directions may flip and return, so every earlier
    step of the key is kept and checked, and stays go one step at a time.
    """
    if not m.deterministic:
        raise NondeterministicInput("run_deterministic needs a deterministic machine")
    moves_at = _moves(m)
    add = operator.add
    prune = m.l is not None
    finals = m.finals
    n = len(word)
    state, consumed, counters, budgets = m.initial, 0, (0,) * m.k, fresh_budgets(m.k)
    runs = []
    step = 0                  # trace index of the current step
    # stay segment bookkeeping since the last input-consuming move:
    earlier = {}              # lasso key -> [(trace index, counters)]
    last_zero = [-1] * m.k    # last trace index at which counter i was 0;
    # an index left from an earlier segment is below every t1 of this one
    while True:
        if consumed == n and state in finals:
            runs.append((state, consumed, counters, budgets, None, 1))
            return RunTrace(RunSteps(runs, step + 1), "accept")
        status = tuple(map(bool, counters))
        sym = word[consumed] if consumed < n else EOT
        moves = moves_at[state, sym, status, budgets]
        if len(moves) != 1:
            if moves:
                raise NondeterministicInput(f"multiple transitions applicable from {state!r}")
            runs.append((state, consumed, counters, budgets, None, 1))
            return RunTrace(RunSteps(runs, step + 1), "reject")
        t, nb, dst, move, deltas = moves[0]
        count = 1
        if move == RIGHT:
            if consumed + 1 < n and word[consumed + 1] == sym and dst == state and nb == budgets:
                room = _room(counters, deltas)
                if room != 1:
                    count = _letter_run(sym)(word, consumed).end() - consumed
                    if room is not None and room < count:
                        count = room
            runs.append((state, consumed, counters, budgets, t, count))
            consumed += count
            if earlier:
                earlier = {}
        else:
            if prune and dst == state and nb == budgets:
                count = _room(counters, deltas) or 1
            last = step + count - 1
            for i, c in enumerate(counters):
                if not c:
                    # zero all through the stretch; `last` and `step` are
                    # both above every t1 checked below
                    last_zero[i] = last
            entries = earlier.setdefault((state, status, budgets), [])
            for t1, c1 in entries:
                growth = tuple(b - a for a, b in zip(c1, counters))
                if all(g >= 0 for g in growth) and \
                        all(last_zero[i] < t1 for i, g in enumerate(growth) if g):
                    runs.append((state, consumed, counters, budgets, None, 1))
                    return RunTrace(RunSteps(runs, step + 1), "diverge",
                                    DivergenceCertificate(t1, step, growth))
            runs.append((state, consumed, counters, budgets, t, count))
            if prune:
                entries.clear()     # none of them can qualify later (see above)
            entries.append((last, counters if count == 1 else _after(counters, deltas, count - 1)))
        step += count
        state, budgets = dst, nb
        counters = tuple(map(add, counters, deltas)) if count == 1 else _after(counters, deltas, count)


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
    # `states` is a set filled in discovery order: the output's frozenset is
    # copied from it, and the constructions' loops over `states` follow
    # that copy's iteration order, which a dict-built frozenset can change.
    states = {start}
    pairs = {start: start}  # each reached pair, the one object its transitions share
    after = {}              # budgets -> deltas -> budgets after, or None
    transitions = []
    work = [start]
    symbols = list(m.alphabet) + ([EOT] if m.marked else [])
    while work:
        src = work.pop()
        q, bud = src
        steps = after.get(bud)
        if steps is None:
            steps = after[bud] = {}
        for sym in symbols:
            for guard, ts in idx.get((q, sym), {}).items():
                for _, _, _, t_dst, move, deltas, output in ts:
                    try:
                        nb = steps[deltas]
                    except KeyError:
                        nb = steps[deltas] = _step_budgets(bud, deltas, m.l)
                    if nb is None:
                        continue
                    key = (t_dst, nb)
                    dst = pairs.get(key)
                    if dst is None:
                        dst = pairs[key] = key
                        states.add(key)
                        work.append(key)
                    transitions.append(Transition(src, sym, guard, dst, move, deltas, output))
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


def annotate_budgets(m: CounterMachine) -> CounterMachine:
    """Rebuild the machine with (state, budget annotation) states.

    Unlike enforce_reversal_control this never short-circuits, so the
    output states always carry their annotations at the top level.
    """
    if m.l is None:
        raise InfiniteBudget("cannot make an unbounded budget explicit")
    return enforce_reversal_control(replace(m, budget_explicit=False))


@functools.cache
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


def build_machine(name, k, l, alphabet, initial, is_final, moves, *,
                  marked=None, deterministic, budget_explicit=True) -> CounterMachine:
    """Write out the machine that the move function `moves(state)`, the
    transitions out of one state, describes from `initial`.

    One walk from `initial` calls `moves` once per reached state.  The
    states are the reached ones, in the order the walk finds them, and
    the finals are those that `is_final` picks.  The transitions are
    each reached state's in the order `moves` gives them, with repeats
    dropped, so every (state, symbol, guard) key keeps its order.
    `marked` defaults to whether a kept transition reads the end-of-tape
    marker."""
    kept = {}

    def succ(q):
        ts = dict.fromkeys(moves(q))
        kept.update(ts)
        return [t.dst for t in ts]

    states = _walk([initial], succ)
    transitions = tuple(kept)
    if marked is None:
        marked = any(t.symbol == EOT for t in transitions)
    return CounterMachine(
        name=name, k=k, l=l,
        states=frozenset(states),
        alphabet=tuple(alphabet),
        initial=initial,
        finals=frozenset(filter(is_final, states)),
        transitions=transitions,
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
        transitions += [Transition(tw, t.symbol, t.guard, t.dst, t.move, t.deltas, t.output)
                        for t in m.transitions if t.src == f]
    transitions = [
        Transition(t.src, t.symbol, t.guard, twins[t.dst], t.move, t.deltas, t.output)
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


def _components(edges):
    """Each node of the (u, v, ...) edges mapped to its strongly
    connected component, named by one of its nodes (Tarjan's algorithm,
    iterative).  An edge lies on a cycle iff its ends share a component."""
    adj = {}
    for e in edges:
        adj.setdefault(e[0], []).append(e[1])
    index, low, comp, stack = {}, {}, {}, []
    for root in adj:
        work = [] if root in index else [(root, None)]
        while work:
            v, succ = work.pop()
            if succ is None:               # first visit
                index[v] = low[v] = len(index)
                stack.append(v)
                succ = iter(adj.get(v, ()))
            for w in succ:
                if w not in index:
                    work += [(v, succ), (w, None)]
                    break
                if w not in comp:          # w is on the stack
                    low[v] = min(low[v], index[w])
            else:
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[v])
                if low[v] == index[v]:
                    while v not in comp:
                        comp[stack.pop()] = v
    return comp
