"""Closure constructions on reversal-bounded counter machines.

Products, boolean combinations, end-marker elimination for one-counter
machines, concatenations with regular and prefix-free languages, word
quotients, and inverse-insertion operations.  Every construction
re-derives budget-explicit control first, so reversal budgets survive
composition.  Each one then gives the moves of one state of its output,
and `build_machine` explores them from the initial state: only reached
states are expanded, and each state's moves follow its input's order,
with any extra move (a sink, a gap, a handover) after them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache

from .errors import (
    AlphabetMismatch, InfiniteBudget, NotPrefixFree, PreconditionViolated,
)
from .machine import (
    EOT, POS, RIGHT, STAY, ZERO,
    CounterMachine, Transition, _fresh_state, _index, all_guards,
    annotate_budgets, build_machine, combine_budgets, enforce_reversal_control,
    no_stay_into_final, run_deterministic, totalize_dead_state,
)
from .regular import (
    Dfa, UnaryDFA, align_unary_family, full_dfa, machine_from_dfa, periodic_to_unary,
    prefix_free_check_dfa, validate_dfa,
)


def _check_alphabets(a, b):
    if tuple(a) != tuple(b):
        raise AlphabetMismatch(f"alphabets differ: {a!r} vs {b!r}")


# ---------------------------------------------------------------------------
# intersection products


def _by_source(transitions) -> dict:
    """src -> its transitions, in the given order."""
    out = {}
    for t in transitions:
        out.setdefault(t.src, []).append(t)
    return out


def intersect_regular(m: CounterMachine, d: Dfa) -> CounterMachine:
    """Machine for L(m) restricted to the DFA's language.  A (state, DFA
    state) pair moves as its state does, in the machine's order, and the
    DFA follows every move that reads a letter."""
    _check_alphabets(m.alphabet, d.alphabet)
    problems = validate_dfa(d)
    if problems:
        raise PreconditionViolated("; ".join(problems))
    by_src = _by_source(m.transitions)

    def moves(src):
        q, s = src
        return [Transition(src, sym, guard, (t_dst, d.delta[s, sym] if move == RIGHT else s),
                           move, deltas, output)
                for _, sym, guard, t_dst, move, deltas, output in by_src.get(q, ())]

    return build_machine(
        m.name + "_x_dfa", m.k, m.l, m.alphabet, (m.initial, d.initial),
        lambda st: st[0] in m.finals and st[1] in d.finals, moves,
        marked=m.marked, deterministic=m.deterministic,
        budget_explicit=m.budget_explicit)


def product_intersection(m1: CounterMachine, m2: CounterMachine) -> CounterMachine:
    """Intersection of two machines over a shared input head.

    Stay moves of the two components interleave; a joint consuming move
    advances both.  Acceptance flags accumulate final-state visits during
    end-of-input processing so each component may accept at a different
    moment.  When both inputs are deterministic, component one takes its
    stay moves first on each letter, and at the end of input it runs
    until its flag is set, then component two does: a component whose run
    never ends never sets its flag or never lets the head move on, so the
    product rejects as that component does.
    """
    _check_alphabets(m1.alphabet, m2.alphabet)
    m1e = enforce_reversal_control(m1)
    m2e = enforce_reversal_control(m2)
    det = m1.deterministic and m2.deterministic
    i1, i2 = _index(m1e), _index(m2e)
    k1, k2 = m1e.k, m2e.k
    z1, z2 = (0,) * k1, (0,) * k2
    F1, F2 = m1e.finals, m2e.finals
    init = (m1e.initial, m2e.initial,
            m1e.initial in F1, m2e.initial in F2)
    has_eot = any(t.symbol == EOT for t in m1e.transitions + m2e.transitions)
    split1, split2 = {}, {}     # (q, sym) -> _split_moves of that component

    def moves(st):
        q1, q2, f1, f2 = st
        out = []
        for sym in m1e.alphabet:
            rows1 = split1.get((q1, sym))
            if rows1 is None:
                rows1 = split1[q1, sym] = _split_moves(i1, q1, sym, k1)
            rows2 = split2.get((q2, sym))
            if rows2 is None:
                rows2 = split2[q2, sym] = _split_moves(i2, q2, sym, k2)
            for g1, s1, r1 in rows1:
                for g2, s2, r2 in rows2:
                    guard = g1 + g2
                    for dst, deltas in s1:
                        out.append(Transition(st, sym, guard, (dst, q2, dst in F1, f2),
                                              STAY, deltas + z2))
                    if det and s1:
                        continue    # deterministic: component one stays first
                    for dst, deltas in s2:
                        out.append(Transition(st, sym, guard, (q1, dst, f1, dst in F2),
                                              STAY, z1 + deltas))
                    for da, dla in r1:
                        for db, dlb in r2:
                            out.append(Transition(st, sym, guard, (da, db, da in F1, db in F2),
                                                  RIGHT, dla + dlb))
        if has_eot:
            # A deterministic product schedules the component that still
            # needs to accept: a component that already has its flag may
            # loop forever without starving the other.
            run1 = not det or not f1
            run2 = not det or (f1 and not f2)
            for g1 in all_guards(k1):
                t1s = i1.get((q1, EOT), {}).get(g1, ()) if run1 else ()
                for g2 in all_guards(k2):
                    t2s = i2.get((q2, EOT), {}).get(g2, ()) if run2 else ()
                    guard = g1 + g2
                    for t in t1s:
                        out.append(Transition(st, EOT, guard, (t.dst, q2, f1 or t.dst in F1, f2),
                                              STAY, t.deltas + z2))
                    for t in t2s:
                        out.append(Transition(st, EOT, guard, (q1, t.dst, f1, f2 or t.dst in F2),
                                              STAY, z1 + t.deltas))
        return out

    return build_machine(
        f"({m1.name}&{m2.name})", k1 + k2, combine_budgets(m1.l, m2.l),
        m1e.alphabet, init, lambda st: st[2] and st[3], moves,
        deterministic=det)


def _split_moves(idx, q, sym, k):
    """(guard, stays, rights) per guard of the moves out of q on sym, each
    move a (dst, deltas) pair."""
    by_guard = idx.get((q, sym), {})
    rows = []
    for g in all_guards(k):
        ts = by_guard.get(g, ())
        rows.append((g, [(t.dst, t.deltas) for t in ts if t.move == STAY],
                     [(t.dst, t.deltas) for t in ts if t.move == RIGHT]))
    return rows


# ---------------------------------------------------------------------------
# halting runs and boolean operations


def _halting(me: CounterMachine) -> CounterMachine:
    """`me`, budget-explicit and deterministic, with every endless stay
    run cut: each run halts, and accepts the same words.

    A stay move is stable when no delta is negative and every counter
    guarded zero keeps delta 0, so its guard holds again after it.  Over
    (state, symbol, guard) nodes the stable moves give each node at most
    one successor, and a run that reaches a cycle of that graph goes
    round it forever; each node's walk along its successors, stopped at
    a node met before, finds the cycles in time linear in the nodes.
    Conversely, an endless stay run reverses each counter at most `l`
    times, since `me`'s moves respect the budget; after the last reversal
    every counter is monotone, a falling one soon stays at zero, and from
    then on the run takes only stable moves, so it enters a cycle.  The move at each cycle node is dropped, so the
    run halts there and rejects, except on a `$` cycle through a final
    state, where the run accepts: its nodes move to one fresh final state
    with no moves.  With no cycle `me` itself is returned.  For `l` None
    the converse fails (a counter may reverse forever), so it raises
    InfiniteBudget.
    """
    if me.l is None:
        raise InfiniteBudget("cutting endless stay runs needs a finite budget")
    stable = {}     # (guard, deltas) -> whether a stay of that shape is stable
    succ = {}
    for src, symbol, guard, dst, move, deltas, _ in me.transitions:
        if move == STAY:
            ok = stable.get((guard, deltas))
            if ok is None:
                ok = stable[guard, deltas] = all(
                    d == 0 or (d > 0 and g == POS) for g, d in zip(guard, deltas))
            if ok:
                succ[src, symbol, guard] = (dst, symbol, guard)
    on_cycle = {}   # node -> the cycle it lies on, named by one of its nodes
    walk = {}       # node -> the node whose walk met it first
    for u in succ:
        v = u
        while v in succ and v not in walk:
            walk[v] = u
            v = succ[v]
        if walk.get(v) is u:    # this walk closed a new cycle at v
            w = v
            while w not in on_cycle:
                on_cycle[w] = v
                w = succ[w]
    if not on_cycle:
        return me
    accepting = {c for (q, sym, _), c in on_cycle.items() if sym == EOT and q in me.finals}
    states, finals = me.states, me.finals
    if accepting:
        halt = _fresh_state(states, "_halt")
        states, finals = states | {halt}, finals | {halt}
    transitions = []
    for t in me.transitions:
        c = on_cycle.get(t.key())
        if c is None:
            transitions.append(t)
        elif c in accepting:
            transitions.append(t._replace(dst=halt, deltas=(0,) * me.k))
    return replace(me, states=states, finals=finals, transitions=tuple(transitions))


def _complement(m: CounterMachine) -> CounterMachine:
    if not m.deterministic:
        raise PreconditionViolated("complement needs a deterministic machine")
    me = totalize_dead_state(_halting(enforce_reversal_control(m)))
    idx = _index(me)
    by_src = _by_source(me.transitions)
    F = me.finals
    ok = ("complement_ok",)

    def moves(st):
        # (q, f): f records whether the end-of-input run has passed a final
        if st == ok:
            return []
        q, f = st
        out = [Transition(st, sym, guard, (dst, (f or dst in F) if sym == EOT else dst in F),
                          move, deltas, output)
               for _, sym, guard, dst, move, deltas, output in by_src.get(q, ())]
        if not f:
            out += [Transition(st, EOT, g, ok, STAY, (0,) * me.k)
                    for g in all_guards(me.k) if not idx.get((q, EOT), {}).get(g, ())]
        return out

    return build_machine(
        "not_" + m.name, me.k, me.l, me.alphabet,
        (me.initial, me.initial in F), lambda st: st == ok, moves,
        marked=True, deterministic=True)


def boolean_dcm(m1: CounterMachine, m2, mode: str) -> CounterMachine:
    """Boolean combinations of deterministic machines.

    mode is 'not' (m2 must be None), 'and' or 'or'.  Complement cuts
    the machine's endless stay runs first (`_halting`), so it takes every
    deterministic machine with a finite budget and raises InfiniteBudget
    on the others; 'or' complements both inputs, so it does the same.
    'and' is the deterministic product, exact without halting runs (see
    `product_intersection`), so it takes machines of any budget.
    """
    op = mode
    if op == "not":
        if m2 is not None:
            raise ValueError("'not' takes a single machine")
        return _complement(m1)
    if m2 is None:
        raise ValueError(f"{op!r} takes two machines")
    if not (m1.deterministic and m2.deterministic):
        raise PreconditionViolated("boolean_dcm needs deterministic machines")
    if op == "and":
        return product_intersection(m1, m2)
    if op == "or":
        return _complement(product_intersection(_complement(m1), _complement(m2)))
    raise ValueError(f"unknown boolean operation {op!r}")


# ---------------------------------------------------------------------------
# end-marker elimination for one-counter machines


def end_marker_behavior(m: CounterMachine, q) -> UnaryDFA:
    """Unary tail/loop description of { v : the end-of-tape run from
    state q with counter value v accepts }.  Needs k = 1 and an explicit
    budget.

    The run from (q, v) follows the positive-guard `$` walk from q, whose
    offset after j moves is o_j, until it meets a final state (accept) or
    the first j with o_j = -v, where the value-0 run from the walk's state
    decides.  That walk is a lasso: if its loop lowers the offset by D > 0,
    the outcome is periodic in v with period D once v exceeds -min o_j over
    the first pass; otherwise it is constant there.
    """
    if m.k != 1:
        raise PreconditionViolated("end_marker_behavior needs exactly one counter")
    if not m.budget_explicit:
        raise PreconditionViolated("end_marker_behavior needs a budget-explicit machine")
    if q not in m.states:
        raise PreconditionViolated(f"unknown state {q!r}")
    idx = _index(m)

    def move(s, guard):
        ts = idx.get((s, EOT), {}).get(guard, ())
        if len(ts) > 1:
            raise PreconditionViolated("end-of-tape behaviour needs determinism")
        return ts[0] if ts else None

    @cache
    def walk(s):
        """(hits, loop, rest): the run from (s, v) first has value 0 in
        state hits[v], for v < len(hits).  With rest None the walk's loop
        lowers the offset by `loop`, and hits[v] is hits[v - loop] beyond;
        otherwise every larger v ends with the verdict rest."""
        hits, seen, offset = [], {}, 0
        while s not in seen:
            if s in m.finals:
                return hits, 1, True
            seen[s] = offset
            if offset == -len(hits):  # moves are unit steps: a new low
                hits.append(s)
            t = move(s, POS)
            if t is None:
                return hits, 1, False
            s, offset = t.dst, offset + t.deltas[0]
        drift = offset - seen[s]
        if drift >= 0:
            return hits, 1, False
        end = len(hits) - drift  # one more period of values, past the first pass
        while len(hits) < end:
            if offset == -len(hits):
                hits.append(s)
            t = move(s, POS)
            s, offset = t.dst, offset + t.deltas[0]
        return hits, -drift, None

    def meet_zero(s, v):
        """(state, None) for the state in which the run from (s, v) first
        has value 0, or (None, verdict) when it ends before.  Callers ask
        for v <= 1 or v < tail + loop, and a walk that loops downwards has
        hits for both."""
        hits, _loop, rest = walk(s)
        return (hits[v], None) if v < len(hits) else (None, rest)

    zero = {}  # state -> verdict of the run from (state, 0)

    def at_zero(s):
        path = []
        while s not in zero:
            zero[s] = False  # a revisit closes a loop with no final state
            path.append(s)
            t = move(s, ZERO)
            if t is None:
                verdict = False
                break
            s, verdict = meet_zero(t.dst, t.deltas[0])
            if verdict is not None:
                break
        else:
            verdict = zero[s]
        for p in path:
            zero[p] = verdict
        return verdict

    def accepts(v):
        s, verdict = meet_zero(q, v)
        return at_zero(s) if verdict is None else verdict

    hits, loop, rest = walk(q)
    size = len(hits) + (rest is not None)  # tail + loop
    return periodic_to_unary(size - loop, loop, {v for v in range(size) if accepts(v)})


@dataclass(frozen=True)
class Lemma1State:
    """State of the marker-free simulation: the original (budget
    annotated) state, the tracked low-range value d, and the phase j of
    the counter excess within the common period."""
    base: object
    d: int
    j: int


def strip_end_marker_one_counter(m: CounterMachine, return_info: bool = False):
    """Equivalent end-marker-free machine for a one-counter deterministic
    machine.

    For every state the set of counter values whose end-of-input run
    accepts is eventually periodic; the output machine tracks the value
    exactly up to the common tail and modulo the common period beyond it,
    so acceptance is a pure state property and end-of-input processing
    disappears.
    """
    if not m.deterministic:
        raise PreconditionViolated("end-marker elimination needs determinism")
    if m.k != 1:
        raise PreconditionViolated("end-marker elimination needs exactly one counter")
    if m.l is None:
        raise InfiniteBudget("end-marker elimination needs a finite budget")
    me = annotate_budgets(m)
    order = sorted(me.states, key=repr)
    behaviors = [end_marker_behavior(me, q) for q in order]
    tail, loop, accepts = align_unary_family(behaviors)
    accept_of = dict(zip(order, accepts))

    by_src = _by_source(t for t in me.transitions if t.symbol != EOT)

    def moves(st):
        # d < tail implies j = 0: only d = tail tracks the excess's phase
        d, j = st.d, st.j
        out = []
        for _, sym, guard, dst, move, (alpha,), _ in by_src.get(st.base, ()):
            if guard == ZERO:
                if d == j == 0:
                    out.append(Transition(st, sym, ZERO, Lemma1State(dst, alpha, 0), move, (0,)))
                continue
            if j == 0 and 1 <= d <= tail and 0 <= d + alpha <= tail:
                out.append(Transition(st, sym, ZERO, Lemma1State(dst, d + alpha, 0), move, (0,)))
            if d == tail:
                out.append(Transition(st, sym, POS, Lemma1State(dst, tail, (j + alpha) % loop),
                                      move, (alpha,)))
                if j == 0 and alpha >= 0:
                    out.append(Transition(st, sym, ZERO, Lemma1State(dst, tail, alpha % loop),
                                          move, (alpha,)))
        return out

    out = build_machine(
        m.name + "_nomark", 1, m.l, m.alphabet, Lemma1State(me.initial, 0, 0),
        lambda st: st.d <= tail and st.d + st.j in accept_of[st.base], moves,
        marked=False, deterministic=True)
    if return_info:
        return out, {"tail": tail, "loop": loop, "annotated": me,
                     "accepts": accept_of}
    return out


# ---------------------------------------------------------------------------
# concatenation with prefix-free and regular languages


def _is_non_exiting(m: CounterMachine) -> bool:
    return not any(t.src in m.finals for t in m.transitions)


def concat_pf_dcmne_dcm(m1: CounterMachine, m2: CounterMachine) -> CounterMachine:
    """Concatenation where the first machine is non-exiting (so its
    language is prefix-free): entering a final of the first machine jumps
    straight into the second machine's initial state."""
    _check_alphabets(m1.alphabet, m2.alphabet)
    if m1.marked or any(t.symbol == EOT for t in m1.transitions):
        raise PreconditionViolated("first machine must be unmarked")
    if not (m1.deterministic and m2.deterministic):
        raise PreconditionViolated("concatenation needs deterministic machines")
    m1e = enforce_reversal_control(m1)
    m2e = enforce_reversal_control(m2)
    if not _is_non_exiting(m1e):
        raise PreconditionViolated("first machine must be non-exiting")
    if any(t.move == STAY and t.dst in m1e.finals for t in m1e.transitions):
        raise PreconditionViolated("first machine must not stay into finals")
    k1, k2 = m1e.k, m2e.k
    z1, z2 = (0,) * k1, (0,) * k2
    bstart = ("b", m2e.initial)
    by_src1, by_src2 = _by_source(m1e.transitions), _by_source(m2e.transitions)

    def moves(st):
        side, q = st
        if side == "a":
            return [Transition(st, t.symbol, t.guard + ZERO * k2,
                               bstart if t.dst in m1e.finals else ("a", t.dst), t.move,
                               t.deltas + z2)
                    for t in by_src1.get(q, ())]
        return [Transition(st, t.symbol, g1 + t.guard, ("b", t.dst), t.move, z1 + t.deltas)
                for t in by_src2.get(q, ()) for g1 in all_guards(k1)]

    initial = bstart if m1e.initial in m1e.finals else ("a", m1e.initial)
    return build_machine(
        f"({m1.name}.{m2.name})", k1 + k2, combine_budgets(m1.l, m2.l),
        m1e.alphabet, initial, lambda st: st[0] == "b" and st[1] in m2e.finals, moves,
        marked=m2e.marked, deterministic=True)


def prepare_for_regular_concat(m: CounterMachine) -> CounterMachine:
    """Budget-explicit, total machine with no stays into finals whose
    runs all halt (`_halting` cuts the endless stay runs, so a `reversals
    inf` machine raises InfiniteBudget): the shape the subset
    construction below needs."""
    if m.marked or any(t.symbol == EOT for t in m.transitions):
        raise PreconditionViolated("regular concatenation needs an unmarked machine")
    if not m.deterministic:
        raise PreconditionViolated("regular concatenation needs determinism")
    return totalize_dead_state(no_stay_into_final(_halting(enforce_reversal_control(m))))


def concat_dcmne_regular(m1: CounterMachine, d2: Dfa) -> CounterMachine:
    """Concatenation L(m1) . L(d2) by tracking, in the state, the set of
    DFA states reachable on suffixes that start right after an accepted
    prefix.  The machine must come from prepare_for_regular_concat."""
    _check_alphabets(m1.alphabet, d2.alphabet)
    problems = validate_dfa(d2)
    if problems:
        raise PreconditionViolated("; ".join(problems))
    if any(t.move == STAY and t.dst in m1.finals for t in m1.transitions):
        raise PreconditionViolated("first machine must not stay into finals")
    idx = _index(m1)
    F1 = m1.finals
    init = (m1.initial,
            frozenset({d2.initial}) if m1.initial in F1 else frozenset())

    def moves(src):
        q, ys = src
        out = []
        for sym in m1.alphabet:
            for g in all_guards(m1.k):
                ts = idx.get((q, sym), {}).get(g, ())
                if not ts:
                    continue
                t = ts[0]
                if t.move == STAY:
                    dst = (t.dst, ys)
                else:
                    zs = {d2.delta[(y, sym)] for y in ys}
                    if t.dst in F1:
                        zs.add(d2.initial)
                    dst = (t.dst, frozenset(zs))
                out.append(Transition(src, sym, g, dst, t.move, t.deltas))
        return out

    return build_machine(
        m1.name + "_cat_reg", m1.k, m1.l, m1.alphabet, init,
        lambda st: st[1] & d2.finals, moves, marked=False, deterministic=True)


def concat_dcm1_regular(m: CounterMachine, d: Dfa) -> CounterMachine:
    """Concatenation of a one-counter deterministic language with a
    regular language: eliminate the end marker, prepare, then run the
    subset construction."""
    if m.k != 1:
        raise PreconditionViolated("needs exactly one counter")
    core = strip_end_marker_one_counter(m) if (
        m.marked or any(t.symbol == EOT for t in m.transitions)) else m
    prepped = prepare_for_regular_concat(core)
    out = concat_dcmne_regular(prepped, d)
    return replace(out, marked=True, name=m.name + "_cat_reg")


def inverse_prefix_dcm1(m: CounterMachine) -> CounterMachine:
    """Words with a prefix in L(m), for one-counter deterministic m."""
    return replace(concat_dcm1_regular(m, full_dfa(m.alphabet)),
                   name=m.name + "_invprefix")


def concat_pf_regular_dcm(d1: Dfa, m2: CounterMachine) -> CounterMachine:
    """Concatenation of a prefix-free regular language with L(m2)."""
    if not prefix_free_check_dfa(d1):
        raise NotPrefixFree("regular prefix language is not prefix-free")
    md1 = machine_from_dfa(d1, name="pfreg", trim=True)
    return concat_pf_dcmne_dcm(md1, m2)


# ---------------------------------------------------------------------------
# word quotient


def left_quotient_word(m: CounterMachine, w: str) -> CounterMachine:
    """Machine for { v : w v in L(m) }.

    Simulates the (budget-explicit) machine over w; if the simulation
    blocks or diverges the quotient is empty, otherwise a priming chain
    of stay moves rebuilds the reached counter values before handing over
    to the reached state.
    """
    if not m.deterministic:
        raise PreconditionViolated("left quotient needs a deterministic machine")
    if any(ch not in m.alphabet for ch in w):
        raise PreconditionViolated("quotient word uses foreign symbols")
    me = enforce_reversal_control(m)
    trace = run_deterministic(me, w)
    # a stretch of right moves ends before the end of w, so the first step
    # with all of w consumed starts an entry
    for boundary, consumed, targets, _budgets, _t, _count in trace.steps.runs:
        if consumed == len(w):
            break
    else:
        return build_machine(m.name + "_quo", me.k, me.l, me.alphabet,
                             ("quotient_empty",), lambda q: False, lambda q: (),
                             marked=False, deterministic=True)
    total = sum(targets)
    if total == 0:
        return replace(me, initial=boundary, name=m.name + "_quo")
    by_src = _by_source(me.transitions)
    vals = [0] * me.k
    src = ("prime", 0)
    step_no = 0
    for i in range(me.k):
        for _ in range(targets[i]):
            guard = "".join(POS if v > 0 else ZERO for v in vals)
            deltas = tuple(1 if j == i else 0 for j in range(me.k))
            vals[i] += 1
            step_no += 1
            done = step_no == total
            dst = boundary if done else ("prime", step_no)
            by_src.setdefault(src, []).extend(
                Transition(src, sym, guard, dst, STAY, deltas)
                for sym in tuple(me.alphabet) + (EOT,))
            src = dst
    return build_machine(m.name + "_quo", me.k, me.l, me.alphabet,
                         ("prime", 0), me.finals.__contains__, lambda q: by_src.get(q, ()),
                         marked=True, deterministic=True)


# ---------------------------------------------------------------------------
# nondeterministic concatenation and inverse insertion


def sigma_plus_machine(alphabet) -> CounterMachine:
    """Counter-free machine for all non-empty words."""
    return build_machine("sigma_plus", 0, 0, alphabet, "s0", lambda q: q == "s1",
                         lambda q: [Transition(q, x, "", "s1", RIGHT, ()) for x in alphabet],
                         marked=False, deterministic=True)


def sigma_star_machine(alphabet) -> CounterMachine:
    m = sigma_plus_machine(alphabet)
    return replace(m, finals=frozenset({"s0", "s1"}), name="sigma_star")


def concat_ncm(m1: CounterMachine, m2: CounterMachine) -> CounterMachine:
    """Concatenation of two (possibly nondeterministic) machines.

    The result guesses the split point.  End-of-input processing of the
    first machine is replayed as stay moves on the unread suffix, so
    marked first machines keep their full language.

    Simulation states carry a freshness flag: a stay move of the first
    machine reads the current letter without consuming it, so after one
    the run has committed that letter to the first machine.  Handing
    over to the second machine (or to the end-of-input replay) is only
    allowed from fresh states, where no such peek is pending.
    """
    _check_alphabets(m1.alphabet, m2.alphabet)
    m1e = enforce_reversal_control(m1)
    m2e = enforce_reversal_control(m2)
    k1, k2 = m1e.k, m2e.k
    z1, z2 = (0,) * k1, (0,) * k2
    zg2 = ZERO * k2
    by_src1, by_src2 = _by_source(m1e.transitions), _by_source(m2e.transitions)
    m2_initial_ts = [t for t in by_src2.get(m2e.initial, ())
                     if t.symbol != EOT and t.guard == zg2]
    start = ("start",)

    def moves(st):
        # ("a", q, fresh): reading with m1; ("e", q): m1's end-of-input
        # replay; ("b", q): reading with m2
        if st == start:
            return [t._replace(src=st) for t in moves(("a", m1e.initial, True))]
        side, q = st[:2]
        out = []
        if side == "b":
            for _, sym, guard, dst, move, deltas, _ in by_src2.get(q, ()):
                dst, deltas = ("b", dst), z1 + deltas
                out += [Transition(st, sym, g1 + guard, dst, move, deltas)
                        for g1 in all_guards(k1)]
            return out
        fresh = side == "e" or st[2]
        for _, sym, guard, dst, move, deltas, _ in by_src1.get(q, ()):
            guard, deltas = guard + zg2, deltas + z2
            if sym == EOT:
                if fresh:
                    out += [Transition(st, x, guard, ("e", dst), STAY, deltas)
                            for x in (*m1e.alphabet, EOT)]
            elif side == "a":
                out.append(Transition(st, sym, guard, ("a", dst, move == RIGHT), move, deltas))
        if fresh and q in m1e.finals:
            for g1 in all_guards(k1):
                out += [Transition(st, t.symbol, g1 + t.guard, ("b", t.dst), t.move,
                                   z1 + t.deltas) for t in m2_initial_ts]
                out.append(Transition(st, EOT, g1 + zg2, ("b", m2e.initial), STAY, z1 + z2))
        return out

    # marked whenever some state, reached or not, would have a `$` move
    return build_machine(
        f"({m1.name}.{m2.name})", k1 + k2, combine_budgets(m1.l, m2.l),
        m1e.alphabet, start, lambda st: st[0] == "b" and st[1] in m2e.finals, moves,
        marked=bool(m1e.finals) or any(t.symbol == EOT for t in m1e.transitions + m2e.transitions),
        deterministic=False)


INSERTION_MODES = ("prefix", "suffix", "infix", "outfix", "embed")


def inverse_insertion_ncm(m: CounterMachine, mode: str, gaps: int = 1) -> CounterMachine:
    """All words obtained from L(m) by inserting extra input.

    mode 'prefix' appends arbitrary input after an accepted word,
    'suffix' prepends it, 'infix' does both, 'outfix' inserts one
    arbitrary non-empty factor anywhere, and 'embed' inserts up to
    `gaps` such factors.
    """
    me = enforce_reversal_control(m)
    k = me.k
    if mode == "prefix":
        if me.marked or any(t.symbol == EOT for t in me.transitions):
            return replace(concat_ncm(me, sigma_star_machine(m.alphabet)),
                           name=m.name + "_insuffix")
        # Simulation states carry a freshness flag: a stay move peeks at
        # the current letter, committing it to the simulated machine, so
        # the handover into the anything-goes sink is only allowed from
        # fresh states where no peek is pending.
        sink = ("post",)
        by_src = _by_source(me.transitions)

        def moves(st):
            to_sink = [Transition(st, x, g, sink, RIGHT, (0,) * k)
                       for x in me.alphabet for g in all_guards(k)]
            if st == sink:
                return to_sink
            q, fresh = st
            out = [Transition(st, sym, guard, (dst, move == RIGHT), move, deltas, output)
                   for _, sym, guard, dst, move, deltas, output in by_src.get(q, ())]
            return out + to_sink if fresh and q in me.finals else out

        return build_machine(m.name + "_insuffix", k, me.l, me.alphabet,
                             (me.initial, True), lambda st: st == sink or st[0] in me.finals,
                             moves, marked=False, deterministic=False)
    if mode == "suffix":
        skip = ("pre",)
        by_src = _by_source(me.transitions)

        def moves(q):
            if q != skip:
                return by_src.get(q, ())
            return ([Transition(skip, x, ZERO * k, skip, RIGHT, (0,) * k) for x in me.alphabet]
                    + [t._replace(src=skip) for t in by_src.get(me.initial, ())])

        return build_machine(m.name + "_insprefix", k, me.l, me.alphabet, skip,
                             lambda q: q in me.finals or q == skip and me.initial in me.finals,
                             moves, marked=me.marked, deterministic=False)
    if mode == "infix":
        return replace(
            inverse_insertion_ncm(inverse_insertion_ncm(m, "suffix"), "prefix"),
            name=m.name + "_insboth")
    if mode == "outfix":
        return replace(inverse_insertion_ncm(m, "embed", gaps=1),
                       name=m.name + "_insone")
    if mode != "embed":
        raise ValueError(f"unknown insertion mode {mode!r}")
    if gaps < 1:
        raise ValueError("embed needs at least one gap")
    # Simulation states carry a freshness flag (see the prefix mode):
    # opening a gap is only allowed when the simulated machine has no
    # pending peek at the current letter.
    by_src = _by_source(me.transitions)

    def moves(st):
        # (q, "sim", g, fresh) simulates with g gaps opened so far;
        # (q, "gap", g) skips the letters of gap g
        q, phase, g = st[:3]
        fresh = phase == "sim" and st[3]
        out = [Transition(st, sym, guard,
                          (dst, "sim", g, fresh if sym == EOT else move == RIGHT),
                          move, deltas, output)
               for _, sym, guard, dst, move, deltas, output in by_src.get(q, ())]
        if fresh and g < gaps:
            out += [Transition(st, x, gg, (q, "gap", g + 1), RIGHT, (0,) * k)
                    for x in me.alphabet for gg in all_guards(k)]
        elif phase == "gap":
            out += [Transition(st, x, gg, st, RIGHT, (0,) * k)
                    for x in me.alphabet for gg in all_guards(k)]
        return out

    return build_machine(m.name + f"_embed{gaps}", k, me.l, me.alphabet,
                         (me.initial, "sim", 0, True), lambda st: st[0] in me.finals, moves,
                         marked=me.marked, deterministic=False)
