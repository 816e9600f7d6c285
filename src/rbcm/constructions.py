"""Closure constructions on reversal-bounded counter machines.

Products, boolean combinations, end-marker elimination for one-counter
machines, concatenations with regular and prefix-free languages, word
quotients, and inverse-insertion operations.  Every construction
re-derives budget-explicit control first, so reversal budgets survive
composition.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import (
    AlphabetMismatch, InfiniteBudget, NotPrefixFree, PreconditionViolated,
)
from .machine import (
    EOT, POS, RIGHT, STAY, ZERO,
    CounterMachine, Transition, _index, all_guards, build_machine,
    combine_budgets, enforce_reversal_control, no_stay_into_final,
    run_deterministic, stay_acyclic_check, totalize_dead_state,
)
from . import decide
from .regular import (
    Dfa, full_dfa, machine_from_dfa, prefix_free_check_dfa, validate_dfa,
)


def _check_alphabets(a, b):
    if tuple(a) != tuple(b):
        raise AlphabetMismatch(f"alphabets differ: {a!r} vs {b!r}")


# ---------------------------------------------------------------------------
# intersection products


def intersect_regular(m: CounterMachine, d: Dfa) -> CounterMachine:
    """Machine for L(m) restricted to the DFA's language."""
    _check_alphabets(m.alphabet, d.alphabet)
    problems = validate_dfa(d)
    if problems:
        raise PreconditionViolated("; ".join(problems))
    transitions = []
    for t in m.transitions:
        if t.move == RIGHT:
            for s in d.states:
                transitions.append(replace(
                    t, src=(t.src, s), dst=(t.dst, d.delta[(s, t.symbol)])))
        else:
            for s in d.states:
                transitions.append(replace(t, src=(t.src, s), dst=(t.dst, s)))
    finals = {(q, s) for q in m.finals for s in d.finals}
    return build_machine(
        m.name + "_x_dfa", m.k, m.l, m.alphabet,
        (m.initial, d.initial), finals, transitions,
        marked=m.marked, deterministic=m.deterministic,
        budget_explicit=m.budget_explicit)


def product_intersection(m1: CounterMachine, m2: CounterMachine) -> CounterMachine:
    """Intersection of two machines over a shared input head.

    Stay moves of the two components interleave; a joint consuming move
    advances both.  Acceptance flags accumulate final-state visits during
    end-of-input processing so each component may accept at a different
    moment.  When both inputs are deterministic, component one is
    scheduled first, so its end-of-input stay runs should terminate.
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
    transitions = []
    seen = {init}
    work = [init]
    has_eot = any(t.symbol == EOT for t in m1e.transitions + m2e.transitions)
    while work:
        st = work.pop()
        q1, q2, f1, f2 = st

        def emit2(sym, guard, dst, move, deltas):
            transitions.append(Transition(st, sym, guard, dst, move, deltas))
            if dst not in seen:
                seen.add(dst)
                work.append(dst)

        for sym in m1e.alphabet:
            for g1 in all_guards(k1):
                t1s = i1.get((q1, sym), {}).get(g1, ())
                s1 = [t for t in t1s if t.move == STAY]
                r1 = [t for t in t1s if t.move == RIGHT]
                for g2 in all_guards(k2):
                    t2s = i2.get((q2, sym), {}).get(g2, ())
                    s2 = [t for t in t2s if t.move == STAY]
                    r2 = [t for t in t2s if t.move == RIGHT]
                    guard = g1 + g2
                    if det:
                        if s1:
                            t = s1[0]
                            emit2(sym, guard,
                                  (t.dst, q2, t.dst in F1, f2),
                                  STAY, t.deltas + z2)
                        elif s2:
                            t = s2[0]
                            emit2(sym, guard,
                                  (q1, t.dst, f1, t.dst in F2),
                                  STAY, z1 + t.deltas)
                        elif r1 and r2:
                            ta, tb = r1[0], r2[0]
                            emit2(sym, guard,
                                  (ta.dst, tb.dst, ta.dst in F1, tb.dst in F2),
                                  RIGHT, ta.deltas + tb.deltas)
                    else:
                        for t in s1:
                            emit2(sym, guard, (t.dst, q2, t.dst in F1, f2),
                                  STAY, t.deltas + z2)
                        for t in s2:
                            emit2(sym, guard, (q1, t.dst, f1, t.dst in F2),
                                  STAY, z1 + t.deltas)
                        for ta in r1:
                            for tb in r2:
                                emit2(sym, guard,
                                      (ta.dst, tb.dst, ta.dst in F1, tb.dst in F2),
                                      RIGHT, ta.deltas + tb.deltas)
        if has_eot:
            for g1 in all_guards(k1):
                t1s = i1.get((q1, EOT), {}).get(g1, ())
                for g2 in all_guards(k2):
                    t2s = i2.get((q2, EOT), {}).get(g2, ())
                    guard = g1 + g2
                    if det:
                        # Schedule the component that still needs to
                        # accept: a component that already has its flag
                        # may loop forever without starving the other.
                        if not f1:
                            if t1s:
                                t = t1s[0]
                                emit2(EOT, guard,
                                      (t.dst, q2, f1 or t.dst in F1, f2),
                                      STAY, t.deltas + z2)
                        elif not f2:
                            if t2s:
                                t = t2s[0]
                                emit2(EOT, guard,
                                      (q1, t.dst, f1, f2 or t.dst in F2),
                                      STAY, z1 + t.deltas)
                    else:
                        for t in t1s:
                            emit2(EOT, guard,
                                  (t.dst, q2, f1 or t.dst in F1, f2),
                                  STAY, t.deltas + z2)
                        for t in t2s:
                            emit2(EOT, guard,
                                  (q1, t.dst, f1, f2 or t.dst in F2),
                                  STAY, z1 + t.deltas)
    finals = {s for s in seen if s[2] and s[3]}
    return build_machine(
        f"({m1.name}&{m2.name})", k1 + k2, combine_budgets(m1.l, m2.l),
        m1e.alphabet, init, finals, transitions,
        deterministic=det)


# ---------------------------------------------------------------------------
# stay-run termination and boolean operations

# stay_runs_terminate gives up (answers "could not certify") past this
# many simple stay cycles for one symbol
STAY_CYCLE_CAP = 2000


def stay_runs_terminate(m: CounterMachine) -> bool:
    """Conservative check that no stay run (per symbol or at the end of
    input) can go on forever.

    For each symbol the stay-move cycles are collected; termination is
    certified when no non-negative, non-zero combination of their counter
    effects is component-wise non-negative (so a positive ranking vector
    exists).  False means "could not certify", not "diverges".
    """
    import networkx as nx
    from .decide import _fourier_motzkin_feasible

    for sym in tuple(m.alphabet) + (EOT,):
        effect = {}
        for t in m.transitions:
            if t.symbol != sym or t.move != STAY:
                continue
            key = (t.src, t.dst)
            if key in effect:
                effect[key] = tuple(max(a, b) for a, b in zip(effect[key], t.deltas))
            else:
                effect[key] = t.deltas
        if not effect:
            continue
        g = nx.DiGraph(list(effect))
        deltas = []
        over = False
        for cyc in nx.simple_cycles(g):
            if len(deltas) > STAY_CYCLE_CAP:
                over = True
                break
            vec = (0,) * m.k
            for i, u in enumerate(cyc):
                v = cyc[(i + 1) % len(cyc)]
                vec = tuple(a + b for a, b in zip(vec, effect[(u, v)]))
            deltas.append(vec)
        if over:
            return False
        if not deltas:
            continue
        if m.k == 0:
            return False
        # feasibility of: y >= 0, sum y >= 1, sum_C y_C * delta_C >= 0
        n = len(deltas)
        ineqs = [(tuple(d[i] for d in deltas), 0) for i in range(m.k)]
        ineqs.append(((1,) * n, 1))
        if _fourier_motzkin_feasible(ineqs, n):
            return False
    return True


def _complement(m: CounterMachine) -> CounterMachine:
    if not m.deterministic:
        raise PreconditionViolated("complement needs a deterministic machine")
    me = enforce_reversal_control(m)
    if not stay_runs_terminate(me):
        raise PreconditionViolated(
            "complement needs provably terminating stay runs")
    me = totalize_dead_state(me)
    idx = _index(me)
    F = me.finals
    ok = ("complement_ok",)
    transitions = []
    for t in me.transitions:
        is_eot = t.symbol == EOT
        in_f = t.dst in F
        for f in (False, True):
            transitions.append(Transition(
                (t.src, f), t.symbol, t.guard,
                (t.dst, (f or in_f) if is_eot else in_f), t.move, t.deltas,
                t.output))
    for q in me.states:
        for g in all_guards(me.k):
            if not idx.get((q, EOT), {}).get(g, ()):
                transitions.append(Transition(
                    (q, False), EOT, g, ok, STAY, (0,) * me.k))
    return build_machine(
        "not_" + m.name, me.k, me.l, me.alphabet,
        (me.initial, me.initial in F), {ok}, transitions,
        marked=True, deterministic=True)


def boolean_dcm(m1: CounterMachine, m2, mode: str) -> CounterMachine:
    """Boolean combinations of deterministic machines.

    mode is 'not' (m2 must be None), 'and' or 'or'.  Complement needs
    stay runs that provably terminate; intersection schedules a
    terminating component first and rejects when neither can be
    certified.
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
        if not stay_runs_terminate(enforce_reversal_control(m1)):
            if stay_runs_terminate(enforce_reversal_control(m2)):
                m1, m2 = m2, m1
            else:
                raise PreconditionViolated(
                    "intersection needs one component with provably "
                    "terminating stay runs")
        return product_intersection(m1, m2)
    if op == "or":
        return _complement(product_intersection(_complement(m1), _complement(m2)))
    raise ValueError(f"unknown boolean operation {op!r}")


# ---------------------------------------------------------------------------
# end-marker elimination for one-counter machines


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
    from .regular import align_unary_family
    if not m.deterministic:
        raise PreconditionViolated("end-marker elimination needs determinism")
    if m.k != 1:
        raise PreconditionViolated("end-marker elimination needs exactly one counter")
    if m.l is None:
        raise InfiniteBudget("end-marker elimination needs a finite budget")
    me = decide.annotate_budgets(m)
    order = sorted(me.states, key=repr)
    behaviors = [decide.end_marker_behavior(me, q) for q in order]
    tail, loop, accepts = align_unary_family(behaviors)
    accept_of = dict(zip(order, accepts))

    transitions = set()
    for t in me.transitions:
        if t.symbol == EOT:
            continue
        alpha = t.deltas[0]
        g = t.guard[0]
        if g == ZERO:
            transitions.add(Transition(
                Lemma1State(t.src, 0, 0), t.symbol, ZERO,
                Lemma1State(t.dst, alpha, 0), t.move, (0,)))
            continue
        for d in range(1, tail + 1):
            if 0 <= d + alpha <= tail:
                transitions.add(Transition(
                    Lemma1State(t.src, d, 0), t.symbol, ZERO,
                    Lemma1State(t.dst, d + alpha, 0), t.move, (0,)))
        if alpha >= 0:
            for j in range(loop):
                transitions.add(Transition(
                    Lemma1State(t.src, tail, j), t.symbol, POS,
                    Lemma1State(t.dst, tail, (j + alpha) % loop), t.move, (alpha,)))
            transitions.add(Transition(
                Lemma1State(t.src, tail, 0), t.symbol, ZERO,
                Lemma1State(t.dst, tail, alpha % loop), t.move, (alpha,)))
        else:
            for j in range(loop):
                transitions.add(Transition(
                    Lemma1State(t.src, tail, j), t.symbol, POS,
                    Lemma1State(t.dst, tail, (j - 1) % loop), t.move, (-1,)))

    finals = set()
    for q in order:
        acc = accept_of[q]
        for d in range(tail):
            if d in acc:
                finals.add(Lemma1State(q, d, 0))
        for j in range(loop):
            if tail + j in acc:
                finals.add(Lemma1State(q, tail, j))
    out = build_machine(
        m.name + "_nomark", 1, m.l, m.alphabet,
        Lemma1State(me.initial, 0, 0), finals, tuple(transitions),
        marked=False, deterministic=True)
    if return_info:
        return out, {"tail": tail, "loop": loop, "annotated": me,
                     "accepts": accept_of}
    return out


# ---------------------------------------------------------------------------
# concatenation with prefix-free and regular languages


def _is_non_exiting(m: CounterMachine) -> bool:
    return not any(t.src in m.finals for t in m.transitions)


def make_non_exiting(m: CounterMachine) -> CounterMachine:
    """Drop transitions out of final states; exact for prefix-free
    languages of unmarked deterministic machines (raises otherwise)."""
    if m.marked or any(t.symbol == EOT for t in m.transitions):
        raise PreconditionViolated("make_non_exiting needs an unmarked machine")
    if not m.deterministic:
        raise PreconditionViolated("make_non_exiting needs a deterministic machine")
    if not decide.prefix_free_check_machine(m):
        raise NotPrefixFree(f"language of {m.name} is not prefix-free")
    return replace(
        m, transitions=tuple(t for t in m.transitions if t.src not in m.finals))


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
    transitions = []
    for t in m1e.transitions:
        dst = bstart if t.dst in m1e.finals else ("a", t.dst)
        transitions.append(Transition(
            ("a", t.src), t.symbol, t.guard + ZERO * k2, dst, t.move,
            t.deltas + z2))
    for t in m2e.transitions:
        for g1 in all_guards(k1):
            transitions.append(Transition(
                ("b", t.src), t.symbol, g1 + t.guard, ("b", t.dst), t.move,
                z1 + t.deltas))
    initial = bstart if m1e.initial in m1e.finals else ("a", m1e.initial)
    finals = {("b", f) for f in m2e.finals}
    return build_machine(
        f"({m1.name}.{m2.name})", k1 + k2, combine_budgets(m1.l, m2.l),
        m1e.alphabet, initial, finals, transitions,
        marked=m2e.marked, deterministic=True)


def prepare_for_regular_concat(m: CounterMachine) -> CounterMachine:
    """Budget-explicit, total machine with no stays into finals whose
    stay runs all terminate: the shape the subset construction below
    needs.  The cheap acyclicity check runs first; a machine with a stay
    cycle is still accepted when `stay_runs_terminate` certifies it (a
    drain such as `q b p -> q S -1`)."""
    if m.marked or any(t.symbol == EOT for t in m.transitions):
        raise PreconditionViolated("regular concatenation needs an unmarked machine")
    if not m.deterministic:
        raise PreconditionViolated("regular concatenation needs determinism")
    me = enforce_reversal_control(m)
    if not stay_acyclic_check(me) and not stay_runs_terminate(me):
        raise PreconditionViolated(
            "machine has a stay cycle that may not terminate; cannot totalize")
    return totalize_dead_state(no_stay_into_final(me))


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
    transitions = []
    seen = {init}
    work = [init]
    while work:
        q, ys = work.pop()
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
                transitions.append(Transition(
                    (q, ys), sym, g, dst, t.move, t.deltas))
                if dst not in seen:
                    seen.add(dst)
                    work.append(dst)
    finals = {s for s in seen if s[1] & d2.finals}
    return build_machine(
        m1.name + "_cat_reg", m1.k, m1.l, m1.alphabet, init, finals,
        transitions, marked=False, deterministic=True)


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
    empty = build_machine(m.name + "_quo", me.k, me.l, me.alphabet,
                          ("quotient_empty",), set(), (),
                          marked=False, deterministic=True)
    trace = run_deterministic(me, w)
    boundary = None
    for cfg, _t in trace.steps:
        if cfg.consumed == len(w):
            boundary = cfg
            break
    if boundary is None:
        return empty
    targets = boundary.counters
    total = sum(targets)
    if total == 0:
        return replace(me, initial=boundary.state, name=m.name + "_quo")
    transitions = list(me.transitions)
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
            dst = boundary.state if done else ("prime", step_no)
            for sym in tuple(me.alphabet) + (EOT,):
                transitions.append(Transition(src, sym, guard, dst, STAY, deltas))
            src = dst
    return build_machine(m.name + "_quo", me.k, me.l, me.alphabet,
                         ("prime", 0), me.finals, transitions,
                         marked=True, deterministic=True)


# ---------------------------------------------------------------------------
# nondeterministic concatenation and inverse insertion


def sigma_plus_machine(alphabet) -> CounterMachine:
    """Counter-free machine for all non-empty words."""
    transitions = [Transition("s0", x, "", "s1", RIGHT, ()) for x in alphabet]
    transitions += [Transition("s1", x, "", "s1", RIGHT, ()) for x in alphabet]
    return build_machine("sigma_plus", 0, 0, alphabet, "s0", {"s1"},
                         transitions, marked=False, deterministic=True)


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
    transitions = []

    def a(q, fresh=True):
        return ("a", q, fresh)

    def e(q):
        return ("e", q)

    def b(q):
        return ("b", q)

    for t in m1e.transitions:
        if t.symbol == EOT:
            for src in (a(t.src), e(t.src)):
                for x in m1e.alphabet:
                    transitions.append(Transition(
                        src, x, t.guard + zg2, e(t.dst), STAY,
                        t.deltas + z2))
                transitions.append(Transition(
                    src, EOT, t.guard + zg2, e(t.dst), STAY,
                    t.deltas + z2))
        else:
            dst_fresh = t.move == RIGHT
            for fresh in (True, False):
                transitions.append(Transition(
                    a(t.src, fresh), t.symbol, t.guard + zg2,
                    a(t.dst, dst_fresh), t.move, t.deltas + z2))
    m2_initial_ts = [t for t in m2e.transitions
                     if t.src == m2e.initial and t.symbol != EOT
                     and t.guard == ZERO * k2]
    for f in m1e.finals:
        for src in (a(f), e(f)):
            for g1 in all_guards(k1):
                for t in m2_initial_ts:
                    transitions.append(Transition(
                        src, t.symbol, g1 + t.guard, b(t.dst), t.move,
                        z1 + t.deltas))
                transitions.append(Transition(
                    src, EOT, g1 + zg2, b(m2e.initial), STAY, z1 + z2))
    for t in m2e.transitions:
        for g1 in all_guards(k1):
            transitions.append(Transition(
                b(t.src), t.symbol, g1 + t.guard, b(t.dst), t.move,
                z1 + t.deltas))
    initial = ("start",)
    extra = []
    for t in transitions:
        if t.src == a(m1e.initial):
            extra.append(replace(t, src=initial))
    transitions += extra
    finals = {b(f) for f in m2e.finals}
    return build_machine(
        f"({m1.name}.{m2.name})", k1 + k2, combine_budgets(m1.l, m2.l),
        m1e.alphabet, initial, finals, transitions, deterministic=False)


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
            return replace(concat_ncm(m, sigma_star_machine(m.alphabet)),
                           name=m.name + "_insuffix")
        # Simulation states carry a freshness flag: a stay move peeks at
        # the current letter, committing it to the simulated machine, so
        # the handover into the anything-goes sink is only allowed from
        # fresh states where no peek is pending.
        sink = ("post",)
        transitions = []
        for t in me.transitions:
            dst_fresh = t.move == RIGHT
            for fresh in (True, False):
                transitions.append(replace(
                    t, src=(t.src, fresh), dst=(t.dst, dst_fresh)))
        for f in me.finals:
            for x in me.alphabet:
                for g in all_guards(k):
                    transitions.append(Transition(
                        (f, True), x, g, sink, RIGHT, (0,) * k))
        for x in me.alphabet:
            for g in all_guards(k):
                transitions.append(Transition(sink, x, g, sink, RIGHT, (0,) * k))
        finals = {(f, fresh) for f in me.finals for fresh in (True, False)}
        return build_machine(m.name + "_insuffix", k, me.l, me.alphabet,
                             (me.initial, True), finals | {sink}, transitions,
                             marked=False, deterministic=False)
    if mode == "suffix":
        skip = ("pre",)
        transitions = list(me.transitions)
        for x in me.alphabet:
            transitions.append(Transition(skip, x, ZERO * k, skip, RIGHT, (0,) * k))
        for t in me.transitions:
            if t.src == me.initial:
                transitions.append(replace(t, src=skip))
        finals = set(me.finals)
        if me.initial in me.finals:
            finals.add(skip)
        return build_machine(m.name + "_insprefix", k, me.l, me.alphabet, skip,
                             finals, transitions, marked=me.marked, deterministic=False)
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
    transitions = []
    for t in me.transitions:
        if t.symbol == EOT or t.move == RIGHT:
            flag_after = lambda fresh: True
        else:
            flag_after = lambda fresh: False
        if t.symbol == EOT:
            flag_after = lambda fresh: fresh
        for g in range(gaps + 1):
            for fresh in (True, False):
                transitions.append(replace(
                    t, src=(t.src, "sim", g, fresh),
                    dst=(t.dst, "sim", g, flag_after(fresh))))
            transitions.append(replace(
                t, src=(t.src, "gap", g),
                dst=(t.dst, "sim", g, t.move == RIGHT)))
    for q in me.states:
        for g in range(gaps):
            for x in me.alphabet:
                for gg in all_guards(k):
                    transitions.append(Transition(
                        (q, "sim", g, True), x, gg, (q, "gap", g + 1),
                        RIGHT, (0,) * k))
    for q in me.states:
        for g in range(1, gaps + 1):
            for x in me.alphabet:
                for gg in all_guards(k):
                    transitions.append(Transition(
                        (q, "gap", g), x, gg, (q, "gap", g), RIGHT, (0,) * k))
    finals = {(f, "sim", g, fresh) for f in me.finals
              for g in range(gaps + 1) for fresh in (True, False)}
    finals |= {(f, "gap", g) for f in me.finals for g in range(gaps + 1)}
    return build_machine(m.name + f"_embed{gaps}", k, me.l, me.alphabet,
                         (me.initial, "sim", 0, True), finals, transitions,
                         marked=me.marked, deterministic=False)
