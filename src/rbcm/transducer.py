"""Counter transducers: machines whose transitions emit output words.

Supports deterministic transduction, the inverse image of a machine
language under a transducer, and the forward image of the transducer's
domain as a nondeterministic machine over the output alphabet.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import AlphabetMismatch, NondeterministicInput, PreconditionViolated
from .machine import (
    EOT, RIGHT, STAY,
    CounterMachine, Transition, _index, all_guards, build_machine,
    combine_budgets, enforce_reversal_control, run_deterministic,
    validate_machine,
)


@dataclass(frozen=True)
class CounterTransducer:
    machine: CounterMachine
    out_alphabet: tuple


def validate_transducer(t: CounterTransducer) -> list:
    """Structural checks; returns human-readable violations."""
    errs = list(validate_machine(t.machine))
    for sym in t.out_alphabet:
        if not isinstance(sym, str) or len(sym) != 1:
            errs.append(f"output symbol {sym!r} is not a single character")
    out = set(t.out_alphabet)
    for tr in t.machine.transitions:
        for ch in tr.output:
            if ch not in out:
                errs.append(
                    f"transition {tr.src!r} --{tr.symbol}--> emits foreign "
                    f"symbol {ch!r}")
    if t.machine.deterministic:
        for tr in t.machine.transitions:
            if tr.symbol == EOT and tr.src in t.machine.finals:
                errs.append(
                    f"end-of-tape transition out of final state {tr.src!r} "
                    "makes deterministic output ambiguous")
    return errs


def to_null_transducer(t) -> CounterTransducer:
    """Same domain, but every transition emits nothing.

    Accepts a transducer or a bare machine (treated as a transducer whose
    transitions all emit the empty word).  End-of-tape transitions out of
    final states are dropped; runs are already accepted when they first
    reach a final state at the end of input, so the language is unchanged.
    """
    if isinstance(t, CounterMachine):
        t = CounterTransducer(t, ())
    m = t.machine
    transitions = tuple(
        Transition(tr.src, tr.symbol, tr.guard, tr.dst, tr.move, tr.deltas)
        for tr in m.transitions
        if not (tr.symbol == EOT and tr.src in m.finals))
    return CounterTransducer(replace(m, transitions=transitions), t.out_alphabet)


def transduce_det(t: CounterTransducer, word: str):
    """Output word for `word`, or None when the input is not accepted."""
    m = t.machine
    if not m.deterministic:
        raise NondeterministicInput("transduce_det needs a deterministic machine")
    problems = [e for e in validate_transducer(t) if "ambiguous" in e]
    if problems:
        raise PreconditionViolated("; ".join(problems))
    trace = run_deterministic(m, word)
    if trace.verdict != "accept":
        return None
    return "".join([t.output * count for _s, _c, _n, _b, t, count in trace.steps.runs
                    if t is not None])


def inverse_apply(t: CounterTransducer, a: CounterMachine) -> CounterMachine:
    """Machine for { w : t(w) is defined and lies in L(a) }.

    The product runs the transducer on the real input.  Emitted letters
    sit in a bounded buffer (a suffix of one output word); the acceptor
    must drain the buffer before the transducer moves again.  A seal move
    at the end of input fixes the moment the acceptor sees its own end of
    input, after which only the acceptor's end-of-input moves run.
    """
    if tuple(a.alphabet) != tuple(t.out_alphabet):
        raise AlphabetMismatch(
            "acceptor alphabet must equal the transducer output alphabet")
    mt = enforce_reversal_control(t.machine)
    ma = enforce_reversal_control(a)
    it, ia = _index(mt), _index(ma)
    kt, ka = mt.k, ma.k
    zt, za = (0,) * kt, (0,) * ka
    in_syms = tuple(mt.alphabet) + (EOT,)
    init = (mt.initial, "", ma.initial, False)

    def moves(st):
        qt, buf, qa, sealed = st
        out = []
        if sealed:
            for ga in all_guards(ka):
                for tr in ia.get((qa, EOT), {}).get(ga, ()):
                    dst, deltas = (qt, "", tr.dst, True), zt + tr.deltas
                    for gt in all_guards(kt):
                        out.append(Transition(st, EOT, gt + ga, dst, STAY, deltas))
            return out
        if buf:
            for ga in all_guards(ka):
                for tr in ia.get((qa, buf[0]), {}).get(ga, ()):
                    dst = (qt, buf[1:] if tr.move == RIGHT else buf, tr.dst, False)
                    deltas = zt + tr.deltas
                    for gt in all_guards(kt):
                        for x in in_syms:
                            out.append(Transition(st, x, gt + ga, dst, STAY, deltas))
            return out
        for sym in in_syms:
            for gt in all_guards(kt):
                for _, _, _, t_dst, move, deltas, output in it.get((qt, sym), {}).get(gt, ()):
                    dst, deltas = (t_dst, output, qa, False), deltas + za
                    for ga in all_guards(ka):
                        out.append(Transition(st, sym, gt + ga, dst, move, deltas))
        if qt in mt.finals:
            for gt in all_guards(kt):
                for ga in all_guards(ka):
                    out.append(Transition(st, EOT, gt + ga, (qt, "", qa, True), STAY, zt + za))
        return out

    return build_machine(
        t.machine.name + "_invapply", kt + ka,
        combine_budgets(t.machine.l, a.l), mt.alphabet, init,
        lambda s: s[3] and not s[1] and s[2] in ma.finals, moves,
        marked=True, deterministic=False)


def forward_image_ncm(t: CounterTransducer) -> CounterMachine:
    """Machine over the output alphabet for { t(w) : w accepted by t }.

    The input word of the transducer is guessed one symbol at a time;
    each guessed step's emission must match the real input letter by
    letter (buffered between steps).
    """
    mt = enforce_reversal_control(t.machine)
    it = _index(mt)
    kt = mt.k
    out_syms = tuple(t.out_alphabet)
    stay_syms = out_syms + (EOT,)
    init = (mt.initial, "", "r")

    def moves(st):
        qt, buf, phase = st
        if buf:
            return [Transition(st, buf[0], gt, (qt, buf[1:], phase), RIGHT, (0,) * kt)
                    for gt in all_guards(kt)]
        out = []
        guessable = tuple(mt.alphabet) + (EOT,) if phase == "r" else (EOT,)
        for sym in guessable:
            nphase = "e" if sym == EOT else "r"
            for gt in all_guards(kt):
                for tr in it.get((qt, sym), {}).get(gt, ()):
                    if tr.output:
                        out.append(Transition(st, tr.output[0], gt,
                                              (tr.dst, tr.output[1:], nphase), RIGHT, tr.deltas))
                    else:
                        for x in stay_syms:
                            out.append(Transition(st, x, gt, (tr.dst, "", nphase),
                                                  STAY, tr.deltas))
        return out

    return build_machine(
        t.machine.name + "_image", kt, t.machine.l, out_syms, init,
        lambda s: not s[1] and s[0] in mt.finals, moves, deterministic=False)
