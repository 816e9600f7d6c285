"""Plain-text format for machines and transducers.

Layout (one directive per line; `#` starts a comment only at the start
of a line; blank lines are ignored):

    machine <name>
    kind dcm | ncm | transducer
    acceptance marked | unmarked
    counters <k>
    reversals <l> | inf
    alphabet <sym> <sym> ...
    outalphabet <sym> ...          (transducers only)
    states <name> <name> ...
    initial <name>
    final [<name> ...]
    trans <src> <sym> <guard> -> <dst> S|R <delta> ... [output "<word>"]

The end-of-tape marker is written `$`.  A guard is one character per
counter: `z` (zero), `p` (positive) or `*` (either; the line expands to
all combinations).  With zero counters both the guard and the delta list
are written as a single `-`.
"""

from __future__ import annotations

import itertools

from .errors import ParseError
from .machine import EOT, POS, RIGHT, STAY, ZERO, CounterMachine, Transition
from .transducer import CounterTransducer

_HEADERS = ("machine", "kind", "acceptance", "counters", "reversals",
            "alphabet", "outalphabet", "states", "initial", "final")


def _expand_guard(guard, k, line):
    if k == 0:
        if guard != "-":
            raise ParseError(line, f"guard must be '-' with zero counters, got {guard!r}")
        return [""]
    if len(guard) != k:
        raise ParseError(line, f"guard {guard!r} needs {k} characters")
    for ch in guard:
        if ch not in (ZERO, POS, "*"):
            raise ParseError(line, f"bad guard character {ch!r}")
    choices = (ZERO + POS if ch == "*" else ch for ch in guard)
    return ["".join(c) for c in itertools.product(*choices)]


def _parse_tail(rest, k, line):
    """(deltas, output) from the tokens after the move."""
    if k == 0:
        if not rest or rest[0] != "-":
            raise ParseError(line, "expected '-' as the delta list with zero counters")
        deltas = ()
        rest = rest[1:]
    else:
        if len(rest) < k:
            raise ParseError(line, f"expected {k} counter deltas")
        try:
            deltas = tuple(int(x) for x in rest[:k])
        except ValueError:
            raise ParseError(line, f"bad counter delta in {rest[:k]!r}") from None
        rest = rest[k:]
    output = ""
    if rest:
        if len(rest) != 2 or rest[0] != "output":
            raise ParseError(line, f"unexpected trailing tokens {rest!r}")
        word = rest[1]
        if len(word) < 2 or word[0] != '"' or word[-1] != '"':
            raise ParseError(line, "output word must be double-quoted")
        output = word[1:-1]
    return deltas, output


def parse_machine(text: str):
    """Parse the text format; returns a CounterMachine or CounterTransducer.
    Exact repeats of a transition are dropped before determinism is decided."""
    fields = {}
    lines = text.splitlines()
    trans_lines = []    # line numbers; the lines are split in the second pass
    for lineno, raw in enumerate(lines, start=1):
        if raw.startswith("trans") and raw[5:6].isspace():
            trans_lines.append(lineno)
            continue
        tokens = [] if raw.startswith("#") else raw.split()
        if not tokens:
            continue
        head = tokens[0]
        if head == "trans":
            trans_lines.append(lineno)
        elif head in _HEADERS:
            if head in fields:
                raise ParseError(lineno, f"duplicate {head} line")
            fields[head] = (lineno, tokens[1:])
        else:
            raise ParseError(lineno, f"unknown directive {head!r}")

    def need(name):
        if name not in fields:
            raise ParseError(0, f"missing {name} line")
        return fields[name]

    ln, vals = need("machine")
    if len(vals) != 1:
        raise ParseError(ln, "machine line needs exactly one name")
    name = vals[0]
    ln, vals = fields.get("kind", (0, ["ncm"]))
    if vals not in (["dcm"], ["ncm"], ["transducer"]):
        raise ParseError(ln, f"kind must be dcm, ncm or transducer, got {vals!r}")
    kind = vals[0]
    ln, vals = need("acceptance")
    if vals not in (["marked"], ["unmarked"]):
        raise ParseError(ln, "acceptance must be marked or unmarked")
    marked = vals == ["marked"]
    ln, vals = need("counters")
    try:
        k = int(vals[0]) if len(vals) == 1 else None
    except ValueError:
        k = None
    if k is None or k < 0:
        raise ParseError(ln, "counters needs one non-negative integer")
    ln, vals = need("reversals")
    if vals == ["inf"]:
        l = None
    else:
        try:
            l = int(vals[0]) if len(vals) == 1 else None
        except ValueError:
            l = None
        if l is None or l < 0:
            raise ParseError(ln, "reversals needs one non-negative integer or inf")
    ln, vals = need("alphabet")
    for sym in vals:
        if len(sym) != 1:
            raise ParseError(ln, f"alphabet symbol {sym!r} must be a single character")
        if sym == EOT:
            raise ParseError(ln, "the end-of-tape marker cannot be an input symbol")
    alphabet = tuple(vals)
    ln, vals = need("states")
    if not vals:
        raise ParseError(ln, "states line needs at least one name")
    states = frozenset(vals)
    ln, vals = need("initial")
    if len(vals) != 1:
        raise ParseError(ln, "initial line needs exactly one name")
    initial = vals[0]
    finals = frozenset(need("final")[1])

    transitions = []
    first = {}     # (src, symbol, guard) -> its first transition
    shared = {}    # a key of more than one line -> its distinct transitions
    guards, tails = {}, {}
    for lineno in trans_lines:
        # trans, src, sym, guard, ->, dst, move and the rest of the line
        tokens = lines[lineno - 1].split(None, 7)
        if len(tokens) < 7 or tokens[4] != "->":
            raise ParseError(lineno, "expected: trans <src> <sym> <guard> -> <dst> S|R <deltas>")
        rest = tokens.pop() if len(tokens) == 8 else ""
        _, src, sym, guard, _, dst, move = tokens
        if len(sym) != 1:
            raise ParseError(lineno, f"symbol {sym!r} must be a single character")
        if move != STAY and move != RIGHT:
            raise ParseError(lineno, f"move must be S or R, got {move!r}")
        deltas, output = tails.get(rest) or tails.setdefault(
            rest, _parse_tail(rest.split(), k, lineno))
        expanded = guards.get(guard) or guards.setdefault(guard, _expand_guard(guard, k, lineno))
        if src not in states or dst not in states:
            raise ParseError(lineno, f"unknown state {dst if src in states else src!r}")
        for g in expanded:
            t = Transition(src, sym, g, dst, move, deltas, output)
            have = first.setdefault((src, sym, g), t)
            if have is not t:
                same = shared.setdefault((src, sym, g), {have})
                if t in same:
                    continue
                same.add(t)
            transitions.append(t)
    keys_unique = all(len(same) == 1 for same in shared.values())
    if kind == "dcm" and not keys_unique:
        raise ParseError(0, "kind dcm but transitions are nondeterministic")
    deterministic = keys_unique if kind == "transducer" else kind == "dcm"
    m = CounterMachine(
        name=name, k=k, l=l, states=states, alphabet=alphabet,
        initial=initial, finals=finals, transitions=tuple(transitions),
        marked=marked, deterministic=deterministic)
    if kind == "transducer":
        if "outalphabet" not in fields:
            raise ParseError(0, "transducers need an outalphabet line")
        ln, vals = fields["outalphabet"]
        for sym in vals:
            if len(sym) != 1:
                raise ParseError(ln, f"output symbol {sym!r} must be a single character")
        return CounterTransducer(m, tuple(vals))
    if "outalphabet" in fields:
        raise ParseError(fields["outalphabet"][0],
                         "outalphabet is only allowed for transducers")
    return m


def _state_names(m: CounterMachine):
    """Stable printable names; composite states get sequential names."""
    if all(isinstance(q, str) and q.split() == [q] for q in m.states):
        return {q: q for q in m.states}
    return {q: f"s{i}" for i, q in enumerate(sorted(m.states, key=repr))}


def serialize_machine(obj) -> str:
    """Canonical text form of a machine or transducer."""
    if isinstance(obj, CounterTransducer):
        m, out_alphabet = obj.machine, obj.out_alphabet
    else:
        m, out_alphabet = obj, None
    names = _state_names(m)
    lines = [
        f"machine {m.name if m.name and not any(c.isspace() for c in m.name) else 'machine'}",
        f"kind {'transducer' if out_alphabet is not None else ('dcm' if m.deterministic else 'ncm')}",
        f"acceptance {'marked' if m.marked else 'unmarked'}",
        f"counters {m.k}",
        f"reversals {'inf' if m.l is None else m.l}",
        "alphabet " + " ".join(m.alphabet),
    ]
    if out_alphabet is not None:
        lines.append("outalphabet " + " ".join(out_alphabet))
    lines.append("states " + " ".join(sorted(names.values())))
    lines.append(f"initial {names[m.initial]}")
    lines.append(("final " + " ".join(sorted(names[f] for f in m.finals))).rstrip())
    k = m.k
    spelled = {}    # deltas -> their text
    no_output = ' output ""' if out_alphabet is not None else ""
    body = set()
    for src, symbol, guard, dst, move, deltas, output in m.transitions:
        text = spelled.get(deltas)
        if text is None:
            text = spelled[deltas] = " ".join(map(str, deltas)) if k else "-"
        body.add(f"trans {names[src]} {symbol} {guard if k else '-'} -> "
                 f"{names[dst]} {move} {text}"
                 + (f' output "{output}"' if output else no_output))
    lines.extend(sorted(body))
    return "\n".join(lines) + "\n"
