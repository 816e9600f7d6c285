"""Seeded input generators.  Every machine is produced as text in the
`rbcm` file format; the program only ever sees these texts and words.

Families:

- `lr_text(R)`: the family L_R = { a^(R*R*p) b^(R*p) c^p : p >= 1 } as a
  deterministic two-counter machine with reversal budget 1 and 2R + 2
  states.  Each b costs R decrements of counter 1 (one consuming move
  and R - 1 stay moves) and each c costs R decrements of counter 2.
- `BlockSpec`: deterministic "block" machines over words
  x_0^(n_0) ... x_(m-1)^(n_(m-1)), all n_i >= 1, whose counters check
  equalities n_d = n_u + offset between block pairs, or a block-length
  sum modulo r (drained at the end of the tape, as in `mod_counter`).
  The offset is added by a stay move at the start, so these machines
  carry bounded stay increments.  A counter with budget l checks
  (l + 1) // 2 pairs; with l = 2 it also climbs once more unchecked.
  The spec itself is the language predicate.
- `rand_text`: random machines, wider than the test suite's generator:
  up to 6 states, up to 3 counters, budgets up to 3 and up to 3 letters.
  Stay moves that increment go forward in state order from states
  below a "drain zone"; stay moves inside the zone never increment and
  backward or self stays decrement counter 0.  So incrementing stays lie
  on no stay cycle, and every stay cycle decrements counter 0: all stay
  runs terminate.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

import reference

GUARDS = {k: ["".join(g) for g in itertools.product("zp", repeat=k)] for k in range(4)}


def _header(name, kind, marked, k, l, alphabet, states, initial, finals):
    return [
        f"machine {name}", f"kind {kind}",
        f"acceptance {'marked' if marked else 'unmarked'}",
        f"counters {k}", f"reversals {l}", "alphabet " + " ".join(alphabet),
        "states " + " ".join(states), f"initial {initial}",
        ("final " + " ".join(finals)).rstrip(),
    ]


def _deltas(ds):
    return " ".join(("+1" if d > 0 else str(d)) for d in ds) if ds else "-"


def lr_text(R: int) -> str:
    B = [f"B{i}" for i in range(1, R)] + ["Bd"]
    C = [f"C{i}" for i in range(1, R)] + ["Cd"]
    lines = _header(f"L_{R}", "dcm", True, 2, 1, "abc", ["A"] + B + C + ["F"],
                    "A", ["F"])
    lines += [
        "trans A a ** -> A R +1 0",
        f"trans A b pz -> {B[0]} R -1 +1",
        f"trans Bd b pp -> {B[0]} R -1 +1",
        f"trans Bd c zp -> {C[0]} R 0 -1",
        f"trans Cd c zp -> {C[0]} R 0 -1",
        "trans Cd $ zz -> F S 0 0",
    ]
    for i in range(R - 1):
        lines += [f"trans {B[i]} {x} p* -> {B[i + 1]} S -1 0" for x in "bc$"]
        lines += [f"trans {C[i]} {x} zp -> {C[i + 1]} S 0 -1" for x in "c$"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# block machines


@dataclass(frozen=True)
class BlockSpec:
    name: str
    letters: tuple          # x_0 .. x_(m-1), neighbours distinct
    l: int
    pairs: tuple            # (counter, u, d, offset): n_d == n_u + offset
    ups: tuple              # (counter, block): unchecked climb
    mod: tuple              # () or (counter, blocks, r): sum of n_b % r == 0
    k: int

    @property
    def alphabet(self):
        return tuple(sorted(set(self.letters)))

    def blocks(self, w):
        """Block lengths of w, or None when w has the wrong shape."""
        pat = "".join(f"({x}+)" for x in self.letters)
        got = re.fullmatch(pat, w)
        return None if got is None else [len(g) for g in got.groups()]

    def holds(self, ns):
        if any(ns[d] != ns[u] + off for _c, u, d, off in self.pairs):
            return False
        return not self.mod or sum(ns[b] for b in self.mod[1]) % self.mod[2] == 0

    def accepts(self, w):
        ns = self.blocks(w)
        return ns is not None and self.holds(ns)

    def small_bound(self):
        """If any block lengths satisfy the spec, some do with every n_i at
        most this bound.  The equalities n_d = n_u + offset split the
        blocks into classes that move together, one free value per class;
        adding r to every block of a class keeps all equalities and the
        sum modulo r, so the least free value that works is at most r,
        and the offsets along a chain add at most their sum."""
        r = self.mod[2] if self.mod else 1
        return r + sum(off for _c, _u, _d, off in self.pairs)

    def nonempty(self):
        """Decided from the spec alone by the small-solution bound above."""
        rng = range(1, self.small_bound() + 1)
        return any(self.holds(ns) for ns in itertools.product(rng, repeat=len(self.letters)))

    def text(self) -> str:
        m, k = len(self.letters), self.k
        step = [[0] * k for _ in range(m)]          # delta per letter of block i
        must_pos = [set() for _ in range(m)]        # counters decremented in block i
        zero_after = [set() for _ in range(m)]      # counters that end at zero after block i
        for c, u, d, _off in self.pairs:
            step[u][c] = 1
            step[d][c] = -1
            must_pos[d].add(c)
            zero_after[d].add(c)
        for c, b in self.ups:
            step[b][c] = 1
        if self.mod:
            for b in self.mod[1]:
                step[b][self.mod[0]] = 1
        offsets = [0] * k
        for c, u, _d, off in self.pairs:
            if u == min(uu for cc, uu, _dd, _oo in self.pairs if cc == c):
                offsets[c] = off
        trans = []

        def add(src, sym, dst, move, deltas, pos=(), zero=()):
            for g in GUARDS[k]:
                if any(g[c] != "p" for c in pos) or any(g[c] != "z" for c in zero):
                    continue
                trans.append(f"trans {src} {sym} {g or '-'} -> {dst} {move} {_deltas(deltas)}")

        states = ["s"] + [f"b{i}" for i in range(m)] + ["acc"]
        x0 = self.letters[0]
        # the first pair of a counter may start from its offset: a chain
        # of stay moves before the first letter is consumed
        start = "s"
        for j in range(1, max(offsets, default=0) + 1):
            states.append(f"s{j}")
            add(start, x0, f"s{j}", "S", [1 if offsets[c] >= j else 0 for c in range(k)],
                pos=[c for c in range(k) if offsets[c] >= j - 1 > 0],
                zero=[c for c in range(k) if min(offsets[c], j - 1) == 0])
            start = f"s{j}"
        add(start, x0, "b0", "R", step[0],
            pos=[c for c in range(k) if offsets[c]],
            zero=[c for c in range(k) if not offsets[c]])
        for i in range(m):
            add(f"b{i}", self.letters[i], f"b{i}", "R", step[i], pos=must_pos[i])
            if i + 1 < m:
                add(f"b{i}", self.letters[i + 1], f"b{i + 1}", "R", step[i + 1],
                    pos=must_pos[i + 1], zero=zero_after[i])
        last = f"b{m - 1}"
        if self.mod:
            c, _blocks, r = self.mod
            drain = [f"d{j}" for j in range(r)]
            states += drain
            zero_end = zero_after[m - 1]
            add(last, "$", drain[0], "S", [0] * k, zero=zero_end)
            for j in range(r):
                dec = [0] * k
                dec[c] = -1
                add(drain[j], "$", drain[(j + 1) % r], "S", dec, pos=[c])
            add(drain[0], "$", "acc", "S", [0] * k, zero=[c])
        else:
            add(last, "$", "acc", "S", [0] * k, zero=zero_after[m - 1])
        lines = _header(self.name, "dcm", True, k, self.l, self.alphabet,
                        states, "s", ["acc"])
        return "\n".join(lines + trans) + "\n"


SHAPES = ("pair1", "pair3", "up2", "mod1", "clash")


def block_spec(rng, name, shape) -> BlockSpec:
    """Seeded block machine of a fixed shape over a, b, c.  The seed picks
    which counter checks what; the letters, the number of blocks and
    counters and the offsets are fixed, because they set the cost (the
    exhaustive witness search meets the shortest word at a position that
    depends on the letters).

      "pair1"  abc, 1 counter, l=1: n_2 = n_0 + 1 (shortest word 4)
      "pair3"  abcab, 1 counter, l=3: n_1 = n_0 + 3, n_3 = n_2
               (shortest word 8, beyond the 6-letter probe)
      "up2"    abca, 2 counters, l=2: n_2 = n_0 + 3 plus an unchecked
               climb of the same counter (shortest word 7)
      "mod1"   abc, 2 counters, l=1: n_1 = n_0 and (n_0 + n_2) % 3 == 0
               (shortest word 4)
      "clash"  abc, 2 counters, l=1: n_2 = n_0 and n_2 = n_0 + 1, so the
               language is empty
    """
    c = rng.randint(0, 1)
    if shape == "pair1":
        return BlockSpec(name, tuple("abc"), 1, ((0, 0, 2, 1),), (), (), 1)
    if shape == "pair3":
        return BlockSpec(name, tuple("abcab"), 3, ((0, 0, 1, 3), (0, 2, 3, 0)), (), (), 1)
    if shape == "up2":
        return BlockSpec(name, tuple("abca"), 2, ((c, 0, 2, 3),), ((c, 3), (1 - c, 1)), (), 2)
    if shape == "mod1":
        return BlockSpec(name, tuple("abc"), 1, ((c, 0, 1, 0),), (), (1 - c, (0, 2), 3), 2)
    if shape == "clash":
        return BlockSpec(name, tuple("abc"), 1, ((c, 0, 2, 0), (1 - c, 0, 2, 1)), (), (), 2)
    raise ValueError(shape)


# ---------------------------------------------------------------------------
# random machines


def rand_text(rng, name, *, states, k, l, alphabet, marked, det=True,
              density=0.7) -> str:
    """Random machine with terminating, boundedly incrementing stays."""
    qs = [f"q{i}" for i in range(states)]
    zone = rng.randint(1, states)          # states >= zone form the drain zone
    finals = [q for q in qs if rng.random() < 0.4] or [rng.choice(qs)]
    syms = list(alphabet) + (["$"] if marked else [])
    lines = []
    for i, src in enumerate(qs):
        for sym in syms:
            for g in GUARDS[k]:
                fan = (1 if rng.random() < density else 0) if det else rng.choice((0, 1, 1, 2))
                used = set()
                for _ in range(fan):
                    stay = sym == "$" or rng.random() < 0.2
                    j = rng.randrange(states)
                    deltas = [0] * k
                    if not stay:
                        for c in range(k):
                            deltas[c] = rng.choice((0, 1, -1, 0) if g[c] == "p" else (0, 1, 0))
                    elif j > i:
                        # forward stay: may increment only from below the zone
                        inc_ok = i < zone
                        for c in range(k):
                            pool = [0, 0]
                            if g[c] == "p":
                                pool.append(-1)
                            if inc_ok:
                                pool.append(1)
                            deltas[c] = rng.choice(pool)
                    else:
                        # backward or self stay: inside the zone, drains counter 0
                        if k == 0 or g[0] != "p" or i < zone or j < zone:
                            j = None
                        else:
                            deltas[0] = -1
                            for c in range(1, k):
                                deltas[c] = rng.choice((0, -1) if g[c] == "p" else (0,))
                    if j is None:
                        continue
                    key = (j, stay, tuple(deltas))
                    if key in used:
                        continue
                    used.add(key)
                    lines.append(f"trans {src} {sym} {g or '-'} -> {qs[j]} "
                                 f"{'S' if stay else 'R'} {_deltas(deltas)}")
    head = _header(name, "dcm" if det else "ncm", marked, k, l, alphabet, qs,
                   qs[0], finals)
    return "\n".join(head + lines) + "\n"


def annotated_size(text):
    """(states, transitions) of the machine once its reversal budget is
    part of the state: reachable (state, per-counter direction and
    reversal count) triples, following transitions regardless of guards
    and dropping those that exceed the budget."""
    m = reference.parse(text)
    succ = {}
    for (src, _sym), ts in m.trans.items():
        succ.setdefault(src, []).extend((dst, deltas) for _g, dst, _s, deltas, _o in ts)
    start = (m.initial, (0,) * m.k, (0,) * m.k)
    seen, todo = {start}, [start]
    edges = 0
    while todo:
        q, dirs, revs = todo.pop()
        for dst, deltas in succ.get(q, ()):
            nd, nr = list(dirs), list(revs)
            for i, d in enumerate(deltas):
                if d and nd[i] not in (0, d):
                    nr[i] += 1
                if d:
                    nd[i] = d
            if m.l is not None and any(r > m.l for r in nr):
                continue
            edges += 1
            nxt = (dst, tuple(nd), tuple(nr))
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return len(seen), edges


def rand_sized(rng, name, size, draws=16, **shape) -> str:
    """Of `draws` random machines, the one whose annotated size (states,
    transitions) is nearest to `size`.  A fixed number of draws keeps the
    set-up work the same for every seed."""
    def distance(text):
        return max(abs(g - s) / s for g, s in zip(annotated_size(text), size))
    return min((rand_text(rng, name, **shape) for _ in range(draws)), key=distance)


def relabel(rng, text, name) -> str:
    """The same machine under a seeded renaming of its states, order of its
    counters and order of its transition lines: another text with the
    same structure, and so the same cost for every operation."""
    head, trans = [], []
    for line in text.splitlines():
        (trans if line.startswith("trans ") else head).append(line.split())
    states = next(tok[1:] for tok in head if tok[0] == "states")
    k = int(next(tok[1] for tok in head if tok[0] == "counters"))
    names = [f"q{i}" for i in range(len(states))]
    rng.shuffle(names)
    ren = dict(zip(states, names))
    perm = list(range(k))
    rng.shuffle(perm)                       # new counter j is old counter perm[j]
    out = []
    for tok in head:
        if tok[0] == "machine":
            tok = ["machine", name]
        elif tok[0] in ("states", "initial", "final"):
            tok = [tok[0]] + [ren[q] for q in tok[1:]]
        out.append(" ".join(tok))
    lines = []
    for tok in trans:
        _t, src, sym, guard, arrow, dst, move, *rest = tok
        if k:
            guard = "".join(guard[perm[j]] for j in range(k))
            rest = [rest[perm[j]] for j in range(k)] + rest[k:]
        lines.append(" ".join(["trans", ren[src], sym, guard, arrow, ren[dst], move, *rest]))
    rng.shuffle(lines)
    return "\n".join(out + lines) + "\n"


# ---------------------------------------------------------------------------
# long words


def flip(rng, word, lo_frac, choices):
    """Change one letter at a seeded position in [lo_frac * n, n) to
    another letter from `choices` (the near-miss of a long word)."""
    n = len(word)
    i = rng.randrange(int(lo_frac * n), n)
    alts = [x for x in choices if x != word[i]]
    return word[:i] + rng.choice(alts) + word[i + 1:]


def neq_word(rng, pairs, extra):
    """#v# with `pairs` a's and b's each, `extra` more a's and some #'s
    spread at seeded positions; the end-of-tape drain runs `pairs` steps."""
    body = ["a"] * (pairs + extra) + ["b"] * pairs + ["#"] * (pairs // 4)
    rng.shuffle(body)
    return "#" + "".join(body) + "#"
