"""Reference semantics for checking the benchmark's outputs.

Everything here is written from the definitions in the file format and
the acceptance condition alone and imports nothing from `rbcm`:

- `parse` reads the text format into plain tuples;
- `language` lists the accepted words up to a length by a breadth-first
  search over configurations (word read so far, symbol under the head,
  state, counters, per-counter direction and reversal count);
- `member` runs the same search for one word;
- `outputs` lists the output words of a transducer's accepting runs;
- the predicates describe the input families as plain Python, and the
  `*_def` functions give the language an operation must produce.

Counter bound.  A stay transition that increments a counter and lies on
no cycle of stay moves (for its symbol) can fire at most once between
two consuming moves, because a walk that used it twice would contain a
cycle through it.  When every incrementing stay transition is of that
kind, a run on a word of length n keeps every counter at most
n + (n + 1) * s, where s is the number of incrementing stay
transitions, so the configuration space is finite and the search is
exact.  For machines without that property the caller passes a counter
cap, and the result only under-approximates the language.
"""

from __future__ import annotations

import itertools
import re
from collections import deque
from typing import NamedTuple

EOT = "$"


class Machine(NamedTuple):
    name: str
    k: int
    l: object            # int, or None for "inf"
    alphabet: tuple
    initial: str
    finals: frozenset
    # (state, symbol) -> [(guard tuple of bools "positive", dst, stays, deltas, output)]
    trans: dict
    stay_incs: int       # number of incrementing stay transitions
    bounded: bool        # True when no incrementing stay lies on a stay cycle


def _expand(guard, k):
    if k == 0:
        return [()]
    opts = []
    for ch in guard:
        opts.append({"z": (False,), "p": (True,), "*": (False, True)}[ch])
    return list(itertools.product(*opts))


def parse(text: str) -> Machine:
    head = {}
    rows = []
    for raw in text.splitlines():
        if raw.startswith("#") or not raw.split():
            continue
        tok = raw.split()
        if tok[0] == "trans":
            rows.append(tok[1:])
        else:
            head[tok[0]] = tok[1:]
    k = int(head["counters"][0])
    l = None if head["reversals"] == ["inf"] else int(head["reversals"][0])
    trans = {}
    stays = []
    for tok in rows:
        src, sym, guard, _arrow, dst, move = tok[:6]
        rest = tok[6:]
        deltas = () if k == 0 else tuple(int(x) for x in rest[:k])
        rest = rest[1:] if k == 0 else rest[k:]
        output = rest[1][1:-1] if rest else ""
        for g in _expand(guard, k):
            trans.setdefault((src, sym), []).append(
                (g, dst, move == "S", deltas, output))
        if move == "S":
            stays.append((src, sym, dst, any(d > 0 for d in deltas)))
    # an incrementing stay u -> v lies on a stay cycle iff v reaches u
    succ = {}
    for src, sym, dst, _inc in stays:
        succ.setdefault(sym, {}).setdefault(src, set()).add(dst)
    bounded = True
    incs = 0
    for src, sym, dst, inc in stays:
        if not inc:
            continue
        incs += 1
        seen, todo = {dst}, [dst]
        while todo:
            u = todo.pop()
            for v in succ[sym].get(u, ()):
                if v not in seen:
                    seen.add(v)
                    todo.append(v)
        if src in seen:
            bounded = False
    return Machine(
        name=head["machine"][0], k=k, l=l, alphabet=tuple(head["alphabet"]),
        initial=head["initial"][0], finals=frozenset(head.get("final", ())),
        trans=trans, stay_incs=incs, bounded=bounded)


def counter_bound(m: Machine, n: int) -> int:
    return n + (n + 1) * m.stay_incs


def _moves(m, state, look, counters, dirs, revs):
    """Successors after one transition: (dst, stays, counters, dirs, revs, output)."""
    status = tuple(c > 0 for c in counters)
    for guard, dst, stays, deltas, output in m.trans.get((state, look), ()):
        if guard != status:
            continue
        nd, nr = list(dirs), list(revs)
        ok = True
        for i, d in enumerate(deltas):
            if d == 0:
                continue
            if nd[i] not in (0, d):
                nr[i] += 1          # direction switch: one reversal
                if m.l is not None and nr[i] > m.l:
                    ok = False
                    break
            nd[i] = d
        if not ok:
            continue
        yield (dst, stays, tuple(c + d for c, d in zip(counters, deltas)),
               tuple(nd), tuple(nr), output)


def _search(m, nexts, extend, n, cap, with_output=False, node_cap=3_000_000):
    """Shared breadth-first search from the empty prefix.  A prefix is an
    opaque handle: `nexts(h)` gives the letters that may follow it and
    `extend(h, x)` the handle after reading x.  Returns {handle: set of
    outputs} for the accepted prefixes (outputs only when asked)."""
    if cap is None:
        if not m.bounded:
            raise ValueError(f"{m.name}: no derived counter bound; pass a cap")
        cap = counter_bound(m, n)
        strict = True
    else:
        strict = False
    zero = (0,) * m.k
    accepted = {}
    seen = set()
    queue = deque()

    def fork(h, state, counters, dirs, revs, out):
        queue.append((h, EOT, state, counters, dirs, revs, out))
        for x in nexts(h):
            queue.append((h, x, state, counters, dirs, revs, out))

    fork(extend(None, None), m.initial, zero, zero, zero, "")
    while queue:
        cfg = queue.popleft()
        if cfg in seen:
            continue
        seen.add(cfg)
        if len(seen) > node_cap:
            raise RuntimeError(f"{m.name}: reference search exceeded {node_cap} nodes")
        h, look, state, counters, dirs, revs, out = cfg
        if look == EOT and state in m.finals:
            accepted.setdefault(h, set()).add(out)
        for dst, stays, nc, nd, nr, o in _moves(m, state, look, counters, dirs, revs):
            if max(nc, default=0) > cap:
                if strict:
                    raise AssertionError(f"{m.name}: counter bound {cap} broken")
                continue
            no = out + o if with_output else ""
            if stays:
                queue.append((h, look, dst, nc, nd, nr, no))
            else:
                fork(extend(h, look), dst, nc, nd, nr, no)
    return accepted


def language(m: Machine, n: int, cap=None) -> set:
    """Accepted words of length <= n (exact unless `cap` is given)."""
    return set(_search(
        m, lambda w: m.alphabet if len(w) < n else (),
        lambda w, x: "" if w is None else w + x, n, cap))


def _run_word(m, word, cap, with_output):
    return _search(
        m, lambda i: (word[i],) if i < len(word) else (),
        lambda i, _x: 0 if i is None else i + 1, len(word), cap, with_output)


def member(m: Machine, word: str, cap=None) -> bool:
    if any(ch not in m.alphabet for ch in word):
        return False
    return len(word) in _run_word(m, word, cap, False)


def outputs(m: Machine, word: str) -> set:
    """Output words of the accepting runs of a transducer on `word`."""
    if any(ch not in m.alphabet for ch in word):
        return set()
    return _run_word(m, word, None, True).get(len(word), set())


def words_upto(alphabet, n):
    for size in range(n + 1):
        for tup in itertools.product(sorted(alphabet), repeat=size):
            yield "".join(tup)


# ---------------------------------------------------------------------------
# language predicates of the input families


def is_anbn(w, least=0):
    n = len(w) // 2
    return n >= least and w == "a" * n + "b" * n


def is_neq(w):
    """#v# with v over {a,b,#} and a different number of a's and b's."""
    return (len(w) >= 2 and w[0] == "#" and w[-1] == "#"
            and w[1:-1].count("a") != w[1:-1].count("b"))


def is_even(w):
    return set(w) <= {"a"} and len(w) % 2 == 0


def is_lr(w, R):
    """a^(R*R*p) b^(R*p) c^p for some p >= 1."""
    got = re.fullmatch(r"(a*)(b*)(c*)", w)
    if not got:
        return False
    na, nb, nc = (len(x) for x in got.groups())
    return nc >= 1 and nb == R * nc and na == R * R * nc


def lr_word(R, p):
    return "a" * (R * R * p) + "b" * (R * p) + "c" * p


def has_factor_neq(w):
    """Some factor #v# of w has a different number of a's and b's."""
    marks = [i for i, ch in enumerate(w) if ch == "#"]
    diff = [0]
    for ch in w:
        diff.append(diff[-1] + (ch == "a") - (ch == "b"))
    return any(diff[j] != diff[i + 1] for x, i in enumerate(marks) for j in marks[x + 1:])


def outfix_anbn(w):
    """w = u x v with u v = a^n b^n, n >= 1 (x may be empty)."""
    n = len(w)
    ab = re.compile(r"a*b*")
    heads = [p for p in range(n + 1) if ab.fullmatch(w, 0, p)]
    tails = [s for s in range(n + 1) if ab.fullmatch(w, n - s, n)]
    for p in heads:
        u = w[:p]
        for s in tails:
            if p + s > n:
                break
            v = w[n - s:]
            if "b" in u and "a" in v:
                continue
            a = u.count("a") + v.count("a")
            if a >= 1 and a == u.count("b") + v.count("b"):
                return True
    return False


def outfix_neq(w):
    """w = u x v with u v = #y#, y over {a,b,#} with unequal a/b counts."""
    n = len(w)
    pre = [0]
    for ch in w:
        pre.append(pre[-1] + (ch == "a") - (ch == "b"))
    for p in range(n + 1):
        for s in range(n - p + 1):
            if p + s < 2:
                continue
            first = w[0] if p else w[n - s]
            last = w[n - 1] if s else w[p - 1]
            if first != "#" or last != "#":
                continue
            total = pre[p] + pre[n] - pre[n - s]
            if total != 0:
                return True
    return False


# ---------------------------------------------------------------------------
# definitions of the operations over explicit finite languages


def prefix_def(lang, w):
    return any(w[:i] in lang for i in range(len(w) + 1))


def suffix_def(lang, w):
    return any(w[i:] in lang for i in range(len(w) + 1))


def infix_def(lang, w):
    return any(w[i:j] in lang for i in range(len(w) + 1) for j in range(i, len(w) + 1))


def embed_def(lang, w, gaps):
    """w with at most `gaps` factors deleted lies in lang."""
    if w in lang:
        return True
    if gaps == 0:
        return False
    for i in range(len(w)):
        for j in range(i + 1, len(w) + 1):
            if embed_def_after(lang, w[:i], w[j:], gaps - 1):
                return True
    return False


def embed_def_after(lang, head, tail, gaps):
    """head + (tail with at most `gaps` factors deleted) lies in lang."""
    if head + tail in lang:
        return True
    if gaps == 0:
        return False
    for i in range(len(tail)):
        for j in range(i + 1, len(tail) + 1):
            if embed_def_after(lang, head + tail[:i], tail[j:], gaps - 1):
                return True
    return False


def concat_def(lang1, lang2, w):
    return any(w[:i] in lang1 and w[i:] in lang2 for i in range(len(w) + 1))


def embed_member(m: Machine, word: str, gaps: int) -> bool:
    """Is `word` in the language with at most `gaps` non-empty factors
    inserted?  Breadth-first search over configurations of `m` with two
    extra components: gaps opened so far and whether a gap is open.  A
    gap may open only between two moves of `m` that consume input, since
    a stay move reads the letter under the head."""
    if any(ch not in m.alphabet for ch in word):
        return False
    n = len(word)
    cap = counter_bound(m, n) if m.bounded else None
    if cap is None:
        raise ValueError(f"{m.name}: no derived counter bound")
    zero = (0,) * m.k
    seen = set()
    queue = deque()

    def fresh(pos, state, counters, dirs, revs, used):
        # head on a fresh letter (or at the end): keep simulating, or open a gap
        queue.append((pos, False, state, counters, dirs, revs, used))
        if pos < n and used < gaps:
            queue.append((pos + 1, True, state, counters, dirs, revs, used + 1))

    fresh(0, m.initial, zero, zero, zero, 0)
    while queue:
        cfg = queue.popleft()
        if cfg in seen:
            continue
        seen.add(cfg)
        pos, in_gap, state, counters, dirs, revs, used = cfg
        if in_gap:
            if pos < n:
                queue.append((pos + 1, True, state, counters, dirs, revs, used))
            queue.append((pos, False, state, counters, dirs, revs, used))
            continue
        look = word[pos] if pos < n else EOT
        if look == EOT and state in m.finals:
            return True
        for dst, stays, nc, nd, nr, _o in _moves(m, state, look, counters, dirs, revs):
            if max(nc, default=0) > cap:
                raise AssertionError(f"{m.name}: counter bound {cap} broken")
            if stays:
                queue.append((pos, False, dst, nc, nd, nr, used))
            else:
                fresh(pos + 1, dst, nc, nd, nr, used)
    return False
