"""Independent reference implementations used as test oracles.

`naive_member` is a breadth-first configuration search written from the
acceptance definition alone; it shares no code with the engine under
test.  It is exact for machines whose stay transitions never increase a
counter (all bundled and generated machines satisfy this), because then
counter values are bounded by the word length and the configuration
space is finite.

`lasso_run` is the deterministic run with the full stay-segment lasso
scan, the reference for `machine.run_deterministic`'s verdicts, traces
and divergence certificates.

`min_scan_paths` is state elimination that picks each node by a scan over
every remaining one, on its own semilinear-set algebra whose `pairwise_dedup`
compares every component with every other: the reference for
`decide._parikh_paths` and `decide.sl_dedup`, results and order alike.

`fm_feasible` is Fourier-Motzkin elimination, the reference for
`decide.rational_feasible`; `stay_cycles_terminate` enumerates the simple
stay cycles and decides their cone with it, the reference for
`constructions.stay_runs_terminate`.
"""

from __future__ import annotations

import itertools
from collections import deque, namedtuple
from math import gcd

from rbcm.machine import DIR_DOWN, DIR_NONE, DIR_UP, EOT, POS, RIGHT, STAY, ZERO


def words_upto(alphabet, max_len):
    for n in range(max_len + 1):
        for tup in itertools.product(sorted(alphabet), repeat=n):
            yield "".join(tup)


def _bump(entry, delta):
    d, used = entry
    if delta == 0:
        return entry
    want = DIR_UP if delta > 0 else DIR_DOWN
    if d == want:
        return entry
    if d == DIR_NONE:
        return (want, used)
    return (want, used + 1)


def naive_member(m, word, node_cap=2_000_000):
    """Breadth-first search for an accepting configuration."""
    for t in m.transitions:
        if t.move == STAY and any(d > 0 for d in t.deltas):
            raise ValueError("oracle needs stay transitions with deltas <= 0")
    start = (m.initial, 0, (0,) * m.k, ((DIR_NONE, 0),) * m.k)
    seen = {start}
    queue = deque([start])
    nodes = 0
    while queue:
        state, pos, counters, budgets = queue.popleft()
        if pos == len(word) and state in m.finals:
            return True
        nodes += 1
        if nodes > node_cap:
            raise RuntimeError("oracle node budget exceeded")
        symbol = word[pos] if pos < len(word) else EOT
        for t in m.transitions:
            if t.src != state or t.symbol != symbol:
                continue
            if any((g == "z") != (c == 0) for g, c in zip(t.guard, counters)):
                continue
            nb = tuple(_bump(e, d) for e, d in zip(budgets, t.deltas))
            if m.l is not None and any(u > m.l for _, u in nb):
                continue
            nxt = (
                t.dst,
                pos + (1 if t.move == RIGHT else 0),
                tuple(c + d for c, d in zip(counters, t.deltas)),
                nb,
            )
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return False


def lasso_run(m, word, step_cap=20_000):
    """Run a deterministic machine, rescanning the stay segment each step.

    Returns (verdict, steps, certificate).  `steps` holds one
    (state, consumed, counters, budgets, transition or None) tuple per
    configuration.  The run diverges at the first step t2 that has an
    earlier step t1 in the same stay segment (no input consumed since t1)
    with the same state, guard pattern and budgets, where no counter is
    smaller at t2 and every strictly growing counter is positive at every
    step of [t1, t2]; the certificate is (t1, t2, growth) for the earliest
    such t1.  Budgets keep directions only (used stays 0) when l is None.
    Raises RuntimeError past `step_cap` steps.
    """
    state, pos, counters = m.initial, 0, (0,) * m.k
    budgets = ((DIR_NONE, 0),) * m.k
    steps = []
    seg_start = 0

    def guard(cs):
        return "".join(POS if c > 0 else ZERO for c in cs)

    while True:
        t2 = len(steps)
        if t2 > step_cap:
            raise RuntimeError("lasso_run step cap exceeded")
        here = (state, pos, counters, budgets)
        if pos == len(word) and state in m.finals:
            return "accept", steps + [here + (None,)], None
        for t1 in range(seg_start, t2):
            s1, _, c1, b1, _ = steps[t1]
            if (s1, guard(c1), b1) != (state, guard(counters), budgets):
                continue
            growth = tuple(b - a for a, b in zip(c1, counters))
            if any(g < 0 for g in growth):
                continue
            if all(steps[t][2][i] > 0 for i, g in enumerate(growth) if g > 0
                   for t in range(t1, t2)):
                return "diverge", steps + [here + (None,)], (t1, t2, growth)
        symbol = word[pos] if pos < len(word) else EOT
        moves = []
        for t in m.transitions:
            if (t.src, t.symbol, t.guard) != (state, symbol, guard(counters)):
                continue
            nb = tuple(_bump(e, d) for e, d in zip(budgets, t.deltas))
            if m.l is None:
                nb = tuple((d, 0) for d, _ in nb)
            elif any(u > m.l for _, u in nb):
                continue
            moves.append((t, nb))
        if not moves:
            return "reject", steps + [here + (None,)], None
        if len(moves) > 1:
            raise ValueError("lasso_run needs a deterministic machine")
        t, budgets = moves[0]
        steps.append(here + (t,))
        state = t.dst
        counters = tuple(c + d for c, d in zip(counters, t.deltas))
        if t.move == RIGHT:
            pos += 1
            seg_start = len(steps)


def naive_language(m, max_len):
    return {w for w in words_upto(m.alphabet, max_len) if naive_member(m, w)}


def concat_language(l1, l2, max_len):
    return {u + v for u in l1 for v in l2 if len(u) + len(v) <= max_len}


def is_prefix_free(language):
    words = sorted(language)
    for i, u in enumerate(words):
        for v in words[i + 1:]:
            if u != v and v.startswith(u):
                return False
    return True


def dfa_member(d, word):
    q = d.initial
    for ch in word:
        q = d.delta.get((q, ch))
        if q is None:
            return False
    return q in d.finals


def dfa_language(d, max_len):
    return {w for w in words_upto(d.alphabet, max_len) if dfa_member(d, w)}


Comp = namedtuple("Comp", "base periods")


def _comp(base, periods=()):
    zero = (0,) * len(base)
    return Comp(tuple(base), frozenset(tuple(p) for p in periods if tuple(p) != zero))


def pairwise_dedup(comps):
    """Drop repeats, then every component whose periods are covered by a
    sibling with the same base, comparing all pairs; keeps first order.
    Takes anything with `base` and `periods` (a `Comp` or a `LinearSet`)."""
    out = []
    seen = set()
    for c in comps:
        if c not in seen:
            seen.add(c)
            out.append(c)
    return tuple(c for c in out
                 if not any(o is not c and o.base == c.base and c.periods <= o.periods
                            for o in out))


def _concat(a, b):
    return pairwise_dedup(
        Comp(tuple(x + y for x, y in zip(ca.base, cb.base)), ca.periods | cb.periods)
        for ca in a for cb in b)


def _star(a):
    zero = (0,) * len(a[0].base)
    out = (_comp(zero),)
    for c in a:
        if c.base == zero:
            out = _concat(out, (Comp(zero, c.periods),))
        else:
            out = _concat(out, (_comp(zero), Comp(c.base, c.periods | {c.base})))
    return out


def _reach_in_order(seeds, edges):
    """Reachable nodes in first-visit order of a stack-driven search."""
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


class OracleBudgetExceeded(Exception):
    pass


def min_scan_paths(pa, target, weight, dims, cap=None):
    """Parikh image (under `weight`) of the paths initial -> target of a
    phase automaton, as a tuple of `Comp`s.  Each step eliminates the
    first remaining node, in reachability order, of least in*out degree.
    Raises OracleBudgetExceeded before it deduplicates a set of more than
    `cap` components, since `pairwise_dedup` is quadratic in that number."""
    edges = [(e.src, e.dst) for e in pa.edges]
    if target not in pa.nodes or pa.initial not in pa.nodes:
        return ()
    co = _reach_in_order([target], [(v, u) for u, v in edges])
    relevant = [n for n in _reach_in_order([pa.initial], edges) if n in co]
    if pa.initial not in relevant or target not in relevant:
        return ()
    src, snk = ("#src",), ("#snk",)
    graph = {}

    def put(u, v, comps):
        cur = graph.setdefault(u, {})
        cur[v] = pairwise_dedup(tuple(cur.get(v, ())) + tuple(comps))

    def spend(n):  # called with the size of a set before it is deduplicated
        if cap is not None and n > cap:
            raise OracleBudgetExceeded(n)

    for e in pa.edges:
        if e.src in relevant and e.dst in relevant:
            put(e.src, e.dst, (_comp(weight(e)),))
    put(src, pa.initial, (_comp((0,) * dims),))
    put(target, snk, (_comp((0,) * dims),))
    incoming = {}
    for u, outs in graph.items():
        for v in outs:
            incoming.setdefault(v, {})[u] = None

    internal = list(relevant)
    while internal:
        x = min(internal, key=lambda n: len(incoming.get(n, ())) * len(graph.get(n, {})))
        internal.remove(x)
        outs = graph.pop(x, {})
        ins = incoming.pop(x, {})
        self_loop = outs.pop(x, None)
        ins.pop(x, None)
        spend(2 ** len(self_loop or ()))
        loop_star = _star(self_loop) if self_loop else (_comp((0,) * dims),)
        for u in ins:
            left = graph[u].pop(x, None)
            if left is None:
                continue
            spend(len(left) * len(loop_star))
            via = _concat(left, loop_star)
            for v, right in outs.items():
                spend(len(via) * len(right) + len(graph.get(u, {}).get(v, ())))
                put(u, v, _concat(via, right))
                incoming.setdefault(v, {})[u] = None
        for v in outs:
            incoming.get(v, {}).pop(x, None)
    return graph.get(src, {}).get(snk, ())


def _combine(p, n, j):
    """p[j] * n - n[j] * p, divided by the gcd of its entries: column j
    cancels, and with p[j] > 0 > n[j] both rows get positive factors."""
    combo = [p[j] * nv - n[j] * pv for pv, nv in zip(p, n)]
    g = gcd(*combo)
    return tuple(c // g for c in combo) if g > 1 else tuple(combo)


def fm_feasible(ineqs, nvars, eqs=()):
    """Rational feasibility of { x >= 0 : c . x >= rhs for every (c, rhs)
    in ineqs, c . x == rhs for every one in eqs }, over integer rows.

    Each equality first eliminates one of its variables by substitution
    (that variable's x >= 0 becomes an inequality); Fourier-Motzkin
    elimination then removes the variables one at a time.  Exact, and
    exponential in nvars."""
    rows = [tuple(c) + (r,) for c, r in ineqs]
    rows += [tuple(int(i == j) for i in range(nvars)) + (0,) for j in range(nvars)]
    todo = [tuple(c) + (r,) for c, r in eqs]
    while todo:
        e = todo.pop()
        j = next((v for v in range(nvars) if e[v]), None)
        if j is None:
            if e[-1]:
                return False
            continue
        if e[j] < 0:
            e = tuple(-c for c in e)
        rows = [_combine(e, r, j) if r[j] else r for r in rows]
        todo = [_combine(e, r, j) if r[j] else r for r in todo]
    for j in range(nvars - 1, -1, -1):
        pos = [r for r in rows if r[j] > 0]
        neg = [r for r in rows if r[j] < 0]
        rest = [r for r in rows if r[j] == 0]
        rows = list(dict.fromkeys(rest + [_combine(p, n, j) for p in pos for n in neg]))
    return all(r[-1] <= 0 for r in rows)


def _simple_cycles(edges):
    """Every simple cycle of a multigraph given as (src, dst, label)
    triples, as a list of labels; parallel edges give distinct cycles.
    Each cycle is found once, from its least vertex in first-seen order."""
    order = {}
    for u, v, _ in edges:
        order.setdefault(u, len(order))
        order.setdefault(v, len(order))
    out = {}
    for u, v, lab in edges:
        out.setdefault(u, []).append((v, lab))
    cycles = []
    for start in order:
        path, on_path = [], {start}

        def walk(u):
            for v, lab in out.get(u, ()):
                if v == start:
                    cycles.append(path + [lab])
                elif order[v] > order[start] and v not in on_path:
                    on_path.add(v)
                    path.append(lab)
                    walk(v)
                    path.pop()
                    on_path.discard(v)

        walk(start)
    return cycles


def stay_cycles_terminate(m):
    """True when, for every symbol, no nonzero non-negative combination of
    the counter effects of its simple stay cycles is >= 0 in every
    counter: the stay runs then terminate.  Guards are ignored."""
    for sym in tuple(m.alphabet) + (EOT,):
        edges = [(t.src, t.dst, t.deltas) for t in m.transitions
                 if t.symbol == sym and t.move == STAY]
        effects = list(dict.fromkeys(
            tuple(map(sum, zip((0,) * m.k, *cyc))) for cyc in _simple_cycles(edges)))
        if not effects:
            continue
        # y >= 0, sum y >= 1, sum_C y_C * effect_C >= 0 in every counter
        ineqs = [(tuple(e[i] for e in effects), 0) for i in range(m.k)]
        ineqs.append(((1,) * len(effects), 1))
        if fm_feasible(ineqs, len(effects)):
            return False
    return True
