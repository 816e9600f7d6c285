"""Independent reference implementations used as test oracles.

`naive_member` is a breadth-first configuration search written from the
acceptance definition alone; it shares no code with the engine under
test.  It is exact when no stay transition that increases a counter lies
on a cycle of stay moves on its symbol, because then counter values are
bounded in the word length (see `stay_counter_cap`) and the
configuration space is finite.

`stepper` is the one-move relation written from the definition;
`naive_member` searches with it and `lasso_run` runs with it.

`lasso_run` is the deterministic run with the full stay-segment lasso
scan, the reference for `machine.run_deterministic`'s verdicts, traces
and divergence certificates, and for the outputs of the boolean
operations and regular concatenation.  Started from a chosen
configuration, it tells which stay runs never end: the reference for
the machines whose stay cycles `constructions._halting` cuts.

`empty_word_acceptor` is the machine with no transitions whose initial
state is final: the acceptor of the silent-transducer identity tests.

`ncm_explore_reference` is the bounded run search over string prefixes,
stepping by a scan of the transitions, with the node budget as an
argument: the reference for `decide._ncm_explore`, pop order and node
count alike.

`min_scan_paths` is state elimination that picks each node by a scan over
every remaining one, on its own semilinear-set algebra whose `pairwise_dedup`
compares every component with every other: the reference for
`decide._parikh_paths` and `decide.sl_dedup`, results and order alike.

`elimination_nonempty` is emptiness by state elimination, the route
`decide.is_empty` took before edge counts: integer feasibility of the
end-mode rows over each linear set of `decide._parikh_paths`, whose
reference is `min_scan_paths`.  It is the reference for the edge-count
verdicts of `decide._accepting_counts`.  `elimination_infinite` is
infiniteness the same way, the route `decide.is_infinite` took before
edge counts: a linear set with feasible multipliers and a direction among
its periods that adds letters.  It is the reference for
`decide._pump_counts`.

`phase_automaton_reference` is the phase automaton built the eager way:
the whole one-reversal split `to_one_reversal(m)` written out first, then
explored over a scan of its guard buckets, and trimmed; each kept edge is
numbered by its position in the trimmed list: the reference for
`decide.build_phase_automaton`, nodes, edge order and edge numbers alike.

`build_machine_reference` deduplicates a transition list first, then
finds the reachable states and keeps the transitions out of them: the
reference for `machine.build_machine` fed the list's moves state by
state, for states, their iteration order, finals, `marked` (read from
the kept transitions) and each (state, symbol, guard) key's transition
order.  `enforce_reversal_control_reference` is the
budget annotation as a plain worklist that steps the budgets once per
transition and builds fresh (state, budgets) pairs for each one: the
reference for `machine.enforce_reversal_control`, states, their
iteration order and transition order alike.

`fm_feasible` is Fourier-Motzkin elimination, the reference for
`decide.rational_feasible`.

`eot_accepts` is the end-of-tape run of a one-counter machine simulated
step by step, importing nothing from `rbcm`: the reference for
`constructions.end_marker_behavior`.

`window_feasible` is interval propagation and a depth-first search over
the integer window [0, cap]^n, exact inside the window and importing
nothing from `rbcm`: the reference for `decide.linear_feasible`.

`plain_parse` and `plain_serialize` are the machine file format read and
written the straightforward way: every line split in full, every guard
expanded and every delta list parsed again, determinism decided over a
separate key list.  `plain_parse` imports nothing from `rbcm`: it returns
a `PlainMachine`, or `(line, message)` for a malformed file.  It drops
exact repeats of a transition before deciding determinism, as
`fileformat.parse_machine` does.  They are the reference for `fileformat`.
"""

from __future__ import annotations

import itertools
from collections import deque, namedtuple
from math import gcd

from rbcm.decide import (
    AT_EOT, READING, LinearSet, PhaseAutomaton, PhaseEdge, _end_mode_constraints,
    _multiplier_rows, _parikh_paths, linear_feasible, to_one_reversal,
)
from rbcm.ilp import rational_feasible
from rbcm.machine import (
    DIR_DOWN, DIR_NONE, DIR_UP, EOT, POS, RIGHT, STAY, ZERO, CounterMachine, Transition,
)


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


def _status_after(guard, deltas):
    """Every guard a counter vector under `guard` may have after `deltas`."""
    options = []
    for g, d in zip(guard, deltas):
        if g == ZERO:
            options.append(POS if d > 0 else ZERO)
        else:
            options.append(ZERO + POS if d < 0 else POS)
    return ["".join(g) for g in itertools.product(*options)]


def stay_counter_cap(m, n):
    """The largest value a counter can take in a run on n letters:
    n + (n + 1) * s, where s counts the stay transitions that increment
    a counter.  Raises ValueError when one of them lies on a cycle of
    stay moves on its symbol.

    The stay moves on one symbol form a graph over (state, guard) nodes:
    a move goes from its (source, guard) to its target under each guard
    its deltas may leave.  A run takes stay moves on a single symbol
    between two consuming moves (and on the end marker after the last),
    so a move that fired twice there would close a walk from its node
    back to itself.  A move on no cycle therefore fires at most once in
    each of the n + 1 stretches, and it and each of the n consuming
    moves add at most 1 to a counter.
    """
    succ = {}
    incs = []
    for t in m.transitions:
        if t.move == STAY:
            succ.setdefault((t.symbol, t.src, t.guard), []).extend(
                (t.symbol, t.dst, g) for g in _status_after(t.guard, t.deltas))
            if any(d > 0 for d in t.deltas):
                incs.append(t)
    for t in incs:
        home = (t.symbol, t.src, t.guard)
        seen = set()
        work = [(t.symbol, t.dst, g) for g in _status_after(t.guard, t.deltas)]
        while work:
            node = work.pop()
            if node == home:
                raise ValueError("oracle needs every incrementing stay off the stay cycles")
            if node not in seen:
                seen.add(node)
                work += succ.get(node, ())
    return n + (n + 1) * len(incs)


def stepper(m):
    """The one-move relation of `m`, from the definition: a function
    from a word and a configuration (state, letters read, counters,
    budgets) to every (transition, configuration) one move later.  The
    moves are the transitions whose source, symbol under the head and
    guard match, and which keep every counter within `l` reversals;
    budgets keep directions only (used stays 0) when l is None."""
    by_key = {}
    for t in m.transitions:
        by_key.setdefault((t.src, t.symbol, t.guard), []).append(t)

    def successors(word, cfg):
        state, pos, counters, budgets = cfg
        out = []
        for t in by_key.get((state, word[pos] if pos < len(word) else EOT,
                             "".join([POS if c > 0 else ZERO for c in counters])), ()):
            nb = tuple(map(_bump, budgets, t.deltas))
            if m.l is None:
                nb = tuple((d, 0) for d, _ in nb)
            elif any(u > m.l for _, u in nb):
                continue
            out.append((t, (t.dst, pos + (t.move == RIGHT),
                            tuple(c + d for c, d in zip(counters, t.deltas)), nb)))
        return out
    return successors


def naive_member(m, word, node_cap=2_000_000):
    """Breadth-first search for an accepting configuration, with every
    counter at most `stay_counter_cap` (checked, not assumed)."""
    cap = stay_counter_cap(m, len(word))
    successors = stepper(m)
    start = (m.initial, 0, (0,) * m.k, ((DIR_NONE, 0),) * m.k)
    seen = {start}
    queue = deque([start])
    nodes = 0
    while queue:
        cfg = queue.popleft()
        if cfg[1] == len(word) and cfg[0] in m.finals:
            return True
        nodes += 1
        if nodes > node_cap:
            raise RuntimeError("oracle node budget exceeded")
        for _, nxt in successors(word, cfg):
            if max(nxt[2], default=0) > cap:
                raise AssertionError(f"counter bound {cap} broken")
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return False


def lasso_run(m, word, step_cap=20_000, start=None):
    """Run a deterministic machine, rescanning the stay segment each step.

    Returns (verdict, steps, certificate).  `steps` holds one
    (state, consumed, counters, budgets, transition or None) tuple per
    configuration.  The run diverges at the first step t2 that has an
    earlier step t1 in the same stay segment (no input consumed since t1)
    with the same state, guard pattern and budgets, where no counter is
    smaller at t2 and every strictly growing counter is positive at every
    step of [t1, t2]; the certificate is (t1, t2, growth) for the earliest
    such t1.  Budgets keep directions only (used stays 0) when l is None.
    The run starts from the initial configuration, or from `start`, a
    (state, consumed, counters, budgets) tuple.  Raises RuntimeError past
    `step_cap` steps.
    """
    state, pos, counters, budgets = start or (
        m.initial, 0, (0,) * m.k, ((DIR_NONE, 0),) * m.k)
    successors = stepper(m)
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
        moves = successors(word, here)
        if not moves:
            return "reject", steps + [here + (None,)], None
        if len(moves) > 1:
            raise ValueError("lasso_run needs a deterministic machine")
        t, (state, pos, counters, budgets) = moves[0]
        steps.append(here + (t,))
        if t.move == RIGHT:
            seg_start = len(steps)


def ncm_explore_reference(m, targets, cap, node_budget):
    """Search the runs of `m` on every word of `targets` at once, over
    the set of their string prefixes.

    Returns (accepted, undecided) as `decide._ncm_explore` does: the
    words with an accepting run found, and the words not accepted whose
    search passed `cap` on some counter (on the word's end-of-tape run,
    or on a move into one of its prefixes), or all words not accepted
    once more than `node_budget` configurations were seen.  Depth-first,
    letters in alphabet order after the end-of-tape lookahead, moves in
    transition order.
    """
    moves = {}
    for t in m.transitions:
        moves.setdefault((t.src, t.symbol, t.guard), []).append(t)
    targets = set(targets)
    prefixes = {w[:i] for w in targets for i in range(len(w) + 1)}
    accepted, poisoned_prefixes, poisoned_exact = set(), set(), set()
    seen, work = set(), []

    def push(cfg):
        if cfg not in seen:
            seen.add(cfg)
            work.append(cfg)

    def fork(w, state, counters, budgets):
        if w in targets and w not in accepted:
            push((w, EOT, state, counters, budgets))
        for x in m.alphabet:
            if w + x in prefixes:
                push((w, x, state, counters, budgets))

    fork("", m.initial, (0,) * m.k, ((DIR_NONE, 0),) * m.k)
    exhausted = False
    while work:
        if len(seen) > node_budget:
            exhausted = True
            break
        w, look, state, counters, budgets = work.pop()
        if look == EOT and state in m.finals:
            accepted.add(w)
            continue
        guard = "".join(POS if c > 0 else ZERO for c in counters)
        for t in moves.get((state, look, guard), ()):
            nb = tuple(_bump(e, d) for e, d in zip(budgets, t.deltas))
            if m.l is None:
                nb = tuple((d, 0) for d, _ in nb)
            elif any(u > m.l for _, u in nb):
                continue
            nc = tuple(c + d for c, d in zip(counters, t.deltas))
            if any(c > cap for c in nc):
                if look == EOT:
                    poisoned_exact.add(w)
                else:
                    poisoned_prefixes.add(w + look)
                continue
            if t.move == RIGHT:
                fork(w + look, t.dst, nc, nb)
            else:
                push((w, look, t.dst, nc, nb))
    undecided = {w for w in targets - accepted
                 if exhausted or w in poisoned_exact
                 or any(w[:i] in poisoned_prefixes for i in range(1, len(w) + 1))}
    return accepted, undecided


def empty_word_acceptor(alphabet) -> CounterMachine:
    """Machine accepting exactly the empty word."""
    return CounterMachine(
        "empty_word", 0, 0, frozenset({"q0"}), tuple(alphabet), "q0",
        frozenset({"q0"}), (), False, True, True)


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


def build_machine_reference(name, k, l, alphabet, initial, finals, transitions, *,
                            marked=None, deterministic, budget_explicit=True):
    transitions = tuple(dict.fromkeys(transitions))
    states = _reach_in_order([initial], [(t.src, t.dst) for t in transitions])
    transitions = tuple(t for t in transitions if t.src in states)
    if marked is None:
        marked = any(t.symbol == EOT for t in transitions)
    return CounterMachine(
        name, k, l, frozenset(states), tuple(alphabet), initial,
        frozenset(f for f in finals if f in states), transitions,
        marked, deterministic, budget_explicit)


def enforce_reversal_control_reference(m):
    """Needs a finite budget and a machine that is not budget-explicit."""
    idx = {}
    for t in m.transitions:
        idx.setdefault((t.src, t.symbol), {}).setdefault(t.guard, []).append(t)

    def step(budgets, deltas):
        out = tuple(_bump(e, d) for e, d in zip(budgets, deltas))
        return None if any(u > m.l for _, u in out) else out

    start = (m.initial, ((DIR_NONE, 0),) * m.k)
    states = {start}
    transitions = []
    work = [start]
    symbols = list(m.alphabet) + ([EOT] if m.marked else [])
    while work:
        q, bud = work.pop()
        for sym in symbols:
            for guard, ts in idx.get((q, sym), {}).items():
                for t in ts:
                    nb = step(bud, t.deltas)
                    if nb is None:
                        continue
                    dst = (t.dst, nb)
                    if dst not in states:
                        states.add(dst)
                        work.append(dst)
                    transitions.append(Transition(
                        (q, bud), t.symbol, t.guard, dst, t.move, t.deltas, t.output))
    return CounterMachine(
        m.name + "_rc", m.k, m.l, frozenset(states), m.alphabet, start,
        frozenset(s for s in states if s[0] in m.finals), tuple(transitions),
        m.marked, m.deterministic, True)


def phase_automaton_reference(m):
    """The phase automaton of `to_one_reversal(m)`: every transition of
    the split is indexed, and each node scans the guard buckets of its
    state and symbol for the one its modes match."""
    m = to_one_reversal(m)
    idx = {}
    for t in m.transitions:
        idx.setdefault((t.src, t.symbol), {}).setdefault(t.guard, []).append(t)
    k = m.k

    def matches(guard, modes):
        return all((g == ZERO) == (mo in "01") for g, mo in zip(guard, modes))

    def mode_options(mo, delta):
        if delta == 0:
            return [mo]
        if delta == 1:
            return ["u"] if mo in "0u" else []
        return ["d", "1"] if mo in "ud" else []

    init = (m.initial, "0" * k, READING, None)
    nodes, edges, work = {init}, [], [init]
    while work:
        node = work.pop()
        q, modes, phase, pending = node

        def add_edge(dst, letter, deltas):
            if dst not in nodes:
                nodes.add(dst)
                work.append(dst)
            edges.append((node, dst, letter,
                          tuple(1 if d == 1 else 0 for d in deltas),
                          tuple(1 if d == -1 else 0 for d in deltas)))

        for sym in (m.alphabet if phase == READING else (EOT,)):
            if pending is not None and sym != pending:
                continue
            for guard, ts in idx.get((q, sym), {}).items():
                if not matches(guard, modes):
                    continue
                for t in ts:
                    opts = [mode_options(mo, d) for mo, d in zip(modes, t.deltas)]
                    for newmodes in itertools.product(*opts):
                        nm = "".join(newmodes)
                        if phase != READING:
                            add_edge((t.dst, nm, AT_EOT, None), None, t.deltas)
                        elif t.move == RIGHT:
                            add_edge((t.dst, nm, READING, None), sym, t.deltas)
                        else:
                            add_edge((t.dst, nm, READING, sym), None, t.deltas)
        if phase == READING and pending is None:
            add_edge((q, modes, AT_EOT, None), None, (0,) * k)
    accepting = {n for n in nodes if n[2] == AT_EOT and n[0] in m.finals}
    pairs = [(src, dst) for src, dst, *_ in edges]
    reach = _reach_in_order([init], pairs)
    co = _reach_in_order([n for n in reach if n in accepting], [(v, u) for u, v in pairs])
    live = {n for n in reach if n in co} | {init}
    kept = [e for e in edges if e[0] in live and e[1] in live]
    return PhaseAutomaton(k, m.alphabet, live, [PhaseEdge(i, *e) for i, e in enumerate(kept)],
                          init, accepting & live)


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


def letter_total_weight(pa):
    """(weight, dims): each edge's inc_i, dec_i, then 1 if it reads a
    letter, else 0."""
    return (lambda e: e.incs + e.decs + (int(e.letter is not None),)), 2 * pa.k + 1


def elimination_nonempty(pa):
    """True iff some path to an accepting node meets its end-mode rows:
    some linear set of the path's Parikh image has feasible multipliers."""
    weight, dims = letter_total_weight(pa)
    return any(linear_feasible(comp, _end_mode_constraints(node[1], pa.k, dims)) is not None
               for node in sorted(pa.accepting, key=repr)
               for comp in _parikh_paths(pa, node, weight, dims))


def elimination_infinite(pa):
    """True iff some linear set of the Parikh image of the paths to an
    accepting node has feasible multipliers for the node's end-mode rows
    and a direction among its periods that keeps the rows, right-hand
    sides set to 0, and adds input letters."""
    weight, dims = letter_total_weight(pa)
    letters = [0] * dims
    letters[-1] = 1
    for node in sorted(pa.accepting, key=repr):
        cons = _end_mode_constraints(node[1], pa.k, dims)
        relaxed = [(c, op, 0) for c, op, _ in cons]
        for comp in _parikh_paths(pa, node, weight, dims):
            if linear_feasible(comp, cons) is None:
                continue
            grow = relaxed + [(tuple(letters), ">=", 1)]
            # homogeneous but for letters >= 1: scaled by its denominators,
            # a rational direction is an integer one, so the LP is exact
            _, eqs, ges = _multiplier_rows(LinearSet((0,) * dims, comp.periods), grow)
            if rational_feasible(eqs, ges, len(comp.periods)) is not None:
                return True
    return False


def realize(c, multipliers):
    """The vector of linear set `c` at the given period multipliers."""
    vec = list(c.base)
    for p, n in multipliers.items():
        for i, x in enumerate(p):
            vec[i] += n * x
    return tuple(vec)


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


def _window_propagate(eqs, ges, lo, hi):
    """Interval propagation; returns tightened (lo, hi) or None if empty."""
    lo, hi = list(lo), list(hi)
    views = [(c, r) for c, r in ges]
    for c, r in eqs:
        views += [(c, r), (tuple(-v for v in c), -r)]
    for _ in range(120):
        changed = False
        for cs, r in views:                # each view: sum cs * x >= r
            maxima = [c * (hi[j] if c > 0 else lo[j]) for j, c in enumerate(cs)]
            total_max = sum(maxima)
            if total_max < r:
                return None
            for j, c in enumerate(cs):
                if c > 0:                  # c * x_j >= r - rest
                    need = -(-(r - total_max + maxima[j]) // c)
                    if need > lo[j]:
                        lo[j], changed = need, True
                elif c < 0:
                    allow = (r - total_max + maxima[j]) // c
                    if allow < hi[j]:
                        hi[j], changed = allow, True
                if lo[j] > hi[j]:
                    return None
        for coeffs, rhs in eqs:            # divisibility over still-free variables
            fixed = sum(c * lo[j] for j, c in enumerate(coeffs) if lo[j] == hi[j])
            g = gcd(*(c for j, c in enumerate(coeffs) if lo[j] != hi[j]))
            if (rhs - fixed) % g if g else rhs != fixed:
                return None
        if not changed:
            break
    return lo, hi


def window_feasible(eqs, ges, n, cap):
    """A list of n integers in [0, cap] with row . x == rhs for every
    (row, rhs) in eqs and row . x >= rhs for every one in ges, or None
    when the window holds none: interval propagation, then a depth-first
    search over the values of the variable with the smallest range."""

    def dfs(lo, hi):
        tightened = _window_propagate(eqs, ges, lo, hi)
        if tightened is None:
            return None
        lo, hi = tightened
        free = [j for j in range(n) if lo[j] != hi[j]]
        if not free:
            ok = all(sum(c * v for c, v in zip(row, lo)) == r for row, r in eqs) and \
                all(sum(c * v for c, v in zip(row, lo)) >= r for row, r in ges)
            return lo if ok else None
        j = min(free, key=lambda j: hi[j] - lo[j])
        for v in range(lo[j], hi[j] + 1):
            got = dfs(lo[:j] + [v] + lo[j + 1:], hi[:j] + [v] + hi[j + 1:])
            if got is not None:
                return got
        return None

    return dfs([0] * n, [cap] * n)


def eot_accepts(m, q, v):
    """Does the end-of-tape run of a deterministic one-counter machine from
    state q with counter value v reach a final state?  A plain step-by-step
    simulation over `m.transitions`, with the guard written out as "p" or
    "z".  The
    run is rejected on an exact repeat of (state, value), or when a state
    comes back at a higher value with no zero in between: the same moves
    then repeat forever, higher each time."""
    moves = {(t.src, t.guard): t for t in m.transitions if t.symbol == "$"}
    seen = set()
    low = {}  # state -> least positive value since the counter was last zero
    while q not in m.finals:
        if (q, v) in seen or low.get(q, v) < v:
            return False
        seen.add((q, v))
        if v == 0:
            low = {}
        else:
            low[q] = min(v, low.get(q, v))
        t = moves.get((q, "p" if v > 0 else "z"))
        if t is None:
            return False
        q, v = t.dst, v + t.deltas[0]
    return True


PlainTrans = namedtuple("PlainTrans", "src symbol guard dst move deltas output")
PlainMachine = namedtuple(
    "PlainMachine",
    "name k l states alphabet initial finals transitions marked deterministic out_alphabet")


class _Malformed(Exception):
    pass


def _plain_guards(guard, k, line):
    if k == 0:
        if guard != "-":
            raise _Malformed(line, f"guard must be '-' with zero counters, got {guard!r}")
        return [""]
    if len(guard) != k:
        raise _Malformed(line, f"guard {guard!r} needs {k} characters")
    choices = []
    for ch in guard:
        if ch in "zp":
            choices.append((ch,))
        elif ch == "*":
            choices.append(("z", "p"))
        else:
            raise _Malformed(line, f"bad guard character {ch!r}")
    return ["".join(c) for c in itertools.product(*choices)]


def _plain_trans(tokens, k, line):
    if len(tokens) < 6 or tokens[3] != "->":
        raise _Malformed(line, "expected: trans <src> <sym> <guard> -> <dst> S|R <deltas>")
    src, sym, guard, _arrow, dst, move = tokens[:6]
    rest = tokens[6:]
    if len(sym) != 1:
        raise _Malformed(line, f"symbol {sym!r} must be a single character")
    if move not in ("S", "R"):
        raise _Malformed(line, f"move must be S or R, got {move!r}")
    if k == 0:
        if not rest or rest[0] != "-":
            raise _Malformed(line, "expected '-' as the delta list with zero counters")
        deltas = ()
        rest = rest[1:]
    else:
        if len(rest) < k:
            raise _Malformed(line, f"expected {k} counter deltas")
        try:
            deltas = tuple(int(x) for x in rest[:k])
        except ValueError:
            raise _Malformed(line, f"bad counter delta in {rest[:k]!r}") from None
        rest = rest[k:]
    output = ""
    if rest:
        if len(rest) != 2 or rest[0] != "output":
            raise _Malformed(line, f"unexpected trailing tokens {rest!r}")
        word = rest[1]
        if len(word) < 2 or word[0] != '"' or word[-1] != '"':
            raise _Malformed(line, "output word must be double-quoted")
        output = word[1:-1]
    return [PlainTrans(src, sym, g, dst, move, deltas, output)
            for g in _plain_guards(guard, k, line)]


def _plain_int(vals):
    try:
        return int(vals[0]) if len(vals) == 1 else None
    except ValueError:
        return None


def plain_parse(text):
    """A PlainMachine, or (line, message) for a malformed file."""
    try:
        return _plain_parse(text)
    except _Malformed as exc:
        return exc.args


def _plain_parse(text):
    headers = ("machine", "kind", "acceptance", "counters", "reversals",
               "alphabet", "outalphabet", "states", "initial", "final")
    fields = {}
    trans_lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = [] if raw.startswith("#") else raw.split()
        if not tokens:
            continue
        if tokens[0] == "trans":
            trans_lines.append((lineno, tokens[1:]))
        elif tokens[0] in headers:
            if tokens[0] in fields:
                raise _Malformed(lineno, f"duplicate {tokens[0]} line")
            fields[tokens[0]] = (lineno, tokens[1:])
        else:
            raise _Malformed(lineno, f"unknown directive {tokens[0]!r}")

    def need(name):
        if name not in fields:
            raise _Malformed(0, f"missing {name} line")
        return fields[name]

    ln, vals = need("machine")
    if len(vals) != 1:
        raise _Malformed(ln, "machine line needs exactly one name")
    name = vals[0]
    ln, vals = fields.get("kind", (0, ["ncm"]))
    if vals not in (["dcm"], ["ncm"], ["transducer"]):
        raise _Malformed(ln, f"kind must be dcm, ncm or transducer, got {vals!r}")
    kind = vals[0]
    ln, vals = need("acceptance")
    if vals not in (["marked"], ["unmarked"]):
        raise _Malformed(ln, "acceptance must be marked or unmarked")
    ln, vals = need("counters")
    k = _plain_int(vals)
    if k is None or k < 0:
        raise _Malformed(ln, "counters needs one non-negative integer")
    ln, vals = need("reversals")
    l = None if vals == ["inf"] else _plain_int(vals)
    if vals != ["inf"] and (l is None or l < 0):
        raise _Malformed(ln, "reversals needs one non-negative integer or inf")
    ln, alphabet = need("alphabet")
    for sym in alphabet:
        if len(sym) != 1:
            raise _Malformed(ln, f"alphabet symbol {sym!r} must be a single character")
        if sym == "$":
            raise _Malformed(ln, "the end-of-tape marker cannot be an input symbol")
    ln, states = need("states")
    if not states:
        raise _Malformed(ln, "states line needs at least one name")
    ln, vals = need("initial")
    if len(vals) != 1:
        raise _Malformed(ln, "initial line needs exactly one name")
    initial = vals[0]
    finals = need("final")[1]
    transitions = []
    for lineno, tokens in trans_lines:
        for t in _plain_trans(tokens, k, lineno):
            for q in (t.src, t.dst):
                if q not in states:
                    raise _Malformed(lineno, f"unknown state {q!r}")
            transitions.append(t)
    transitions = list(dict.fromkeys(transitions))
    keys = [(t.src, t.symbol, t.guard) for t in transitions]
    keys_unique = len(keys) == len(set(keys))
    if kind == "dcm" and not keys_unique:
        raise _Malformed(0, "kind dcm but transitions are nondeterministic")
    out_alphabet = None
    if kind == "transducer":
        if "outalphabet" not in fields:
            raise _Malformed(0, "transducers need an outalphabet line")
        ln, out_alphabet = fields["outalphabet"]
        for sym in out_alphabet:
            if len(sym) != 1:
                raise _Malformed(ln, f"output symbol {sym!r} must be a single character")
        out_alphabet = tuple(out_alphabet)
    elif "outalphabet" in fields:
        raise _Malformed(fields["outalphabet"][0], "outalphabet is only allowed for transducers")
    return PlainMachine(
        name, k, l, frozenset(states), tuple(alphabet), initial, frozenset(finals),
        tuple(transitions), fields["acceptance"][1] == ["marked"],
        keys_unique if kind == "transducer" else kind == "dcm", out_alphabet)


def plain_serialize(m, out_alphabet=None):
    """Canonical text of any object with a machine's fields (a PlainMachine
    or an `rbcm` CounterMachine); `out_alphabet` makes it a transducer."""
    plain = all(isinstance(q, str) and q and not any(c.isspace() for c in q)
                for q in m.states)
    order = sorted(m.states, key=repr)
    names = {q: q if plain else f"s{i}" for i, q in enumerate(order)}
    ok_name = m.name and not any(c.isspace() for c in m.name)
    lines = [
        f"machine {m.name if ok_name else 'machine'}",
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
    body = []
    for t in m.transitions:
        guard = t.guard if m.k else "-"
        deltas = " ".join(str(d) for d in t.deltas) if m.k else "-"
        line = f"trans {names[t.src]} {t.symbol} {guard} -> {names[t.dst]} {t.move} {deltas}"
        if t.output:
            line += f' output "{t.output}"'
        elif out_alphabet is not None:
            line += ' output ""'
        body.append(line)
    lines.extend(sorted(set(body)))
    return "\n".join(lines) + "\n"
