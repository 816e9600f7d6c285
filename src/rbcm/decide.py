"""Decision procedures for machines with finite reversal budgets.

The proof route: abstract runs into a finite phase automaton, explored
straight from the machine, in which each counter is split into
one-reversal sub-counters whose modes track "still zero / rising /
falling / back at zero", and settle questions with integer feasibility
checks (`rbcm.ilp`).  Emptiness, and with it membership past the run
search, comparison and prefix-freeness, asks for edge counts of one path
to an accepting node, which also spell the witness; no word search
answers it.  Infinity asks for edge counts of such a path and of a pump
on its edges.  Only `parikh_image` runs state elimination, over a
semilinear-set algebra.  The written-out split, `to_one_reversal`, is an
exported construction only.  Products and complements come from
`rbcm.constructions`, and `make_non_exiting` sits beside prefix-freeness.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from dataclasses import dataclass, replace

from .errors import InfiniteBudget, NotPrefixFree, PreconditionViolated
from .machine import (
    DIR_DOWN, EOT, POS, RIGHT, STAY, ZERO,
    CounterMachine, Transition, _components, _index, _moves, _reachable,
    all_guards, annotate_budgets, fresh_budgets, run_deterministic,
)
from .regular import word_dfa
from .ilp import _integer_point, rational_feasible
from .constructions import (
    boolean_dcm, concat_ncm, intersect_regular, product_intersection, sigma_plus_machine,
)

# ---------------------------------------------------------------------------
# semilinear sets


@dataclass(frozen=True)
class LinearSet:
    """{ base + sum_j n_j * p_j : n_j >= 0 } over fixed-width int vectors."""

    base: tuple
    periods: frozenset

    def dims(self):
        return len(self.base)


SemilinearSet = tuple  # of LinearSet


def linear(base, periods=()) -> LinearSet:
    zero = (0,) * len(base)
    return LinearSet(tuple(base), frozenset(tuple(p) for p in periods if tuple(p) != zero))


def _vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def sl_zero(dims) -> SemilinearSet:
    return (linear((0,) * dims),)


def sl_dedup(comps) -> SemilinearSet:
    """Drop exact repeats, then every component whose periods are covered
    by a sibling with the same base; survivors keep their first order."""
    out = tuple(dict.fromkeys(comps))
    if len(out) < 2:
        return out  # most calls: a single component
    by_base = {}
    for c in out:
        by_base.setdefault(c.base, []).append(c.periods)
    # distinct components with one base differ in periods: covers are strict
    return tuple(c for c in out if not any(c.periods < p for p in by_base[c.base]))


def sl_union(a: SemilinearSet, b: SemilinearSet) -> SemilinearSet:
    return sl_dedup(tuple(a) + tuple(b))


def sl_concat(a: SemilinearSet, b: SemilinearSet) -> SemilinearSet:
    return sl_dedup(tuple(
        LinearSet(_vadd(ca.base, cb.base), ca.periods | cb.periods)
        for ca in a for cb in b))


def _star_single(c: LinearSet) -> SemilinearSet:
    dims = c.dims()
    zero = (0,) * dims
    if c.base == zero:
        return (LinearSet(zero, c.periods),)
    return (linear(zero), LinearSet(c.base, c.periods | {c.base}))


def sl_star(a: SemilinearSet) -> SemilinearSet:
    if not a:
        raise ValueError("star of an empty semilinear set needs a dimension")
    out = sl_zero(a[0].dims())
    for comp in a:
        out = sl_concat(out, _star_single(comp))
    return out


# ---------------------------------------------------------------------------
# integer feasibility over linear-set multipliers


def _multiplier_rows(c: LinearSet, constraints):
    """c's sorted periods, and the constraints as (row, rhs) rows over
    their multipliers n: eqs for row . n == rhs, ges for row . n >= rhs."""
    periods = sorted(c.periods)
    eqs, ges = [], []
    for coeffs, op, rhs in constraints:
        base_part = sum(cf * bv for cf, bv in zip(coeffs, c.base))
        row = tuple(sum(cf * pv for cf, pv in zip(coeffs, p)) for p in periods)
        r = rhs - base_part
        if op == "==":
            eqs.append((row, r))
        elif op == ">=":
            ges.append((row, r))
        elif op == "<=":
            ges.append((tuple(-x for x in row), -r))
        else:
            raise ValueError(f"unknown relation {op!r}")
    return periods, eqs, ges


def linear_feasible(c: LinearSet, constraints):
    """Find non-negative integer multipliers of c's periods meeting the
    constraints, or None.

    Constraints are (coeffs, op, rhs) triples over the vector space, with
    op one of '==', '>=', '<='.  Exact: `_integer_point` solves the rows
    over the multipliers.
    """
    periods, eqs, ges = _multiplier_rows(c, constraints)
    sol = _integer_point(eqs, ges, len(periods))
    return None if sol is None else dict(zip(periods, sol))


# ---------------------------------------------------------------------------
# minimal non-negative integer solutions (Contejean-Devie completion)


def hilbert_solutions(rows, nvars):
    """Minimal solutions of { z >= 0 : rows . z = 0 }, z != 0."""
    if nvars == 0:
        return []
    cols = [tuple(row[j] for row in rows) for j in range(nvars)]

    def val(z):
        return tuple(sum(row[j] * z[j] for j in range(nvars)) for row in rows)

    minimals = []
    frontier = []
    seen = set()
    for i in range(nvars):
        e = tuple(1 if j == i else 0 for j in range(nvars))
        frontier.append(e)
        seen.add(e)
    while frontier:
        nxt = []
        for z in frontier:
            v = val(z)
            if all(x == 0 for x in v):
                minimals.append(z)
                continue
            for i in range(nvars):
                if sum(a * b for a, b in zip(v, cols[i])) >= 0:
                    continue
                child = tuple(z[j] + (1 if j == i else 0) for j in range(nvars))
                if child in seen:
                    continue
                if any(all(child[j] >= mz[j] for j in range(nvars)) for mz in minimals):
                    continue
                seen.add(child)
                nxt.append(child)
        frontier = nxt
    # prune to an antichain
    return [z for z in minimals
            if not any(w != z and all(w[j] <= z[j] for j in range(nvars)) for w in minimals)]


def solve_diophantine(eqs, nvars):
    """All-minimal description of { z >= 0 : rows . z = rhs }.

    Returns (particulars, homogeneous basis); every solution is one
    particular plus a sum of basis elements.
    """
    rows = [tuple(row) + (-rhs,) for row, rhs in eqs]
    mins = hilbert_solutions(rows, nvars + 1)
    particulars = [z[:-1] for z in mins if z[-1] == 1]
    basis = [z[:-1] for z in mins if z[-1] == 0]
    return particulars, basis


# ---------------------------------------------------------------------------
# one-reversal normal form


def _phases(l):
    """Sub-counters per counter in the one-reversal split: ceil((l+1)/2),
    one per rising phase."""
    return (l + 2) // 2


def _sub_deltas(d, entry, block):
    """Deltas of one counter's sub-counters, whose zero/positive pattern
    is `block`, for a counter delta d taken at budget entry `entry`: an
    increment feeds the sub-counter of the current rising phase, a
    decrement drains the newest positive one.  None when an increment
    finds no rising phase left."""
    sub = [0] * len(block)
    if d == 1:
        direction, used = entry
        phase = (used + (direction == DIR_DOWN)) // 2
        if phase >= len(block):
            return None
        sub[phase] = 1
    elif d == -1 and POS in block:
        sub[block.rindex(POS)] = -1
    return tuple(sub)


def to_one_reversal(m: CounterMachine) -> CounterMachine:
    """Language-preserving split of each counter into one-reversal pieces.

    Counter i becomes ceil((l+1)/2) sub-counters, one per rising phase;
    decrements drain the newest non-empty piece.  For l <= 1 the machine
    only gains explicit budget annotations.  An exported construction
    only: `build_phase_automaton` explores the same split lazily.
    """
    if m.l is None:
        raise InfiniteBudget("one-reversal normal form needs a finite budget")
    if m.l <= 1 and m.budget_explicit:
        # Already one-reversal with an exact transition relation;
        # annotating again would only inflate the state space.
        return m
    ann = annotate_budgets(m)
    if m.l <= 1:
        return ann
    p = _phases(m.l)
    positive = all_guards(p)[1:]       # every pattern but the all-zero one

    transitions = []
    for t in ann.transitions:
        per_counter = []
        for g, d, entry in zip(t.guard, t.deltas, t.src[1]):
            options = []
            for pat in (ZERO * p,) if g == ZERO else positive:
                sub = _sub_deltas(d, entry, pat)
                if sub is not None:
                    options.append((pat, sub))
            per_counter.append(options)
        for combo in itertools.product(*per_counter):
            guard = "".join(g for g, _ in combo)
            deltas = tuple(x for _, ds in combo for x in ds)
            transitions.append(Transition(t.src, t.symbol, guard, t.dst, t.move, deltas, t.output))
    return CounterMachine(
        name=m.name + "_1rev",
        k=m.k * p,
        l=1,
        states=ann.states,
        alphabet=ann.alphabet,
        initial=ann.initial,
        finals=ann.finals,
        transitions=tuple(transitions),
        marked=ann.marked,
        deterministic=ann.deterministic,
        budget_explicit=True,
    )


# ---------------------------------------------------------------------------
# phase automaton

MODE_Z0, MODE_UP, MODE_DOWN, MODE_Z1 = "0", "u", "d", "1"
READING, AT_EOT = "r", "e"


@dataclass(frozen=True, slots=True)
class PhaseEdge:
    eid: int             # the edge's position in PhaseAutomaton.edges
    src: tuple
    dst: tuple
    letter: object       # consumed letter for Right moves, else None
    incs: tuple          # 0/1 per counter
    decs: tuple


@dataclass
class PhaseAutomaton:
    k: int
    alphabet: tuple
    nodes: set
    edges: list
    initial: tuple
    accepting: set


def _mode_options(mo, delta):
    if delta == 0:
        return [mo]
    if delta == 1:
        return [MODE_UP] if mo in (MODE_Z0, MODE_UP) else []
    return [MODE_DOWN, MODE_Z1] if mo in (MODE_UP, MODE_DOWN) else []


def _live_states(m: CounterMachine):
    """(live_read, live_eot): the states that reach a final state along
    `$` moves (live_eot), and those that reach live_eot along letter
    moves (live_read)."""
    eot, letters = [], []
    for t in m.transitions:
        (eot if t.symbol == EOT else letters).append((t.dst, t.src))
    live_eot = _reachable(m.finals, eot)
    return _reachable(live_eot, letters), live_eot


def build_phase_automaton(m: CounterMachine) -> PhaseAutomaton:
    """Finite abstraction of a machine with a finite reversal budget.

    Each counter is split into ceil((l+1)/2) one-reversal sub-counters,
    as `to_one_reversal` splits it (Ibarra, JACM 1978), and each
    sub-counter carries a mode: still zero, rising, falling or back at
    zero (the one-reversal abstraction of Hague and Lin, CAV 2011).
    Nodes carry (state, modes, reading/at-end flag, pending letter).  The
    state is a (state, budget annotation) pair, except that a
    budget-explicit machine with l <= 1 keeps its own states, as
    `to_one_reversal` does.  The pending letter pins the symbol under the
    head across stay moves so that stays and the eventual consuming move
    agree.

    The split is explored straight from the machine, so only the (node,
    transition) pairs reached are built.  A node's modes give the
    sub-counter guard and the counter status (a counter is positive iff
    one of its sub-counters rises or falls); the move table gives the
    moves at that status and the node's budgets, and `_sub_deltas` their
    sub-counter deltas.

    Work is paid for live nodes only.  The exploration adds no node whose
    machine state cannot reach a final state in the node's phase
    (`_live_states`): no node reached from it is accepting, so the trim
    would drop it, and leaving it out changes neither the order in which
    the other nodes are explored nor the order of their edges.  Edges are
    explored as plain rows; the result is trimmed to the nodes that reach
    an accepting node, and the initial one, and a `PhaseEdge` is built
    for each kept row only, its `eid` being its position in `edges`.
    Nodes and edges come out as exploring `to_one_reversal(m)` and
    trimming would make them, in the same order.  Guards, counter
    statuses, mode successors and sub-counter deltas are worked out once
    per distinct key within one build.
    """
    if m.l is None:
        raise InfiniteBudget("the phase automaton needs a finite budget")
    plain = m.l <= 1 and m.budget_explicit
    p = 1 if plain else _phases(m.l)
    k = m.k * p
    blocks = range(0, k, p)
    index, table = _index(m), _moves(m)
    live_read, live_eot = _live_states(m)
    guards, statuses, successors, splits, subs = {}, {}, {}, {}, {}

    def steps(state, sym, guard):
        """(target, move, sub-counter deltas) of the moves on sym."""
        if plain:
            ts = index.get((state, sym), {}).get(guard, ())
            return [(dst, move, deltas) for _, _, _, dst, move, deltas, _ in ts]
        q, budgets = state
        status = statuses.get(guard)
        if status is None:
            status = statuses[guard] = tuple(POS in guard[i:i + p] for i in blocks)
        out = []
        for _, nb, dst, move, deltas in table[q, sym, status, budgets]:
            key = (deltas, budgets, guard)
            if key in subs:
                sub = subs[key]
            else:
                parts = [_sub_deltas(d, entry, guard[i:i + p])
                         for i, d, entry in zip(blocks, deltas, budgets)]
                sub = subs[key] = None if None in parts else sum(parts, ())
            if sub is not None:
                out.append(((dst, nb), move, sub))
        return out

    def add_edge(src, dst, letter, deltas):
        if dst not in nodes:
            base = dst[0] if plain else dst[0][0]
            if base not in (live_eot if dst[2] == AT_EOT else live_read):
                return
            nodes.add(dst)
            work.append(dst)
        rows.append((src, dst, letter, deltas))

    init = (m.initial if plain else (m.initial, fresh_budgets(m.k)),
            MODE_Z0 * k, READING, None)
    nodes = {init}
    rows = []       # (src, dst, letter, sub-counter deltas) per edge explored
    work = [init]
    while work:
        node = work.pop()
        state, modes, phase, pending = node
        guard = guards.get(modes)
        if guard is None:
            guard = guards[modes] = "".join(
                [ZERO if mo in (MODE_Z0, MODE_Z1) else POS for mo in modes])
        if phase == AT_EOT:
            syms = (EOT,)
        else:
            syms = m.alphabet if pending is None else (pending,)
        for sym in syms:
            for dst, move, deltas in steps(state, sym, guard):
                key = (modes, deltas)
                nms = successors.get(key)
                if nms is None:
                    nms = successors[key] = ["".join(c) for c in itertools.product(
                        *[_mode_options(mo, d) for mo, d in zip(modes, deltas)])]
                for nm in nms:
                    if phase == AT_EOT:
                        add_edge(node, (dst, nm, AT_EOT, None), None, deltas)
                    elif move == RIGHT:
                        add_edge(node, (dst, nm, READING, None), sym, deltas)
                    else:
                        add_edge(node, (dst, nm, READING, sym), None, deltas)
        if phase == READING and pending is None:
            add_edge(node, (state, modes, AT_EOT, None), None, (0,) * k)
    accepting = {n for n in nodes if n[2] == AT_EOT
                 and (n[0] if plain else n[0][0]) in m.finals}
    # every node was added as the target of an edge explored from the
    # initial one, so the trim need only walk back from the accepting nodes
    keep = set(_reachable(accepting, [(dst, src) for src, dst, _, _ in rows]))
    keep.add(init)
    edges = []
    for src, dst, letter, deltas in rows:
        if src in keep and dst in keep:
            split = splits.get(deltas)
            if split is None:
                split = splits[deltas] = (tuple(1 if d == 1 else 0 for d in deltas),
                                          tuple(1 if d == -1 else 0 for d in deltas))
            edges.append(PhaseEdge(len(edges), src, dst, letter, *split))
    return PhaseAutomaton(k, m.alphabet, keep, edges, init, accepting)


# ---------------------------------------------------------------------------
# Parikh images of path languages by state elimination


def _parikh_paths(pa: PhaseAutomaton, target, weight, dims):
    """Exact Parikh image (under `weight`) of paths initial -> target.

    Nodes are eliminated least in*out degree first, ties broken by their
    reachability order.  A heap with lazy deletion picks each node in
    O(log n): an elimination re-scores only its neighbours.  The set
    algebra then costs one concatenation per (in, out) pair of each
    eliminated node, and `sl_dedup` compares components sharing a base.
    """
    if target not in pa.nodes or pa.initial not in pa.nodes:
        return ()
    src, snk = ("#src",), ("#snk",)
    graph = {}

    def put(u, v, comp):
        cur = graph.setdefault(u, {})
        cur[v] = sl_union(cur.get(v, ()), (comp,))

    # Nodes hold None, whose hash varies between processes, so every
    # collection iterated below is a list or a dict: the elimination
    # order, and with it the result, must not depend on hashing.
    edges = [(e.src, e.dst) for e in pa.edges]
    co = _reachable([target], [(v, u) for u, v in edges])
    relevant = {n: None for n in _reachable([pa.initial], edges) if n in co}
    if pa.initial not in relevant or target not in relevant:
        return ()
    for e in pa.edges:
        if e.src in relevant and e.dst in relevant:
            put(e.src, e.dst, linear(weight(e)))
    put(src, pa.initial, linear((0,) * dims))
    put(target, snk, linear((0,) * dims))

    incoming = {}
    for u, outs in graph.items():
        for v in outs:
            incoming.setdefault(v, {})[u] = None

    def degree(n):
        return len(incoming.get(n, ())) * len(graph.get(n, {}))

    position = {n: i for i, n in enumerate(relevant)}
    heap = [(degree(n), i, n) for n, i in position.items()]
    heapq.heapify(heap)
    while heap:
        score, _, x = heapq.heappop(heap)
        if x not in position or score != degree(x):
            continue  # eliminated already, or a stale score
        del position[x]
        outs = graph.pop(x, {})
        ins = incoming.pop(x, {})
        self_loop = outs.pop(x, None)
        ins.pop(x, None)
        loop_star = sl_star(self_loop) if self_loop else sl_zero(dims)
        for u in ins:
            left = graph[u].pop(x, None)
            if left is None:
                continue
            via = sl_concat(left, loop_star)
            for v, right in outs.items():
                add = sl_concat(via, right)
                cur = graph.setdefault(u, {})
                cur[v] = sl_union(cur.get(v, ()), add)
                incoming.setdefault(v, {})[u] = None
        for v in outs:
            incoming.get(v, {}).pop(x, None)
        for n in itertools.chain(ins, outs):
            if n in position:
                heapq.heappush(heap, (degree(n), position[n], n))
    return graph.get(src, {}).get(snk, ())


def _weight_counters_letters(pa: PhaseAutomaton):
    """Weight map: inc_i, dec_i, then one count per letter, sorted."""
    letters = sorted(pa.alphabet)

    def weight(e):
        rest = [0] * len(letters)
        if e.letter is not None:
            rest[letters.index(e.letter)] = 1
        return e.incs + e.decs + tuple(rest)

    return weight, 2 * pa.k + len(letters)


def _end_mode_constraints(modes, k, dims):
    """Feasibility side conditions for a path ending with these modes."""
    cons = []
    for i, mo in enumerate(modes):
        coeffs = [0] * dims
        coeffs[i] = 1          # inc_i
        coeffs[k + i] = -1     # dec_i
        if mo == MODE_Z1:
            cons.append((tuple(coeffs), "==", 0))
        elif mo == MODE_DOWN:
            cons.append((tuple(coeffs), ">=", 1))
    return cons


# ---------------------------------------------------------------------------
# edge counts: emptiness and infinity verdicts, witnesses
#
# The language is empty iff no integer flow to an accepting node meets the
# node's end-mode rows (`_accepting_counts`), and infinite iff one also
# carries a pump (`_pump_counts`).  An Euler path over counts spells a word.


def _stray_component(initial, edges):
    """The nodes of the first weakly connected component of `edges`, in
    edge order, that misses `initial`; None when every edge meets it."""
    links = [(e.src, e.dst) for e in edges]
    links += [(v, u) for u, v in links]
    near = _reachable([initial], links)
    for u, _ in links:
        if u not in near:
            return _reachable([u], links)
    return None


def _chains(cols, ends):
    """`cols` cut into maximal chains whose inner nodes have one edge in
    and one out and are not in `ends`, in edge order.  A cycle of such
    nodes touches no other edge, so it can never join a path from the
    initial node, and it is left out."""
    ins, outs = {}, {}
    for e in cols:
        ins.setdefault(e.dst, []).append(e)
        outs.setdefault(e.src, []).append(e)

    def inner(v):
        return v not in ends and len(ins.get(v, ())) == 1 and len(outs.get(v, ())) == 1

    chains = []
    for e in cols:
        if inner(e.src):
            continue
        chain = [e]
        while inner(chain[-1].dst):
            chain.append(outs[chain[-1].dst][0])
        chains.append(chain)
    return chains


def _chain_rows(chains, source, sink, cons):
    """(eqs, ges) over one variable per chain: in - out = [v = sink] -
    [v = source] at every node, and each (coeffs, op, rhs) of `cons` over
    the chains' increments and decrements."""
    n = len(chains)
    at = {v: [0] * n for v in (source, sink) if v is not None}
    for j, chain in enumerate(chains):
        at.setdefault(chain[0].src, [0] * n)[j] -= 1
        at.setdefault(chain[-1].dst, [0] * n)[j] += 1
    eqs = [(row, (v == sink) - (v == source)) for v, row in at.items()]
    ges = []
    for coeffs, op, rhs in cons:
        row = [sum(sum(map(operator.mul, coeffs, e.incs + e.decs)) for e in chain)
               for chain in chains]
        (eqs if op == "==" else ges).append((row, rhs))
    return eqs, ges


def _flow_counts(pa: PhaseAutomaton, target, cover=frozenset(), pump=None):
    """(used, pumped) for a path from the initial node to `target` that
    meets the target's end-mode rows, or None when there is none: `used`
    holds its (edge, count) pairs, count >= 1.

    One integer variable per edge, solved by `_integer_point`: at every
    node in - out = [v = target] - [v = initial], and each row of
    `_end_mode_constraints` over the edges' increments and decrements
    (Verma, Seidl and Schwentick, CADE 2005).  Only edges from which
    `target` is reachable take part, and the edges of a chain through
    nodes of one edge in and one out share one variable, since
    conservation makes their counts equal.  Connectivity is lazy.  When
    the used edges leave a weakly connected component C that misses the
    initial node, the search branches: either no edge touching C is used
    (their columns are dropped), or some edge entering C is (one >= 1
    row).  Both exclude the point found, and no branch meets the same C
    again, so the search ends.

    For `_pump_counts`, a chain holding an edge whose id is in `cover`
    gets a row x_j >= 1, and a `pump` system (chains, eqs, ges) adds its
    columns and rows, and per pump edge: path count >= pump count.
    `pumped` holds the pump's (edge, count) pairs.
    """
    ends = _end_mode_constraints(target[1], pa.k, 2 * pa.k)
    pchains, peqs, pges = pump or ((), [], [])
    width = len(pchains)
    co = _reachable([target], [(e.dst, e.src) for e in pa.edges])
    branches = [([e for e in pa.edges if e.dst in co], ())]  # (columns, edge-id sets used >= once)
    while branches:
        cols, entries = branches.pop()
        chains = _chains(cols, (pa.initial, target))
        n = len(chains)
        holder = {e.eid: j for j, chain in enumerate(chains) for e in chain}
        if not holder.keys() >= cover:
            continue
        eqs, ges = _chain_rows(chains, pa.initial, target, ends)
        ges[:0] = [([int(any(e.eid in entry for e in chain)) for chain in chains], 1)
                   for entry in entries]
        ges += [([int(i == j) for i in range(n)], 1) for j in sorted({holder[i] for i in cover})]
        if pump:
            eqs = [(r + [0] * width, b) for r, b in eqs] + [([0] * n + r, b) for r, b in peqs]
            ges = [(r + [0] * width, b) for r, b in ges] + [([0] * n + r, b) for r, b in pges]
            ges += [([int(i == j) for i in range(n)] + [-int(i == q) for i in range(width)], 0)
                    for j, q in dict.fromkeys((holder.get(e.eid), q)
                                              for q, chain in enumerate(pchains) for e in chain)]
        x = _integer_point(eqs, ges, n + width)
        if x is None:
            continue
        used = [(e, c) for chain, c in zip(chains, x) if c for e in chain]
        stray = _stray_component(pa.initial, [e for e, _ in used])
        if stray is None:
            return used, [(e, c) for chain, c in zip(pchains, x[n:]) if c for e in chain]
        entering = frozenset(e.eid for e in cols if e.src not in stray and e.dst in stray)
        if entering:
            branches.append((cols, entries + (entering,)))
        branches.append(([e for e in cols if e.src not in stray and e.dst not in stray],
                         entries))
    return None


def _euler_word(initial, used) -> str:
    """The letters along an Euler path from `initial` that takes each
    edge as often as its count (Hierholzer's algorithm, linear in the
    path's length).  Modes only move forward, so every order of the edges
    that forms a path is a run: each sub-counter rises before it falls,
    stays >= 1 while it falls (its end row leaves it >= 1, or one
    decrement still to come into Z1), and is 0 in Z1."""
    outs = {}
    for e, c in used:
        outs.setdefault(e.src, []).append([e, c])
    stack, path = [(initial, None)], []
    while stack:
        v, via = stack[-1]
        out = outs.get(v)
        if out:
            slot = out[-1]
            slot[1] -= 1
            if not slot[1]:
                out.pop()
            stack.append((slot[0].dst, slot[0]))
        else:
            stack.pop()
            if via is not None:
                path.append(via)
    return "".join(e.letter for e in reversed(path) if e.letter is not None)


def _accepting_counts(pa: PhaseAutomaton):
    """The edge counts `_flow_counts` finds for the first accepting node,
    in repr order, that has any; None iff no path to an accepting node
    meets its end-mode rows, that is, iff the language is empty."""
    for target in sorted(pa.accepting, key=repr):
        found = _flow_counts(pa, target)
        if found is not None:
            return found[0]
    return None


def _pump_counts(pa: PhaseAutomaton):
    """(route, used, pumped): edge counts of a path to an accepting node t
    meeting t's end-mode rows, and of a pump, a circulation on the path's
    edges reading a letter and meeting the rows with 0 on the right;
    (route, None, None) iff none exist, that is, iff the language is
    finite (path + n * pump is a path for every n; Dickson's lemma over
    ever longer paths gives the converse).  Per accepting node, in repr
    order, each step exact for what it returns: "no pump", an LP over the
    edges on a cycle that reach t (chains cut at one node per strongly
    connected component, so that a simple cycle keeps its column) is
    infeasible; "pump flow", a path uses every chain of the LP pump's
    support; "pump and flow", t has a path but no covering one, so path
    and pump are solved together.  The route is the step that found the
    pair, else the deepest run."""
    comp = _components([(e.src, e.dst) for e in pa.edges])
    route = "no pump"
    for target in sorted(pa.accepting, key=repr):
        co = _reachable([target], [(e.dst, e.src) for e in pa.edges])
        pchains = _chains([e for e in pa.edges if e.dst in co and comp[e.src] == comp[e.dst]],
                          set(comp.values()))
        eqs, ges = _chain_rows(pchains, None, None, [
            (c, op, 0) for c, op, _ in _end_mode_constraints(target[1], pa.k, 2 * pa.k)])
        ges.append(([sum(e.letter is not None for e in chain) for chain in pchains], 1))
        y = rational_feasible(eqs, ges, len(pchains))
        if y is None:
            continue
        scale = math.lcm(*(v.denominator for v in y))
        pumped = [(e, c) for chain, c in zip(pchains, (int(v * scale) for v in y)) if c
                  for e in chain]
        found = _flow_counts(pa, target, frozenset(e.eid for e, _ in pumped))
        if found is not None:
            return "pump flow", found[0], pumped
        if _flow_counts(pa, target) is None:
            continue
        route = "pump and flow"
        found = _flow_counts(pa, target, pump=(pchains, eqs, ges))
        if found is not None:
            return (route, *found)
    return route, None, None


# ---------------------------------------------------------------------------
# membership search for nondeterministic machines


NCM_NODE_BUDGET = 400_000


def _ncm_explore(m: CounterMachine, targets, cap):
    """Exact bounded exploration of runs over a word trie.

    Returns (accepted, undecided): words proven accepted, and words the
    counter cap or the node budget NCM_NODE_BUDGET left unresolved.

    Cost: one move-table lookup per configuration.  A configuration is
    (trie node, lookahead, state, counters, budgets), where the trie
    node is an integer id for the prefix read so far and the lookahead
    is the next letter or EOT; children are visited in alphabet order.

    The search stops at the pop that gives the last target its accepting
    run (targets are counted as trie nodes, so repeats count once).  That
    is exact: up to that pop it is the full search, and afterwards the
    full search could neither accept another target nor leave an
    accepted one undecided, so at every cap and budget both return
    (all targets, nothing undecided).

    No outcome depends on the budget.  A word is reported accepted only
    with an accepting run in hand, and once the budget runs out every
    target not accepted is reported undecided, which `member` and
    `enumerate_words` settle by the exact emptiness pipeline on the word
    product.  `_probe_witness` may find fewer words, but a miss only sends
    `prefix_free_check_machine` on to its product, so no verdict changes.
    """
    child = {}           # (node, letter) -> node; node 0 is the empty word
    word_at = {}         # target node -> its word
    for w in targets:
        node = 0
        for x in w:
            nxt = child.get((node, x))
            if nxt is None:
                nxt = child[node, x] = len(child) + 1
            node = nxt
        word_at[node] = w
    kids = [[] for _ in range(len(child) + 1)]
    for x in m.alphabet:
        for node in range(len(kids)):
            if (node, x) in child:
                kids[node].append(x)
    moves_at = _moves(m)
    finals = m.finals
    add = operator.add
    accepted = set()     # nodes
    cut_below = set()    # nodes whose every extension passed the cap
    cut_at = set()       # nodes whose end-of-tape run passed the cap
    seen = set()
    work = []

    def fork(node, state, counters, budgets):
        looks = kids[node]
        if node in word_at and node not in accepted:
            looks = (EOT, *looks)
        for x in looks:
            cfg = (node, x, state, counters, budgets)
            if cfg not in seen:
                seen.add(cfg)
                work.append(cfg)

    fork(0, m.initial, (0,) * m.k, fresh_budgets(m.k))
    exhausted = False
    while work:
        if len(seen) > NCM_NODE_BUDGET:
            exhausted = True
            break
        node, look, state, counters, budgets = work.pop()
        if look == EOT and state in finals:
            accepted.add(node)
            if len(accepted) == len(word_at):
                return set(word_at.values()), set()
            continue
        for _, nb, dst, move, deltas in moves_at[state, look, tuple(map(bool, counters)), budgets]:
            nc = tuple(map(add, counters, deltas))
            if nc and max(nc) > cap:
                if look == EOT:
                    cut_at.add(node)
                else:
                    cut_below.add(child[node, look])
                continue
            if move == STAY:
                cfg = (node, look, dst, nc, nb)
                if cfg not in seen:
                    seen.add(cfg)
                    work.append(cfg)
            elif look != EOT:       # validate_machine forbids moving on EOT
                fork(child[node, look], dst, nc, nb)
    if not exhausted:
        for (node, _), nxt in child.items():    # parents come first
            if node in cut_below:
                cut_below.add(nxt)
    undecided = {w for node, w in word_at.items() if node not in accepted
                 and (exhausted or node in cut_at or node in cut_below)}
    return {word_at[node] for node in accepted}, undecided


def _member_pipeline(m: CounterMachine, word: str) -> bool:
    return _accepting_counts(build_phase_automaton(
        intersect_regular(m, word_dfa(word, m.alphabet)))) is not None


def member(m: CounterMachine, word: str) -> bool:
    """Exact membership.  Deterministic machines run directly; for the
    rest, one run search with counters capped at len(word) + 16 settles
    most words and the emptiness pipeline on the word product settles
    the remainder.  The search returns at the first accepting run it
    pops, so an accepted word costs only the configurations visited
    before that run; a rejected word costs the full search."""
    if not set(word).issubset(m.alphabet):
        return False
    if m.deterministic:
        return run_deterministic(m, word).verdict == "accept"
    if m.l is None:
        raise InfiniteBudget("membership needs a finite reversal budget")
    accepted, undecided = _ncm_explore(m, {word}, len(word) + 16)
    if word in accepted:
        return True
    if not undecided:
        return False
    return _member_pipeline(m, word)


def _words_upto(alphabet, max_len):
    """Every word of length <= max_len, shortest first, then in alphabet
    order."""
    for n in range(max_len + 1):
        for t in itertools.product(alphabet, repeat=n):
            yield "".join(t)


def enumerate_words(m: CounterMachine, max_len: int) -> list:
    """Accepted words of length <= max_len, shortest first."""
    words = list(_words_upto(m.alphabet, max_len))
    accepted, undecided = _ncm_explore(m, words, max_len + 16)
    return [w for w in words
            if w in accepted or (w in undecided and member(m, w))]


# ---------------------------------------------------------------------------
# emptiness, infinity, comparisons


def _probe_witness(m: CounterMachine):
    """Accepted words of length <= 6 found by one bounded run search,
    shortest first; None if it finds none.

    The short-word pair search of `prefix_free_check_machine`: a hit
    spares it the product of m with m.Sigma+, a miss proves nothing.
    """
    words = list(_words_upto(m.alphabet, 6))
    accepted, _ = _ncm_explore(m, words, 6 + 16)
    return [w for w in words if w in accepted] or None


def _verified(m: CounterMachine, witness: str) -> str:
    # an explicit check, so that it also runs under python -O
    if not member(m, witness):
        raise AssertionError(f"witness {witness!r} is not accepted")
    return witness


def is_empty(m: CounterMachine, want_witness: bool = True):
    """(True, None) for an empty language, else (False, witness word).

    The verdict comes from edge counts of the phase automaton: an integer
    flow to an accepting node that meets its end-mode rows, tried node by
    node in repr order.  The first flow found is walked as an Euler path
    for the witness, so a witness costs no second solve.  Every witness
    is re-verified by simulation; it need not be a shortest word.  An
    "empty" verdict has no run-time check.  A machine without a finite
    reversal budget raises InfiniteBudget.
    """
    pa = build_phase_automaton(m)
    used = _accepting_counts(pa)
    if used is None:
        return True, None
    if not want_witness:
        return False, None
    return False, _verified(m, _euler_word(pa.initial, used))


def is_infinite(m: CounterMachine, want_route: bool = False):
    """True iff the language is infinite, from edge counts of a path and
    a pump (`_pump_counts`); with `want_route`, (verdict, route)."""
    route, used, _ = _pump_counts(build_phase_automaton(m))
    return (used is not None, route) if want_route else used is not None


def parikh_image(m: CounterMachine) -> SemilinearSet:
    """Semilinear set of letter-count vectors (letters in sorted order)
    of the language, via Hilbert-basis re-expression of side conditions."""
    pa = build_phase_automaton(m)
    weight, dims = _weight_counters_letters(pa)
    k = pa.k
    nlet = len(pa.alphabet)

    def letters_of(vec):
        return tuple(vec[2 * k:])

    out = []
    for node in sorted(pa.accepting, key=repr):
        cons = _end_mode_constraints(node[1], pa.k, dims)
        for comp in _parikh_paths(pa, node, weight, dims):
            periods, eqs, ges = _multiplier_rows(comp, cons)
            if not cons:
                out.append(linear(letters_of(comp.base),
                                  [letters_of(p) for p in periods]))
                continue
            # equalities in multiplier space, inequalities get slack vars
            n, nslack = len(periods), len(ges)
            rows = [(row + (0,) * nslack, r) for row, r in eqs]
            rows += [(row + tuple(-1 if j == i else 0 for j in range(nslack)), r)
                     for i, (row, r) in enumerate(ges)]
            particulars, basis = solve_diophantine(rows, n + nslack)
            per_vecs = set()
            for h in basis:
                vec = [0] * nlet
                for p, mult in zip(periods, h[:n]):
                    for i in range(nlet):
                        vec[i] += mult * p[2 * k + i]
                if any(vec):
                    per_vecs.add(tuple(vec))
            for part in particulars:
                base = list(letters_of(comp.base))
                for p, mult in zip(periods, part[:n]):
                    for i in range(nlet):
                        base[i] += mult * p[2 * k + i]
                out.append(linear(tuple(base), per_vecs))
    return sl_dedup(out)


def semilinear_member(s: SemilinearSet, vec) -> bool:
    vec = tuple(vec)
    for comp in s:
        # periods are nonnegative, so the base must fit under the target
        if any(b > v for b, v in zip(comp.base, vec)):
            continue
        if any(b != v and all(p[d] == 0 for p in comp.periods)
               for d, (b, v) in enumerate(zip(comp.base, vec))):
            continue
        cons = [(tuple(int(i == d) for i in range(len(vec))), "==", v) for d, v in enumerate(vec)]
        if linear_feasible(comp, cons) is not None:
            return True
    return False


def compare(m1: CounterMachine, m2: CounterMachine, mode: str):
    """Language comparison.  mode 'subset' checks L(m1) <= L(m2); 'equal'
    checks both directions.  Returns (verdict, counterexample|None)."""
    if mode not in ("subset", "equal"):
        raise ValueError(f"unknown compare mode {mode!r}")

    def one_way(a, b):
        return is_empty(product_intersection(a, boolean_dcm(b, None, "not")))

    ok, wit = one_way(m1, m2)
    if not ok:
        return False, wit
    if mode == "equal":
        ok, wit = one_way(m2, m1)
        if not ok:
            return False, wit
    return True, None


def prefix_free_check_machine(m: CounterMachine) -> bool:
    """True iff no accepted word is a proper prefix of another."""
    # Cheap counterexample probe: any proper-prefix pair among short
    # accepted words settles the question without the product build.
    # A miss proves nothing; the certificate below is the real check.
    acc = _probe_witness(m) or []
    for i, w in enumerate(acc):
        if any(v.startswith(w) and len(v) > len(w) for v in acc[i + 1:]):
            return False
    extended = concat_ncm(m, sigma_plus_machine(m.alphabet))
    prod = product_intersection(m, extended)
    empty, _ = is_empty(prod, want_witness=False)
    return empty


def make_non_exiting(m: CounterMachine) -> CounterMachine:
    """Drop transitions out of final states; exact for prefix-free
    languages of unmarked deterministic machines (raises otherwise)."""
    if m.marked or any(t.symbol == EOT for t in m.transitions):
        raise PreconditionViolated("make_non_exiting needs an unmarked machine")
    if not m.deterministic:
        raise PreconditionViolated("make_non_exiting needs a deterministic machine")
    if not prefix_free_check_machine(m):
        raise NotPrefixFree(f"language of {m.name} is not prefix-free")
    return replace(
        m, transitions=tuple(t for t in m.transitions if t.src not in m.finals))
