"""Decision procedures for machines with finite reversal budgets.

The pipeline: normalise to one reversal per counter, abstract runs into
a finite phase automaton whose per-counter modes track "still zero /
rising / falling / back at zero", compute the Parikh image of its path
language by state elimination over a semilinear-set algebra, and settle
questions (emptiness, membership, infinity, Parikh image) with integer
feasibility checks over the resulting linear sets.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd

from .errors import InfiniteBudget, PreconditionViolated
from .machine import (
    DIR_DOWN, DIR_NONE, DIR_UP, EOT, POS, RIGHT, STAY, ZERO,
    CounterMachine, Transition, _index, _reachable, _step_budgets,
    fresh_budgets, run_deterministic,
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


def _fourier_motzkin_feasible(ineqs, nvars, limit=4000):
    """Rational feasibility of { x >= 0 : sum c_i x_i >= rhs }.

    Returns False only when certainly infeasible; True means feasible or
    undecided (when the constraint blow-up limit is hit).
    """
    # all coefficients are integers, and the elimination step keeps them
    # integral, so exact bigint arithmetic (gcd-normalized per row) is
    # both exact and much faster than rationals
    rows = [tuple(int(c) for c in coeffs) + (int(rhs),) for coeffs, rhs in ineqs]
    for j in range(nvars):
        unit = [0] * (nvars + 1)
        unit[j] = 1
        rows.append(tuple(unit))
    for j in range(nvars - 1, -1, -1):
        pos, neg, rest = [], [], []
        for r in rows:
            if r[j] > 0:
                pos.append(r)
            elif r[j] < 0:
                neg.append(r)
            else:
                rest.append(r)
        if len(rest) + len(pos) * len(neg) > limit:
            return True
        for p in pos:
            for n in neg:
                # p[j] * n - n[j] * p eliminates x_j (coefficient sign care)
                combo = [p[j] * nv - n[j] * pv for pv, nv in zip(p, n)]
                g = 0
                for c in combo:
                    g = gcd(g, c)
                if g > 1:
                    combo = [c // g for c in combo]
                rest.append(tuple(combo))
        seen = set()
        rows = []
        for r in rest:
            key = r[:j] + r[j + 1:]
            if key not in seen:
                seen.add(key)
                rows.append(key)
    return all(r[-1] <= 0 for r in rows)


def _propagate(eqs, ges, lo, hi):
    """Interval propagation; returns tightened (lo, hi) or None if empty."""
    lo, hi = list(lo), list(hi)
    n = len(lo)
    for _ in range(120):
        changed = False
        for coeffs, rhs, is_eq in [(c, r, True) for c, r in eqs] + \
                                  [(c, r, False) for c, r in ges]:
            views = [(coeffs, rhs)]
            if is_eq:
                views.append((tuple(-c for c in coeffs), -rhs))
            for cs, r in views:  # each view: sum cs * x >= r
                maxima = []
                for j in range(n):
                    c = cs[j]
                    if c > 0:
                        maxima.append(c * hi[j])
                    elif c < 0:
                        maxima.append(c * lo[j])
                    else:
                        maxima.append(0)
                total_max = sum(maxima)
                if total_max < r:
                    return None
                for j in range(n):
                    c = cs[j]
                    if c == 0:
                        continue
                    rest = total_max - maxima[j]
                    # c * x_j >= r - rest
                    if c > 0:
                        need = -(-(r - rest) // c)  # ceil
                        if need > lo[j]:
                            lo[j] = need
                            changed = True
                    else:
                        allow = (r - rest) // c  # floor after sign flip
                        if allow < hi[j]:
                            hi[j] = allow
                            changed = True
                    if lo[j] > hi[j]:
                        return None
            if is_eq:
                # divisibility over still-free variables
                fixed = sum(c * lo[j] for j, c in enumerate(coeffs) if lo[j] == hi[j])
                free = [c for j, c in enumerate(coeffs) if lo[j] != hi[j]]
                if free:
                    g = 0
                    for c in free:
                        g = gcd(g, c)
                    if g and (rhs - fixed) % g != 0:
                        return None
                elif fixed != rhs:
                    return None
        if not changed:
            break
    return lo, hi


def linear_feasible(c: LinearSet, constraints):
    """Find non-negative integer multipliers of c's periods meeting the
    constraints, or None.

    Constraints are (coeffs, op, rhs) triples over the vector space, with
    op one of '==', '>=', '<='.  Rational infeasibility and divisibility
    obstructions are detected exactly; otherwise an integer search runs
    inside a fixed multiplier window (documented bound), so the answer is
    exact whenever a solution exists within that window.
    """
    periods = sorted(c.periods)
    n = len(periods)
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
    # constant rows
    for row, r in eqs:
        if not any(row) and r != 0:
            return None
    for row, r in ges:
        if not any(row) and r > 0:
            return None
    if n == 0:
        return {}
    if not eqs and all(r <= 0 for _, r in ges):
        return {p: 0 for p in periods}

    ineqs = [(row, r) for row, r in ges]
    for row, r in eqs:
        ineqs.append((row, r))
        ineqs.append((tuple(-x for x in row), -r))
    if n <= 16 and not _fourier_motzkin_feasible(ineqs, n):
        return None

    # multiplier window; systems arising from small machines have tiny
    # minimal solutions, so this bound is generous in practice
    cap = 4096
    lo, hi = [0] * n, [cap] * n

    def dfs(lo, hi):
        tightened = _propagate(eqs, ges, lo, hi)
        if tightened is None:
            return None
        lo, hi = tightened
        free = [j for j in range(n) if lo[j] != hi[j]]
        if not free:
            assign = lo
            for row, r in eqs:
                if sum(cf * v for cf, v in zip(row, assign)) != r:
                    return None
            for row, r in ges:
                if sum(cf * v for cf, v in zip(row, assign)) < r:
                    return None
            return assign
        j = min(free, key=lambda j: hi[j] - lo[j])
        for v in range(lo[j], hi[j] + 1):
            nlo, nhi = list(lo), list(hi)
            nlo[j] = nhi[j] = v
            got = dfs(nlo, nhi)
            if got is not None:
                return got
        return None

    sol = dfs(lo, hi)
    if sol is None:
        return None
    return dict(zip(periods, sol))


def realize(c: LinearSet, multipliers) -> tuple:
    vec = list(c.base)
    for p, n in multipliers.items():
        for i, x in enumerate(p):
            vec[i] += n * x
    return tuple(vec)


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
    out = []
    for z in minimals:
        if not any(w != z and all(w[j] <= z[j] for j in range(nvars)) for w in minimals):
            out.append(z)
    return out


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


def _up_phases_started(entry):
    d, used = entry
    if d == DIR_NONE:
        return 0
    if d == DIR_UP:
        return used // 2 + 1
    return (used + 1) // 2


def annotate_budgets(m: CounterMachine) -> CounterMachine:
    """Rebuild the machine with (state, budget annotation) states.

    Unlike enforce_reversal_control this never short-circuits, so the
    output states always carry their annotations at the top level.
    """
    if m.l is None:
        raise InfiniteBudget("cannot make an unbounded budget explicit")
    plain = replace(m, budget_explicit=False)
    from .machine import enforce_reversal_control
    return enforce_reversal_control(plain)


def to_one_reversal(m: CounterMachine) -> CounterMachine:
    """Language-preserving split of each counter into one-reversal pieces.

    Counter i becomes ceil((l+1)/2) sub-counters, one per rising phase;
    decrements drain the newest non-empty piece.  For l <= 1 the machine
    only gains explicit budget annotations.
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
    p = (m.l + 1 + 1) // 2  # ceil((l+1)/2)
    k2 = m.k * p

    def sub_range(i):
        return range(i * p, (i + 1) * p)

    transitions = []
    for t in ann.transitions:
        budgets = t.src[1]
        per_counter = []
        for i in range(m.k):
            g, d = t.guard[i], t.deltas[i]
            idx_inc = _up_phases_started(budgets[i])
            if budgets[i][0] == DIR_UP:
                idx_inc -= 1
            options = []
            if g == ZERO:
                sub_d = [0] * p
                if d == 1:
                    sub_d[idx_inc] = 1
                options.append(((ZERO,) * p, tuple(sub_d)))
            else:
                for pat in itertools.product((ZERO, POS), repeat=p):
                    if POS not in pat:
                        continue
                    sub_d = [0] * p
                    if d == 1:
                        if idx_inc >= p:
                            continue
                        sub_d[idx_inc] = 1
                    elif d == -1:
                        newest = max(j for j in range(p) if pat[j] == POS)
                        sub_d[newest] = -1
                    options.append((pat, tuple(sub_d)))
            per_counter.append(options)
        for combo in itertools.product(*per_counter):
            guard = "".join("".join(g) for g, _ in combo)
            deltas = tuple(x for _, ds in combo for x in ds)
            transitions.append(replace(t, guard=guard, deltas=deltas))
    return CounterMachine(
        name=m.name + "_1rev",
        k=k2,
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


@dataclass(frozen=True)
class PhaseEdge:
    eid: int
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


def _guard_matches_modes(guard, modes):
    for g, mo in zip(guard, modes):
        if (g == ZERO) != (mo in (MODE_Z0, MODE_Z1)):
            return False
    return True


def _mode_options(mo, delta):
    if delta == 0:
        return [mo]
    if delta == 1:
        return [MODE_UP] if mo in (MODE_Z0, MODE_UP) else []
    return [MODE_DOWN, MODE_Z1] if mo in (MODE_UP, MODE_DOWN) else []


def build_phase_automaton(m: CounterMachine) -> PhaseAutomaton:
    """Finite abstraction of a budget-explicit one-reversal machine.

    Nodes carry (state, per-counter mode, reading/at-end flag, pending
    letter).  The pending letter pins the symbol under the head across
    stay moves so that stays and the eventual consuming move agree.
    """
    if m.l is not None and m.l > 1:
        raise PreconditionViolated("phase automaton needs the one-reversal form")
    idx = _index(m)
    k = m.k
    init = (m.initial, MODE_Z0 * k, READING, None)
    nodes = {init}
    edges = []
    work = [init]
    while work:
        node = work.pop()
        q, modes, phase, pending = node

        def add_edge(dst, letter, deltas):
            if dst not in nodes:
                nodes.add(dst)
                work.append(dst)
            edges.append(PhaseEdge(
                len(edges), node, dst, letter,
                tuple(1 if d == 1 else 0 for d in deltas),
                tuple(1 if d == -1 else 0 for d in deltas)))

        if phase == READING:
            for sym in m.alphabet:
                if pending is not None and sym != pending:
                    continue
                for guard, ts in idx.get((q, sym), {}).items():
                    if not _guard_matches_modes(guard, modes):
                        continue
                    for t in ts:
                        opts = [_mode_options(mo, d) for mo, d in zip(modes, t.deltas)]
                        for newmodes in itertools.product(*opts):
                            nm = "".join(newmodes)
                            if t.move == RIGHT:
                                add_edge((t.dst, nm, READING, None), sym, t.deltas)
                            else:
                                add_edge((t.dst, nm, READING, sym), None, t.deltas)
            if pending is None:
                add_edge((q, modes, AT_EOT, None), None, (0,) * k)
        else:
            for guard, ts in idx.get((q, EOT), {}).items():
                if not _guard_matches_modes(guard, modes):
                    continue
                for t in ts:
                    opts = [_mode_options(mo, d) for mo, d in zip(modes, t.deltas)]
                    for newmodes in itertools.product(*opts):
                        add_edge((t.dst, "".join(newmodes), AT_EOT, None),
                                 None, t.deltas)
    accepting = {n for n in nodes if n[2] == AT_EOT and n[0] in m.finals}
    pa = PhaseAutomaton(k, m.alphabet, nodes, edges, init, accepting)
    _trim_phase_automaton(pa)
    return pa


def _trim_phase_automaton(pa: PhaseAutomaton):
    edges = [(e.src, e.dst) for e in pa.edges]
    reach = _reachable([pa.initial], edges)
    co = _reachable([n for n in reach if n in pa.accepting],
                    [(v, u) for u, v in edges])
    live = {n for n in reach if n in co}
    live.add(pa.initial)
    pa.nodes = live
    pa.accepting = pa.accepting & live
    pa.edges = [e for e in pa.edges if e.src in live and e.dst in live]


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


def parikh_edges(pa: PhaseAutomaton, target) -> SemilinearSet:
    """Parikh image of paths to `target` counting each edge separately."""
    dims = len(pa.edges)
    pos = {e.eid: i for i, e in enumerate(pa.edges)}

    def weight(e):
        v = [0] * dims
        v[pos[e.eid]] = 1
        return tuple(v)

    return _parikh_paths(pa, target, weight, dims)


def _weight_counters_letters(pa: PhaseAutomaton, per_letter: bool):
    """Weight map: inc_i, dec_i, then letter counts (or one total)."""
    k = pa.k
    letters = sorted(pa.alphabet) if per_letter else None
    dims = 2 * k + (len(letters) if per_letter else 1)

    def weight(e):
        v = list(e.incs) + list(e.decs)
        if per_letter:
            rest = [0] * len(letters)
            if e.letter is not None:
                rest[letters.index(e.letter)] = 1
            v += rest
        else:
            v.append(0 if e.letter is None else 1)
        return tuple(v)

    return weight, dims


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
# membership search for nondeterministic machines


NCM_NODE_BUDGET = 400_000


def _ncm_explore(m: CounterMachine, targets, cap):
    """Exact bounded exploration of runs over a word trie.

    Returns (accepted, undecided): words proven accepted, and words the
    counter cap or the node budget NCM_NODE_BUDGET left unresolved.
    """
    targets = set(targets)
    prefixes = set()
    for w in targets:
        for i in range(len(w) + 1):
            prefixes.add(w[:i])
    accepted = set()
    poisoned_prefixes = set()
    poisoned_exact = set()
    seen = set()
    work = []

    def fork(w, state, counters, budgets):
        if w in targets and w not in accepted:
            push((w, EOT, state, counters, budgets))
        for x in m.alphabet:
            if w + x in prefixes:
                push((w, x, state, counters, budgets))

    def push(cfg):
        if cfg not in seen:
            seen.add(cfg)
            work.append(cfg)

    fork("", m.initial, (0,) * m.k, fresh_budgets(m.k))
    idx = _index(m)
    exhausted = False
    while work:
        if len(seen) > NCM_NODE_BUDGET:
            exhausted = True
            break
        w, look, state, counters, budgets = work.pop()
        if look == EOT and state in m.finals:
            accepted.add(w)
            continue
        guard = m.status(counters)
        for t in idx.get((state, look), {}).get(guard, ()):
            nb = _step_budgets(budgets, t.deltas, m.l)
            if nb is None:
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
    undecided = set()
    for w in targets - accepted:
        if exhausted or w in poisoned_exact or \
                any(w[:i] in poisoned_prefixes for i in range(1, len(w) + 1)):
            undecided.add(w)
    return accepted, undecided


def _nonempty_feasible(m: CounterMachine):
    """(feasible, letter_total_hint) via the phase abstraction."""
    pa = build_phase_automaton(to_one_reversal(m))
    if not pa.accepting:
        return False, None
    weight, dims = _weight_counters_letters(pa, per_letter=False)
    best = None
    for node in sorted(pa.accepting, key=repr):
        modes = node[1]
        cons = _end_mode_constraints(modes, pa.k, dims)
        for comp in _parikh_paths(pa, node, weight, dims):
            sol = linear_feasible(comp, cons)
            if sol is not None:
                total = realize(comp, sol)[-1]
                if best is None or total < best:
                    best = total
    return best is not None, best


def _member_pipeline(m: CounterMachine, word: str) -> bool:
    from .constructions import intersect_regular
    from .regular import word_dfa
    prod = intersect_regular(m, word_dfa(word, m.alphabet))
    feasible, _ = _nonempty_feasible(prod)
    return feasible


def member(m: CounterMachine, word: str) -> bool:
    """Exact membership.  Deterministic machines run directly; for the
    rest, a bounded run search settles most words and the emptiness
    pipeline on the word product settles the remainder."""
    if any(ch not in m.alphabet for ch in word):
        return False
    if m.deterministic:
        return run_deterministic(m, word).verdict == "accept"
    if m.l is None:
        raise InfiniteBudget("membership needs a finite reversal budget")
    for cap in (len(word) + 16, 4 * (len(word) + 16)):
        accepted, undecided = _ncm_explore(m, {word}, cap)
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


def _search_witness(m: CounterMachine, max_len: int) -> str:
    if m.deterministic:
        for w in _words_upto(m.alphabet, max_len):
            if run_deterministic(m, w).verdict == "accept":
                return w
        raise AssertionError("witness promised but not found")
    cap = max_len + 16
    words = list(_words_upto(m.alphabet, max_len))
    while True:
        accepted, undecided = _ncm_explore(m, words, cap)
        if accepted:
            return min(accepted, key=lambda w: (len(w), w))
        if not undecided:
            raise AssertionError("witness promised but not found")
        cap *= 4


def _probe_witness(m: CounterMachine):
    """Accepted words of length <= 6 found by one bounded run search,
    shortest first; None if it finds none.

    Only a shortcut: a miss proves nothing, a hit is re-verified by the
    caller.  It keeps the expensive path-algebra route for the cases
    that actually need a proof of emptiness.
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

    The witness is found by a search bounded by the letter total of a
    feasible Parikh vector and re-verified by simulation.
    """
    probe = _probe_witness(m)
    if probe is not None:
        witness = _verified(m, probe[0])
        return False, (witness if want_witness else None)
    feasible, hint = _nonempty_feasible(m)
    if not feasible:
        return True, None
    if not want_witness:
        return False, None
    return False, _verified(m, _search_witness(m, hint))


def is_infinite(m: CounterMachine) -> bool:
    """True iff the language is infinite: some feasible component admits
    a direction that keeps all side conditions and adds input letters."""
    pa = build_phase_automaton(to_one_reversal(m))
    weight, dims = _weight_counters_letters(pa, per_letter=False)
    letters = [0] * dims
    letters[-1] = 1
    for node in sorted(pa.accepting, key=repr):
        cons = _end_mode_constraints(node[1], pa.k, dims)
        relaxed = [(c, op, 0) for c, op, _ in cons]
        for comp in _parikh_paths(pa, node, weight, dims):
            if linear_feasible(comp, cons) is None:
                continue
            direction = LinearSet((0,) * dims, comp.periods)
            grow = relaxed + [(tuple(letters), ">=", 1)]
            if linear_feasible(direction, grow) is not None:
                return True
    return False


def parikh_image(m: CounterMachine) -> SemilinearSet:
    """Semilinear set of letter-count vectors (letters in sorted order)
    of the language, via Hilbert-basis re-expression of side conditions."""
    pa = build_phase_automaton(to_one_reversal(m))
    weight, dims = _weight_counters_letters(pa, per_letter=True)
    k = pa.k
    nlet = len(pa.alphabet)

    def letters_of(vec):
        return tuple(vec[2 * k:])

    out = []
    for node in sorted(pa.accepting, key=repr):
        cons = _end_mode_constraints(node[1], pa.k, dims)
        for comp in _parikh_paths(pa, node, weight, dims):
            periods = sorted(comp.periods)
            if not cons:
                out.append(linear(letters_of(comp.base),
                                  [letters_of(p) for p in periods]))
                continue
            # equalities in multiplier space, inequalities get slack vars
            n = len(periods)
            nslack = sum(1 for _, op, _ in cons if op != "==")
            rows = []
            slack_i = 0
            for coeffs, op, rhs in cons:
                row = [sum(cf * pv for cf, pv in zip(coeffs, p)) for p in periods]
                row += [0] * nslack
                r = rhs - sum(cf * bv for cf, bv in zip(coeffs, comp.base))
                if op == ">=":
                    row[n + slack_i] = -1
                    slack_i += 1
                elif op == "<=":
                    row = [-x for x in row]
                    row[n + slack_i] = -1
                    r = -r
                    slack_i += 1
                rows.append((tuple(row), r))
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
        cons = []
        for d in range(len(vec)):
            unit = [0] * len(vec)
            unit[d] = 1
            cons.append((tuple(unit), "==", vec[d]))
        if linear_feasible(comp, cons) is not None:
            return True
    return False


def compare(m1: CounterMachine, m2: CounterMachine, mode: str):
    """Language comparison.  mode 'subset' checks L(m1) <= L(m2); 'equal'
    checks both directions.  Returns (verdict, counterexample|None)."""
    from .constructions import boolean_dcm, product_intersection
    if mode not in ("subset", "equal"):
        raise ValueError(f"unknown compare mode {mode!r}")

    def one_way(a, b):
        prod = product_intersection(a, boolean_dcm(b, None, "not"))
        empty, wit = is_empty(prod)
        return empty, wit

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
    from .constructions import concat_ncm, product_intersection, sigma_plus_machine
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


# ---------------------------------------------------------------------------
# end-of-tape behaviour of a single counter (tail/loop extraction)


def _eot_step(m, idx, state, value):
    guard = POS if value > 0 else ZERO
    ts = idx.get((state, EOT), {}).get(guard, ())
    if not ts:
        return None
    if len(ts) > 1:
        raise PreconditionViolated("end-of-tape behaviour needs determinism")
    t = ts[0]
    return t.dst, value + t.deltas[0]


def _eot_outcome(m, q, start_value, max_steps=None):
    """Does the end-of-tape run from (q, value) visit a final state?"""
    idx = _index(m)
    nstates = len(m.states)
    if max_steps is None:
        max_steps = 50 * (start_value + 2) * (nstates + 2) + 2000
    state, value = q, start_value
    history = []          # [(state, value)]
    by_state = {}         # state -> positions in history
    steps = 0
    while True:
        if state in m.finals:
            return True
        for pos in by_state.get(state, ()):
            pv = history[pos][1]
            if pv == value:
                return False  # exact repetition, no final in the loop
            window = history[pos:]
            if all(v >= 1 for _, v in window) and value >= 1:
                if value > pv:
                    return False  # climbing forever through non-final states
                delta = pv - value
                low = min(v for _, v in window)
                jumps = max(0, (low - 1) // delta)
                if jumps > 0:
                    value -= jumps * delta
                    history = []
                    by_state = {}
                break
        by_state.setdefault(state, []).append(len(history))
        history.append((state, value))
        nxt = _eot_step(m, idx, state, value)
        if nxt is None:
            return False
        state, value = nxt
        steps += 1
        if steps > max_steps:
            raise RuntimeError("end-of-tape simulation did not settle")


def _positive_walk_period(m, q):
    """Loop delta of the guard-positive walk from q; 1 when it climbs,
    halts or never cycles."""
    idx = _index(m)
    seen = {}
    state = q
    offset = 0
    path = []
    while state not in seen:
        seen[state] = offset
        path.append(state)
        ts = idx.get((state, EOT), {}).get(POS, ())
        if not ts:
            return 1
        state = ts[0].dst
        offset += ts[0].deltas[0]
    d = offset - seen[state]
    return -d if d < 0 else 1


def end_marker_behavior(m: CounterMachine, q) -> "UnaryDFA":
    """Unary tail/loop description of { i : the end-of-tape run from
    state q with counter value i accepts }.  Needs k = 1 and an explicit
    budget."""
    from .regular import periodic_to_unary
    if m.k != 1:
        raise PreconditionViolated("end_marker_behavior needs exactly one counter")
    if not m.budget_explicit:
        raise PreconditionViolated("end_marker_behavior needs a budget-explicit machine")
    if q not in m.states:
        raise PreconditionViolated(f"unknown state {q!r}")
    period = _positive_walk_period(m, q)
    tail = 4 * len(m.states) + 8
    for _attempt in range(4):
        vals = [_eot_outcome(m, q, i) for i in range(tail + 2 * period)]
        if vals[tail:tail + period] == vals[tail + period:tail + 2 * period]:
            break
        tail *= 2
    else:
        raise RuntimeError("no stable tail/period found")
    accept = {i for i in range(tail + period) if vals[i]}
    out = periodic_to_unary(tail, period, accept)
    bound = out.tail + 3 * out.loop + len(m.states)
    for i in range(bound + 1):
        if out.accepts(i) != _eot_outcome(m, q, i):
            raise AssertionError(f"end-of-tape behaviour mismatch at {i}")
    return out
