"""Emptiness verdicts and witnesses from edge counts of the phase automaton.

`decide.is_empty` asks `_accepting_counts` for an integer flow to an
accepting node that meets the node's end-mode rows: the language is
empty iff there is none.  It is the only route to an emptiness verdict
or witness.  Connectivity of the used edges is added lazily, and an
Euler path over the counts spells the witness.
`decide._member_pipeline` asks the same question of a word product.
"""

from __future__ import annotations

import operator

from .decide import PhaseAutomaton, _end_mode_constraints, _integer_point
from .machine import _reachable


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


def _flow_counts(pa: PhaseAutomaton, target):
    """(edge, count) pairs, count >= 1, of a path from the initial node
    to `target` that meets the target's end-mode rows, or None when there
    is none.

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
    """
    ends = _end_mode_constraints(target[1], pa.k, 2 * pa.k)
    co = _reachable([target], [(e.dst, e.src) for e in pa.edges])
    branches = [([e for e in pa.edges if e.dst in co], ())]  # (columns, edge-id sets used >= once)
    while branches:
        cols, entries = branches.pop()
        chains = _chains(cols, (pa.initial, target))
        n = len(chains)
        at = {pa.initial: [0] * n, target: [0] * n}
        for j, chain in enumerate(chains):
            at.setdefault(chain[0].src, [0] * n)[j] -= 1
            at.setdefault(chain[-1].dst, [0] * n)[j] += 1
        eqs = [(row, (v == target) - (v == pa.initial)) for v, row in at.items()]
        ges = [([int(any(e.eid in entry for e in chain)) for chain in chains], 1)
               for entry in entries]
        for coeffs, op, rhs in ends:
            row = [sum(sum(map(operator.mul, coeffs, e.incs + e.decs)) for e in chain)
                   for chain in chains]
            (eqs if op == "==" else ges).append((row, rhs))
        x = _integer_point(eqs, ges, n)
        if x is None:
            continue
        used = [(e, c) for chain, c in zip(chains, x) if c for e in chain]
        stray = _stray_component(pa.initial, [e for e, _ in used])
        if stray is None:
            return used
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
        used = _flow_counts(pa, target)
        if used is not None:
            return used
    return None
