"""Exact feasibility of linear systems over x >= 0, standard library
only: `rational_feasible`, the one LP, and `_integer_point`, a
branch-and-bound over the equality rows' lattice (`_lattice`) clipped to
Papadimitriou's box, which holds a solution if any exists."""

from __future__ import annotations

import itertools
import operator
from collections import deque
from fractions import Fraction
from math import gcd


def rational_feasible(eqs, ges, n):
    """A rational x >= 0 (a list of n Fractions) with row . x == rhs for
    every (row, rhs) in eqs and row . x >= rhs for every one in ges, or
    None when no such x exists.

    Phase one of the simplex method with Bland's rule (least entering
    column, least leaving variable on ties), so it cannot cycle.  Pivots
    are fraction-free, each row divided by the gcd of its entries.  Each
    row starts with an artificial basic variable, or its slack if it is a
    >= row with rhs <= 0; artificial columns are never stored, since one
    that leaves the basis stays at 0.
    """
    width = n + len(ges)               # x, then one slack per >= row
    tab, basis = [], []                # rows (coefficients, rhs >= 0); basic columns
    for i, (row, rhs) in enumerate(itertools.chain(eqs, ges)):
        r = list(row) + [0] * len(ges) + [rhs]
        slack = n + i - len(eqs)
        if slack >= n:
            r[slack] = -1
        basic = slack if slack >= n and rhs <= 0 else None
        tab.append([-c for c in r] if rhs < 0 or basic is not None else r)
        basis.append(basic)
    # last row: the phase-one objective, the artificial rows' sum up to a
    # positive factor; raising column j lowers it iff its entry is > 0
    tab.append([sum(col) for col in zip([0] * (width + 1), *(
        r for r, b in zip(tab, basis) if b is None))])
    while tab[-1][-1]:
        enter = next((j for j in range(width) if tab[-1][j] > 0), None)
        if enter is None:
            return None
        leave = min((i for i, r in enumerate(tab[:-1]) if r[enter] > 0), key=lambda i: (
            Fraction(tab[i][-1], tab[i][enter]), width + i if basis[i] is None else basis[i]))
        prow = tab[leave]
        p = prow[enter]
        for i, r in enumerate(tab):
            a = r[enter]
            if i != leave and a:
                r = [p * c - a * pc for c, pc in zip(r, prow)]
                g = gcd(*r) or 1
                tab[i] = [c // g for c in r]
        basis[leave] = enter
    row_of = dict(zip(basis, tab))
    return [Fraction(row_of[j][-1], row_of[j][j]) if j in row_of else Fraction(0)
            for j in range(n)]


def _lattice(eqs, n):
    """The integer solutions of row . x == rhs, every (row, rhs) in eqs,
    as (x0, kernel) with x = x0 + sum_j t_j * kernel[j] for integer t, or
    None.  x = U y with U unimodular: Euclid by column operations on U,
    each column kept with its entries in the rows (A U), leaves each row
    one free coefficient, which fixes one y; the other columns span the
    kernel."""
    cols = [[int(i == j) for i in range(n)] + [row[j] for row, _ in eqs] for j in range(n)]
    fixed = []
    for k, (_, rhs) in enumerate(eqs, n):  # cols[j][k]: the row's entry in column j
        p = len(fixed)
        while True:
            nz = [j for j in range(p, n) if cols[j][k]]
            if len(nz) < 2:
                break
            j = min(nz, key=lambda j: abs(cols[j][k]))
            for i in nz:
                q = cols[i][k] // cols[j][k] if i != j else 0
                if q:
                    cols[i] = [a - q * b for a, b in zip(cols[i], cols[j])]
        rest = rhs - sum(col[k] * y for col, y in zip(cols, fixed))
        if not nz:
            if rest:
                return None
            continue                       # a combination of earlier rows
        j = nz[0]
        if rest % cols[j][k]:
            return None
        fixed.append(rest // cols[j][k])
        cols[p], cols[j] = cols[j], cols[p]
    x0 = [sum(y * col[i] for y, col in zip(fixed, cols)) for i in range(n)]
    return x0, [col[:n] for col in cols[len(fixed):]]


def _integer_point(eqs, ges, n):
    """A list of n integers x >= 0 with row . x == rhs for every (row, rhs)
    in eqs and row . x >= rhs for every one in ges, or None.

    Branch-and-bound over a range [lo, hi] per coordinate.  A node's
    lattice x0 + K t also fixes the coordinates with lo == hi.  Its LP runs
    over x with the equality rows, each >= rhs raised to the next value
    its row takes on the lattice: the gcd rounding of the row over
    t = u - v, without doubling the variables.  Before a node branches, a
    coordinate its LP point leaves at lo is fixed there if no rational
    point has it one higher."""
    x = rational_feasible(eqs, ges, n)    # most systems settle here
    if x is None or all(v.denominator == 1 for v in x):
        return None if x is None else [int(v) for v in x]
    m = len(eqs) + len(ges)
    a = max([1] + [abs(v) for row, r in itertools.chain(eqs, ges) for v in (*row, r)])
    # Papadimitriou (JACM 1981): an integer solution, if any, has one with
    # entries at most this (m rows, entries at most a, a slack per >= row)
    box = (n + len(ges)) * (m * a) ** (2 * m + 1)
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    queue = deque([((0,) * n, (None,) * n)])   # per x_i: least, greatest value
    while queue:
        lo, hi = queue.popleft()
        free = [i for i in range(n) if lo[i] != hi[i]]
        node_eqs = eqs + [(unit[i], lo[i]) for i in range(n) if lo[i] == hi[i]]
        lattice = _lattice(node_eqs, n)
        if lattice is None:
            continue
        x0, kernel = lattice

        def rounded(row, rhs):
            g = gcd(*(sum(map(operator.mul, row, col)) for col in kernel))
            return row, (rhs + (sum(map(operator.mul, row, x0)) - rhs) % g if g else rhs)

        rows = [rounded(r, b) for r, b in ges]
        rows += [r for r in (rounded(unit[i], lo[i]) for i in free) if r[1] > 0]  # x >= 0 is the LP's
        rows += [rounded(tuple(-v for v in unit[i]), -hi[i]) for i in free if hi[i] is not None]
        x = rational_feasible(node_eqs, rows, n)
        if x is None:
            continue
        i = next((i for i, v in enumerate(x) if v.denominator != 1), None)
        if i is None:
            return [int(v) for v in x]
        pinned = {j for j in free if x[j] == lo[j] and rational_feasible(
            node_eqs, rows + [rounded(unit[j], lo[j] + 1)], n) is None}
        if pinned:
            queue.appendleft((lo, tuple(lo[j] if j in pinned else hi[j] for j in range(n))))
            continue
        f = x[i].numerator // x[i].denominator
        queue.append((lo, hi[:i] + (min(f, box),) + hi[i + 1:]))
        if f < box:
            queue.append((lo[:i] + (f + 1,) + lo[i + 1:], hi))
    return None
