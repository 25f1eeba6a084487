"""The integer-row simplex against the dense Fraction tableau it replaced.

The reference below is the earlier solver: a dense two-phase tableau over
Fraction with Bland's rule, upper bounds folded in as rows. Both make the
same pivots on the same tableau values, so their results must agree down
to repr: the same vertex, value and final basis.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from priocover import (
    LinearProgram,
    LpInfeasible,
    LpOptimal,
    LpRow,
    LpUnbounded,
    UNBOUNDED,
    is_unbounded,
    simplex_solve,
)


def _pivot(tab, basis, row, col):
    piv = tab[row][col]
    inv = 1 / piv
    tab[row] = [a * inv for a in tab[row]]
    prow = tab[row]
    for i, r in enumerate(tab):
        if i == row:
            continue
        f = r[col]
        if f:
            tab[i] = [a - f * p for a, p in zip(r, prow)]
    basis[row] = col


def _run_simplex(tab, basis, width):
    m = len(tab) - 1
    while True:
        obj = tab[-1]
        enter = None
        for j in range(width):
            if obj[j] < 0:
                enter = j
                break
        if enter is None:
            return "optimal"
        leave = None
        best = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][-1] / a
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave is None:
            return "unbounded"
        _pivot(tab, basis, leave, enter)


def reference_solve(lp, events):
    """The dense Fraction two-phase simplex; events counts the branches
    taken, so the test can tell its random LPs reach every one."""
    n = lp.num_vars
    zero = Fraction(0)
    one = Fraction(1)

    ge_rows = []
    le_rows = []
    for row in lp.rows:
        coeffs, rhs = list(row.coeffs), row.rhs
        if any(c.denominator != 1 for c in coeffs) or rhs.denominator != 1:
            events["fraction row"] += 1
        if rhs <= 0:
            events["le row"] += 1
            le_rows.append(([-c for c in coeffs], -rhs))
        else:
            ge_rows.append((coeffs, rhs))
    for j, u in enumerate(lp.upper_bounds):
        if is_unbounded(u):
            continue
        coeffs = [zero] * n
        coeffs[j] = one
        le_rows.append((coeffs, Fraction(u)))

    m = len(ge_rows) + len(le_rows)
    num_slack = m
    num_art = len(ge_rows)
    width = n + num_slack + num_art

    tab = []
    basis = []
    art_cols = []
    si = 0
    ai = 0
    for coeffs, rhs in ge_rows:
        row = list(coeffs) + [zero] * (num_slack + num_art)
        row[n + si] = -one
        art_col = n + num_slack + ai
        row[art_col] = one
        row.append(rhs)
        tab.append(row)
        basis.append(art_col)
        art_cols.append(art_col)
        si += 1
        ai += 1
    for coeffs, rhs in le_rows:
        row = list(coeffs) + [zero] * (num_slack + num_art)
        row[n + si] = one
        row.append(rhs)
        tab.append(row)
        basis.append(n + si)
        si += 1

    if num_art:
        cost = [zero] * (width + 1)
        for c in art_cols:
            cost[c] = one
        tab.append(cost)
        for i, b in enumerate(basis):
            if b in set(art_cols):
                f = tab[-1][b]
                if f:
                    tab[-1] = [a - f * p for a, p in zip(tab[-1], tab[i])]
        _run_simplex(tab, basis, width)
        if -tab[-1][-1] != 0:
            events["infeasible"] += 1
            return LpInfeasible()
        tab.pop()
        art_set = set(art_cols)
        drop = []
        for i in range(len(tab)):
            if basis[i] in art_set:
                piv_col = None
                for j in range(n + num_slack):
                    if tab[i][j] != 0:
                        piv_col = j
                        break
                if piv_col is None:
                    events["redundant row dropped"] += 1
                    drop.append(i)
                else:
                    events["drive-out"] += 1
                    if tab[i][piv_col] < 0:
                        events["drive-out on a negative entry"] += 1
                    _pivot(tab, basis, i, piv_col)
        for i in reversed(drop):
            tab.pop(i)
            basis.pop(i)

    width2 = n + num_slack
    tab = [row[:width2] + [row[-1]] for row in tab]
    cost = [Fraction(c) for c in lp.objective] + [zero] * (num_slack + 1)
    tab.append(cost)
    for i, b in enumerate(basis):
        f = tab[-1][b]
        if f:
            tab[-1] = [a - f * p for a, p in zip(tab[-1], tab[i])]
    status = _run_simplex(tab, basis, width2)
    if status == "unbounded":
        events["unbounded"] += 1
        return LpUnbounded()

    x = [zero] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = tab[i][-1]
    value = sum(c * v for c, v in zip(lp.objective, x))
    events["optimal"] += 1
    return LpOptimal(solution=tuple(x), value=value, basis=tuple(basis))


def _number(rng, lo, hi):
    """An int in lo..hi, or one time in three a fraction with a small
    denominator."""
    if rng.random() < 1 / 3:
        return Fraction(rng.randint(2 * lo, 2 * hi), rng.randint(2, 5))
    return rng.randint(lo, hi)


def random_lp(rng):
    """Small LP mixing >= and <= rows, fractional data, and duplicate and
    scaled copies of rows. Most right-hand sides are set from a point in
    the bounds, so most LPs are feasible and many are degenerate there;
    the rest are random, and objectives can be unbounded below."""
    n = rng.randint(1, 5)
    bounds = tuple(
        UNBOUNDED if rng.random() < 0.4 else _number(rng, 0, 4) for _ in range(n)
    )
    point = [
        _number(rng, 0, 3)
        if is_unbounded(u)
        else u * rng.choice((0, Fraction(1, 2), 1))
        for u in bounds
    ]
    rows = []
    for _ in range(rng.randint(1, 6)):
        coeffs = tuple(
            0 if rng.random() < 0.3 else _number(rng, -3, 4) for _ in range(n)
        )
        if rng.random() < 0.8:
            rhs = sum(c * x for c, x in zip(coeffs, point))
            rhs -= rng.choice((0, 0, 1, 2))
        else:
            rhs = _number(rng, -3, 5)
        rows.append((coeffs, rhs))
    for _ in range(rng.choice((0, 1, 2))):
        coeffs, rhs = rng.choice(rows)
        k = rng.choice((1, 2, Fraction(1, 2)))
        rows.append((tuple(k * c for c in coeffs), k * rhs))
    rng.shuffle(rows)
    objective = tuple(_number(rng, -2, 6) for _ in range(n))
    return LinearProgram(
        objective=objective,
        rows=tuple(LpRow(c, b, i) for i, (c, b) in enumerate(rows)),
        upper_bounds=bounds,
    )


def test_integer_rows_match_fraction_tableau():
    rng = random.Random(2024)
    events = Counter()
    for _ in range(400):
        lp = random_lp(rng)
        assert repr(simplex_solve(lp)) == repr(reference_solve(lp, events))
    for branch in (
        "fraction row",
        "le row",
        "drive-out",
        "drive-out on a negative entry",
        "infeasible",
        "unbounded",
        "optimal",
    ):
        assert events[branch] >= 20, (branch, events)
    # Every row has its own slack or surplus column, so [A | +-I] has full
    # row rank and a basic artificial's row is never zero outside the
    # artificial columns: the reference's drop branch is dead, and the
    # integer-row solver has none.
    assert events["redundant row dropped"] == 0


@pytest.mark.parametrize(
    "lp",
    [
        # no rows, no bounds: the origin
        LinearProgram(
            objective=(Fraction(3, 2), 0), rows=(), upper_bounds=(UNBOUNDED,) * 2
        ),
        # fractional bounds only, negative costs push to them
        LinearProgram(
            objective=(-1, Fraction(-2, 3)),
            rows=(),
            upper_bounds=(Fraction(7, 3), Fraction(1, 4)),
        ),
        # two identical rows, one of them degenerate at the optimum
        LinearProgram(
            objective=(1, 1),
            rows=(LpRow((1, 1), 2, "a"), LpRow((1, 1), 2, "b")),
            upper_bounds=(UNBOUNDED, UNBOUNDED),
        ),
    ],
    ids=["empty", "bounds-only", "duplicate-rows"],
)
def test_edge_cases_match_fraction_tableau(lp):
    assert repr(simplex_solve(lp)) == repr(reference_solve(lp, Counter()))
