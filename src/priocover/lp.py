"""Exact rational linear programming and knapsack-cover machinery.

The solver is a two-phase tableau simplex with Bland's anti-cycling rule.
Each tableau row is a list of Python ints over its own positive
denominator, kept in lowest terms (fraction-free, after Edmonds and
Bareiss), so the pivot loop creates no Fraction; a pivot touches only the
rows with a nonzero entry in the pivot column. Upper bounds are folded in
as explicit rows, so the returned point is a basic (vertex) solution of
the bounded polyhedron, which is what the totally-unimodular integrality
checks rely on.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import Infeasible, IterationBudgetExceeded, ValidationError
from .model import (
    ColumnRestrictedCIP,
    FracSolution,
    PriorityCIP,
    ZeroOneCIP,
    effective_system,
    instance_upper_bounds,
    is_unbounded,
)


@dataclass(frozen=True)
class LpRow:
    coeffs: tuple
    rhs: Fraction
    label: object

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))
        object.__setattr__(self, "rhs", Fraction(self.rhs))


@dataclass(frozen=True)
class LinearProgram:
    """min objective . x  subject to  coeffs . x >= rhs per row,
    0 <= x_j <= upper_bounds[j]."""

    objective: tuple
    rows: tuple
    upper_bounds: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "objective", tuple(Fraction(c) for c in self.objective)
        )
        object.__setattr__(self, "rows", tuple(self.rows))
        bounds = tuple(
            u if is_unbounded(u) else Fraction(u) for u in self.upper_bounds
        )
        object.__setattr__(self, "upper_bounds", bounds)
        n = len(self.objective)
        labels = set()
        for row in self.rows:
            if len(row.coeffs) != n:
                raise ValidationError("row %r has wrong width" % (row.label,))
            if row.label in labels:
                raise ValidationError("duplicate row label %r" % (row.label,))
            labels.add(row.label)
        if len(bounds) != n:
            raise ValidationError("bounds length != objective length")

    @property
    def num_vars(self):
        return len(self.objective)


@dataclass(frozen=True)
class LpOptimal:
    solution: tuple
    value: Fraction
    basis: tuple


@dataclass(frozen=True)
class LpInfeasible:
    pass


@dataclass(frozen=True)
class LpUnbounded:
    pass


def _int_row(values):
    """Fractions as ints over their lcm denominator, which is appended.

    Scaling by the lcm leaves the row in lowest terms.
    """
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values] + [den]


def _nonzero(row):
    """Indices of a row's nonzero entries, rhs included, denominator not."""
    return [j for j in range(len(row) - 1) if row[j]]


def _eliminate(row, prow, nz, col):
    """Subtract prow, which has value 1 at col, times row's value at col.

    With pc = prow[-1], prow's denominator and its entry at col, the
    result is (r*pc - f*P) / (dr*pc), subtracting only over prow's nonzero
    columns nz, reduced to lowest terms.
    """
    pc = prow[-1]
    f = row[col]
    new = [a * pc for a in row] if pc != 1 else row[:]
    for j in nz:
        new[j] -= f * prow[j]
    g = gcd(*new)
    if g != 1:
        new = [a // g for a in new]
    return new


def _pivot(tab, basis, row, col):
    prow = tab[row]
    piv = prow[col]
    if piv < 0:
        prow = [-a for a in prow]
        piv = -piv
    # the pivot entry becomes the row's denominator, so its value is 1
    prow[-1] = piv
    g = gcd(*prow)
    if g != 1:
        prow = [a // g for a in prow]
    tab[row] = prow
    nz = _nonzero(prow)
    for i, r in enumerate(tab):
        if i != row and r[col]:
            tab[i] = _eliminate(r, prow, nz, col)
    basis[row] = col


def _run_simplex(tab, basis, width):
    """Minimize the last tableau row. Bland's rule throughout.

    Each row's denominator is positive and cancels from a ratio, so signs
    and the ratio test read the integer entries directly.
    """
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
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                if leave is None:
                    leave, best_rhs, best_a = i, tab[i][-2], a
                    continue
                lhs = tab[i][-2] * best_a
                rhs = best_rhs * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, best_rhs, best_a = i, tab[i][-2], a
        if leave is None:
            return "unbounded"
        _pivot(tab, basis, leave, enter)


def simplex_solve(lp):
    """Exact two-phase simplex. Returns LpOptimal/LpInfeasible/LpUnbounded.

    Tableau rows are lists of ints: the column entries, the right-hand
    side, then the row's positive denominator.
    """
    n = lp.num_vars

    # assemble >= and <= int rows over the original variables, rhs >= 0
    ge_rows = []
    le_rows = []
    for lp_row in lp.rows:
        row = _int_row(lp_row.coeffs + (lp_row.rhs,))
        if lp_row.rhs <= 0:
            # a.x >= rhs with rhs <= 0 is -a.x <= -rhs
            le_rows.append([-a for a in row[:-1]] + row[-1:])
        else:
            ge_rows.append(row)
    for j, u in enumerate(lp.upper_bounds):
        if not is_unbounded(u):
            row = [0] * (n + 2)
            row[j] = row[-1] = u.denominator
            row[-2] = u.numerator
            le_rows.append(row)

    m = len(ge_rows) + len(le_rows)
    num_slack = m
    num_art = len(ge_rows)
    width = n + num_slack + num_art  # columns before the rhs

    tab = []
    basis = []
    for si, row in enumerate(ge_rows + le_rows):
        padded = row[:n] + [0] * (num_slack + num_art) + row[n:]
        if si < num_art:
            padded[n + si] = -row[-1]  # surplus
            padded[n + num_slack + si] = row[-1]  # artificial, starts basic
            basis.append(n + num_slack + si)
        else:
            padded[n + si] = row[-1]  # slack, starts basic
            basis.append(n + si)
        tab.append(padded)

    if num_art:
        # phase 1: minimize the artificial total
        tab.append([0] * (n + num_slack) + [1] * num_art + [0, 1])
        for i in range(num_art):
            # every >= row starts with its artificial basic, at value 1
            tab[-1] = _eliminate(tab[-1], tab[i], _nonzero(tab[i]), basis[i])
        _run_simplex(tab, basis, width)  # bounded below by 0, always optimal
        if tab[-1][-2] != 0:
            return LpInfeasible()
        tab.pop()
        # drive surviving artificials out of the basis. Every row has its
        # own slack or surplus column, so the rows are independent and the
        # row of a basic artificial is nonzero outside the artificials.
        for i in range(len(tab)):
            if basis[i] >= n + num_slack:
                row = tab[i]
                col = next(j for j in range(n + num_slack) if row[j])
                _pivot(tab, basis, i, col)

    # phase 2
    width2 = n + num_slack
    tab = [row[:width2] + row[-2:] for row in tab]
    cost = _int_row(lp.objective)
    tab.append(cost[:n] + [0] * (num_slack + 1) + cost[n:])
    for i, b in enumerate(basis):
        if tab[-1][b]:
            tab[-1] = _eliminate(tab[-1], tab[i], _nonzero(tab[i]), b)
    status = _run_simplex(tab, basis, width2)
    if status == "unbounded":
        return LpUnbounded()

    x = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = Fraction(tab[i][-2], tab[i][-1])
    value = sum(c * v for c, v in zip(lp.objective, x))
    return LpOptimal(solution=tuple(x), value=value, basis=tuple(basis))


# ---------------------------------------------------------------------------
# relaxations


def canonical_relaxation(instance):
    """The plain LP relaxation an instance defines.

    Rows and costs come from effective_system, bounds from
    instance_upper_bounds: matrix-form instances keep their upper bounds,
    line, two-priority line, tree and rectangle instances get none
    (multiplicities above 1 never help a unit-demand cover, so the optimum
    is unchanged and duality stays clean).
    """
    matrix, demands, costs = effective_system(instance)
    matrix_kinds = (ZeroOneCIP, ColumnRestrictedCIP, PriorityCIP)
    tag = "row" if isinstance(instance, matrix_kinds) else "edge"
    rows = tuple(
        LpRow(coeffs=matrix[i], rhs=demands[i], label=(tag, i))
        for i in range(len(matrix))
    )
    return LinearProgram(
        objective=costs, rows=rows, upper_bounds=instance_upper_bounds(instance)
    )


@dataclass(frozen=True)
class ResidualSystem:
    """A^F[s] and b^F for a column set F.

    Entries follow the knapsack-cover recipe: zero out F's columns, clamp
    the rest at the residual demand. A row whose residual demand was wiped
    out by an unbounded column in F is listed in infinite_flags. Supplies,
    costs, and bounds of the source problem ride along so the rounding
    stages can run from the residual alone.
    """

    residual_matrix: tuple
    residual_demands: tuple
    generating_set: frozenset
    supplies: tuple
    costs: tuple
    upper_bounds: tuple
    infinite_flags: tuple = ()


def kc_residual(ccip, F):
    F = frozenset(F)
    A = ccip.base.matrix
    s = ccip.supplies
    d = ccip.base.upper_bounds
    m, n = ccip.num_rows, ccip.num_cols
    demands = []
    flags = []
    for i in range(m):
        acc = 0
        wiped = False
        for j in F:
            aij = A[i][j] * s[j]
            if aij == 0:
                continue
            if is_unbounded(d[j]):
                wiped = True
                flags.append((i, j))
            else:
                acc += aij * d[j]
        bf = 0 if wiped else max(0, ccip.base.demands[i] - acc)
        demands.append(bf)
    matrix = tuple(
        tuple(
            0 if j in F else min(A[i][j] * s[j], demands[i])
            for j in range(n)
        )
        for i in range(m)
    )
    return ResidualSystem(
        residual_matrix=matrix,
        residual_demands=tuple(demands),
        generating_set=F,
        supplies=s,
        costs=ccip.base.costs,
        upper_bounds=d,
        infinite_flags=tuple(flags),
    )


def _kc_rows(ccip, residual):
    """LP rows of the knapsack-cover system for one column set."""
    key = tuple(sorted(residual.generating_set))
    rows = []
    for i, bf in enumerate(residual.residual_demands):
        if bf == 0:
            continue
        rows.append(
            LpRow(
                coeffs=residual.residual_matrix[i],
                rhs=bf,
                label=("kc", key, i),
            )
        )
    return rows


@dataclass(frozen=True)
class AlphaRelaxed:
    x_star: FracSolution
    lower_bound: Fraction
    generating_set: frozenset
    iterations: int


def alpha_relaxed(ccip, alpha, iteration_cap=200):
    """Constraint generation for an alpha-relaxed point.

    Solves over the F = {} knapsack-cover rows, then repeatedly adds the
    rows of F(x*) that x* violates. Every sub-LP optimum is a lower bound
    on the fully strengthened LP, which is the alpha-relaxed cost contract.
    """
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise ValidationError("alpha must lie strictly between 0 and 1")
    A = ccip.base.matrix
    s = ccip.supplies
    d = ccip.base.upper_bounds
    b = ccip.base.demands
    n = ccip.num_cols

    # quick exactness check: buying everything at its bound is the best any
    # integral solution can do, so a shortfall here means infeasible
    for i in range(ccip.num_rows):
        total = 0
        maxed = False
        for j in range(n):
            if A[i][j] and s[j]:
                if is_unbounded(d[j]):
                    maxed = True
                    break
                total += s[j] * d[j]
        if not maxed and total < b[i]:
            raise Infeasible("row %d cannot be covered integrally" % i, [i])

    rows = list(_kc_rows(ccip, kc_residual(ccip, frozenset())))
    seen = {row.label for row in rows}
    for it in range(1, iteration_cap + 1):
        lp = LinearProgram(
            objective=ccip.base.costs, rows=tuple(rows), upper_bounds=d
        )
        res = simplex_solve(lp)
        if isinstance(res, LpInfeasible):
            raise Infeasible("knapsack-cover system infeasible")
        if isinstance(res, LpUnbounded):
            raise ValidationError("covering LP cannot be unbounded")
        x = res.solution
        F = frozenset(
            j
            for j in range(n)
            if not is_unbounded(d[j]) and x[j] >= alpha * d[j]
        )
        residual = kc_residual(ccip, F)
        violated = []
        for row in _kc_rows(ccip, residual):
            lhs = sum(c * xv for c, xv in zip(row.coeffs, x))
            if lhs < row.rhs and row.label not in seen:
                violated.append(row)
        if not violated:
            return AlphaRelaxed(
                x_star=FracSolution(x),
                lower_bound=res.value,
                generating_set=F,
                iterations=it,
            )
        for row in violated:
            rows.append(row)
            seen.add(row.label)
    raise IterationBudgetExceeded(iteration_cap)
