"""Ground-truth search and the plug-in oracles for the rounding pipeline.

`brute_force_opt` is the reference answer for every other solver in the
package. The two oracle classes wrap an exact LP solve (factor 1 on
interval-structured 0,1 systems) and the primal-dual line algorithm
(factor 2 on interval-structured priority systems); both certify their
factor on every call instead of trusting the theory silently.
"""

from fractions import Fraction

from .errors import (
    BudgetExceeded,
    CertificateViolated,
    Infeasible,
    NonIntegralVertex,
    ValidationError,
)
from .lp import LpInfeasible, LpOptimal, canonical_relaxation, simplex_solve
from .model import (
    IntSolution,
    LineInstance,
    Segment,
    build_priority_matrix,
    effective_system,
    instance_upper_bounds,
    is_unbounded,
    solution_cost,
)
from .plc import primal_dual_plc


def _multiplicity_caps(instance, matrix, demands):
    """Per column: enough copies to meet the largest demand at the column's
    largest entry, capped at its upper bound; 0 for a column covering
    nothing."""
    bounds = instance_upper_bounds(instance)
    caps = []
    for j in range(len(bounds)):
        value = max((row[j] for row in matrix), default=0)
        if value == 0:
            caps.append(0)  # column covers nothing
            continue
        need = max(
            (-(-b // max(value, 1)) for b in demands), default=0
        )
        d = bounds[j]
        caps.append(need if is_unbounded(d) else min(d, need))
    return caps


def brute_force_opt(instance, budget=2_000_000):
    """Exact optimum by depth-first search with pruning.

    Multiplicities are tried in ascending order and equal-cost branches
    are pruned, so the returned vector is the lexicographically smallest
    optimal solution. Coverage capacity of each column suffix bounds the
    search; running past `budget` nodes raises BudgetExceeded.
    """
    matrix, demands, costs = effective_system(instance)
    m = len(matrix)
    n = len(matrix[0]) if matrix else len(costs)
    caps = _multiplicity_caps(instance, matrix, demands)

    # capacity left in columns j.. per row
    suffix = [[0] * m for _ in range(n + 1)]
    for j in range(n - 1, -1, -1):
        for i in range(m):
            suffix[j][i] = suffix[j + 1][i] + matrix[i][j] * caps[j]
    if any(demands[i] > suffix[0][i] for i in range(m)):
        raise Infeasible(
            "demand exceeds total capacity",
            [i for i in range(m) if demands[i] > suffix[0][i]],
        )

    residual = list(demands)
    vec = [0] * n
    best = {"cost": None, "vec": None}
    nodes = {"count": 0}

    def dfs(j, cost):
        nodes["count"] += 1
        if nodes["count"] > budget:
            raise BudgetExceeded(budget)
        if best["cost"] is not None and cost >= best["cost"]:
            return
        if all(r <= 0 for r in residual):
            best["cost"] = cost
            best["vec"] = vec[:j] + [0] * (n - j)
            return
        if j == n:
            return
        if any(residual[i] > suffix[j][i] for i in range(m)):
            return
        col = [matrix[i][j] for i in range(m)]
        for mult in range(caps[j] + 1):
            child = cost + mult * costs[j]
            if best["cost"] is not None and child >= best["cost"]:
                break
            if mult:
                for i in range(m):
                    residual[i] -= col[i]
            vec[j] = mult
            dfs(j + 1, child)
        # a break can leave fewer than caps[j] purchases applied
        bought = vec[j]
        if bought:
            for i in range(m):
                residual[i] += col[i] * bought
        vec[j] = 0

    dfs(0, 0)
    if best["cost"] is None:
        raise Infeasible("no integral cover within multiplicity caps")
    return best["cost"], IntSolution(tuple(best["vec"]))


# ---------------------------------------------------------------------------
# oracles


def _check_witness(matrix, demands, bounds, witness):
    xs = tuple(witness)
    if len(xs) != (len(matrix[0]) if matrix else len(xs)):
        raise ValidationError("witness has the wrong length")
    for j, x in enumerate(xs):
        if x < 0:
            raise ValidationError("witness negative at column %d" % j)
        if bounds is not None and not is_unbounded(bounds[j]) and x > bounds[j]:
            raise ValidationError("witness exceeds bound at column %d" % j)
    for i, row in enumerate(matrix):
        if sum(a * x for a, x in zip(row, xs)) < demands[i]:
            raise ValidationError("witness violates row %d" % i)


def solve_tu_line_cover(instance, fractional):
    """Factor-1 oracle for interval-structured 0,1 systems.

    Solves the LP exactly and insists the vertex is integral; a
    fractional vertex means the matrix was not interval-structured and
    surfaces as NonIntegralVertex rather than a silent rounding.
    """
    _check_witness(
        instance.matrix,
        instance.demands,
        instance.upper_bounds,
        fractional,
    )
    result = simplex_solve(canonical_relaxation(instance))
    if isinstance(result, LpInfeasible):
        raise Infeasible("0,1 cover LP infeasible")
    if not isinstance(result, LpOptimal):
        raise ValidationError("covering LP cannot be unbounded")
    values = []
    for x in result.solution:
        if x.denominator != 1:
            raise NonIntegralVertex(
                "LP vertex is fractional", solution=result.solution
            )
        values.append(int(x))
    witness_cost = sum(
        c * x for c, x in zip(instance.costs, tuple(fractional))
    )
    if result.value > witness_cost:
        raise CertificateViolated(
            "LP optimum %s above the witness cost %s" % (result.value, witness_cost)
        )
    return IntSolution(tuple(values))


class TuLineOracle:
    """CipOracle with gamma = 1 via the exact LP route."""

    gamma = Fraction(1)

    def __call__(self, instance, fractional):
        return solve_tu_line_cover(instance, fractional)


class PrimalDualPcipOracle:
    """PcipOracle with omega = 2.

    Translates an interval-structured priority system to a line instance
    (row i becomes edge i+1 with the row's priority demand; column j
    becomes the segment over its support with its priority supply), runs
    the primal-dual algorithm, and certifies cost <= 2 * dual <= 2 *
    cost(witness) on every call.
    """

    omega = Fraction(2)

    def __call__(self, instance, fractional):
        m, n = instance.num_rows, instance.num_cols
        if m == 0:
            return IntSolution((0,) * n)
        matrix = build_priority_matrix(instance)
        _check_witness(matrix, (1,) * m, None, fractional)

        base = instance.base.matrix
        segments = []
        keep = []
        for j in range(n):
            support = [i for i in range(m) if base[i][j]]
            if not support:
                continue
            lo, hi = support[0], support[-1]
            if hi - lo + 1 != len(support):
                raise ValidationError(
                    "column %d support is not contiguous" % j
                )
            segments.append(
                Segment(
                    left=lo + 1,
                    right=hi + 1,
                    supply=instance.priority_supplies[j],
                    cost=instance.base.costs[j],
                )
            )
            keep.append(j)
        line = LineInstance(
            edge_priorities=instance.priority_demands, segments=tuple(segments)
        )
        picked, certificate = primal_dual_plc(line)

        out = [0] * n
        for pos, j in enumerate(keep):
            out[j] = picked[pos]
        solution = IntSolution(tuple(out))
        cost = solution_cost(instance.base.costs, solution)
        witness_cost = sum(
            c * x for c, x in zip(instance.base.costs, tuple(fractional))
        )
        if cost > 2 * certificate.total or certificate.total > witness_cost:
            raise CertificateViolated(
                "primal-dual factor certificate failed"
            )
        return solution
