"""Independent checks of input and output documents.

Nothing here imports priocover. The covering rule is written out again
from its definition: a line segment [l, r] with supply s covers edge e when
l <= e <= r and s >= pi_e; a tree segment from top t down to bottom b
covers each edge (named by its child node) on that path whose priority it
meets; CCIP column j gives row i the amount A_ij * s_j per unit. Optima
come from HiGHS through scipy, imported only when a check needs one.
"""

from fractions import Fraction

REL_TOL = 1e-9
PD_FACTOR = 2  # primal-dual line cover and the tree 2-approximation
CCIP_FACTOR = 40  # 24 * gamma + 8 * omega with gamma = 1, omega = 2


def num(value):
    """A document number: an integer or {"num", "den"}."""
    if isinstance(value, dict):
        return Fraction(value["num"], value["den"])
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError("not a document number: %r" % (value,))
    return value


class System:
    """min c.x subject to coef.x >= demand per row, 0 <= x_j <= bound_j."""

    def __init__(self, coef, demands, costs, bounds):
        self.coef = coef  # rows of per-column coverage amounts
        self.demands = demands
        self.costs = costs
        self.bounds = bounds  # None where unbounded

    def problems(self, xs):
        if len(xs) != len(self.costs):
            return ["solution has %d entries for %d columns" % (len(xs), len(self.costs))]
        out = []
        for j, x in enumerate(xs):
            if x < 0 or (self.bounds[j] is not None and x > self.bounds[j]):
                out.append("x[%d] = %s outside its bounds" % (j, x))
        for i, row in enumerate(self.coef):
            if sum(a * x for a, x in zip(row, xs) if a) < self.demands[i]:
                out.append("row %d uncovered" % i)
        return out

    def cost(self, xs):
        return sum(c * x for c, x in zip(self.costs, xs))


def tree_preorder(doc):
    """Edges (child nodes) in depth-first first-visit order along child_order."""
    children = {int(v): kids for v, kids in doc["child_order"].items()}
    order = []
    stack = [doc["root"]]
    while stack:
        v = stack.pop()
        if v != doc["root"]:
            order.append(v)
        stack.extend(reversed(children.get(v, ())))
    return order


def _tree_path(parent, top, bottom):
    """Edges from bottom up to top, or None when top is not above bottom."""
    edges = []
    v = bottom
    while v != top:
        if v not in parent:
            return None
        edges.append(v)
        v = parent[v]
    return edges or None


def system(doc):
    """The covering program an input document defines."""
    kind = doc["kind"]
    if kind == "line":
        pi = [e["pi"] for e in doc["edges"]]
        segs = doc["segments"]
        coef = [
            [1 if s["l"] <= e <= s["r"] and s["s"] >= pi[e - 1] else 0 for s in segs]
            for e in range(1, len(pi) + 1)
        ]
        return System(coef, [1] * len(pi), [s["c"] for s in segs], [None] * len(segs))
    if kind == "tree":
        parent = {int(v): p for v, p in doc["parent"].items()}
        pi = {e["id"]: e["pi"] for e in doc["edges"]}
        segs = doc["segments"]
        covers = [
            {e for e in _tree_path(parent, s["t"], s["b"]) or () if s["s"] >= pi[e]}
            for s in segs
        ]
        coef = [[1 if e in cov else 0 for cov in covers] for e in tree_preorder(doc)]
        return System(coef, [1] * len(coef), [s["c"] for s in segs], [None] * len(segs))
    if kind == "ccip":
        supplies = doc["supplies"]
        coef = [[a * s for a, s in zip(row, supplies)] for row in doc["matrix"]]
        return System(coef, list(doc["demands"]), list(doc["costs"]), list(doc["bounds"]))
    raise ValueError("no covering program for kind %r" % kind)


# ---------------------------------------------------------------------------
# input validation


def _positive_ints(values):
    return all(isinstance(v, int) and v > 0 for v in values)


def validate(doc):
    """Problems that make a generated document unfit for timing; [] if none.

    Beyond well-formedness, every row must be coverable, and every CCIP
    column must touch a run of consecutive rows (the rounding oracles
    need interval structure) and every row an unbounded column.
    """
    kind = doc.get("kind")
    out = []
    if kind == "line":
        n = len(doc["edges"])
        if n == 0 or not _positive_ints(e["pi"] for e in doc["edges"]):
            out.append("line needs edges with positive priorities")
        for j, s in enumerate(doc["segments"]):
            if not (1 <= s["l"] <= s["r"] <= n) or s["s"] <= 0 or s["c"] < 0:
                out.append("segment %d is malformed" % j)
    elif kind == "tree":
        parent = {int(v): p for v, p in doc["parent"].items()}
        nodes = set(parent) | {doc["root"]}
        if doc["root"] in parent or any(p not in nodes for p in parent.values()):
            out.append("parent map is not a tree on its nodes")
        elif sorted(tree_preorder(doc)) != sorted(parent):
            out.append("child_order does not list every node once")
        if {e["id"] for e in doc["edges"]} != set(parent):
            out.append("priorities do not match the edges")
        if not _positive_ints(e["pi"] for e in doc["edges"]):
            out.append("priorities must be positive")
        for j, s in enumerate(doc["segments"]):
            if s["b"] not in parent or _tree_path(parent, s["t"], s["b"]) is None:
                out.append("segment %d is not a downward path" % j)
            elif s["s"] <= 0 or s["c"] < 0:
                out.append("segment %d has a bad supply or cost" % j)
    elif kind == "ccip":
        matrix = doc["matrix"]
        cols = len(doc["costs"])
        if any(len(row) != cols for row in matrix) or len(doc["demands"]) != len(matrix):
            out.append("matrix shape disagrees with demands or costs")
            return out
        if len(doc["bounds"]) != cols or len(doc["supplies"]) != cols:
            out.append("bounds or supplies have the wrong length")
            return out
        if not _positive_ints(doc["supplies"]) or min(doc["costs"], default=0) < 0:
            out.append("supplies must be positive and costs non-negative")
        for j in range(cols):
            support = [i for i, row in enumerate(matrix) if row[j]]
            if not support or support != list(range(support[0], support[-1] + 1)):
                out.append("column %d is not a run of consecutive rows" % j)
        for i, row in enumerate(matrix):
            if not any(a and doc["bounds"][j] is None for j, a in enumerate(row)):
                out.append("row %d has no unbounded column" % i)
    else:
        out.append("unexpected kind %r" % kind)
    if not out and kind in ("line", "tree"):
        coverable = [any(row) for row in system(doc).coef]
        if not all(coverable):
            out.append("row %d cannot be covered" % coverable.index(False))
    return out


# ---------------------------------------------------------------------------
# reference optima


def optimum(sys_, integral):
    """Optimal value by HiGHS: exact for integer programs (the rounded
    minimiser is re-checked in exact arithmetic), a float for LPs."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, linprog, milp

    coef = np.array(sys_.coef, dtype=float)
    costs = np.array(sys_.costs, dtype=float)
    upper = np.array([np.inf if b is None else b for b in sys_.bounds], dtype=float)
    if not integral:
        res = linprog(costs, A_ub=-coef, b_ub=-np.array(sys_.demands, dtype=float),
                      bounds=list(zip([0.0] * len(upper), upper)), method="highs")
        if res.status != 0:
            raise RuntimeError("reference LP failed: %s" % res.message)
        return res.fun
    res = milp(costs, constraints=LinearConstraint(coef, lb=sys_.demands),
               integrality=np.ones(len(costs)), bounds=Bounds(0, upper),
               options={"mip_rel_gap": 0})
    if res.status != 0:
        raise RuntimeError("reference MILP failed: %s" % res.message)
    xs = [int(round(v)) for v in res.x]
    if sys_.problems(xs):
        raise RuntimeError("reference MILP point is infeasible")
    return sys_.cost(xs)


def _close(a, b):
    return abs(float(a) - float(b)) <= REL_TOL * max(1.0, abs(float(b)))


# ---------------------------------------------------------------------------
# output checks


def _solution(sys_, out, name, problems, integral=True):
    """Coverage and cost of one solution document; returns its cost."""
    if out is None:
        problems.append("%s missing" % name)
        return None
    if out.get("kind") != "solution":
        problems.append("%s is not a solution document" % name)
        return None
    xs = [num(v) for v in out["x"]]
    if integral and any(isinstance(x, Fraction) and x.denominator != 1 for x in xs):
        problems.append("%s is fractional" % name)
    problems.extend("%s: %s" % (name, p) for p in sys_.problems(xs))
    cost = num(out["cost"])
    if len(xs) == len(sys_.costs) and sys_.cost(xs) != cost:
        problems.append("%s reports cost %s, its x costs %s" % (name, cost, sys_.cost(xs)))
    return cost


def _rect_problems(doc, rect):
    """The rectangle document must cover exactly as the tree does."""
    if rect is None or rect.get("kind") != "rect":
        return ["rectangle document missing"]
    tree = system(doc)
    boxes = rect["boxes"]
    points = rect["points"]
    if len(points) != len(tree.coef) or len(boxes) != len(tree.costs):
        return ["rectangle document has the wrong shape"]
    if [b["c"] for b in boxes] != tree.costs:
        return ["box costs differ from segment costs"]
    for i, (x, y, z) in enumerate(points):
        row = [
            1 if b["x_lo"] <= x <= b["x_hi"] and y <= b["y_hi"] and z <= b["z_hi"] else 0
            for b in boxes
        ]
        if row != tree.coef[i]:
            return ["point %d is covered by other boxes than tree edge %d" % (i, i)]
    return []


def check(workload, doc, files):
    """Check one document's outputs; files maps OUT0, AUDIT1, ... to parsed
    JSON (None when absent). Returns (problems, cost over optimum)."""
    sys_ = system(doc)
    problems = []
    ratio = None
    if workload == "line":
        opt = optimum(sys_, integral=True)
        exact = _solution(sys_, files.get("OUT0"), "plc-exact", problems)
        if exact is not None and not _close(exact, opt):
            problems.append("plc-exact cost %s, optimum %s" % (exact, opt))
        cost = _solution(sys_, files.get("OUT1"), "plc-pd", problems)
        audit = files.get("AUDIT1")
        if cost is not None:
            ratio = cost / opt
            if cost > PD_FACTOR * opt:
                problems.append("plc-pd cost %s above %d x optimum %s" % (cost, PD_FACTOR, opt))
            if audit is None or num(audit["cost"]) != cost:
                problems.append("plc-pd audit missing or disagrees on cost")
            elif not num(audit["dual_total"]) <= opt or cost > PD_FACTOR * num(audit["dual_total"]):
                problems.append("plc-pd dual certificate does not hold")
    elif workload == "tree":
        opt = optimum(sys_, integral=True)
        cost = _solution(sys_, files.get("OUT0"), "ptc-2apx", problems)
        audit = files.get("AUDIT0")
        if cost is not None:
            ratio = cost / opt
            if cost > PD_FACTOR * opt:
                problems.append("ptc-2apx cost %s above %d x optimum %s" % (cost, PD_FACTOR, opt))
            if audit is None or num(audit["cost"]) != cost:
                problems.append("ptc-2apx audit missing or disagrees on cost")
            elif not cost <= num(audit["tree_cover_value"]) <= PD_FACTOR * opt:
                problems.append("ptc-2apx tree cover value out of range")
        problems.extend(_rect_problems(doc, files.get("OUT2")))
    elif workload == "lp":
        opt = optimum(sys_, integral=False)
        cost = _solution(sys_, files.get("OUT0"), "lp solve", problems, integral=False)
        if cost is not None:
            ratio = float(cost) / opt
            if not _close(cost, opt):
                problems.append("lp solve value %s, reference optimum %r" % (cost, opt))
    elif workload == "ccip":
        opt = optimum(sys_, integral=True)
        cost = _solution(sys_, files.get("OUT0"), "ccip", problems)
        audit = files.get("AUDIT0")
        if cost is not None:
            ratio = cost / opt
            if audit is None or num(audit["cost"]) != cost:
                problems.append("ccip audit missing or disagrees on cost")
            else:
                lower = num(audit["lower_bound"])
                if not lower <= opt:
                    problems.append("ccip lower bound %s above optimum %s" % (lower, opt))
                if num(audit["bound_factor"]) != CCIP_FACTOR or cost > CCIP_FACTOR * lower:
                    problems.append("ccip cost %s above its certified bound" % cost)
    else:
        raise ValueError("unknown workload %r" % workload)
    return problems, None if ratio is None else float(ratio)
