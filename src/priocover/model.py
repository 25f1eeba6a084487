"""Instance and solution types plus coverage semantics.

Everything here is immutable and exact: integer data, Fraction solutions,
no floats. Coverage always counts multiplicity, so a segment taken x_j
times contributes x_j times its per-unit amount to every row it covers.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DimensionMismatch, ValidationError


class _Unbounded:
    """Sentinel for an absent upper bound. Never compared numerically."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNBOUNDED"

    def __deepcopy__(self, memo):
        return self

    def __copy__(self):
        return self


UNBOUNDED = _Unbounded()


def is_unbounded(value):
    return value is UNBOUNDED


def _int_tuple(values):
    return tuple(int(v) for v in values)


def _bound_tuple(values):
    out = []
    for v in values:
        out.append(UNBOUNDED if v is UNBOUNDED else int(v))
    return tuple(out)


# ---------------------------------------------------------------------------
# matrix-form instances


@dataclass(frozen=True)
class ZeroOneCIP:
    """cov{A, b, c, d} with a 0,1 constraint matrix."""

    matrix: tuple
    demands: tuple
    costs: tuple
    upper_bounds: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "matrix", tuple(_int_tuple(row) for row in self.matrix)
        )
        object.__setattr__(self, "demands", _int_tuple(self.demands))
        object.__setattr__(self, "costs", _int_tuple(self.costs))
        object.__setattr__(self, "upper_bounds", _bound_tuple(self.upper_bounds))

    @property
    def num_rows(self):
        return len(self.matrix)

    @property
    def num_cols(self):
        return len(self.costs)


@dataclass(frozen=True)
class ColumnRestrictedCIP:
    """A 0,1-CIP whose column j is scaled by the supply s_j."""

    base: ZeroOneCIP
    supplies: tuple

    def __post_init__(self):
        object.__setattr__(self, "supplies", _int_tuple(self.supplies))

    @property
    def num_rows(self):
        return self.base.num_rows

    @property
    def num_cols(self):
        return self.base.num_cols


@dataclass(frozen=True)
class PriorityCIP:
    """Unit-demand covering where column j serves row i iff s_j >= pi_i.

    The base demands are ignored; every row asks for coverage 1.
    """

    base: ZeroOneCIP
    priority_supplies: tuple
    priority_demands: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "priority_supplies", _int_tuple(self.priority_supplies)
        )
        object.__setattr__(
            self, "priority_demands", _int_tuple(self.priority_demands)
        )

    @property
    def num_rows(self):
        return self.base.num_rows

    @property
    def num_cols(self):
        return self.base.num_cols


# ---------------------------------------------------------------------------
# combinatorial instances


@dataclass(frozen=True)
class Segment:
    """Closed interval of line edges with one supply and one cost."""

    left: int
    right: int
    supply: int
    cost: int

    def covers(self, edge, priority):
        return self.left <= edge <= self.right and self.supply >= priority


@dataclass(frozen=True)
class LineInstance:
    """Priority line cover: edges 1..n between vertices 0..n."""

    edge_priorities: tuple
    segments: tuple

    def __post_init__(self):
        object.__setattr__(self, "edge_priorities", _int_tuple(self.edge_priorities))
        object.__setattr__(self, "segments", tuple(self.segments))

    @property
    def num_edges(self):
        return len(self.edge_priorities)

    def priority(self, edge):
        return self.edge_priorities[edge - 1]

    def covered_edges(self, j):
        """Edges the j-th segment covers, as a sorted tuple."""
        seg = self.segments[j]
        return tuple(
            e
            for e in range(seg.left, seg.right + 1)
            if seg.supply >= self.priority(e)
        )


@dataclass(frozen=True)
class TwoPrioritySegment:
    left: int
    right: int
    supply1: int
    supply2: int
    cost: int


@dataclass(frozen=True)
class TwoPriorityLineInstance:
    """Line cover with ordered pairs of priorities; coverage needs dominance
    in both coordinates."""

    edge_priorities: tuple  # pairs (pi1, pi2)
    segments: tuple

    def __post_init__(self):
        object.__setattr__(
            self,
            "edge_priorities",
            tuple((int(a), int(b)) for a, b in self.edge_priorities),
        )
        object.__setattr__(self, "segments", tuple(self.segments))

    @property
    def num_edges(self):
        return len(self.edge_priorities)

    def covers(self, j, edge):
        seg = self.segments[j]
        pi1, pi2 = self.edge_priorities[edge - 1]
        return (
            seg.left <= edge <= seg.right
            and seg.supply1 >= pi1
            and seg.supply2 >= pi2
        )


@dataclass(frozen=True)
class TreeSegment:
    top: int
    bottom: int
    supply: int
    cost: int


@dataclass(frozen=True)
class TreeInstance:
    """Rooted priority tree cover.

    Edges are identified by their lower endpoint (the child node), so the
    parent map doubles as the edge list. child_order fixes a total order
    on every node's children; it drives every traversal we do.
    """

    root: int
    parent: dict
    edge_priorities: dict
    segments: tuple
    child_order: dict

    def __post_init__(self):
        object.__setattr__(
            self, "parent", {int(k): int(v) for k, v in self.parent.items()}
        )
        object.__setattr__(
            self,
            "edge_priorities",
            {int(k): int(v) for k, v in self.edge_priorities.items()},
        )
        object.__setattr__(self, "segments", tuple(self.segments))
        object.__setattr__(
            self,
            "child_order",
            {int(k): _int_tuple(v) for k, v in self.child_order.items()},
        )

    @property
    def num_nodes(self):
        return len(self.parent) + 1

    def nodes(self):
        return (self.root,) + tuple(sorted(self.parent))

    def children(self, v):
        return self.child_order.get(v, ())

    def priority(self, edge):
        return self.edge_priorities[edge]


@dataclass(frozen=True)
class Box:
    """Axis-parallel box with implicit y_lo = z_lo = 0."""

    x_lo: int
    x_hi: int
    y_hi: int
    z_hi: int
    cost: int

    def contains(self, point):
        x, y, z = point
        return self.x_lo <= x <= self.x_hi and y <= self.y_hi and z <= self.z_hi


@dataclass(frozen=True)
class RectCoverInstance:
    points: tuple
    boxes: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "points", tuple(tuple(int(c) for c in p) for p in self.points)
        )
        object.__setattr__(self, "boxes", tuple(self.boxes))


# ---------------------------------------------------------------------------
# solutions


@dataclass(frozen=True)
class IntSolution:
    multiplicities: tuple

    def __post_init__(self):
        object.__setattr__(self, "multiplicities", _int_tuple(self.multiplicities))

    def __len__(self):
        return len(self.multiplicities)

    def __iter__(self):
        return iter(self.multiplicities)

    def __getitem__(self, j):
        return self.multiplicities[j]

    def support(self):
        return tuple(j for j, v in enumerate(self.multiplicities) if v)


@dataclass(frozen=True)
class FracSolution:
    multiplicities: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "multiplicities", tuple(Fraction(v) for v in self.multiplicities)
        )

    def __len__(self):
        return len(self.multiplicities)

    def __iter__(self):
        return iter(self.multiplicities)

    def __getitem__(self, j):
        return self.multiplicities[j]

    def support(self):
        return tuple(j for j, v in enumerate(self.multiplicities) if v)


def solution_cost(costs, solution):
    return sum(c * x for c, x in zip(costs, solution, strict=True))


# ---------------------------------------------------------------------------
# tree walking helpers


def tree_edges(instance):
    """All edges (child ids) in depth-first first-visit order.

    This is the canonical row order used for tree cover matrices; the
    traversal follows child_order at every node.
    """
    order = []
    stack = [instance.root]
    while stack:
        v = stack.pop()
        # edge (parent(v), v) is ranked the moment v is first reached
        if v != instance.root:
            order.append(v)
        for c in reversed(instance.children(v)):
            stack.append(c)
    return tuple(order)


def node_depth(instance, v):
    d = 0
    while v != instance.root:
        v = instance.parent[v]
        d += 1
    return d


def ancestors(instance, v):
    """Nodes from v up to the root, inclusive on both ends."""
    out = [v]
    while v != instance.root:
        v = instance.parent[v]
        out.append(v)
    return tuple(out)


def is_strict_ancestor(instance, a, v):
    if a == v:
        return False
    while v != instance.root:
        v = instance.parent[v]
        if v == a:
            return True
    return False


def path_edges(instance, top, bottom):
    """Edges on the vertical path from top down to bottom, top first.

    Requires top to be a strict ancestor of bottom.
    """
    edges = []
    v = bottom
    while v != top:
        edges.append(v)
        if v == instance.root:
            raise ValidationError(
                "node %d is not an ancestor of node %d" % (top, bottom)
            )
        v = instance.parent[v]
    edges.reverse()
    return tuple(edges)


def tree_leaves(instance):
    return tuple(v for v in (instance.root,) + tuple(sorted(instance.parent))
                 if not instance.children(v))


def tree_segment_covered(instance, seg):
    """Edges of the tree the segment actually covers."""
    return tuple(
        e
        for e in path_edges(instance, seg.top, seg.bottom)
        if seg.supply >= instance.priority(e)
    )


# ---------------------------------------------------------------------------
# matrices


def apply_supplies(ccip):
    """The induced matrix A[s] with entries A_ij * s_j."""
    A = ccip.base.matrix
    s = ccip.supplies
    return tuple(
        tuple(A[i][j] * s[j] for j in range(ccip.num_cols))
        for i in range(ccip.num_rows)
    )


def build_priority_matrix(pcip):
    """The induced 0,1 matrix A[s, pi]."""
    A = pcip.base.matrix
    s = pcip.priority_supplies
    pi = pcip.priority_demands
    return tuple(
        tuple(
            1 if A[i][j] == 1 and s[j] >= pi[i] else 0
            for j in range(pcip.num_cols)
        )
        for i in range(pcip.num_rows)
    )


def effective_system(instance):
    """(matrix, demands, costs) of the covering program an instance defines.

    Rows follow the instance's canonical order: matrix rows for CIP kinds,
    line edges 1..n, tree edges in depth-first order, rect points in input
    order. All priority-style instances get unit demands.
    """
    if isinstance(instance, ZeroOneCIP):
        return instance.matrix, instance.demands, instance.costs
    if isinstance(instance, ColumnRestrictedCIP):
        return apply_supplies(instance), instance.base.demands, instance.base.costs
    if isinstance(instance, PriorityCIP):
        ones = (1,) * instance.num_rows
        return build_priority_matrix(instance), ones, instance.base.costs
    if isinstance(instance, LineInstance):
        rows = []
        for e in range(1, instance.num_edges + 1):
            pi = instance.priority(e)
            rows.append(
                tuple(1 if seg.covers(e, pi) else 0 for seg in instance.segments)
            )
        costs = tuple(seg.cost for seg in instance.segments)
        return tuple(rows), (1,) * instance.num_edges, costs
    if isinstance(instance, TwoPriorityLineInstance):
        rows = []
        for e in range(1, instance.num_edges + 1):
            rows.append(
                tuple(
                    1 if instance.covers(j, e) else 0
                    for j in range(len(instance.segments))
                )
            )
        costs = tuple(seg.cost for seg in instance.segments)
        return tuple(rows), (1,) * instance.num_edges, costs
    if isinstance(instance, TreeInstance):
        cover_sets = [set(tree_segment_covered(instance, seg))
                      for seg in instance.segments]
        rows = tuple(
            tuple(1 if e in cov else 0 for cov in cover_sets)
            for e in tree_edges(instance)
        )
        costs = tuple(seg.cost for seg in instance.segments)
        return rows, (1,) * len(rows), costs
    if isinstance(instance, RectCoverInstance):
        rows = tuple(
            tuple(1 if box.contains(p) else 0 for box in instance.boxes)
            for p in instance.points
        )
        costs = tuple(box.cost for box in instance.boxes)
        return rows, (1,) * len(rows), costs
    raise ValidationError("unsupported instance type: %r" % type(instance).__name__)


def instance_upper_bounds(instance):
    """Per-column upper bounds, UNBOUNDED where the instance carries none."""
    if isinstance(instance, ZeroOneCIP):
        return instance.upper_bounds
    if isinstance(instance, (ColumnRestrictedCIP, PriorityCIP)):
        return instance.base.upper_bounds
    if isinstance(instance, (LineInstance, TwoPriorityLineInstance, TreeInstance)):
        return (UNBOUNDED,) * len(instance.segments)
    if isinstance(instance, RectCoverInstance):
        return (UNBOUNDED,) * len(instance.boxes)
    raise ValidationError("unsupported instance type: %r" % type(instance).__name__)


# ---------------------------------------------------------------------------
# coverage checking and validation


@dataclass(frozen=True)
class CoverReport:
    feasible: bool
    coverage: tuple
    demands: tuple
    uncovered: tuple

    @property
    def slack(self):
        return tuple(c - d for c, d in zip(self.coverage, self.demands))


def check_cover(instance, solution):
    """Evaluate the covering constraints of an instance at a solution.

    Works for integral and fractional solutions alike; coverage is the
    multiplicity-weighted row sum of the effective matrix.
    """
    matrix, demands, _ = effective_system(instance)
    n = len(matrix[0]) if matrix else len(tuple(solution))
    xs = tuple(solution)
    if matrix and len(xs) != n:
        raise DimensionMismatch(
            "solution has %d entries, instance has %d columns" % (len(xs), n)
        )
    coverage = tuple(
        sum(row[j] * xs[j] for j in range(len(xs))) for row in matrix
    )
    uncovered = tuple(
        i for i, (c, d) in enumerate(zip(coverage, demands)) if c < d
    )
    return CoverReport(
        feasible=not uncovered,
        coverage=coverage,
        demands=tuple(demands),
        uncovered=uncovered,
    )


def _validate_zero_one(cip, out, prefix=""):
    m, n = cip.num_rows, cip.num_cols
    for i, row in enumerate(cip.matrix):
        if len(row) != n:
            out.append("%srow %d has length %d, expected %d" % (prefix, i, len(row), n))
        for j, a in enumerate(row):
            if a not in (0, 1):
                out.append("%smatrix[%d][%d] = %r is not 0/1" % (prefix, i, j, a))
    if len(cip.demands) != m:
        out.append("%sdemands length %d != %d rows" % (prefix, len(cip.demands), m))
    for i, b in enumerate(cip.demands):
        if b < 0:
            out.append("%sdemands[%d] = %d is negative" % (prefix, i, b))
    for j, c in enumerate(cip.costs):
        if c < 0:
            out.append("%scosts[%d] = %d is negative" % (prefix, j, c))
    if len(cip.upper_bounds) != n:
        out.append(
            "%supper_bounds length %d != %d cols" % (prefix, len(cip.upper_bounds), n)
        )
    for j, d in enumerate(cip.upper_bounds):
        if not is_unbounded(d) and d < 0:
            out.append("%supper_bounds[%d] = %d is negative" % (prefix, j, d))


def validate_instance(instance):
    """Collect every invariant violation; returns [] when clean."""
    out = []
    if isinstance(instance, ZeroOneCIP):
        _validate_zero_one(instance, out)
    elif isinstance(instance, ColumnRestrictedCIP):
        _validate_zero_one(instance.base, out, prefix="base: ")
        if len(instance.supplies) != instance.base.num_cols:
            out.append("supplies length != column count")
        for j, s in enumerate(instance.supplies):
            if s <= 0:
                out.append("supplies[%d] = %d is not positive" % (j, s))
    elif isinstance(instance, PriorityCIP):
        _validate_zero_one(instance.base, out, prefix="base: ")
        if len(instance.priority_supplies) != instance.base.num_cols:
            out.append("priority_supplies length != column count")
        if len(instance.priority_demands) != instance.base.num_rows:
            out.append("priority_demands length != row count")
        for j, s in enumerate(instance.priority_supplies):
            if s <= 0:
                out.append("priority_supplies[%d] = %d is not positive" % (j, s))
        for i, p in enumerate(instance.priority_demands):
            if p <= 0:
                out.append("priority_demands[%d] = %d is not positive" % (i, p))
    elif isinstance(instance, LineInstance):
        n = instance.num_edges
        if n == 0:
            out.append("line has no edges")
        for e, pi in enumerate(instance.edge_priorities, start=1):
            if pi <= 0:
                out.append("edge %d priority %d is not positive" % (e, pi))
        for j, seg in enumerate(instance.segments):
            if not (1 <= seg.left <= seg.right <= n):
                out.append(
                    "segment %d interval [%d, %d] outside 1..%d"
                    % (j, seg.left, seg.right, n)
                )
            if seg.supply <= 0:
                out.append("segment %d supply %d is not positive" % (j, seg.supply))
            if seg.cost < 0:
                out.append("segment %d cost %d is negative" % (j, seg.cost))
    elif isinstance(instance, TwoPriorityLineInstance):
        n = instance.num_edges
        for e, (p1, p2) in enumerate(instance.edge_priorities, start=1):
            if p1 <= 0 or p2 <= 0:
                out.append("edge %d priorities (%d, %d) not positive" % (e, p1, p2))
        for j, seg in enumerate(instance.segments):
            if not (1 <= seg.left <= seg.right <= n):
                out.append(
                    "segment %d interval [%d, %d] outside 1..%d"
                    % (j, seg.left, seg.right, n)
                )
            if seg.supply1 <= 0 or seg.supply2 <= 0:
                out.append("segment %d supplies not positive" % j)
            if seg.cost < 0:
                out.append("segment %d cost %d is negative" % (j, seg.cost))
    elif isinstance(instance, TreeInstance):
        _validate_tree(instance, out)
    elif isinstance(instance, RectCoverInstance):
        for j, box in enumerate(instance.boxes):
            if box.x_lo > box.x_hi:
                out.append("box %d has x_lo > x_hi" % j)
            if box.cost < 0:
                out.append("box %d cost %d is negative" % (j, box.cost))
    else:
        out.append("unsupported instance type: %r" % type(instance).__name__)
    return out


def require_valid(instance):
    """Raise ValidationError listing every invariant violation, if any."""
    problems = validate_instance(instance)
    if problems:
        raise ValidationError("; ".join(problems))


def _upward_walk_ends(instance):
    """Where the walk up the parent map from each node ends: "root",
    "dangling" (at a parent that is not a node) or "cycle".

    One pass over the nodes: every node on a walk ends where the walk
    does, so each node is walked through once.
    """
    ends = {instance.root: "root"}
    for v in instance.parent:
        path = []
        on_path = set()
        u = v
        while u not in ends:
            if u in on_path:
                end = "cycle"
                break
            path.append(u)
            on_path.add(u)
            if u not in instance.parent:
                end = "dangling"
                break
            u = instance.parent[u]
        else:
            end = ends[u]
        for w in path:
            ends[w] = end
    return ends


def _validate_tree(instance, out):
    if instance.root in instance.parent:
        out.append("root %d appears in the parent map" % instance.root)
    nodes = set(instance.parent) | {instance.root}
    ends = _upward_walk_ends(instance)
    for v in instance.parent:
        if ends[v] == "dangling":
            out.append("node %d does not reach the root" % v)
        elif ends[v] == "cycle":
            out.append("cycle through node %d" % v)
    for v, p in instance.parent.items():
        if p not in nodes:
            out.append("parent %d of node %d is not a node" % (p, v))
    for v in instance.parent:
        if v not in instance.edge_priorities:
            out.append("edge %d has no priority" % v)
    for v, pi in instance.edge_priorities.items():
        if v not in instance.parent:
            out.append("priority given for non-edge %d" % v)
        if pi <= 0:
            out.append("edge %d priority %d is not positive" % (v, pi))
    child_sets = {}
    for v, p in instance.parent.items():
        child_sets.setdefault(p, set()).add(v)
    for v in nodes:
        declared = instance.child_order.get(v, ())
        actual = child_sets.get(v, set())
        if set(declared) != actual or len(declared) != len(set(declared)):
            out.append(
                "child_order of node %d is %s, children are %s"
                % (v, list(declared), sorted(actual))
            )
    for j, seg in enumerate(instance.segments):
        if seg.top not in nodes or seg.bottom not in nodes:
            out.append("segment %d endpoints outside the tree" % j)
            continue
        # only a walk up from a node that reaches the root terminates
        if ends[seg.bottom] == "root" and not is_strict_ancestor(
            instance, seg.top, seg.bottom
        ):
            out.append(
                "segment %d: node %d is not a strict ancestor of node %d"
                % (j, seg.top, seg.bottom)
            )
        if seg.supply <= 0:
            out.append("segment %d supply %d is not positive" % (j, seg.supply))
        if seg.cost < 0:
            out.append("segment %d cost %d is negative" % (j, seg.cost))


def line_to_pcip(instance):
    """Translate a line instance to the equivalent priority CIP.

    Rows are edges in order, columns are segments; the base matrix is
    plain containment and priorities carry the supply test.
    """
    n = instance.num_edges
    matrix = tuple(
        tuple(
            1 if seg.left <= e <= seg.right else 0 for seg in instance.segments
        )
        for e in range(1, n + 1)
    )
    base = ZeroOneCIP(
        matrix=matrix,
        demands=(1,) * n,
        costs=tuple(seg.cost for seg in instance.segments),
        upper_bounds=(1,) * len(instance.segments),
    )
    return PriorityCIP(
        base=base,
        priority_supplies=tuple(seg.supply for seg in instance.segments),
        priority_demands=instance.edge_priorities,
    )
