"""Priority tree cover.

Everything here works on rooted trees whose segments are vertical paths.
The 2-approximation reduces tree cover to exact line cover on each
ancestor-descendant path plus an exact 0,1 cover over virtual path
segments. The integrality-gap pipeline splits a fractional point across a
universal leaf-path decomposition and rounds each path with the
primal-dual line algorithm.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    CertificateViolated,
    FractionalInfeasible,
    Infeasible,
    ValidationError,
)
from .lp import LinearProgram, LpOptimal, LpRow, simplex_solve
from .model import (
    FracSolution,
    IntSolution,
    LineInstance,
    Segment,
    TreeInstance,
    TreeSegment,
    ancestors,
    check_cover,
    is_strict_ancestor,
    node_depth,
    path_edges,
    require_valid,
    solution_cost,
    tree_edges,
    tree_segment_covered,
    validate_instance,  # noqa: F401 (bench/tracing.py wraps ptc.validate_instance)
)
from .plc import exact_plc, primal_dual_plc


def _segment_runs(instance):
    """Per segment: its path edges and its covered edges, top to bottom."""
    contained = []
    covered = []
    for seg in instance.segments:
        edges = path_edges(instance, seg.top, seg.bottom)
        contained.append(edges)
        covered.append(
            tuple(e for e in edges if seg.supply >= instance.priority(e))
        )
    return contained, covered


# ---------------------------------------------------------------------------
# exact 0,1 tree cover over virtual (top, bottom) pairs


def exact_tree_cover_01(instance, pairs, costs):
    """Minimum-cost selection of vertical paths covering every tree edge.

    pairs are (top, bottom) node pairs with top a strict ancestor of
    bottom; costs may be ints or Fractions. Returns (value, chosen pair
    indices). Bottom-up DP; the state is the node being closed off plus
    the highest ancestor some already-paid pair must still reach.
    """
    pairs = tuple((int(t), int(b)) for t, b in pairs)
    costs = tuple(costs)
    if len(costs) != len(pairs):
        raise ValidationError("need one cost per pair")
    for k, c in enumerate(costs):
        if c < 0:
            raise ValidationError("pair %d has negative cost" % k)
    for k, (t, b) in enumerate(pairs):
        if not is_strict_ancestor(instance, t, b):
            raise ValidationError(
                "pair %d: node %d is not a strict ancestor of node %d"
                % (k, t, b)
            )

    edges = tree_edges(instance)
    if not edges:
        return 0, ()

    covered = {e: [] for e in edges}
    span = []
    for k, (t, b) in enumerate(pairs):
        es = path_edges(instance, t, b)
        span.append(es)
        for e in es:
            covered[e].append(k)
    missing = tuple(e for e in edges if not covered[e])
    if missing:
        raise Infeasible("edges not on any pair", missing)

    depth = {instance.root: 0}
    for e in edges:
        depth[e] = depth[instance.parent[e]] + 1

    # best[v][d] = cheapest pair with bottom v whose top sits at depth <= d
    by_bottom = {}
    for k, (t, b) in enumerate(pairs):
        by_bottom.setdefault(b, []).append(k)
    best = {}
    for v, ks in by_bottom.items():
        arr = [None] * depth[v]
        for k in ks:
            d = depth[pairs[k][0]]
            if arr[d] is None or (costs[k], k) < arr[d]:
                arr[d] = (costs[k], k)
        for d in range(1, len(arr)):
            if arr[d] is None or (arr[d - 1] is not None and arr[d - 1] < arr[d]):
                arr[d] = arr[d - 1]
        best[v] = arr

    F = {}
    choice = {}
    for v in reversed(edges):  # children come before parents
        kids = instance.children(v)
        base = 0
        for u in kids:
            fu = F[u].get(v)
            if fu is None:
                base = None
                break
            base = base + fu
        F[v] = {}
        if base is None:
            continue
        arr = best.get(v, ())
        for a in ancestors(instance, v)[1:]:
            cand = None
            pick = None
            da = depth[a]
            if da < len(arr) and arr[da] is not None:
                cand = arr[da][0] + base
                pick = ("pair", arr[da][1])
            for u in kids:
                fu = F[u].get(a)
                if fu is None:
                    continue
                alt = base - F[u][v] + fu
                if cand is None or alt < cand:
                    cand = alt
                    pick = ("defer", u)
            if cand is not None:
                F[v][a] = cand
                choice[(v, a)] = pick

    total = 0
    for c in instance.children(instance.root):
        fc = F[c].get(instance.root)
        assert fc is not None, "coverable instance left an unreachable state"
        total = total + fc

    chosen = set()
    stack = [(c, instance.root) for c in instance.children(instance.root)]
    while stack:
        v, a = stack.pop()
        kind, what = choice[(v, a)]
        if kind == "pair":
            chosen.add(what)
            stack.extend((u, v) for u in instance.children(v))
        else:
            stack.append((what, a))
            stack.extend(
                (u, v) for u in instance.children(v) if u != what
            )

    assert sum(costs[k] for k in chosen) == total
    hit = set()
    for k in chosen:
        hit.update(span[k])
    assert hit == set(edges), "chosen pairs miss an edge"
    return total, tuple(sorted(chosen))


def pair_cover_lp_value(instance, pairs, costs):
    """LP value of the 0,1 pair-cover relaxation (rows are tree edges).

    The pair-edge incidence matrix is a network matrix, so the simplex
    vertex is integral and this must agree with the DP exactly.
    """
    paths = [frozenset(path_edges(instance, t, b)) for t, b in pairs]
    rows = [
        LpRow(
            coeffs=[1 if e in path else 0 for path in paths],
            rhs=1,
            label=("edge", e),
        )
        for e in tree_edges(instance)
    ]
    lp = LinearProgram(
        objective=tuple(Fraction(c) for c in costs),
        rows=tuple(rows),
        upper_bounds=(Fraction(1),) * len(paths),
    )
    res = simplex_solve(lp)
    if not isinstance(res, LpOptimal):
        raise Infeasible("pair cover LP is infeasible", ())
    return res.value


# ---------------------------------------------------------------------------
# 2-approximation


@dataclass(frozen=True)
class TreeApxAudit:
    """What the 2-approximation actually paid and how it was assembled."""

    cost: object
    tree_cover_value: object
    chosen_pairs: tuple
    pair_costs: tuple
    num_pairs: int


def _line_on_path(instance, edges, contained):
    """PLC instance on a vertical path: each segment is clipped to the
    portion of its own path that lies on the given edges. Returns the
    line plus the original index of every clipped segment."""
    pos = {e: k + 1 for k, e in enumerate(edges)}
    priorities = tuple(instance.priority(e) for e in edges)
    segs = []
    ids = []
    for j, run in enumerate(contained):
        inside = [pos[e] for e in run if e in pos]
        if not inside:
            continue
        assert inside == list(range(inside[0], inside[0] + len(inside)))
        seg = instance.segments[j]
        segs.append(Segment(inside[0], inside[-1], seg.supply, seg.cost))
        ids.append(j)
    return LineInstance(priorities, tuple(segs)), tuple(ids)


def ptc_2apx(instance):
    """2-approximation for priority tree cover.

    Solves the exact line cover on every ancestor-descendant path, then
    an exact 0,1 cover by virtual path segments priced at those optima,
    and returns the union of the per-path covers behind the chosen
    pairs. Output cost is at most the virtual cover value, which is at
    most twice the optimum.
    """
    require_valid(instance)
    contained, covered = _segment_runs(instance)
    edges = tree_edges(instance)
    bare = tuple(
        e
        for e in edges
        if not any(e in cov for cov in covered)
    )
    if bare:
        raise Infeasible("edges no segment covers", bare)

    node_order = (instance.root,) + edges
    pair_nodes = []
    pair_costs = []
    pair_covers = []
    for b in node_order:
        chain = ancestors(instance, b)[1:]
        for t in reversed(chain):  # root first, parent last
            line, ids = _line_on_path(
                instance, path_edges(instance, t, b), contained
            )
            try:
                value, sol = exact_plc(line)
            except Infeasible:
                continue
            pair_nodes.append((t, b))
            pair_costs.append(value)
            pair_covers.append(tuple(ids[k] for k in sol.support()))

    value, chosen = exact_tree_cover_01(instance, pair_nodes, pair_costs)
    picked = set()
    for k in chosen:
        picked.update(pair_covers[k])
    solution = IntSolution(
        tuple(1 if j in picked else 0 for j in range(len(instance.segments)))
    )
    assert check_cover(instance, solution).feasible
    cost = solution_cost([s.cost for s in instance.segments], solution)
    assert cost <= value
    audit = TreeApxAudit(
        cost=cost,
        tree_cover_value=value,
        chosen_pairs=tuple(pair_nodes[k] for k in chosen),
        pair_costs=tuple(pair_costs[k] for k in chosen),
        num_pairs=len(pair_nodes),
    )
    return solution, audit


# ---------------------------------------------------------------------------
# universal leaf-path decomposition


@dataclass(frozen=True)
class LeafPathDecomposition:
    """Partition of the tree's edges into root-to-leaf style vertical
    paths. paths[i] lists edge ids top to bottom; parents[i] is the index
    of the path owning the edge just above path i's start, or -1 when the
    start is the root. edge_to_path inverts the partition."""

    paths: tuple
    parents: tuple
    edge_to_path: dict

    def __post_init__(self):
        object.__setattr__(self, "paths", tuple(tuple(p) for p in self.paths))
        object.__setattr__(self, "parents", tuple(self.parents))
        seen = set()
        for p in self.paths:
            if not p:
                raise ValidationError("empty path in decomposition")
            for e in p:
                if e in seen:
                    raise ValidationError("edge %d in two paths" % e)
                seen.add(e)


def leaf_path_decomposition(instance):
    """First-child leaf paths: walk from the root along first children,
    spawn a new path at every skipped child, repeat. One path per leaf."""
    paths = []
    part_of = {}
    stack = [
        (instance.root, c)
        for c in reversed(instance.children(instance.root))
    ]
    while stack:
        start, via = stack.pop()
        idx = len(paths)
        run = []
        spawned = []
        v = via
        while True:
            run.append(v)
            part_of[v] = idx
            kids = instance.children(v)
            if not kids:
                break
            spawned.extend((v, c) for c in kids[1:])
            v = kids[0]
        paths.append(tuple(run))
        stack.extend(reversed(spawned))
    # parent of a path = path owning the edge above its start node
    parents = []
    for p in paths:
        top_edge = p[0]
        start = instance.parent[top_edge]
        parents.append(part_of[start] if start != instance.root else -1)
    return LeafPathDecomposition(
        paths=tuple(paths), parents=tuple(parents), edge_to_path=part_of
    )


@dataclass(frozen=True)
class PathPiece:
    """One leaf path of the decomposition with its fractional solution.

    Iterating yields (line, frac) so pieces unpack like plain pairs;
    edges are the tree edge ids top to bottom and segment_ids maps each
    line segment back to its original index.
    """

    line: LineInstance
    frac: FracSolution
    edges: tuple
    segment_ids: tuple

    def __iter__(self):
        return iter((self.line, self.frac))


def decompose_fractional_ptc(instance, x):
    """Split a feasible fractional tree cover across the leaf paths.

    Local segments (first or last covered edge on the path) keep their
    full mass; segments passing straight through are grouped by the
    child path they exit into, ordered by supply, and kept up to total
    mass one per group. Each piece's solution is feasible for its line
    and the total mass is at most three times the input mass; both are
    asserted.
    """
    require_valid(instance)
    xs = FracSolution(tuple(x))
    if len(xs) != len(instance.segments):
        raise ValidationError("fractional point has the wrong length")
    for j, v in enumerate(xs):
        if v < 0:
            raise ValidationError("x[%d] = %s is negative" % (j, v))
    report = check_cover(instance, xs)
    if not report.feasible:
        raise FractionalInfeasible(
            "fractional point misses edges %s" % (list(report.uncovered),)
        )

    decomp = leaf_path_decomposition(instance)
    contained, covered = _segment_runs(instance)
    pieces = []
    for i, part in enumerate(decomp.paths):
        on_part = set(part)
        line, ids = _line_on_path(instance, part, contained)
        mass = {}
        outbound = {}
        for j, cov in enumerate(covered):
            if not cov or not any(e in on_part for e in cov):
                continue
            if cov[0] in on_part or cov[-1] in on_part:
                mass[j] = xs[j]
                continue
            # passes through: entered at the top, exits into a child path
            run = [k for k, e in enumerate(contained[j]) if e in on_part]
            assert contained[j][run[0]] == part[0]
            assert run[-1] + 1 < len(contained[j])
            exit_edge = contained[j][run[-1] + 1]
            q = decomp.edge_to_path[exit_edge]
            assert decomp.parents[q] == i
            outbound.setdefault(q, []).append(j)
        for q in sorted(outbound):
            group = sorted(
                outbound[q], key=lambda j: (-instance.segments[j].supply, j)
            )
            running = Fraction(0)
            for j in group:
                take = min(xs[j], Fraction(1) - running)
                if take < 0:
                    take = Fraction(0)
                mass[j] = take
                running += take
        frac = FracSolution(tuple(mass.get(j, Fraction(0)) for j in ids))
        for e in range(1, line.num_edges + 1):
            got = sum(
                (
                    frac[k]
                    for k, seg in enumerate(line.segments)
                    if seg.covers(e, line.priority(e))
                ),
                Fraction(0),
            )
            assert got >= 1, "piece %d leaves line edge %d short" % (i, e)
        pieces.append(
            PathPiece(line=line, frac=frac, edges=part, segment_ids=ids)
        )

    total = sum((sum(p.frac, Fraction(0)) for p in pieces), Fraction(0))
    assert total <= 3 * sum(xs, Fraction(0)), "decomposition mass too large"
    return pieces


def unweighted_ptc_round(instance, x):
    """Integral cover of size at most six times the fractional mass.

    Unit costs only: decompose, run the primal-dual line algorithm on
    every piece, and take the union of the picked original segments.
    """
    if any(seg.cost != 1 for seg in instance.segments):
        raise ValidationError("rounding pipeline requires unit costs")
    pieces = decompose_fractional_ptc(instance, x)
    picked = set()
    for piece in pieces:
        sol, _ = primal_dual_plc(piece.line)
        picked.update(piece.segment_ids[k] for k in sol.support())
    solution = IntSolution(
        tuple(1 if j in picked else 0 for j in range(len(instance.segments)))
    )
    assert check_cover(instance, solution).feasible
    total = sum(Fraction(v) for v in x)
    assert len(picked) <= 6 * total, "rounded cover exceeds six times the mass"
    return solution


# ---------------------------------------------------------------------------
# path partition certificate


@dataclass(frozen=True)
class PathPartitionCertificate:
    """Edge partition carved from a feasible solution.

    parts[i] lists edge ids top to bottom; carvers[i] is the segment
    whose path was cut to make part i. responsible maps every edge to
    the highest-supply chosen segment covering it (ties to the smaller
    index), and parts_touched maps each such segment to the parts its
    responsibility set meets. Every entry has at most two parts.
    """

    parts: tuple
    carvers: tuple
    responsible: dict
    parts_touched: dict


def path_partition_certificate(instance, solution):
    """Carve the tree along highest-supply chosen segments and verify
    that no segment is responsible for edges in more than two parts."""
    require_valid(instance)
    sol = IntSolution(tuple(solution))
    report = check_cover(instance, sol)
    if not report.feasible:
        raise Infeasible(
            "solution leaves edges uncovered", report.uncovered
        )
    chosen = set(sol.support())
    contained, covered = _segment_runs(instance)

    coverers = {}
    for j in sorted(chosen):
        for e in covered[j]:
            coverers.setdefault(e, []).append(j)
    segs = instance.segments

    def strongest(e):
        return min(coverers[e], key=lambda j: (-segs[j].supply, j))

    remaining = set(tree_edges(instance))
    part_of = {}
    parts = []
    carvers = []
    stack = [instance.root]
    while stack:
        w = stack.pop()
        first = next(
            (c for c in instance.children(w) if c in remaining), None
        )
        if first is None:
            continue
        j = strongest(first)
        # walk down j's path from this edge while edges are still present
        run = []
        k = contained[j].index(first)
        for e in contained[j][k:]:
            if e not in remaining:
                break
            run.append(e)
            remaining.discard(e)
            part_of[e] = len(parts)
        parts.append(tuple(run))
        carvers.append(j)
        # the carved nodes may still dangle uncut subtrees
        stack.extend(reversed([w] + run))

    assert not remaining
    responsible = {e: strongest(e) for e in part_of}
    touched = {}
    for e, j in responsible.items():
        touched.setdefault(j, set()).add(part_of[e])
    parts_touched = {j: tuple(sorted(ps)) for j, ps in touched.items()}
    for j, ps in parts_touched.items():
        if len(ps) > 2:
            raise CertificateViolated(
                "segment %d is responsible in parts %s" % (j, list(ps))
            )
    return PathPartitionCertificate(
        parts=tuple(parts),
        carvers=tuple(carvers),
        responsible=responsible,
        parts_touched=parts_touched,
    )


# ---------------------------------------------------------------------------
# broom generator


@dataclass(frozen=True)
class BroomSpec:
    """Bookkeeping for a broom built from a numbered graph.

    Handle nodes are 0..m (edge i runs x_{i-1} to x_i, demand i). Each
    non-isolated vertex hangs a bristle off x_m whose edge demands are
    its incident edge numbers in descending order. edge_segments maps
    (edge number, endpoint) to the index of the unit segment paying for
    that choice; vertex_segments maps a vertex to its catch-all bristle
    segment.
    """

    vertices: tuple
    edges: tuple
    handle_nodes: tuple
    bristles: dict
    bristle_demands: dict
    edge_segments: dict
    vertex_segments: dict


def gen_broom(vertices, edges):
    """Vertex-cover gadget: a handle of one edge per graph edge plus a
    bristle per vertex; the optimum cover costs m plus a minimum vertex
    cover. Returns (TreeInstance rooted at handle node 0, BroomSpec)."""
    vertices = tuple(vertices)
    if len(set(vertices)) != len(vertices):
        raise ValidationError("duplicate vertices")
    vset = set(vertices)
    edges = tuple((u, v) for u, v in edges)
    seen = set()
    for k, (u, v) in enumerate(edges):
        if u == v:
            raise ValidationError("edge %d is a loop" % (k + 1))
        if u not in vset or v not in vset:
            raise ValidationError("edge %d has unknown endpoints" % (k + 1))
        key = frozenset((u, v))
        if key in seen:
            raise ValidationError("edge %d is a duplicate" % (k + 1))
        seen.add(key)

    m = len(edges)
    incident = {v: [] for v in vertices}
    for k, (u, v) in enumerate(edges, start=1):
        incident[u].append(k)
        incident[v].append(k)

    parent = {}
    priorities = {}
    child_order = {}
    for i in range(1, m + 1):
        parent[i] = i - 1
        priorities[i] = i
        child_order[i - 1] = (i,)

    nxt = m + 1
    bristles = {}
    demands = {}
    tail_children = []
    for v in vertices:
        if not incident[v]:
            continue
        desc = tuple(sorted(incident[v], reverse=True))
        nodes = []
        prev = m
        for d in desc:
            parent[nxt] = prev
            priorities[nxt] = d
            if prev != m:
                child_order[prev] = (nxt,)
            nodes.append(nxt)
            prev = nxt
            nxt += 1
        child_order[nodes[-1]] = ()
        tail_children.append(nodes[0])
        bristles[v] = tuple(nodes)
        demands[v] = desc
    if tail_children:
        child_order[m] = tuple(tail_children)

    segments = []
    edge_segments = {}
    vertex_segments = {}
    for k, (u, v) in enumerate(edges, start=1):
        for end in (u, v):
            rank = demands[end].index(k)
            segments.append(
                TreeSegment(
                    top=k - 1,
                    bottom=bristles[end][rank],
                    supply=k,
                    cost=1,
                )
            )
            edge_segments[(k, end)] = len(segments) - 1
    for v in vertices:
        if v not in bristles:
            continue
        segments.append(
            TreeSegment(
                top=m,
                bottom=bristles[v][-1],
                supply=demands[v][0],
                cost=1,
            )
        )
        vertex_segments[v] = len(segments) - 1

    instance = TreeInstance(
        root=0,
        parent=parent,
        edge_priorities=priorities,
        segments=tuple(segments),
        child_order=child_order,
    )
    require_valid(instance)
    spec = BroomSpec(
        vertices=vertices,
        edges=edges,
        handle_nodes=tuple(range(m + 1)),
        bristles=bristles,
        bristle_demands=demands,
        edge_segments=edge_segments,
        vertex_segments=vertex_segments,
    )
    return instance, spec
