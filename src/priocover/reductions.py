"""Instance reductions: tree cover to two-priority line cover to boxes.

The tree-to-line step runs two depth-first traversals whose child orders
are mirror images; one lays the edges on a line, the other becomes a
priority coordinate that cancels out every off-path edge a segment's
interval picks up. The line-to-box step is a plain re-encoding.
"""

from dataclasses import dataclass

from .model import (
    Box,
    RectCoverInstance,
    TwoPriorityLineInstance,
    TwoPrioritySegment,
    effective_system,
    path_edges,
    require_valid,
    tree_edges,
    validate_instance,  # noqa: F401 (bench/tracing.py wraps reductions.validate_instance)
)


@dataclass(frozen=True)
class DfsOrders:
    """Edge ranks of the two mirrored depth-first traversals.

    Both map edge id to a rank in 1..m. Siblings listed (v1..vk) by
    child_order satisfy mu(v1) < ... < mu(vk) and mu_r(v1) > ... >
    mu_r(vk); an edge keeps the same rank in both orders exactly when
    no branching separates it from the root.
    """

    mu: dict
    mu_r: dict


def dfs_orders(instance):
    """First-visit edge ranks under child_order and under its reversal."""
    mu = {e: k + 1 for k, e in enumerate(tree_edges(instance))}
    order = []
    stack = [instance.root]
    while stack:
        v = stack.pop()
        if v != instance.root:
            order.append(v)
        for c in instance.children(v):  # not reversed: stack flips it
            stack.append(c)
    mu_r = {e: k + 1 for k, e in enumerate(order)}
    return DfsOrders(mu=mu, mu_r=mu_r)


def ptc_to_2plc(instance):
    """Encode a priority tree cover instance as a two-priority line.

    Edges go on the line in mu order; edge e demands (mu_r(e), pi_e).
    A segment from top v to bottom u becomes the interval between its
    first edge and u's parent edge, with supplies (mu_r of u's parent
    edge, original supply). Cover relations match entry for entry.
    """
    require_valid(instance)
    orders = dfs_orders(instance)
    line_edges = tree_edges(instance)  # already in mu order
    priorities = tuple(
        (orders.mu_r[e], instance.priority(e)) for e in line_edges
    )
    segments = []
    for seg in instance.segments:
        first = path_edges(instance, seg.top, seg.bottom)[0]
        last = seg.bottom  # the parent edge of the bottom node is its id
        left, right = orders.mu[first], orders.mu[last]
        assert left <= right
        segments.append(
            TwoPrioritySegment(
                left=left,
                right=right,
                supply1=orders.mu_r[last],
                supply2=seg.supply,
                cost=seg.cost,
            )
        )
    return TwoPriorityLineInstance(priorities, tuple(segments))


def twoplc_to_rect(instance):
    """Edges become points (position, demand1, demand2); segments become
    boxes capped at their supplies, implicitly reaching down to zero."""
    points = tuple(
        (e, p1, p2)
        for e, (p1, p2) in enumerate(instance.edge_priorities, start=1)
    )
    boxes = tuple(
        Box(
            x_lo=seg.left,
            x_hi=seg.right,
            y_hi=seg.supply1,
            z_hi=seg.supply2,
            cost=seg.cost,
        )
        for seg in instance.segments
    )
    return RectCoverInstance(points=points, boxes=boxes)


def cover_relation(instance):
    """Boolean coverage matrix, rows per edge/point, columns per
    segment/box: the nonzero pattern of the instance's effective_system."""
    matrix, _, _ = effective_system(instance)
    return tuple(tuple(a != 0 for a in row) for row in matrix)
