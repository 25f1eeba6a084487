"""Seeded input documents and CLI pipelines for the four benchmark workloads.

Documents are plain JSON-ready dicts in priocover's version-1 document
format, built without importing priocover, so the program under test sees
only the generated files. Every document is feasible by construction:
uncovered line or tree edges get a patch segment and every CCIP row is
touched by an unbounded column.

Document k of a run depends only on (workload, seed, k): its random
structure comes from its own Random, and its size from a low-discrepancy
sequence, so any prefix of a run spreads evenly over the size range and
the median and tail of a run do not hinge on which sizes the seed drew.
Size ranges are narrower than the solvers could take: within a 20 s run
they keep the latency distribution dense enough around its median and
tail that those read the same from seed to seed.
"""

import math
import random

LEVELS = 6  # priority levels on line and tree edges
MAX_COST = 20
_GOLDEN = 0.6180339887498949


def _size(seed, workload, k, lo, hi, peaked=True):
    """Size of document k in lo..hi from a low-discrepancy sequence, mapped
    onto a triangular distribution when peaked, so most documents sit near
    the middle of the range, where the run's median latency is read."""
    offset = random.Random("%s:%s:offset" % (seed, workload)).random()
    u = (offset + k * _GOLDEN) % 1.0
    if peaked:
        u = math.sqrt(u / 2) if u < 0.5 else 1 - math.sqrt((1 - u) / 2)
    return lo + min(hi - lo, int(u * (hi - lo + 1)))


def _coverage_patch_cost(rng):
    return rng.randint(MAX_COST // 2, 3 * MAX_COST // 2)


# ---------------------------------------------------------------------------
# lines


def line_doc(rng, n):
    """n edges with random priorities, about 1.6n segments of length <= n/3,
    and a unit patch segment on every edge nothing else covers."""
    pi = [rng.randint(1, LEVELS) for _ in range(n)]
    segments = []
    for _ in range(round(1.6 * n)):
        length = rng.randint(1, max(1, n // 3))
        left = rng.randint(1, n - length + 1)
        segments.append({
            "l": left,
            "r": left + length - 1,
            "s": rng.randint(1, LEVELS),
            "c": rng.randint(1, MAX_COST),
        })
    for e in range(1, n + 1):
        if not any(s["l"] <= e <= s["r"] and s["s"] >= pi[e - 1] for s in segments):
            segments.append({"l": e, "r": e, "s": LEVELS, "c": _coverage_patch_cost(rng)})
    return {
        "kind": "line",
        "version": 1,
        "edges": [{"pi": p} for p in pi],
        "segments": segments,
    }


def gap_line_doc(k):
    """The k-edge integrality-gap family, frozen here as laid out by
    priocover's gen_gap_line at the commit that introduced this benchmark,
    so later changes to that generator do not change the benchmark's input.

    Odd edges have priority 1 and even edges 2; k+1 unit-cost segments
    alternate between a supply-2 chain and supply-1 padding.
    """
    half = (k + 1) // 2
    chain = [(1, 2)] + [(2 * i, 2 * i + 2) for i in range(1, half - 1)] + [(k - 1, k)]
    skip = half // 2
    padding = [(1, 1), (k, k)] + [
        (2 * i - 1, 2 * i + 1) for i in range(1, half) if i != skip
    ]
    odd_seq = [chain[0]] + chain[2:] + [chain[1]]
    segments = []
    for p in range(k + 1):
        (l, r), s = (odd_seq[p // 2], 2) if p % 2 == 0 else (padding[p // 2], 1)
        segments.append({"l": l, "r": r, "s": s, "c": 1})
    return {
        "kind": "line",
        "version": 1,
        "edges": [{"pi": 1 if e % 2 == 1 else 2} for e in range(1, k + 1)],
        "segments": segments,
    }


# ---------------------------------------------------------------------------
# trees


def _deep_parents(rng, n):
    """A spine of about 2n/3 nodes with the rest hung off random nodes."""
    spine = max(1, (2 * n) // 3)
    parent = {v: v - 1 for v in range(1, spine + 1)}
    for v in range(spine + 1, n):
        parent[v] = rng.randrange(v)
    return parent


def _bushy_parents(rng, n, max_depth=8):
    depth = {0: 0}
    parent = {}
    for v in range(1, n):
        p = rng.choice([u for u in range(v) if depth[u] < max_depth])
        parent[v] = p
        depth[v] = depth[p] + 1
    return parent


def tree_doc(rng, n, deep, max_span=8):
    """Rooted tree on nodes 0..n-1 (root 0) with about two vertical
    segments per node, each spanning at most max_span levels, plus a
    one-edge patch segment on every edge nothing else covers."""
    parent = _deep_parents(rng, n) if deep else _bushy_parents(rng, n)
    depth = {0: 0}
    for v in range(1, n):
        depth[v] = depth[parent[v]] + 1
    pi = {v: rng.randint(1, LEVELS) for v in range(1, n)}
    segments = []
    covered = set()
    for _ in range(2 * (n - 1)):
        bottom = rng.randint(1, n - 1)
        span = rng.randint(1, min(max_span, depth[bottom]))
        supply = rng.randint(1, LEVELS)
        top = bottom
        for _ in range(span):
            if supply >= pi[top]:
                covered.add(top)
            top = parent[top]
        segments.append({"t": top, "b": bottom, "s": supply, "c": rng.randint(1, MAX_COST)})
    for v in range(1, n):
        if v not in covered:
            segments.append({"t": parent[v], "b": v, "s": LEVELS, "c": _coverage_patch_cost(rng)})
    children = {}
    for v in range(1, n):
        children.setdefault(parent[v], []).append(v)
    return {
        "kind": "tree",
        "version": 1,
        "root": 0,
        "parent": {str(v): parent[v] for v in range(1, n)},
        "child_order": {str(v): kids for v, kids in sorted(children.items())},
        "edges": [{"id": v, "pi": pi[v]} for v in range(1, n)],
        "segments": segments,
    }


# ---------------------------------------------------------------------------
# column-restricted covering programs


def ccip_doc(rng, rows, cols, max_supply=32, max_demand=100):
    """Interval CCIP: every column's support is a run of consecutive rows.

    About half the columns are unbounded, and the first of them tile the
    rows so every row is touched by one; the rest have bounds 3..8. With
    these bounds most documents need one constraint-generation round and
    the rest two or three, so a run's median and tail each fall inside one
    group rather than between them.
    """
    unbounded = cols // 2
    cuts = sorted(rng.sample(range(1, rows), min(unbounded, rows) - 1))
    supports = list(zip([0] + cuts, [c - 1 for c in cuts] + [rows - 1]))
    while len(supports) < cols:
        length = rng.randint(1, max(1, rows // 2))
        top = rng.randint(0, rows - length)
        supports.append((top, top + length - 1))
    order = list(range(cols))
    rng.shuffle(order)
    supports = [supports[j] for j in order]
    bounds = [None if j < unbounded else rng.randint(3, 8) for j in order]
    return {
        "kind": "ccip",
        "version": 1,
        "matrix": [[1 if lo <= i <= hi else 0 for lo, hi in supports] for i in range(rows)],
        "demands": [rng.randint(1, max_demand) for _ in range(rows)],
        "costs": [rng.randint(1, MAX_COST) for _ in range(cols)],
        "bounds": bounds,
        "supplies": [rng.randint(1, max_supply) for _ in range(cols)],
    }


# ---------------------------------------------------------------------------
# workloads


def _line(seed, k, rng, small):
    return line_doc(rng, 12 if small else _size(seed, "line", k, 30, 70))


def _tree(seed, k, rng, small):
    deep = k % 2 == 0
    if small:
        return tree_doc(rng, 10, deep)
    # sizes matched so both shapes take about 0.1 s, which keeps the run's
    # latency distribution in one piece around its median
    lo, hi = (18, 28) if deep else (60, 100)
    return tree_doc(rng, _size(seed, "tree", k // 2, lo, hi), deep)


def _lp(seed, k, rng, small):
    # the three kinds' sizes are matched so each takes about 0.07-0.25 s to
    # solve, and spread evenly, so the run's slowest documents come from
    # every kind's largest sizes rather than from the rare extremes of one
    kind = k % 3
    if kind == 0:
        return line_doc(rng, 10 if small else _size(seed, "lp-line", k // 3, 20, 27, peaked=False))
    if kind == 1:
        return gap_line_doc(5 if small else 2 * _size(seed, "lp-gap", k // 3, 9, 14, peaked=False) + 1)
    return tree_doc(rng, 8 if small else _size(seed, "lp-tree", k // 3, 28, 40, peaked=False), deep=False)


def _ccip(seed, k, rng, small):
    if small:
        return ccip_doc(rng, 4, 6)
    rows = _size(seed, "ccip", k, 12, 16)
    return ccip_doc(rng, rows, rows + rng.randint(4, 8))


# Each pipeline lists the CLI commands one document runs, in order. IN is
# the generated document, MID an intermediate document the next command
# reads, OUTi and AUDITi the i-th command's result document and audit.
WORKLOADS = {
    "line": (_line, (
        ("solve", "plc-exact", "--in", "IN", "--out", "OUT0"),
        ("solve", "plc-pd", "--in", "IN", "--out", "OUT1", "--audit", "AUDIT1"),
    )),
    "tree": (_tree, (
        ("solve", "ptc-2apx", "--in", "IN", "--out", "OUT0", "--audit", "AUDIT0"),
        ("reduce", "ptc-to-2plc", "--in", "IN", "--out", "MID"),
        ("reduce", "2plc-to-rect", "--in", "MID", "--out", "OUT2"),
    )),
    "lp": (_lp, (
        ("lp", "solve", "--in", "IN", "--out", "OUT0"),
    )),
    "ccip": (_ccip, (
        ("solve", "ccip", "--in", "IN", "--out", "OUT0", "--audit", "AUDIT0"),
    )),
}


def document(workload, seed, k, small=False):
    """The k-th input document of a run."""
    make, _ = WORKLOADS[workload]
    return make(seed, k, random.Random("%s:%s:%d" % (seed, workload, k)), small)


def pipeline(workload):
    return WORKLOADS[workload][1]
