"""Priority line cover.

Edges are 1..n with integer priorities; a segment [l, r] with supply s
covers edge e iff l <= e <= r and s >= pi_e. Contains the primal-dual
2-approximation with its dual certificate, an exact dynamic program over
intervals with its completed segment pool, and the lower-bound family
generator.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import CertificateViolated, Infeasible, ValidationError
from .model import IntSolution, LineInstance, Segment, solution_cost


# ---------------------------------------------------------------------------
# primal-dual


@dataclass(frozen=True)
class DualCertificate:
    """Edge duals y_e (index e-1) with per-segment tightness flags; always
    satisfies sum of y over a segment's covered edges <= its cost."""

    edge_duals: tuple
    tight: tuple

    @property
    def total(self):
        return sum(self.edge_duals, Fraction(0))


def primal_dual_plc(instance):
    """Grow edge duals, add extreme tight segments, reverse delete.

    Returns (0/1 IntSolution, DualCertificate). The certificate gives
    cost(Q) <= 2 * total <= 2 * LP <= 2 * opt per weak duality.
    """
    n = instance.num_edges
    segs = instance.segments
    covered_by = [instance.covered_edges(j) for j in range(len(segs))]
    coverers = {e: [] for e in range(1, n + 1)}
    for j, edges in enumerate(covered_by):
        for e in edges:
            coverers[e].append(j)

    y = [Fraction(0)] * n
    slack = [Fraction(seg.cost) for seg in segs]
    picked = []  # insertion order
    in_q = set()
    uncovered = set(range(1, n + 1))
    while uncovered:
        e = min(uncovered, key=lambda t: (-instance.priority(t), t))
        if not coverers[e]:
            raise Infeasible("edge %d has no covering segment" % e, [e])
        delta = min(slack[j] for j in coverers[e])
        y[e - 1] += delta
        for j in coverers[e]:
            slack[j] -= delta
        tight = [j for j in coverers[e] if slack[j] == 0]
        j_l = min(tight, key=lambda j: (segs[j].left, j))
        j_r = min(tight, key=lambda j: (-segs[j].right, j))
        for j in (j_l, j_r):
            if j not in in_q:
                picked.append(j)
                in_q.add(j)
                uncovered.difference_update(covered_by[j])

    # reverse delete
    count = {e: 0 for e in range(1, n + 1)}
    for j in picked:
        for e in covered_by[j]:
            count[e] += 1
    keep = set(picked)
    for j in reversed(picked):
        if all(count[e] >= 2 for e in covered_by[j]):
            keep.discard(j)
            for e in covered_by[j]:
                count[e] -= 1

    for j, seg in enumerate(segs):
        paid = sum((y[e - 1] for e in covered_by[j]), Fraction(0))
        assert paid <= seg.cost, "dual infeasibility at segment %d" % j
        if j in keep:
            assert paid == seg.cost, "non-tight segment %d kept" % j
    for e in range(1, n + 1):
        if y[e - 1] > 0 and count[e] > 2:
            raise CertificateViolated(
                "edge %d with positive dual covered %d times" % (e, count[e])
            )
    total = sum(y, Fraction(0))
    cost = sum(segs[j].cost for j in keep)
    assert cost <= 2 * total, "primal cost exceeds twice the dual"

    solution = IntSolution(
        tuple(1 if j in keep else 0 for j in range(len(segs)))
    )
    certificate = DualCertificate(
        edge_duals=tuple(y), tight=tuple(slack[j] == 0 for j in range(len(segs)))
    )
    return solution, certificate


# ---------------------------------------------------------------------------
# segment completion


def _dp_pool(instance):
    """Completed pool for the interval DP, keyed by left endpoint.

    Each segment [a, b] contributes every [l, r] inside it at the same
    supply and cost; duplicates by (l, r, s) keep the cheapest, ties to
    the lower source index. Entries are (r, s, c, source index), sorted.
    Pruning here is restricted to same-interval dominance: the DP's gap
    recursion needs every sub-interval of a kept segment to stay present,
    and a same-interval dominator preserves that closure.
    """
    best = {}
    for idx, seg in enumerate(instance.segments):
        for l in range(seg.left, seg.right + 1):
            for r in range(l, seg.right + 1):
                key = (l, r, seg.supply)
                cur = best.get(key)
                if cur is None or (seg.cost, idx) < cur:
                    best[key] = (seg.cost, idx)
    by_interval = {}
    for (l, r, s), (c, idx) in best.items():
        by_interval.setdefault((l, r), []).append((s, c, idx))
    by_left = {}
    for (l, r), entries in by_interval.items():
        entries.sort(key=lambda t: (-t[0], t[1], t[2]))
        limit = None
        for s, c, idx in entries:
            if limit is not None and c >= limit:
                continue  # weaker supply at no saving
            limit = c
            by_left.setdefault(l, []).append((r, s, c, idx))
    for entries in by_left.values():
        entries.sort()
    return by_left


def _segment_valleys(pi, left, right, supply):
    """Maximal runs of edges in [left, right] whose priority is at most
    supply, as (first_edge, last_edge) pairs in order."""
    valleys = []
    lo = None
    for e in range(left, right + 1):
        if pi[e - 1] <= supply:
            if lo is None:
                lo = e
        elif lo is not None:
            valleys.append((lo, e - 1))
            lo = None
    if lo is not None:
        valleys.append((lo, right))
    return valleys


def _solve_intervals(instance):
    """DP table and back-pointers.

    opt[l, r] routes through one completed segment with left endpoint l
    whose first coverable run starts at l; runs it skips and the tail
    past its last run recurse as smaller intervals. None marks an
    uncoverable cell.
    """
    n = instance.num_edges
    pi = instance.edge_priorities
    by_left = _dp_pool(instance)

    opt = {}
    choice = {}  # cell -> (source index, gap cells)

    def val(l, r):
        if l > r:
            return 0
        return opt[(l, r)]

    for length in range(1, n + 1):
        for l in range(1, n - length + 2):
            r = l + length - 1
            best = None
            best_choice = None
            for r2, s, c, src in by_left.get(l, ()):
                if r2 > r or pi[l - 1] > s:
                    continue
                valleys = _segment_valleys(pi, l, r2, s)
                k = len(valleys)
                arrive = [None] * k
                back = [None] * k
                arrive[0] = 0
                for q in range(1, k):
                    for p in range(q):
                        if arrive[p] is None:
                            continue
                        gap = val(valleys[p][1] + 1, valleys[q][0] - 1)
                        if gap is None:
                            continue
                        cand = arrive[p] + gap
                        if arrive[q] is None or cand < arrive[q]:
                            arrive[q] = cand
                            back[q] = p
                if arrive[k - 1] is None:
                    continue
                tail = val(valleys[k - 1][1] + 1, r)
                if tail is None:
                    continue
                total = c + arrive[k - 1] + tail
                if best is None or total < best:
                    gaps = []
                    if valleys[k - 1][1] < r:
                        gaps.append((valleys[k - 1][1] + 1, r))
                    q = k - 1
                    while back[q] is not None:
                        p = back[q]
                        lo, hi = valleys[p][1] + 1, valleys[q][0] - 1
                        if lo <= hi:
                            gaps.append((lo, hi))
                        q = p
                    best = total
                    best_choice = (src, tuple(gaps))
            opt[(l, r)] = best
            choice[(l, r)] = best_choice
    return opt, choice


def exact_plc(instance):
    """Exact optimum; returns (cost, 0/1 IntSolution over the original
    segments), reconstructed from the interval DP's back-pointers."""
    n = instance.num_edges
    m = len(instance.segments)
    if n == 0:
        return 0, IntSolution((0,) * m)
    pi = instance.edge_priorities
    opt, choice = _solve_intervals(instance)

    if opt[(1, n)] is None:
        bad = [
            e
            for e in range(1, n + 1)
            if not any(s.covers(e, pi[e - 1]) for s in instance.segments)
        ]
        raise Infeasible("line cover infeasible", bad)

    used = set()
    stack = [(1, n)]
    while stack:
        cell = stack.pop()
        src, gaps = choice[cell]
        used.add(src)
        stack.extend(gaps)
    solution = IntSolution(tuple(1 if j in used else 0 for j in range(m)))
    value = opt[(1, n)]
    picked_cost = solution_cost([s.cost for s in instance.segments], solution)
    assert picked_cost == value, "reconstructed cover disagrees with DP value"
    return value, solution


def interval_optima(instance):
    """The full DP table: (l, r) -> optimal cost, None where uncoverable."""
    if instance.num_edges == 0:
        return {}
    opt, _ = _solve_intervals(instance)
    return opt


# ---------------------------------------------------------------------------
# lower-bound family


def gen_gap_line(k):
    """The k-edge family whose integral/fractional ratio reaches 4/3.

    Odd edges have priority 1, even edges 2. There are k+1 unit-cost
    paths: odd-numbered ones carry supply 2 and chain across the line,
    even-numbered ones carry supply 1 and pad the odd edges. Integral
    optimum is (k+1)/2. Measured exactly for odd k <= 45, the LP is at
    least 3(k+1)/8, so the ratio is at most 4/3, with equality exactly
    when k % 8 == 7. In between the ratio dips (k=11 gives 9/7, k=21
    gives 110/83): it is not monotone in k.
    """
    k = int(k)
    if k < 3 or k % 2 == 0:
        raise ValidationError("k must be an odd integer >= 3")
    half = (k + 1) // 2
    chain = [(1, 2)]
    chain += [(2 * i, 2 * i + 2) for i in range(1, half - 1)]
    chain.append((k - 1, k))
    skip = (half - 1 + 1) // 2
    pairs = [(2 * i - 1, 2 * i + 1) for i in range(1, half) if i != skip]
    padding = [(1, 1), (k, k)] + pairs
    odd_seq = [chain[0]] + chain[2:] + [chain[1]]
    intervals = []
    oi = pi_ = 0
    for p in range(1, k + 2):
        if p % 2 == 1:
            intervals.append((odd_seq[oi], 2))
            oi += 1
        else:
            intervals.append((padding[pi_], 1))
            pi_ += 1
    return LineInstance(
        edge_priorities=tuple(1 if e % 2 == 1 else 2 for e in range(1, k + 1)),
        segments=tuple(
            Segment(left=l, right=r, supply=s, cost=1)
            for (l, r), s in intervals
        ),
    )
