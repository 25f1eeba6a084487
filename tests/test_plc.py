import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from priocover import (
    Infeasible,
    LineInstance,
    Segment,
    brute_force_opt,
    check_cover,
    exact_plc,
    interval_optima,
    primal_dual_plc,
    solution_cost,
)
from priocover.plc import _dp_pool, _segment_valleys, gen_gap_line

from conftest import coverable_line


def costs_of(instance):
    return [seg.cost for seg in instance.segments]


def test_gap_line_shape():
    for k in (3, 5, 9, 21):
        inst = gen_gap_line(k)
        assert inst.num_edges == k
        assert len(inst.segments) == k + 1
        assert inst.edge_priorities == tuple(2 if e % 2 == 0 else 1 for e in range(1, k + 1))
        assert all(seg.cost == 1 for seg in inst.segments)
        # odd positions carry the supply-2 chain, even positions supply 1
        assert all(seg.supply == 2 for seg in inst.segments[::2])
        assert all(seg.supply == 1 for seg in inst.segments[1::2])


def test_gap_line_rejects_even_or_tiny():
    with pytest.raises(Exception):
        gen_gap_line(4)
    with pytest.raises(Exception):
        gen_gap_line(1)


def test_gap_line_known_fractional_point():
    # 2/3 on segments 2 and k, 1/3 elsewhere covers k=5 at cost 8/3
    inst = gen_gap_line(5)
    x = [Fraction(1, 3)] * 6
    x[1] = Fraction(2, 3)
    x[4] = Fraction(2, 3)
    from priocover import FracSolution

    report = check_cover(inst, FracSolution(tuple(x)))
    assert report.feasible
    assert sum(x) == Fraction(8, 3)


def test_exact_plc_gap_goldens():
    for k, opt in ((3, 2), (5, 3), (11, 6), (21, 11)):
        value, sol = exact_plc(gen_gap_line(k))
        assert value == opt == (k + 1) // 2
        assert check_cover(gen_gap_line(k), sol).feasible


def test_exact_plc_empty_line():
    inst = LineInstance((), (Segment(1, 1, 1, 1),))
    value, sol = exact_plc(inst)
    assert value == 0
    assert tuple(sol) == (0,)


def test_exact_plc_prefers_cheap_overlap():
    inst = LineInstance(
        (1, 2, 1),
        (
            Segment(1, 3, 2, 10),
            Segment(1, 2, 2, 4),
            Segment(2, 3, 2, 4),
            Segment(1, 3, 1, 1),
        ),
    )
    value, sol = exact_plc(inst)
    assert value == 5
    assert tuple(sol) == (0, 0, 1, 1)


def test_exact_plc_infeasible():
    inst = LineInstance((5,), (Segment(1, 1, 4, 1),))
    with pytest.raises(Infeasible):
        exact_plc(inst)


def test_interval_optima_table():
    inst = gen_gap_line(3)
    table = interval_optima(inst)
    assert table[(1, 3)] == 2
    assert table[(1, 1)] == 1
    assert all(value is not None for value in table.values())


def test_valleys_partition_cover():
    rng = random.Random(13)
    for _ in range(30):
        inst = coverable_line(rng, max_edges=8, max_segments=10)
        for j, seg in enumerate(inst.segments):
            valleys = _segment_valleys(
                inst.edge_priorities, seg.left, seg.right, seg.supply
            )
            edges = set()
            for lo, hi in valleys:
                edges.update(range(lo, hi + 1))
            assert edges == set(inst.covered_edges(j))
            # maximal runs: consecutive valleys are split by a blocked edge
            for (_, hi), (lo, _) in zip(valleys, valleys[1:]):
                assert hi + 1 < lo
                assert all(inst.priority(e) > seg.supply for e in range(hi + 1, lo))


def test_completion_preserves_optimum():
    rng = random.Random(29)
    for _ in range(30):
        inst = coverable_line(rng, max_edges=7, max_segments=9)
        value, _ = brute_force_opt(inst)
        completed = LineInstance(
            inst.edge_priorities,
            tuple(
                Segment(l, r, s, c)
                for l, entries in sorted(_dp_pool(inst).items())
                for r, s, c, _ in entries
            ),
        )
        got, sol = exact_plc(completed)
        assert got == value
        assert check_cover(completed, sol).feasible


def test_primal_dual_certificate_suite():
    rng = random.Random(41)
    for _ in range(60):
        inst = coverable_line(rng, max_edges=8, max_segments=12)
        sol, cert = primal_dual_plc(inst)
        assert check_cover(inst, sol).feasible
        cost = solution_cost(costs_of(inst), sol)
        assert cost <= 2 * cert.total
        # dual feasibility: no segment is overpaid
        for seg in inst.segments:
            paid = sum(
                (
                    cert.edge_duals[e - 1]
                    for e in range(seg.left, seg.right + 1)
                    if inst.priority(e) <= seg.supply
                ),
                Fraction(0),
            )
            assert paid <= seg.cost
        value, _ = exact_plc(inst)
        assert cert.total <= value <= cost


def test_primal_dual_on_gap_line():
    inst = gen_gap_line(5)
    sol, cert = primal_dual_plc(inst)
    assert check_cover(inst, sol).feasible
    assert solution_cost(costs_of(inst), sol) <= 2 * cert.total


def test_primal_dual_single_edge():
    inst = LineInstance((3,), (Segment(1, 1, 3, 7), Segment(1, 1, 5, 9)))
    sol, cert = primal_dual_plc(inst)
    assert tuple(sol) == (1, 0)
    assert cert.total == 7


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_primal_dual_properties(seed):
    rng = random.Random(seed)
    inst = coverable_line(rng, max_edges=6, max_segments=8, max_level=4, max_cost=6)
    sol, cert = primal_dual_plc(inst)
    assert check_cover(inst, sol).feasible
    assert solution_cost(costs_of(inst), sol) <= 2 * cert.total
    value, best = exact_plc(inst)
    assert value <= solution_cost(costs_of(inst), sol)
    assert check_cover(inst, best).feasible
