import random
from fractions import Fraction

import pytest

from priocover import (
    BudgetExceeded,
    CertificateViolated,
    ColumnRestrictedCIP,
    FracSolution,
    Infeasible,
    LpOptimal,
    NonIntegralVertex,
    PrimalDualPcipOracle,
    PriorityCIP,
    TuLineOracle,
    ZeroOneCIP,
    brute_force_opt,
    canonical_relaxation,
    check_cover,
    simplex_solve,
    solution_cost,
)
from priocover import oracles
from priocover.plc import gen_gap_line

from conftest import coverable_line, rand_interval_ccip


def test_brute_knapsack_golden():
    base = ZeroOneCIP(
        matrix=((1, 1, 1),), demands=(5,), costs=(1, 1, 1), upper_bounds=(1, 1, 1)
    )
    ccip = ColumnRestrictedCIP(base=base, supplies=(4, 3, 2))
    cost, sol = brute_force_opt(ccip)
    assert cost == 2
    # lexicographically smallest optimum, not just any optimum
    assert tuple(sol) == (0, 1, 1)


def test_brute_gap_line_golden():
    cost, sol = brute_force_opt(gen_gap_line(5))
    assert cost == 3
    assert tuple(sol) == (0, 1, 0, 0, 1, 1)


def test_brute_multiplicities():
    base = ZeroOneCIP(matrix=((1,),), demands=(7,), costs=(2,), upper_bounds=(4,))
    ccip = ColumnRestrictedCIP(base=base, supplies=(3,))
    cost, sol = brute_force_opt(ccip)
    assert tuple(sol) == (3,)
    assert cost == 6


def test_brute_respects_pcip_upper_bounds():
    # column 0 covers the row but its bound is 0, so only column 1 may be bought
    base = ZeroOneCIP(matrix=((1, 1),), demands=(1,), costs=(1, 5), upper_bounds=(0, 1))
    pcip = PriorityCIP(base=base, priority_supplies=(3, 3), priority_demands=(1,))
    cost, sol = brute_force_opt(pcip)
    assert cost == 5
    assert tuple(sol) == (0, 1)
    assert simplex_solve(canonical_relaxation(pcip)).value == cost


def test_brute_reports_infeasible_rows():
    cip = ZeroOneCIP(
        matrix=((1, 0), (0, 0)), demands=(1, 1), costs=(1, 1), upper_bounds=(1, 1)
    )
    with pytest.raises(Infeasible) as err:
        brute_force_opt(cip)
    assert tuple(err.value.uncovered) == (1,)


def test_brute_budget():
    rng = random.Random(5)
    inst = coverable_line(rng, max_edges=10, max_segments=15)
    with pytest.raises(BudgetExceeded):
        brute_force_opt(inst, budget=2)


def test_brute_is_lex_smallest():
    # two optima exist; ties must break to the lexicographically smaller
    cip = ZeroOneCIP(
        matrix=((1, 1),), demands=(1,), costs=(3, 3), upper_bounds=(1, 1)
    )
    cost, sol = brute_force_opt(cip)
    assert cost == 3
    assert tuple(sol) == (0, 1)


def test_tu_oracle_matches_brute():
    rng = random.Random(31)
    oracle = TuLineOracle()
    assert oracle.gamma == 1
    for _ in range(40):
        ccip = rand_interval_ccip(rng, max_supply=1, demand_cap=3)
        cip = ccip.base
        lp = simplex_solve(canonical_relaxation(cip))
        assert isinstance(lp, LpOptimal)
        sol = oracle(cip, FracSolution(lp.solution))
        cost, best = brute_force_opt(cip)
        assert solution_cost(cip.costs, sol) == cost


def test_tu_oracle_flags_fractional_vertex():
    # odd cycle: the cover LP vertex is half-integral, not integral
    cip = ZeroOneCIP(
        matrix=((1, 1, 0), (0, 1, 1), (1, 0, 1)),
        demands=(1, 1, 1),
        costs=(1, 1, 1),
        upper_bounds=(1, 1, 1),
    )
    with pytest.raises(NonIntegralVertex):
        TuLineOracle()(cip, FracSolution((Fraction(1, 2),) * 3))


def test_tu_oracle_rejects_bad_witness():
    cip = ZeroOneCIP(matrix=((1,),), demands=(1,), costs=(1,), upper_bounds=(1,))
    with pytest.raises(Exception):
        TuLineOracle()(cip, FracSolution((Fraction(1, 2),)))


def test_tu_oracle_rejects_lp_above_witness(monkeypatch):
    # an LP optimum above a feasible point's cost breaks LP duality; the
    # check is a raise, so it also holds under python -O
    cip = ZeroOneCIP(matrix=((1,),), demands=(1,), costs=(2,), upper_bounds=(1,))
    monkeypatch.setattr(
        oracles,
        "simplex_solve",
        lambda lp: LpOptimal(solution=(Fraction(1),), value=Fraction(3), basis=(0,)),
    )
    with pytest.raises(CertificateViolated):
        TuLineOracle()(cip, FracSolution((Fraction(1),)))


def test_pcip_oracle_factor_two():
    rng = random.Random(77)
    oracle = PrimalDualPcipOracle()
    assert oracle.omega == 2
    for _ in range(40):
        line = coverable_line(rng, max_edges=6, max_segments=8)
        from priocover import line_to_pcip

        pcip = line_to_pcip(line)
        lp = simplex_solve(canonical_relaxation(pcip))
        assert isinstance(lp, LpOptimal)
        witness = FracSolution(lp.solution)
        sol = oracle(pcip, witness)
        assert check_cover(pcip, sol).feasible
        cost, _ = brute_force_opt(pcip)
        got = solution_cost(pcip.base.costs, sol)
        assert got <= 2 * cost


def test_pcip_oracle_rejects_gappy_columns():
    base = ZeroOneCIP(
        matrix=((1,), (0,), (1,)),
        demands=(1, 1, 1),
        costs=(1,),
        upper_bounds=(1,),
    )
    pcip = PriorityCIP(
        base=base, priority_supplies=(1,), priority_demands=(1, 1, 1)
    )
    with pytest.raises(Exception):
        PrimalDualPcipOracle()(pcip, FracSolution((3,)))
