"""Command line front end.

Commands read an instance document on stdin (or --in FILE) and write a
result document on stdout (or --out FILE).  Output is byte-identical
across runs for the same input.  Exit codes: 0 success, 1 infeasible,
2 invalid input, 3 budget exceeded, 64 usage error.
"""

import argparse
import json
import sys
from fractions import Fraction

from .errors import (
    BudgetExceeded,
    FractionalInfeasible,
    Infeasible,
    IterationBudgetExceeded,
    PriocoverError,
    ValidationError,
)
from .io import _KINDS, SolutionPayload, _encode_num, document_for, parse_document, serialize_document
from .lp import alpha_relaxed, canonical_relaxation, simplex_solve, LpInfeasible, LpUnbounded
from .model import FracSolution, IntSolution, check_cover, require_valid, solution_cost
from .oracles import PrimalDualPcipOracle, TuLineOracle, brute_force_opt
from .plc import exact_plc, gen_gap_line, primal_dual_plc
from .ptc import decompose_fractional_ptc, exact_tree_cover_01, gen_broom, ptc_2apx, unweighted_ptc_round
from .reductions import ptc_to_2plc, twoplc_to_rect
from .rounding import round_ccip, round_no_kc

_INSTANCE_KINDS = tuple(kind for kind in _KINDS if kind not in ("solution", "report"))


def _read_text(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write_text(path, text):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _load_instance(path, kinds):
    doc = parse_document(_read_text(path))
    if doc.kind not in kinds:
        wanted = " or ".join(kinds)
        raise ValidationError("expected a %s document, got %r" % (wanted, doc.kind))
    require_valid(doc.body)
    return doc.body


def _emit(args, body):
    _write_text(args.out, serialize_document(document_for(body)))


def _emit_solution(args, solution, cost):
    _emit(args, SolutionPayload(solution=solution, cost=cost))


def _write_audit(args, payload):
    if getattr(args, "audit", None) is None:
        return
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.audit == "-":
        sys.stderr.write(text)
    else:
        with open(args.audit, "w", encoding="utf-8") as handle:
            handle.write(text)


def _lp_vertex(instance):
    # shared by lp solve and the rounding front ends that need a fractional cover first
    outcome = simplex_solve(canonical_relaxation(instance))
    if isinstance(outcome, LpInfeasible):
        raise Infeasible("the fractional relaxation has no solution", ())
    if isinstance(outcome, LpUnbounded):
        raise ValidationError("the fractional relaxation is unbounded")
    return FracSolution(outcome.solution), outcome.value


def _cmd_solve_plc_exact(args):
    instance = _load_instance(args.infile, ("line",))
    value, solution = exact_plc(instance)
    _write_audit(args, {"cost": _encode_num(value), "support": sorted(solution.support())})
    _emit_solution(args, solution, value)
    return 0


def _cmd_solve_plc_pd(args):
    instance = _load_instance(args.infile, ("line",))
    solution, certificate = primal_dual_plc(instance)
    cost = solution_cost([seg.cost for seg in instance.segments], solution)
    _write_audit(args, {
        "cost": _encode_num(cost),
        "dual_total": _encode_num(certificate.total),
        "duals": list(map(_encode_num, certificate.edge_duals)),
        "tight": [j for j, flag in enumerate(certificate.tight) if flag],
    })
    _emit_solution(args, solution, cost)
    return 0


def _cmd_solve_ptc_2apx(args):
    instance = _load_instance(args.infile, ("tree",))
    solution, audit = ptc_2apx(instance)
    _write_audit(args, {
        "cost": _encode_num(audit.cost),
        "tree_cover_value": _encode_num(audit.tree_cover_value),
        "chosen_pairs": [list(pair) for pair in audit.chosen_pairs],
        "pair_costs": list(map(_encode_num, audit.pair_costs)),
        "num_pairs": audit.num_pairs,
    })
    _emit_solution(args, solution, audit.cost)
    return 0


def _cmd_solve_ptc_unw6(args):
    instance = _load_instance(args.infile, ("tree",))
    x, lp_value = _lp_vertex(instance)
    solution = unweighted_ptc_round(instance, x)
    cost = solution_cost([seg.cost for seg in instance.segments], solution)
    if args.audit is not None:
        pieces = decompose_fractional_ptc(instance, x)
        masses = [sum(piece.frac, Fraction(0)) for piece in pieces]
        _write_audit(args, {
            "lp_value": _encode_num(lp_value),
            "mass": _encode_num(sum(masses, Fraction(0))),
            "pieces": [
                {
                    "edges": list(piece.edges),
                    "mass": _encode_num(mass),
                    "segments": list(piece.segment_ids),
                }
                for piece, mass in zip(pieces, masses)
            ],
            "cost": _encode_num(cost),
        })
    _emit_solution(args, solution, cost)
    return 0


def _cmd_solve_ccip(args):
    instance = _load_instance(args.infile, ("ccip",))
    solution, audit = round_ccip(instance, TuLineOracle(), PrimalDualPcipOracle())
    if args.audit is not None:
        _write_audit(args, {
            "alpha": _encode_num(audit.alpha),
            "x_star": list(map(_encode_num, audit.x_star)),
            "lower_bound": _encode_num(audit.lower_bound),
            "generating_set": sorted(audit.generating_set),
            "iterations": audit.iterations,
            "xbar": list(map(_encode_num, audit.xbar)),
            "row_ids": list(audit.normalized.row_ids),
            "rounded_demands": list(map(_encode_num, audit.normalized.rounded_demands)),
            "rounded_supplies": list(map(_encode_num, audit.normalized.rounded_supplies)),
            "scaled_solution": list(map(_encode_num, audit.normalized.scaled_solution)),
            "large_rows": list(audit.partition.large_rows),
            "small_rows": list(audit.partition.small_rows),
            "class_supplies": list(map(_encode_num, audit.classes.class_supplies)),
            "thresholds": {str(row): t for row, t in sorted(audit.classes.thresholds.items())},
            "small_solution": list(map(_encode_num, audit.small_solution)),
            "large_solution": list(map(_encode_num, audit.large_solution)),
            "combined": list(map(_encode_num, audit.combined)),
            "solution": list(audit.solution),
            "cost": _encode_num(audit.cost),
            "bound_factor": _encode_num(audit.bound_factor),
            "cost_bound": _encode_num(audit.cost_bound),
        })
    _emit_solution(args, solution, audit.cost)
    return 0


def _cmd_solve_ccip_nokc(args):
    instance = _load_instance(args.infile, ("ccip",))
    x, lp_value = _lp_vertex(instance)
    solution = round_no_kc(instance, x, TuLineOracle())
    cost = solution_cost(instance.base.costs, solution)
    _write_audit(args, {
        "lp_value": _encode_num(lp_value),
        "x": list(map(_encode_num, x)),
        "cost": _encode_num(cost),
        "cost_bound": _encode_num(10 * lp_value),
    })
    _emit_solution(args, solution, cost)
    return 0


def _cmd_solve_tree01(args):
    # treats each segment as a bare ancestor-descendant pair; supplies ignored
    instance = _load_instance(args.infile, ("tree",))
    pairs = [(seg.top, seg.bottom) for seg in instance.segments]
    costs = [seg.cost for seg in instance.segments]
    value, chosen = exact_tree_cover_01(instance, pairs, costs)
    values = [0] * len(pairs)
    for index in chosen:
        values[index] = 1
    _write_audit(args, {"cost": _encode_num(value), "chosen": list(chosen)})
    _emit_solution(args, IntSolution(tuple(values)), value)
    return 0


def _cmd_generate_gap_line(args):
    _emit(args, gen_gap_line(args.k))
    return 0


def _parse_graph(text):
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError("graph file: %s" % exc) from exc
    if not isinstance(raw, dict):
        raise ValidationError("graph file: expected an object")
    vertices = raw.get("vertices")
    edges = raw.get("edges")
    if not isinstance(vertices, list) or not all(isinstance(v, (str, int)) and not isinstance(v, bool) for v in vertices):
        raise ValidationError("graph file: 'vertices' must be a list of names")
    if not isinstance(edges, list):
        raise ValidationError("graph file: 'edges' must be a list")
    pairs = []
    for pos, edge in enumerate(edges):
        if not isinstance(edge, list) or len(edge) != 2:
            raise ValidationError("graph file: edges[%d] must be a pair" % pos)
        pairs.append((edge[0], edge[1]))
    return tuple(vertices), tuple(pairs)


def _cmd_generate_broom(args):
    vertices, edges = _parse_graph(_read_text(args.graph))
    instance, _ = gen_broom(vertices, edges)
    _emit(args, instance)
    return 0


def _cmd_reduce_ptc_to_2plc(args):
    instance = _load_instance(args.infile, ("tree",))
    _emit(args, ptc_to_2plc(instance))
    return 0


def _cmd_reduce_2plc_to_rect(args):
    instance = _load_instance(args.infile, ("two_plc",))
    _emit(args, twoplc_to_rect(instance))
    return 0


def _cmd_oracle_brute(args):
    instance = _load_instance(args.infile, _INSTANCE_KINDS)
    cost, solution = brute_force_opt(instance, budget=args.budget)
    _emit_solution(args, solution, cost)
    return 0


def _cmd_verify(args):
    instance = _load_instance(args.infile, _INSTANCE_KINDS)
    payload = parse_document(_read_text(args.solution))
    if not isinstance(payload.body, SolutionPayload):
        raise ValidationError("expected a solution document, got %r" % payload.kind)
    report = check_cover(instance, payload.body.solution)
    _emit(args, report)
    return 0 if report.feasible else 1


def _cmd_lp_solve(args):
    instance = _load_instance(args.infile, _INSTANCE_KINDS)
    x, value = _lp_vertex(instance)
    _write_audit(args, {"value": _encode_num(value)})
    _emit_solution(args, x, value)
    return 0


def _cmd_lp_alpha_relaxed(args):
    instance = _load_instance(args.infile, ("ccip",))
    result = alpha_relaxed(instance, args.alpha)
    _write_audit(args, {
        "lower_bound": _encode_num(result.lower_bound),
        "generating_set": sorted(result.generating_set),
        "iterations": result.iterations,
    })
    _emit_solution(args, result.x_star, result.lower_bound)
    return 0


def _fraction_arg(text):
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError("expected a rational like 1/2, got %r" % text) from exc
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError("alpha must lie strictly between 0 and 1")
    return value


def _positive_int(text):
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected an integer, got %r" % text) from exc
    if value <= 0:
        raise argparse.ArgumentTypeError("expected a positive integer")
    return value


def _add_io_flags(parser, audit=False):
    parser.add_argument("--in", dest="infile", default="-", metavar="FILE",
                        help="input document (default: stdin)")
    parser.add_argument("--out", default="-", metavar="FILE",
                        help="output document (default: stdout)")
    if audit:
        parser.add_argument("--audit", default=None, metavar="FILE",
                            help="write a JSON audit trail ('-' for stderr)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="priocover",
        description="Solvers, generators, and reductions for priority covering problems.",
    )
    parser.set_defaults(func=None)
    commands = parser.add_subparsers(dest="command", metavar="COMMAND")

    solve = commands.add_parser("solve", help="solve an instance")
    solve.set_defaults(func=None)
    algos = solve.add_subparsers(dest="algorithm", metavar="ALGORITHM")
    for name, handler, blurb in (
        ("plc-exact", _cmd_solve_plc_exact, "optimal priority line cover"),
        ("plc-pd", _cmd_solve_plc_pd, "primal-dual 2-approximate line cover"),
        ("ptc-2apx", _cmd_solve_ptc_2apx, "2-approximate priority tree cover"),
        ("ptc-unw6", _cmd_solve_ptc_unw6, "6-approximate unit-cost tree cover"),
        ("ccip", _cmd_solve_ccip, "rounding with knapsack-cover strengthening"),
        ("ccip-nokc", _cmd_solve_ccip_nokc, "rounding without strengthening (relaxes demands)"),
        ("tree01", _cmd_solve_tree01, "optimal tree cover by ancestor-descendant paths"),
    ):
        sub = algos.add_parser(name, help=blurb)
        _add_io_flags(sub, audit=True)
        sub.set_defaults(func=handler)

    generate = commands.add_parser("generate", help="build a benchmark instance")
    generate.set_defaults(func=None)
    families = generate.add_subparsers(dest="family", metavar="FAMILY")
    gap = families.add_parser("gap-line", help="line family with integrality gap up to 4/3")
    gap.add_argument("--k", type=_positive_int, required=True, help="number of edges (odd)")
    gap.add_argument("--out", default="-", metavar="FILE")
    gap.set_defaults(func=_cmd_generate_gap_line)
    broom = families.add_parser("broom", help="tree family encoding vertex cover of a graph")
    broom.add_argument("--graph", required=True, metavar="FILE",
                       help='JSON graph: {"vertices": [...], "edges": [[u, v], ...]}')
    broom.add_argument("--out", default="-", metavar="FILE")
    broom.set_defaults(func=_cmd_generate_broom)

    reduce_cmd = commands.add_parser("reduce", help="rewrite an instance in another model")
    reduce_cmd.set_defaults(func=None)
    targets = reduce_cmd.add_subparsers(dest="target", metavar="TARGET")
    for name, handler, blurb in (
        ("ptc-to-2plc", _cmd_reduce_ptc_to_2plc, "tree cover as a two-priority line cover"),
        ("2plc-to-rect", _cmd_reduce_2plc_to_rect, "two-priority line cover as rectangle cover"),
    ):
        sub = targets.add_parser(name, help=blurb)
        _add_io_flags(sub)
        sub.set_defaults(func=handler)

    oracle = commands.add_parser("oracle", help="ground-truth solvers for small instances")
    oracle.set_defaults(func=None)
    kinds = oracle.add_subparsers(dest="kind", metavar="KIND")
    brute = kinds.add_parser("brute", help="exhaustive optimum")
    _add_io_flags(brute)
    brute.add_argument("--budget", type=_positive_int, default=2_000_000,
                       help="abort once this many candidate sets were tried")
    brute.set_defaults(func=_cmd_oracle_brute)

    verify = commands.add_parser("verify", help="check a solution against an instance")
    verify.add_argument("--in", dest="infile", default="-", metavar="FILE")
    verify.add_argument("--solution", required=True, metavar="FILE")
    verify.add_argument("--out", default="-", metavar="FILE")
    verify.set_defaults(func=_cmd_verify)

    lp = commands.add_parser("lp", help="fractional relaxations")
    lp.set_defaults(func=None)
    modes = lp.add_subparsers(dest="mode", metavar="MODE")
    plain = modes.add_parser("solve", help="optimal fractional cover")
    _add_io_flags(plain, audit=True)
    plain.set_defaults(func=_cmd_lp_solve)
    relaxed = modes.add_parser("alpha-relaxed", help="approximately separated strengthened relaxation")
    _add_io_flags(relaxed, audit=True)
    relaxed.add_argument("--alpha", type=_fraction_arg, required=True, metavar="P/Q",
                         help="generating-set threshold, a rational strictly between 0 and 1")
    relaxed.set_defaults(func=_cmd_lp_alpha_relaxed)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 64
    if args.func is None:
        parser.print_usage(sys.stderr)
        return 64
    try:
        return args.func(args)
    except (Infeasible, FractionalInfeasible) as exc:
        print("infeasible: %s" % exc, file=sys.stderr)
        return 1
    except (BudgetExceeded, IterationBudgetExceeded) as exc:
        print("budget exceeded: %s" % exc, file=sys.stderr)
        return 3
    except PriocoverError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
