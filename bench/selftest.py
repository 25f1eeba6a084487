"""Self-test of the benchmark; exits non-zero on the first broken check.

    python3 bench/selftest.py

Runs every workload at its smallest document size through the worker,
untraced and traced, and requires every output to pass the checker and
the traced layer self times to add up to the time inside ``cli.main``.
Then it mutates one output document per workload, by dropping a chosen
column from the solution, by bumping the reported cost, and for exact
solvers by buying one more column at its cost, and requires the checker
to count each mutant as failed, so that a zero failure count cannot come
from a checker that accepts anything.
"""

import argparse
import json
import os
import shutil
import sys
from fractions import Fraction

import checker
import run
import tracing
import workloads

DOCS = 3
EXACT_OUT0 = ("line", "lp")  # workloads whose first output claims optimality


def _encode(value):
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else {"num": value.numerator, "den": value.denominator}


def _mutants(solution, costs, exact):
    """The solution with its first chosen column dropped, with its reported
    cost bumped by one, and, when it claims to be optimal, with one more
    column bought and paid for, which keeps it feasible and consistent."""
    xs = [checker.num(v) for v in solution["x"]]
    cost = checker.num(solution["cost"])

    def mutant(values, total):
        return dict(solution, x=[_encode(v) for v in values], cost=_encode(total))

    j = next(j for j, v in enumerate(xs) if v)
    out = [
        ("drop column %d" % j, mutant(xs[:j] + [0] + xs[j + 1:], cost)),
        ("bump cost", mutant(xs, cost + 1)),
    ]
    if exact:
        j = next(j for j, v in enumerate(xs) if not v and costs[j] > 0)
        out.append(("buy column %d too" % j, mutant(xs[:j] + [1] + xs[j + 1:], cost + costs[j])))
    return out


def selftest(work):
    args = argparse.Namespace(seed=0)
    for workload in sorted(workloads.WORKLOADS):
        args.workload = workload
        plain_work = os.path.join(work, workload)
        result = run.run_worker(args, plain_work, 60, max_docs=DOCS, small=True)
        verdicts, ratios = run.check_outputs(workload, result, plain_work)
        assert verdicts == [None] * DOCS, (workload, verdicts)
        assert len(ratios) == DOCS and all(r >= 1 - 1e-9 for r in ratios), (workload, ratios)

        traced_work = os.path.join(work, workload + "-traced")
        traced = run.run_worker(args, traced_work, 60, trace=True, max_docs=DOCS, small=True)
        assert run.same_outputs(traced, traced_work, plain_work) == [None] * DOCS, workload
        with open(os.path.join(traced_work, "spans.json"), encoding="utf-8") as handle:
            metrics = tracing.layer_metrics(json.load(handle), traced["speed_factors"])
        layers = sum(metrics["%s.self_s" % layer] for layer in tracing.LAYERS)
        assert abs(layers - metrics["cli.main.s"]) <= 1e-6 * metrics["cli.main.s"], workload

        out0 = os.path.join(plain_work, "d0.out0.json")
        with open(out0, encoding="utf-8") as handle:
            original = json.load(handle)
        with open(os.path.join(plain_work, "d0.in.json"), encoding="utf-8") as handle:
            costs = checker.system(json.load(handle)).costs
        for what, mutant in _mutants(original, costs, exact=workload in EXACT_OUT0):
            with open(out0, "w", encoding="utf-8") as handle:
                json.dump(mutant, handle)
            verdicts, _ = run.check_outputs(workload, result, plain_work)
            assert verdicts[0] is not None and verdicts[1:] == [None] * (DOCS - 1), (workload, what)
            print("%s: %s caught: %s" % (workload, what, verdicts[0]))
        print("%s: %d small documents correct, traced and untraced" % (workload, DOCS))


def main():
    work = os.path.join(run.ROOT, ".bench_work", "selftest-%d" % os.getpid())
    os.makedirs(work)
    try:
        selftest(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it
    print("selftest passed")


if __name__ == "__main__":
    sys.exit(main())
