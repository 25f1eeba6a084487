"""The benchmark's client: one process, one document after another.

For each document of the workload it writes the input file, then runs the
workload's CLI commands through ``priocover.cli.main`` in this process and
times them as one document, input to output. Generating and validating
the next document happens outside the timed region, and so does a garbage
collection, so each document starts from a clean heap as a fresh CLI
process would.

Each document gets three times: its wall time, the process CPU time it
took, and that CPU time normalized by bench/speed.py's kernel, run before
and after the document, which is what the metrics use. The work is
single-threaded and CPU bound, so wall and CPU time agree on an idle
machine; on a shared one, wall time also counts the time other tenants
held the processor, and both drift with the host's speed, which the
normalization takes out. The loop stops once the timed CPU time adds up
to --seconds, after 1.5 times that in wall time, or after --max-docs
documents.

Writes result.json (and spans.json with --trace) into --work.

    python3 bench/worker.py --workload line --seed 1 --seconds 20 --work DIR
"""

import argparse
import gc
import json
import os
import resource
import sys
import time

import checker
import speed
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def doc_paths(work, k):
    """Placeholder -> file for document k's pipeline (see workloads.WORKLOADS)."""
    tags = ("IN", "MID", "OUT0", "OUT1", "OUT2", "AUDIT0", "AUDIT1", "AUDIT2")
    return {tag: os.path.join(work, "d%d.%s.json" % (k, tag.lower())) for tag in tags}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--max-docs", type=int, default=None)
    parser.add_argument("--small", action="store_true", help="smallest document sizes")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from priocover import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.join(ROOT, "src")):
        sys.exit("priocover was not imported from %s" % os.path.join(ROOT, "src"))
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    commands = workloads.pipeline(args.workload)
    cpu_latencies = []
    wall_latencies = []
    speed_samples = []
    exit_codes = []
    busy = 0.0
    k = 0
    # the wall-time cap keeps a run on a heavily loaded host from overrunning
    deadline = time.perf_counter() + 1.5 * args.seconds
    while busy < args.seconds and time.perf_counter() < deadline and (
        args.max_docs is None or k < args.max_docs
    ):
        doc = workloads.document(args.workload, args.seed, k, small=args.small)
        problems = checker.validate(doc)
        if problems:
            sys.exit("generated document %d is invalid: %s" % (k, "; ".join(problems)))
        paths = doc_paths(args.work, k)
        with open(paths["IN"], "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        argvs = [[paths.get(a, a) for a in cmd] for cmd in commands]
        if tracer:
            tracer.doc = k
        gc.collect()
        speed_samples.append(speed.sample())
        start, cpu_start = time.perf_counter(), time.process_time()
        for argv in argvs:
            try:
                code = cli.main(argv)
            except Exception as exc:  # a traceback: the document failed
                code = "%s: %s" % (type(exc).__name__, exc)
            if code:
                break
        cpu = time.process_time() - cpu_start
        wall_latencies.append(time.perf_counter() - start)
        busy += cpu
        cpu_latencies.append(cpu)
        exit_codes.append(code)
        k += 1

    speed_samples.append(speed.sample())
    factors = [speed.factor(a, b) for a, b in zip(speed_samples, speed_samples[1:])]
    latencies = [cpu * f for cpu, f in zip(cpu_latencies, factors)]
    if tracer:
        tracer.uninstall()
        tracer.dump(os.path.join(args.work, "spans.json"))
    result = {
        "latencies": latencies,
        "cpu_latencies": cpu_latencies,
        "wall_latencies": wall_latencies,
        "speed_factors": factors,
        "exit_codes": exit_codes,
        "busy_s": sum(latencies),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    with open(os.path.join(args.work, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
