"""Benchmark entry point: CLI document latency and throughput per workload.

    python3 bench/run.py --workload line --seed 1 --seconds 20 --trace 0

Run from anywhere; it works on the checkout that holds this directory and
builds priocover from its ``src``. Load is a closed loop: one client
process (bench/worker.py) sends one document after another through
``priocover.cli.main`` with no threads. Every output is checked afterwards
by bench/checker.py, which shares no code with priocover.

--trace 0 reports the end-to-end metrics: correctly solved documents per
second, median and tail latency per document, mean approximation cost
over the independent optimum, the worker's peak resident memory, and
set-up time (median of fresh interpreters that import priocover and answer
one trivial command, after a warm-up launch). Times are CPU seconds of the
process doing the work, normalized to a reference host speed (see
bench/speed.py); raw CPU and wall times are printed alongside.

--trace 1 runs the same documents twice, traced and then untraced, and
reports per-document busy time and work counts per layer from the traced
run's spans plus the traced over untraced throughput.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys

import checker
import speed
import tracing
import worker
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SETUP_LAUNCHES = 11
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); from priocover.cli import main; "
    "sys.exit(main(['generate', 'gap-line', '--k', '3', '--out', sys.argv[1]]))"
)
TAIL_BEYOND = 10  # documents the tail percentile must leave above it
# children may write .pyc files, so set-up after the warm-up launch reads them
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}


def _children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(work):
    """Median normalized CPU time of fresh interpreters answering one
    trivial command."""
    out = os.path.join(work, "setup.json")
    times = []
    for _ in range(SETUP_LAUNCHES + 1):
        before = speed.sample()
        start = _children_cpu()
        subprocess.run([sys.executable, "-c", SETUP_CODE, out], cwd=ROOT, env=CHILD_ENV,
                       check=True, timeout=60)
        times.append((_children_cpu() - start) * speed.factor(before, speed.sample()))
        with open(out, encoding="utf-8") as handle:
            doc = json.load(handle)
        if doc.get("kind") != "line" or len(doc.get("edges", ())) != 3:
            raise RuntimeError("generate gap-line --k 3 gave a wrong document")
    return statistics.median(times[1:])  # the first launch writes the .pyc files


def run_worker(args, work, seconds, trace=False, max_docs=None, small=False):
    os.makedirs(work)
    cmd = [
        sys.executable, os.path.join(BENCH, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--work", work,
    ]
    if trace:
        cmd.append("--trace")
    if max_docs is not None:
        cmd += ["--max-docs", str(max_docs)]
    if small:
        cmd.append("--small")
    subprocess.run(cmd, env=CHILD_ENV, check=True, timeout=2 * seconds + 60)
    with open(os.path.join(work, "result.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _load(path):
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def check_outputs(workload, result, work):
    """Per document: None when correct, else the first reason it is not;
    plus the approximation ratios of the correct documents."""
    verdicts = []
    ratios = []
    for k, code in enumerate(result["exit_codes"]):
        if code:
            verdicts.append("exit %s" % code)
            continue
        paths = worker.doc_paths(work, k)
        files = {tag: _load(path) for tag, path in paths.items() if tag.startswith(("OUT", "AUDIT"))}
        problems, ratio = checker.check(workload, _load(paths["IN"]), files)
        verdicts.append(problems[0] if problems else None)
        if not problems and ratio is not None:
            ratios.append(ratio)
    return verdicts, ratios


def same_outputs(result, work, reference_work):
    """Per document: None when its outputs are byte-identical to the
    reference run's (the CLI's outputs are byte-stable), else a reason."""
    verdicts = []
    for k, code in enumerate(result["exit_codes"]):
        if code:
            verdicts.append("exit %s" % code)
            continue
        mine, theirs = worker.doc_paths(work, k), worker.doc_paths(reference_work, k)
        differs = [
            tag for tag in mine
            if tag != "IN" and _read_bytes(mine[tag]) != _read_bytes(theirs[tag])
        ]
        verdicts.append("%s differs from the traced run" % differs[0] if differs else None)
    return verdicts


def _read_bytes(path):
    if not os.path.exists(path):
        return None
    with open(path, "rb") as handle:
        return handle.read()


def tail(latencies):
    """The highest percentile with TAIL_BEYOND documents beyond it, as
    (value, percentile); the maximum at 100 when there are too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(args, work):
    setup_s = measure_setup(work)
    result = run_worker(args, os.path.join(work, "run"), args.seconds)
    verdicts, ratios = check_outputs(args.workload, result, os.path.join(work, "run"))
    latencies = result["latencies"]
    attempted = len(latencies)
    failed = sum(1 for v in verdicts if v)
    tail_s, tail_pct = tail(latencies)
    print("%s: %d documents attempted, %d failed (failed_ratio %.6f ratio)"
          % (args.workload, attempted, failed, failed / attempted))
    print("latency_tail_s is the p%.2f latency over %d documents, %d beyond it"
          % (tail_pct, attempted, TAIL_BEYOND if attempted > TAIL_BEYOND else 0))
    for clock in ("cpu", "wall"):
        raw = result["%s_latencies" % clock]
        print("%s time per document, not normalized: median %.6f s, p%.2f %.6f s"
              % (clock, statistics.median(raw), tail_pct, tail(raw)[0]))
    if not ratios:
        raise RuntimeError("no correct document to take an approximation ratio from")
    metrics = {
        "docs_per_s": ((attempted - failed) / result["busy_s"], "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail_s, "s"),
        "approx_ratio_mean": (statistics.fmean(ratios), "ratio"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }
    return attempted, failed, verdicts, metrics


def per_layer(args, work):
    traced_work, plain_work = os.path.join(work, "traced"), os.path.join(work, "plain")
    traced = run_worker(args, traced_work, args.seconds, trace=True)
    attempted = len(traced["latencies"])
    # the untraced replay runs the same documents, however long they take
    plain = run_worker(args, plain_work, 2 * args.seconds, max_docs=attempted)
    verdicts, _ = check_outputs(args.workload, traced, traced_work)
    plain_verdicts = same_outputs(plain, plain_work, traced_work)
    verdicts = [a or b for a, b in zip(verdicts, plain_verdicts)]
    failed = sum(1 for v in verdicts if v)
    with open(os.path.join(traced_work, "spans.json"), encoding="utf-8") as handle:
        spans = json.load(handle)
    values = tracing.layer_metrics(spans, traced["speed_factors"])
    values["trace.doc_s"] = statistics.fmean(traced["latencies"])
    traced_rate = sum(1 for v in verdicts if not v) / traced["busy_s"]
    plain_rate = sum(1 for c in plain["exit_codes"] if not c) / plain["busy_s"]
    values["trace.overhead_ratio"] = traced_rate / plain_rate if plain_rate else 0.0
    print("%s: %d documents traced and replayed untraced, %d failed"
          % (args.workload, attempted, failed))
    shares = sorted(
        ((values["%s.self_s" % layer], layer) for layer in tracing.LAYERS), reverse=True
    )
    print("self time share of the traced document time: " + ", ".join(
        "%s %.1f%%" % (layer, 100 * t / values["trace.doc_s"]) for t, layer in shares if t
    ))
    metrics = {name: (value, tracing.unit(name)) for name, value in values.items()}
    return attempted, failed, verdicts, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "priocover", "cli.py")):
        sys.exit("no priocover sources at %s" % os.path.join(ROOT, "src"))
    work = os.path.join(ROOT, ".bench_work", "%s-%s-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(work)
    try:
        measure = per_layer if args.trace else end_to_end
        attempted, failed, verdicts, metrics = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it
    reasons = {}
    for verdict in verdicts:
        if verdict:
            reasons[verdict] = reasons.get(verdict, 0) + 1
    for reason, count in sorted(reasons.items()):
        print("FAILED x%d: %s" % (count, reason))
    for name, (value, unit) in metrics.items():
        print("%-32s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
