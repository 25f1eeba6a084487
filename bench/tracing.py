"""Spans around priocover's module boundaries, recorded from outside.

`Tracer.install` replaces each public function a calling module bound
(``from .plc import exact_plc`` gives ptc and cli their own name) with a
wrapper that records one span: name, document id, parent span, start and
end in process CPU time, the exception raised if any, and counts read from
the arguments and the return value only. Spans stay in memory until `dump`. Untraced runs never
call `install`, so every module stays untouched.

`layer_metrics` turns the spans into per-document metrics. A span's self
time is its duration minus its direct children's, so the self times of
all layers add up to the time spent inside ``cli.main``.
"""

import functools
import importlib
import json
from time import process_time_ns

LAYERS = ("cli", "io", "model", "lp", "plc", "ptc", "rounding", "oracles", "reductions")


def _lp_shape(lp):
    # the tableau simplex_solve builds: one row per constraint and per finite
    # upper bound, plus a slack per row and an artificial per row with rhs > 0
    from priocover.model import is_unbounded

    ge = sum(1 for row in lp.rows if row.rhs > 0)
    rows = len(lp.rows) + sum(1 for u in lp.upper_bounds if not is_unbounded(u))
    cols = len(lp.objective)
    return {"rows": rows, "cols": cols, "cells": rows * (cols + rows + ge)}


def _line_size(line):
    return {"edges": len(line.edge_priorities), "segments": len(line.segments)}


# (module, attribute, span name, counts from arguments, counts from the result)
_TARGETS = (
    ("cli", "main", "cli.main", None, None),
    ("cli", "parse_document", "io.parse_document", lambda text: {"bytes": len(text.encode())}, None),
    ("cli", "serialize_document", "io.serialize_document", None, lambda text: {"bytes": len(text.encode())}),
    ("cli", "check_cover", "model.check_cover", None, None),
    ("ptc", "check_cover", "model.check_cover", None, None),
    ("rounding", "check_cover", "model.check_cover", None, None),
    ("ptc", "validate_instance", "model.validate_instance", None, None),
    ("reductions", "validate_instance", "model.validate_instance", None, None),
    ("cli", "simplex_solve", "lp.simplex_solve", _lp_shape, None),
    ("lp", "simplex_solve", "lp.simplex_solve", _lp_shape, None),
    ("oracles", "simplex_solve", "lp.simplex_solve", _lp_shape, None),
    ("cli", "canonical_relaxation", "lp.canonical_relaxation", None, None),
    ("oracles", "canonical_relaxation", "lp.canonical_relaxation", None, None),
    ("cli", "alpha_relaxed", "lp.alpha_relaxed", None, lambda r: {"rounds": r.iterations}),
    ("rounding", "alpha_relaxed", "lp.alpha_relaxed", None, lambda r: {"rounds": r.iterations}),
    ("lp", "kc_residual", "lp.kc_residual", None, None),
    ("rounding", "kc_residual", "lp.kc_residual", None, None),
    ("cli", "exact_plc", "plc.exact_plc", _line_size, None),
    ("ptc", "exact_plc", "plc.exact_plc", _line_size, None),
    ("cli", "primal_dual_plc", "plc.primal_dual_plc", None, None),
    ("oracles", "primal_dual_plc", "plc.primal_dual_plc", None, None),
    ("cli", "ptc_2apx", "ptc.ptc_2apx", None, lambda r: {"pairs": r[1].num_pairs}),
    ("cli", "exact_tree_cover_01", "ptc.exact_tree_cover_01", None, None),
    ("ptc", "exact_tree_cover_01", "ptc.exact_tree_cover_01", None, None),
    ("cli", "round_ccip", "rounding.round_ccip", None, None),
    ("rounding", "power2_normalize", "rounding.power2_normalize", None, None),
    ("rounding", "partition_rows", "rounding.partition_rows", None,
     lambda p: {"small_rows": len(p.small_rows), "large_rows": len(p.large_rows)}),
    ("rounding", "supply_classes", "rounding.supply_classes", None, None),
    ("rounding", "round_small_rows", "rounding.round_small_rows", None, None),
    ("rounding", "round_large_rows", "rounding.round_large_rows", None, None),
    ("oracles.TuLineOracle", "__call__", "oracles.tu", None, None),
    ("oracles.PrimalDualPcipOracle", "__call__", "oracles.pd", None, None),
    ("cli", "ptc_to_2plc", "reductions.ptc_to_2plc", None, None),
    ("cli", "twoplc_to_rect", "reductions.twoplc_to_rect", None, None),
)


def _resolve(path):
    module, _, cls = path.partition(".")
    owner = importlib.import_module("priocover." + module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Records spans of one single-threaded run; set `doc` per document."""

    def __init__(self):
        self.spans = []  # [name, doc, parent, start_ns, end_ns, error, counts]
        self.doc = -1
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn, before, after):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = before(*args, **kwargs) if before else {}
            span = [name, self.doc, stack[-1] if stack else -1, 0, 0, None, counts]
            stack.append(len(spans))
            spans.append(span)
            span[3] = process_time_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[4] = process_time_ns()
                stack.pop()
            if after:
                counts.update(after(result))
            return result

        return traced

    def install(self):
        for path, attr, name, before, after in _TARGETS:
            owner = _resolve(path)
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, before, after))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def _sum_count(spans, name, key):
    return sum(s[6].get(key, 0) for s in spans if s[0] == name)


def layer_metrics(spans, speed_factors):
    """Per-document busy time, call counts and work counts per layer.

    Span times are CPU times, scaled by their document's speed factor
    like the document's own time (see bench/speed.py)."""
    docs = len(speed_factors)
    durations = [(s[4] - s[3]) / 1e9 * speed_factors[s[1]] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[2] >= 0:
            child_time[s[2]] += durations[i]
    calls = {}
    busy = {}
    self_time = dict.fromkeys(LAYERS, 0.0)
    for i, s in enumerate(spans):
        calls[s[0]] = calls.get(s[0], 0) + 1
        busy[s[0]] = busy.get(s[0], 0.0) + durations[i]
        self_time[s[0].split(".")[0]] += durations[i] - child_time[i]

    # rows alpha_relaxed added: its last sub-LP's row count minus its first's
    rows_added = 0
    first_last = {}
    for s in spans:
        if s[0] == "lp.simplex_solve" and s[2] >= 0 and spans[s[2]][0] == "lp.alpha_relaxed":
            first, _ = first_last.get(s[2], (s[6]["rows"], None))
            first_last[s[2]] = (first, s[6]["rows"])
    for first, last in first_last.values():
        rows_added += last - first

    ptc_plc_calls = sum(
        1 for s in spans
        if s[0] == "plc.exact_plc" and s[2] >= 0 and spans[s[2]][0].startswith("ptc.")
    )
    pairs = _sum_count(spans, "ptc.ptc_2apx", "pairs")
    per_doc = {
        "cli.main.s": busy.get("cli.main", 0.0),
        "io.parse_document.s": busy.get("io.parse_document", 0.0),
        "io.serialize_document.s": busy.get("io.serialize_document", 0.0),
        "io.bytes_in": _sum_count(spans, "io.parse_document", "bytes"),
        "io.bytes_out": _sum_count(spans, "io.serialize_document", "bytes"),
        "model.check_cover.calls": calls.get("model.check_cover", 0),
        "model.check_cover.s": busy.get("model.check_cover", 0.0),
        "model.validate_instance.s": busy.get("model.validate_instance", 0.0),
        "lp.simplex_solve.calls": calls.get("lp.simplex_solve", 0),
        "lp.simplex_solve.s": busy.get("lp.simplex_solve", 0.0),
        "lp.simplex_solve.rows": _sum_count(spans, "lp.simplex_solve", "rows"),
        "lp.simplex_solve.cols": _sum_count(spans, "lp.simplex_solve", "cols"),
        "lp.simplex_solve.cells": _sum_count(spans, "lp.simplex_solve", "cells"),
        "lp.canonical_relaxation.s": busy.get("lp.canonical_relaxation", 0.0),
        "lp.alpha_relaxed.s": busy.get("lp.alpha_relaxed", 0.0),
        "lp.alpha_relaxed.rounds": _sum_count(spans, "lp.alpha_relaxed", "rounds"),
        "lp.alpha_relaxed.rows_added": rows_added,
        "lp.kc_residual.s": busy.get("lp.kc_residual", 0.0),
        "plc.exact_plc.calls": calls.get("plc.exact_plc", 0),
        "plc.exact_plc.s": busy.get("plc.exact_plc", 0.0),
        "plc.exact_plc.edges": _sum_count(spans, "plc.exact_plc", "edges"),
        "plc.exact_plc.segments": _sum_count(spans, "plc.exact_plc", "segments"),
        "plc.exact_plc.infeasible": sum(
            1 for s in spans if s[0] == "plc.exact_plc" and s[5] == "Infeasible"
        ),
        "plc.primal_dual_plc.calls": calls.get("plc.primal_dual_plc", 0),
        "plc.primal_dual_plc.s": busy.get("plc.primal_dual_plc", 0.0),
        "ptc.ptc_2apx.s": busy.get("ptc.ptc_2apx", 0.0),
        "ptc.exact_tree_cover_01.s": busy.get("ptc.exact_tree_cover_01", 0.0),
        "ptc.pairs": pairs,
        "rounding.round_ccip.s": busy.get("rounding.round_ccip", 0.0),
        "rounding.power2_normalize.s": busy.get("rounding.power2_normalize", 0.0),
        "rounding.partition_rows.s": busy.get("rounding.partition_rows", 0.0),
        "rounding.supply_classes.s": busy.get("rounding.supply_classes", 0.0),
        "rounding.round_small_rows.s": busy.get("rounding.round_small_rows", 0.0),
        "rounding.round_large_rows.s": busy.get("rounding.round_large_rows", 0.0),
        "rounding.small_rows": _sum_count(spans, "rounding.partition_rows", "small_rows"),
        "rounding.large_rows": _sum_count(spans, "rounding.partition_rows", "large_rows"),
        "oracles.tu.calls": calls.get("oracles.tu", 0),
        "oracles.tu.s": busy.get("oracles.tu", 0.0),
        "oracles.pd.calls": calls.get("oracles.pd", 0),
        "oracles.pd.s": busy.get("oracles.pd", 0.0),
        "oracles.failed": sum(
            1 for s in spans if s[0].startswith("oracles.") and s[5] is not None
        ),
        "reductions.ptc_to_2plc.s": busy.get("reductions.ptc_to_2plc", 0.0),
        "reductions.twoplc_to_rect.s": busy.get("reductions.twoplc_to_rect", 0.0),
    }
    per_doc.update(("%s.self_s" % layer, t) for layer, t in self_time.items())
    out = {name: value / docs for name, value in per_doc.items()}
    out["ptc.pair_yield"] = pairs / ptc_plc_calls if ptc_plc_calls else 0.0
    return out


def unit(name):
    if name.endswith("_yield") or name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".s") or name.endswith("_s"):
        return "s/doc"
    if name.startswith("io.bytes"):
        return "B/doc"
    return "1/doc"
