"""Span recorder that times calls into tipsychase from outside the package.

``Tracer.install`` replaces selected module-level functions with timing
wrappers and ``uninstall`` puts the originals back, so only traced
passes pay for it.  The library resolves these functions through module
globals or ``module.attr`` at call time, which is what lets a wrapper
see calls made from inside the package.

A span is [name, start, end, parent, op, counts, hook_s]: ``parent`` is
the index of the enclosing span (-1 at the top), ``op`` the index of the
operation it ran under, ``counts`` what the layer's counter read from
the call, and ``hook_s`` the time that counter took.  Tracing costs are
charged to no layer: a span's counter time and its wrapper's own cost
(``Tracer.call_cost``, measured once per run) are taken out of the
parent's self time and make up ``trace.overhead_s``.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np


def _vertices(args, kwargs, out, parent):
    return {"graphs.vertices": out.vertex_count}


def _family_chain(args, kwargs, out, parent):
    counts = {"families.chains_built": 1}
    if parent.startswith("schedules."):
        counts["reuse_key"] = repr(args)
    return counts


def _states(args, kwargs, out, parent):
    return {"chain.max_states": args[0].n_states}


def _solve(args, kwargs, out, parent):
    return {"chain.solve_calls": 1, "chain.max_states": args[0].n_transient}


def _survival(args, kwargs, out, parent):
    return {"chain.survival_calls": 1, "chain.max_states": args[0].n_transient}


def _series(args, kwargs, out, parent):
    return {"schedules.series_terms": out.terms_used}


def _joint(args, kwargs, out, parent):
    P = out.P
    return {
        "joint.states": out.n_states,
        "joint.nnz": int(np.count_nonzero(P)),
        "joint.dense_mb": P.nbytes / 1e6,
        "states_sq": out.n_states**2,
    }


def _batch(args, kwargs, out, parent):
    cfg, _, lo, hi, rounds_out, _ = args
    played = np.minimum(rounds_out[lo:hi], cfg.max_rounds)
    return {"montecarlo.rounds": int(played.sum())}


def _refill(args, kwargs, out, parent):
    draws, rows = args[3], args[4]
    return {"montecarlo.refill_rows": len(rows), "drawn": len(rows) * draws.shape[1]}


def _cells(args, kwargs, out, parent):
    return {"tables.cells": len(out.checks)}


TABLE_IDS = (
    "cycle5.2", "dist10.3a", "dist10.3b", "friendship7.1", "petersen6.1", "time9.1",
    "time9.2", "torus8.1", "tree10.4a", "tree10.4b", "tree3.1",
)

# (module, function, span name, counter).  A span's self time is charged to
# "<span name>_s"; tables.reproduce spans are named per table and reported
# inclusive of the layers below, since the per-table split is their point.
TARGETS = [
    *[("graphs", f, "graphs.build", None)
      for f in ("cycle_graph", "petersen_graph", "friendship_graph", "torus_grid",
                "truncated_tree")],
    ("graphs", "build_graph", "graphs.build", _vertices),
    ("graphs", "parse_edge_list", "graphs.parse", None),
    ("graphs", "load_edge_list", "graphs.parse", None),
    *[("families", f, "families.build", _family_chain)
      for f in ("cycle_chain", "petersen_chain", "friendship_chain", "toroidal7_chain",
                "tree_chain")],
    ("schedules", "time_varying_survival", "schedules.survival", None),
    ("schedules", "time_varying_expectation", "schedules.expectation", _series),
    ("schedules", "distance_cycle_chain", "schedules.build", None),
    ("schedules", "distance_tree_chain", "schedules.build", None),
    ("chain", "validate", "chain.validate", _states),
    ("chain", "extract_transient", "chain.extract", _states),
    ("chain", "_fundamental_solve", "chain.solve", _solve),
    ("chain", "expected_rounds", "chain.solve", None),
    ("chain", "absorption_split", "chain.solve", None),
    ("chain", "survival_probability", "chain.survival", _survival),
    ("joint", "build_joint_chain", "joint.build", _joint),
    *[("joint", f, "joint.lump", None)
      for f in ("lump", "distance_lumping", "friendship_lumping", "torus_lumping")],
    ("montecarlo", "run", "montecarlo.reduce", None),
    ("montecarlo", "_move_tables", "montecarlo.tables", None),
    ("montecarlo", "_run_batch", "montecarlo.step", _batch),
    ("montecarlo", "_refill", "montecarlo.refill", _refill),
    ("tables", "reproduce", None, _cells),
    ("cli", "main", "cli.main", None),
]

TIME_METRICS = (
    "graphs.build_s", "graphs.parse_s", "families.build_s", "schedules.survival_s",
    "schedules.expectation_s", "schedules.build_s", "chain.validate_s", "chain.extract_s",
    "chain.solve_s", "chain.survival_s", "joint.build_s", "joint.lump_s",
    "montecarlo.tables_s", "montecarlo.refill_s", "montecarlo.step_s",
    "montecarlo.reduce_s", "cli.main_s", *[f"tables.{t}_s" for t in TABLE_IDS],
)
SUM_COUNTS = (
    "graphs.vertices", "families.chains_built", "schedules.series_terms",
    "chain.solve_calls", "chain.survival_calls", "joint.states", "joint.nnz",
    "montecarlo.refill_rows", "montecarlo.rounds", "tables.cells",
)
MAX_COUNTS = ("chain.max_states", "joint.dense_mb")
RATIOS = ("schedules.chain_reuse", "joint.fill", "montecarlo.draw_use")
UNITS = {
    **{m: "s" for m in TIME_METRICS},
    **{m: "count" for m in SUM_COUNTS + ("chain.max_states",)},
    "joint.dense_mb": "MB",
    **{m: "ratio" for m in RATIOS},
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


class Tracer:
    """Records spans while ``op`` is set; wrappers pass straight through otherwise."""

    def __init__(self):
        self.spans: list[list] = []
        self.ops: list[str] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def begin(self, op_name: str) -> None:
        self.ops.append(op_name)
        self.op = len(self.ops) - 1

    def end(self) -> None:
        self.op = None

    def install(self) -> None:
        for mod_name, fn_name, span_name, counter in TARGETS:
            module = importlib.import_module(f"tipsychase.{mod_name}")
            original = getattr(module, fn_name)
            self._saved.append((module, fn_name, original))
            setattr(module, fn_name, self._wrap(original, span_name, counter))

    def uninstall(self) -> None:
        while self._saved:
            module, fn_name, original = self._saved.pop()
            setattr(module, fn_name, original)

    def _wrap(self, fn, span_name, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            name = span_name or f"tables.{args[0]}"
            parent = stack[-1] if stack else -1
            record = [name, 0.0, 0.0, parent, self.op, None, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if counter is not None:
                record[5] = counter(args, kwargs, out, spans[parent][0] if parent >= 0 else "")
                record[6] = perf_counter() - record[2]
            return out

        return traced

    def write(self, path) -> None:
        """Write every span as one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, counts, hook_s in self.spans:
                fh.write(json.dumps([name, start, end, parent, self.ops[op], counts, hook_s]))
                fh.write("\n")

    def layer_metrics(self, pass_ops: dict[str, list[int]], pass_times: dict[str, float],
                      cost: float):
        """Per-layer metrics: the traced set-up plus the median traced pass.

        ``pass_ops`` maps each traced pass (and "setup") to the op indices
        recorded under it; ``pass_times`` gives each traced pass's timed
        total, from which ``trace.unattributed_s`` (time no span covers)
        is taken; ``cost`` is one wrapper's own cost (``call_cost``).
        """
        cover = [0.0] * len(self.spans)
        for name, start, end, parent, op, counts, hook_s in self.spans:
            if parent >= 0:
                cover[parent] += end - start + hook_s + cost
        op_pass = {op: key for key, ops in pass_ops.items() for op in ops}
        buckets = defaultdict(lambda: defaultdict(float))
        keys = defaultdict(set)
        for i, (name, start, end, parent, op, counts, hook_s) in enumerate(self.spans):
            b = buckets[op_pass[op]]
            if name.startswith("tables."):
                b[name + "_s"] += end - start
            else:
                b[name + "_s"] += end - start - cover[i]
            b["overhead"] += hook_s + cost
            if parent < 0:
                b["covered"] += end - start + hook_s + cost
            for k, v in (counts or {}).items():
                if k == "reuse_key":
                    keys[op_pass[op]].add(v)
                    b["reuse_calls"] += 1
                elif k in MAX_COUNTS:
                    b[k] = max(b[k], v)
                else:
                    b[k] += v
        for key, ks in keys.items():
            buckets[key]["reuse_distinct"] = len(ks)

        def finish(b):
            out = {m: b[m] for m in TIME_METRICS + SUM_COUNTS + MAX_COUNTS}
            out["schedules.chain_reuse"] = _ratio(b["reuse_distinct"], b["reuse_calls"])
            out["joint.fill"] = _ratio(b["joint.nnz"], b["states_sq"])
            out["montecarlo.draw_use"] = _ratio(2 * b["montecarlo.rounds"], b["drawn"])
            return out

        setup = finish(buckets["setup"])
        passes = [k for k in pass_ops if k != "setup"]
        per_pass = [finish(buckets[k]) for k in passes]
        metrics = {}
        for m in setup:
            if m in MAX_COUNTS or m in RATIOS:
                # sizes and ratios describe the pass; set-up only builds graphs
                metrics[m] = statistics.median(p[m] for p in per_pass)
            else:
                metrics[m] = setup[m] + statistics.median(p[m] for p in per_pass)
        metrics["trace.unattributed_s"] = statistics.median(
            pass_times[k] - buckets[k]["covered"] for k in passes
        )
        metrics["trace.overhead_s"] = statistics.median(buckets[k]["overhead"] for k in passes)
        return metrics


def call_cost(calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds a wrapper adds to one traced call: a wrapped no-op against a bare one.

    Taken from a loop rather than from the difference of a traced and an
    untraced pass, which the machine's drift between two passes swamps.
    """
    probe = Tracer()
    probe.begin("probe")

    def bare():
        return None

    wrapped = probe._wrap(bare, "probe", None)
    costs = []
    for _ in range(repeats):
        probe.spans.clear()
        start = perf_counter()
        for _ in range(calls):
            wrapped()
        mid = perf_counter()
        for _ in range(calls):
            bare()
        costs.append((2 * mid - start - perf_counter()) / calls)
    return statistics.median(costs)


def _ratio(num, den):
    return num / den if den else 0.0
