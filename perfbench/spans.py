"""Per-layer tracing from outside the package.

The tracer replaces named netexp functions, in every netexp module that
holds a reference to them, with wrappers that record one span per call:
stage name, start, end, parent span and the operation (graph or simulate
call) it belongs to.  A stage's self time is its spans' duration minus the
time covered by their direct child spans.  Spans live in memory until the
run ends.  The stack is not thread-safe: runs keep NETEXP_THREADS=1.
"""
from __future__ import annotations

import functools
import json
import sys
import time

# (stage, module, functions, only_under, reported fields)
# only_under: record a span only when the innermost open span is that
# stage; elsewhere the call's time stays with its caller (the protocol
# helpers also serve the decoder and the exact law).
STAGES = (
    ("channel.chernoff", "channel", ("chernoff",), None, ("calls", "self_s")),
    ("channel.bhattacharyya", "channel", ("bhattacharyya",), None, ("calls", "self_s")),
    ("channel.reversibility", "channel", ("is_pairwise_reversible",), None, ("self_s",)),
    ("exponents.two", "exponents", ("exponent_two",), None, ("calls", "self_s")),
    ("exponents.tilde", "exponents", ("tilde_exponent",), None, ("calls", "self_s")),
    ("exponents.zero_rate", "exponents", ("zero_rate_exponent",), None, ("calls", "self_s")),
    ("flow.weighted_network", "flow", ("weighted_network",), None, ("calls", "self_s")),
    ("flow.maxflow", "flow", ("maxflow",), None, ("calls", "self_s")),
    ("flow.decompose", "flow", ("decompose",), None, ("calls", "self_s")),
    ("flow.backedge_search", "flow", ("mincut_without_backedges",), None, ("calls", "self_s")),
    ("protocol.plan", "protocol", ("build_network_plan",), None, ("self_s",)),
    ("protocol.exact_law", "protocol", ("exact_block_distribution",), None, ("self_s",)),
    ("protocol.batch", "protocol", ("run_series_blocks_batch",), None, ("calls",)),
    ("protocol.sampler", "protocol", ("_sample_symbols",), "protocol.batch", ("self_s",)),
    (
        "protocol.state_update", "protocol",
        ("_symbol_logliks", "_state_logliks", "_uniform_message_loglik", "_states_from_loglik"),
        "protocol.batch", ("self_s",),
    ),
    ("protocol.decoder", "protocol", ("block_scores_ml", "block_scores_heuristic"), None, ("self_s",)),
    ("harness.analyze", "harness", ("analyze",), None, ("self_s",)),
    ("harness.cell", "harness", ("_cell_errors",), None, ("self_s",)),
    ("graphio.load", "graphio", ("load_graph_file",), None, ("self_s",)),
)

UNITS = {"calls": "count", "self_s": "s"}


def metric_units() -> dict:
    """Every per-layer metric name with its unit."""
    out = {}
    for stage, _, _, _, fields in STAGES:
        for field in fields:
            out[f"{stage}.{field}"] = UNITS[field]
    out["harness.cells"] = "count"
    out["exponents.distinct_channels"] = "count"
    out["exponents.zero_rate.useful_ratio"] = "ratio"
    out["trace.overhead_s"] = "s"
    return out


def _stage_of_metric(name: str) -> str:
    if name == "harness.cells":
        return "harness.cell"
    if name == "exponents.distinct_channels":
        return "harness.analyze"
    if name == "exponents.zero_rate.useful_ratio":
        return "exponents.zero_rate"
    return name.rsplit(".", 1)[0]


class Tracer:
    """Spans of the wrapped functions while installed.  Construct it after
    netexp is imported; ``install`` and ``uninstall`` swap the wrappers in
    and out."""

    def __init__(self):
        self.spans = []  # [stage, start_ns, end_ns, parent index, operation]
        self.operation = -1
        self.distinct_channels = 0
        self.absent = []
        self._stack = []
        self._targets = []  # (module, attribute, original, wrapper)
        modules = [m for name, m in list(sys.modules.items())
                   if name == "netexp" or name.startswith("netexp.")]
        for stage, modname, fnames, only_under, _ in STAGES:
            mod = sys.modules.get(f"netexp.{modname}")
            present = [f for f in fnames if callable(getattr(mod, f, None))]
            if not present:
                self.absent.append(stage)
            for fname in present:
                orig = getattr(mod, fname)
                traced = self._wrap(stage, orig, only_under)
                for m in modules:
                    self._targets += [(m, a, orig, traced) for a, v in vars(m).items() if v is orig]

    def _wrap(self, stage, fn, only_under):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if only_under is not None and (parent < 0 or spans[parent][0] != only_under):
                return fn(*args, **kwargs)
            if stage == "harness.analyze":
                self.distinct_channels += len({id(e.channel) for e in args[0].edges})
            span = [stage, time.perf_counter_ns(), 0, parent, self.operation]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()

        return traced

    def install(self) -> None:
        for m, attr, _, traced in self._targets:
            setattr(m, attr, traced)

    def uninstall(self) -> None:
        for m, attr, orig, _ in self._targets:
            setattr(m, attr, orig)

    def totals(self):
        """(calls, self seconds) per stage."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls, self_s = {}, {}
        for (stage, start, end, _, _), inner in zip(self.spans, child_ns):
            calls[stage] = calls.get(stage, 0) + 1
            self_s[stage] = self_s.get(stage, 0.0) + (end - start - inner) / 1e9
        return calls, self_s

    def metrics(self, overhead_s: float) -> dict:
        """Per-layer metrics; stages whose functions no longer exist are
        left out (listed in ``absent``), never reported as zero."""
        calls, self_s = self.totals()
        zr_calls = calls.get("exponents.zero_rate", 0)
        values = {
            "harness.cells": calls.get("harness.cell", 0),
            "exponents.distinct_channels": self.distinct_channels,
            # no zero-rate work at all wastes none
            "exponents.zero_rate.useful_ratio": self.distinct_channels / zr_calls if zr_calls else 1.0,
            "trace.overhead_s": overhead_s,
        }
        out = {}
        for name, unit in metric_units().items():
            if _stage_of_metric(name) in self.absent:
                continue
            if name in values:
                value = values[name]
            else:
                stage, field = name.rsplit(".", 1)
                value = calls.get(stage, 0) if field == "calls" else self_s.get(stage, 0.0)
            out[name] = {"value": value, "unit": unit}
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (stage, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": stage, "start_ns": start, "end_ns": end,
                                     "parent": parent, "operation": op}) + "\n")
