"""The four workloads: what one operation calls and how its output is
checked.

An operation is one library call: ``netexp.harness.analyze`` on one graph,
or ``netexp.harness.simulate`` on one graph with all its (horizon, message)
cells.  Outputs are checked per unit: a graph for analyze, a cell for
simulate.  Calls go through the module attribute so that a traced run sees
them.
"""
from __future__ import annotations

import functools
from pathlib import Path

from netexp import harness

import checks
import inputs

WORKLOADS = ("analyze-corpus", "analyze-wide", "simulate-golden", "simulate-multipath")

# Smaller inputs for the benchmark's own tests (--shrink).
SHRUNK_CORPUS = 9
SHRUNK_WIDE = (8, 10)
SHRUNK_TRIALS = {"simulate-golden": 4_000, "simulate-multipath": 1_000}


class AnalyzeWorkload:
    probe = "interpreter"  # the speed probe that matches the work (speed.py)

    def __init__(self, name: str, root: Path, seed: int, shrink: bool):
        self.name, self.root, self.seed, self.shrink = name, root, seed, shrink

    def build(self):
        if self.name == "analyze-corpus":
            n = SHRUNK_CORPUS if self.shrink else inputs.CORPUS_RANDOM
            return inputs.corpus_cases(self.root, self.seed, n)
        return inputs.wide_cases(self.seed, SHRUNK_WIDE if self.shrink else inputs.WIDE_NODES)

    @staticmethod
    def call(case):
        return harness.analyze(case.graph, case.M)

    @staticmethod
    def unit_names(case):
        return [case.name]

    @staticmethod
    def unit_values(case, out):
        return [repr(out) if isinstance(out, Exception) else out.to_json_obj()]

    @functools.cached_property
    def reference(self):
        """Stored values by graph name; only the full default-seed inputs have them."""
        if self.seed != inputs.DEFAULT_SEED or self.shrink:
            return None
        return {g["name"]: g["values"] for g in checks.load_reference(self.name)["graphs"]}

    def check(self, case, out):
        if isinstance(out, Exception):
            return [[f"raised {out!r}"]]
        problems = checks.analyze_invariants(case, out, brute_force=case.graph.node_count <= 8)
        if self.reference is not None:
            if case.name not in self.reference:
                problems.append("no stored reference for this graph")
            else:
                problems += checks.analyze_reference(case, out.to_json_obj(), self.reference[case.name])
        return [problems]

    def extra(self, cases, op_seconds):
        return {}


class SimulateWorkload:
    probe = "array"

    def __init__(self, name: str, root: Path, seed: int, shrink: bool):
        self.name, self.root, self.seed, self.shrink = name, root, seed, shrink
        self.trials = SHRUNK_TRIALS[name] if shrink else None

    def build(self):
        return [inputs.simulate_case(self.root, self.name, self.seed, self.trials)]

    @staticmethod
    def call(case):
        return harness.simulate(case.graph, case.config)

    @staticmethod
    def unit_names(case):
        cfg = case.config
        return [f"{case.name} n={n} m={m}" for n in cfg.horizons for m in range(1, cfg.M + 1)]

    def unit_values(self, case, out):
        n = len(self.unit_names(case))
        if isinstance(out, Exception):
            return [repr(out)] * n
        vals = checks.simulate_values(out)
        return vals if len(vals) == n else [vals] * n  # a malformed result fails every cell

    @functools.cached_property
    def reference(self):
        golden = inputs.SIMULATE_WORKLOADS[self.name]["golden_csv"]
        return checks.simulate_reference(self.root, self.name, golden, inputs.DEFAULT_SEED)

    def check(self, case, out):
        if isinstance(out, Exception):
            return [[f"raised {out!r}"]] * len(self.unit_names(case))
        return checks.simulate_cells(case, out, self.reference)

    def extra(self, cases, op_seconds):
        """Sampled path-blocks per second: trials times the blocks of every
        path in every cell, over the call latency."""
        case = cases[0]
        cfg = case.config
        plan = harness.build_network_plan(case.graph, cfg.M, cfg.B)
        blocks = cfg.trials * cfg.M * sum(sum(plan.blocks_per_path(n)) for n in cfg.horizons)
        return {"blocks_per_call": blocks, "blocks_per_s": blocks / op_seconds[0]}


def make(name: str, root: Path, seed: int, shrink: bool = False):
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    cls = AnalyzeWorkload if name.startswith("analyze") else SimulateWorkload
    return cls(name, root, seed, shrink)
