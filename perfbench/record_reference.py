"""Record the stored references at the default seed.

    python3 perfbench/record_reference.py [workload ...]

Writes perfbench/reference/<workload>.json for analyze-corpus, analyze-wide
and simulate-multipath (simulate-golden uses tests/data/golden_simulate.csv).
Run it only on a commit whose outputs are trusted.  Zero-rate exponents of
channels with two disjoint-support inputs are stored as their true value,
+inf, not as the finite cap analyze reports for them, and the zero-rate
maxflow is recomputed with those capacities.
"""
from __future__ import annotations

import json
import sys

from run import ROOT, _import_netexp


def record(name: str) -> None:
    import checks
    import inputs
    import workloads

    wl = workloads.make(name, ROOT, inputs.DEFAULT_SEED)
    cases = wl.build()
    outs = [wl.call(c) for c in cases]
    if name.startswith("analyze"):
        graphs = []
        for case, rep in zip(cases, outs):
            problems = checks.analyze_invariants(case, rep, brute_force=case.graph.node_count <= 8)
            if problems and not checks.is_known_defect(problems):
                raise SystemExit(f"{name} {case.name}: {problems}")
            graphs.append({"name": case.name, "values": checks.leak_corrected(case, rep.to_json_obj())})
        obj = {"seed": inputs.DEFAULT_SEED, "graphs": graphs}
    else:
        cfg = cases[0].config
        obj = {"seed": cfg.seed, "trials": cfg.trials, "rows": checks.simulate_values(outs[0])}
    path = checks.REFERENCE_DIR / f"{name}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path.relative_to(ROOT)}")


def main(argv) -> int:
    _import_netexp()
    for name in argv or ("analyze-corpus", "analyze-wide", "simulate-multipath"):
        record(name)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
