"""Output checks: stored references at the default seed, invariants on
every seed.

A check returns a list of problems; an operation with any problem counts as
failed.  ``is_known_defect`` recognises the one failure this benchmark
expects at the commit that defined it: the zero-rate exponent of a channel with two
inputs of disjoint support is reported as a finite cap (5000, 6666.67)
instead of +inf.  Such operations still count as failed.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from netexp import harness
from netexp.flow import NetEdge, Network, brute_force_mincut, maxflow

TOL = 1e-9
LEAK_TAG = "zero-rate exponent finite where +inf"  # the known defect
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
SIM_Z = 5.0  # statistical agreement of error counts on other seeds


def _close(got, want) -> bool:
    if isinstance(want, str) or isinstance(got, str):
        return got == want
    if want is None or got is None or isinstance(want, bool):
        return got == want
    return abs(got - want) <= TOL * max(1.0, abs(want))


def digest(objs) -> str:
    blob = json.dumps(objs, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def load_reference(workload: str):
    path = REFERENCE_DIR / f"{workload}.json"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def has_disjoint_pair(P) -> bool:
    """True when two inputs have disjoint output supports (divergence +inf)."""
    support = P.probs > 0
    n = P.input_size
    return any(
        not (support[x] & support[xp]).any() for x in range(n) for xp in range(x + 1, n)
    )


def analyze_invariants(case, rep, brute_force: bool) -> list:
    """Criterion-4 and criterion-5 sandwiches, +inf exactly where a channel
    has disjoint inputs, and maxflow equal to the brute-force mincut."""
    problems = []
    M = case.M
    if len(rep.edges) != len(case.graph.edges):
        return [f"{len(rep.edges)} edge reports for {len(case.graph.edges)} edges"]
    for e, g in zip(rep.edges, case.graph.edges):
        two, til, zero = e.exp_two, e.exp_tilde, e.exp_zero
        if has_disjoint_pair(g.channel):
            if not (math.isinf(two) and math.isinf(til)):
                problems.append(f"edge {e.edge_id}: two/tilde finite for disjoint inputs")
            if not math.isinf(zero):
                problems.append(f"edge {e.edge_id}: {LEAK_TAG} ({zero:g})")
            continue
        if not (til <= two + TOL and two <= 4 * til + TOL):
            problems.append(f"edge {e.edge_id}: two={two} outside [tilde, 4 tilde], tilde={til}")
        if (M == 2 or e.reversible) and two > 2 * til + TOL:
            problems.append(f"edge {e.edge_id}: two={two} above 2 tilde={til}")
        if not ((M - 1) / M * til - TOL <= zero <= til + TOL):
            problems.append(f"edge {e.edge_id}: zero={zero} outside [(M-1)/M tilde, tilde], tilde={til}")
    f_til, f_two = rep.maxflow_tilde, rep.maxflow_two
    if not f_til <= f_two + TOL:
        problems.append(f"maxflow_tilde {f_til} above maxflow_two {f_two}")
    if math.isfinite(f_til) and f_two > 4 * f_til + TOL:
        problems.append("maxflow ratio above 4")
    if (M == 2 or rep.all_reversible) and math.isfinite(f_til) and f_two > 2 * f_til + TOL:
        problems.append("maxflow ratio above 2 in the M=2 / reversible regime")
    if rep.all_reversible != all(e.reversible for e in rep.edges):
        problems.append("all_reversible disagrees with the edge flags")
    if case.graph.node_count <= 20 and rep.backedge_free_mincut_exists is None:
        problems.append("back-edge search skipped on a graph of at most 20 nodes")
    if brute_force:
        G = case.graph
        for col, mode, got in ((1, "tilde", f_til), (0, "two", f_two), (2, "zero", rep.maxflow_zero)):
            caps = [(e.exp_two, e.exp_tilde, e.exp_zero)[col] for e in rep.edges]
            net = Network(G.node_count, G.source, G.destination, tuple(
                NetEdge(g.tail, g.head, c, g.id) for g, c in zip(G.edges, caps)))
            want = brute_force_mincut(net).size
            if not (got == want or abs(got - want) <= TOL * max(1.0, abs(want))):
                problems.append(f"maxflow_{mode} {got} != brute-force mincut {want}")
    return problems


def leak_corrected(case, obj: dict) -> dict:
    """A report object (``BoundsReport.to_json_obj``) with the zero-rate
    exponent of every channel that has two disjoint-support inputs set to
    its true value, +inf, and the zero-rate maxflow recomputed from those
    capacities."""
    edges = [dict(e) for e in obj["edges"]]
    for e, g in zip(edges, case.graph.edges):
        if has_disjoint_pair(g.channel):
            e["exponent_zero_rate"] = "inf"
    G = case.graph
    caps = [math.inf if e["exponent_zero_rate"] == "inf" else e["exponent_zero_rate"] for e in edges]
    net = Network(G.node_count, G.source, G.destination, tuple(
        NetEdge(g.tail, g.head, c, g.id) for g, c in zip(G.edges, caps)))
    total = harness._effective_total(net, maxflow(net).total)
    return dict(obj, edges=edges, maxflow_zero_rate="inf" if math.isinf(total) else total)


def analyze_reference(case, got: dict, want: dict) -> list:
    """Compare one report object with its stored reference, field by field.
    A field that differs but matches once the +inf leak is corrected is
    tagged as the known defect."""
    fixed = leak_corrected(case, got)
    pairs = [(key, got.get(key), fixed.get(key), ref) for key, ref in want.items() if key != "edges"]
    if len(got["edges"]) != len(want["edges"]):
        return [f"{len(got['edges'])} edges, reference has {len(want['edges'])}"]
    for g_edge, f_edge, r_edge in zip(got["edges"], fixed["edges"], want["edges"]):
        pairs += [(f"edge {r_edge['id']} {key}", g_edge.get(key), f_edge.get(key), ref)
                  for key, ref in r_edge.items()]
    problems = []
    for key, g, f, ref in pairs:
        if not _close(g, ref):
            tag = LEAK_TAG if _close(f, ref) else "differs from reference"
            problems.append(f"{key}: {tag} ({g} vs {ref})")
    return problems


def is_known_defect(problems) -> bool:
    """True when every problem is the known +inf zero-rate leak or a
    maxflow that follows from it."""
    return bool(problems) and all(LEAK_TAG in p for p in problems)


def read_golden(root: Path, rel: str):
    with open(root / rel, newline="", encoding="utf-8") as fh:
        return [
            [int(r["n"]), int(r["message"]), int(r["errors"]), int(r["trials"])]
            for r in csv.DictReader(fh)
        ]


def simulate_cells(case, result, reference_rows) -> list:
    """Per-cell problem lists for one simulate result.

    ``reference_rows`` holds [n, message, errors, trials] per cell.  When the
    run's seed and trial count match the reference the counts must be equal;
    otherwise each count must agree with the reference rate within SIM_Z
    standard deviations (the seed changes the draws, not the law).
    """
    cfg = case.config
    cells = [(n, m) for n in cfg.horizons for m in range(1, cfg.M + 1)]
    rows = list(result.rows)
    if [(r.n, r.message) for r in rows] != cells:
        return [["rows do not list the (horizon, message) cells in order"]] * len(cells)
    exact = cfg.seed == reference_rows["seed"] and cfg.trials == reference_rows["trials"]
    out = []
    for r, ref in zip(rows, reference_rows["rows"]):
        problems = []
        T = cfg.trials
        if ref[:2] != [r.n, r.message]:
            problems.append(f"cell {r.n},{r.message}: reference row is for {ref[0]},{ref[1]}")
        elif r.trials != T or not 0 <= r.errors <= T:
            problems.append(f"cell {r.n},{r.message}: {r.errors} errors of {r.trials} trials")
        elif r.p_hat != r.errors / T or (r.ci_lo, r.ci_hi) != harness.wilson_interval(r.errors, T):
            problems.append(f"cell {r.n},{r.message}: p_hat or interval inconsistent with counts")
        elif exact and r.errors != ref[2]:
            problems.append(f"cell {r.n},{r.message}: {r.errors} errors, reference {ref[2]}")
        elif not exact:
            p_ref = (ref[2] + 1) / (ref[3] + 2)  # smoothed: a zero count still has spread
            want = ref[2] / ref[3] * T
            sd = math.sqrt(T * p_ref * (1 - p_ref) * (1 + T / ref[3]))
            if abs(r.errors - want) > SIM_Z * sd + 3:
                problems.append(
                    f"cell {r.n},{r.message}: {r.errors} errors, reference rate predicts {want:.1f}"
                )
        out.append(problems)
    return out


def simulate_values(result):
    return [[r.n, r.message, r.errors, r.trials] for r in result.rows]


def simulate_reference(root: Path, workload: str, golden_csv, golden_seed: int):
    """Reference rows for a simulate workload: the golden CSV (recorded at
    ``golden_seed``) when the workload has one, else the stored reference."""
    if golden_csv:
        rows = read_golden(root, golden_csv)
        return {"seed": golden_seed, "trials": rows[0][3], "rows": rows}
    return load_reference(workload)
