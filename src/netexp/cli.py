"""Command-line front end.

Commands: analyze, simulate, counterexample, decompose, oracle.  All output
is deterministic for fixed inputs and flags; randomness flows from --seed
only.  Exit codes: 0 ok, 2 parse error, 3 domain/guard violation.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from .channel import _half_and_slope
from .errors import GraphFileError, NetexpError
from .exponents import exponent_two, tilde_exponent, zero_rate_exponent
from .flow import decompose, maxflow, per_channel, weighted_network
from .graphio import dump_normalized, load_graph_file
from .harness import SimConfig, analyze, counterexample_experiment, simulate
from .protocol import exact_block_distribution, make_series_spec


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf"
    return f"{x:.12g}"


def float_list(text: str):
    """Comma-separated floats (an argparse ``type``: bad input is a usage error)."""
    return [float(tok) for tok in text.split(",") if tok.strip()]


def int_list(text: str):
    """Comma-separated integers (an argparse ``type``)."""
    return [int(tok) for tok in text.split(",") if tok.strip()]


def cmd_analyze(args) -> int:
    gf = load_graph_file(args.path)
    if args.dump_normalized:
        print(dump_normalized(gf))
        return 0
    report = analyze(gf.graph, args.messages)
    obj = report.to_json_obj()
    obj["weights"] = args.weights
    # the selected bound, as to_json_obj formatted it
    key = {"tilde": "maxflow_tilde", "two": "maxflow_two", "zero": "maxflow_zero_rate"}[args.weights]
    obj["maxflow"] = obj[key]
    print(json.dumps(obj, indent=2, sort_keys=True))
    return 0


def cmd_simulate(args) -> int:
    gf = load_graph_file(args.path)
    config = SimConfig(
        seed=args.seed,
        trials=args.trials,
        horizons=tuple(args.horizons),
        B=args.block,
        M=args.messages,
        decoder=args.decoder,
    )
    result = simulate(gf.graph, config)
    print("n,message,errors,trials,p_hat,ci_lo,ci_hi")
    for r in result.rows:
        print(
            f"{r.n},{r.message},{r.errors},{r.trials},"
            f"{_fmt(r.p_hat)},{_fmt(r.ci_lo)},{_fmt(r.ci_hi)}"
        )
    return 0


def cmd_counterexample(args) -> int:
    rows = counterexample_experiment(args.p_grid)
    print("p,min_db_q,maxflow_bound,maxflow_feedback_bound")
    for r in rows:
        print(f"{_fmt(r.p)},{_fmt(r.min_db_q)},{_fmt(r.maxflow_bound)},{_fmt(r.maxflow_feedback_bound)}")
    return 0


def cmd_decompose(args) -> int:
    gf = load_graph_file(args.path)
    capacity = {
        "two": lambda P: exponent_two(P).value,
        "tilde": lambda P: tilde_exponent(P, args.messages).value,
        "zero": lambda P: zero_rate_exponent(P).value,
    }[args.weights]
    net = weighted_network(gf.graph, per_channel(gf.graph, capacity))
    names = gf.nodes
    for p in decompose(net, maxflow(net)):
        route = "->".join(names[v] for v in p.nodes)
        # maxflow carries +inf capacities as a finite sentinel; a path of
        # infinite edges has infinite value whatever share of it it got
        value = math.inf if all(math.isinf(net.edges[eid].capacity) for eid in p.edge_ids) else p.value
        print(f"{route} value={_fmt(value)}")
    return 0


def _series_channels(gf) -> list:
    """The channels of the source->destination chain in order, or fail unless
    every edge lies on that one chain: the walk from the source follows a
    node's only out-edge until the destination, at most one step an edge."""
    g = gf.graph
    out_edges = {}
    for e in g.edges:
        out_edges.setdefault(e.tail, []).append(e)
    chain, node = [], g.source
    while node != g.destination and len(chain) < len(g.edges) and len(out_edges.get(node, ())) == 1:
        (e,) = out_edges[node]
        chain.append(e.channel)
        node = e.head
    if node != g.destination or len(chain) < len(g.edges):
        raise NetexpError("oracle requires a series graph: one source->destination chain holding every edge")
    return chain


def cmd_oracle(args) -> int:
    gf = load_graph_file(args.path)
    channels = _series_channels(gf)
    spec = make_series_spec(channels, args.messages, args.block)
    log_dists = exact_block_distribution(spec, update_mode=args.mode)
    print("m1,m2,db_nats")
    for a in range(1, args.messages + 1):
        for b in range(a + 1, args.messages + 1):
            print(f"{a},{b},{_fmt(_half_and_slope(log_dists[a - 1], log_dists[b - 1])[0])}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netexp",
        description="Maxflow exponent bounds and forwarding-protocol simulation "
        "for graphs of discrete memoryless channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="bounds report for a graph file (JSON to stdout)")
    pa.add_argument("path")
    pa.add_argument("--messages", type=int, default=2, metavar="M")
    pa.add_argument("--weights", choices=("tilde", "two", "zero"), default="tilde")
    pa.add_argument("--dump-normalized", action="store_true",
                    help="re-emit the parsed graph file in canonical form and exit")
    pa.set_defaults(func=cmd_analyze)

    ps = sub.add_parser("simulate", help="Monte Carlo error estimation (CSV to stdout)")
    ps.add_argument("path")
    ps.add_argument("--messages", type=int, default=2, metavar="M")
    ps.add_argument("--block", type=int, required=True, metavar="B")
    ps.add_argument("--horizons", type=int_list, required=True, help="comma-separated n values")
    ps.add_argument("--trials", type=int, default=10000)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--decoder", choices=("exact", "heuristic"), default="exact")
    ps.set_defaults(func=cmd_simulate)

    pc = sub.add_parser("counterexample", help="three-message counterexample table (CSV)")
    pc.add_argument("--p-grid", type=float_list, default="1e-2,1e-3,1e-4,1e-5,1e-6")
    pc.set_defaults(func=cmd_counterexample)

    pd = sub.add_parser("decompose", help="flow decomposition of the weighted graph")
    pd.add_argument("path")
    pd.add_argument("--messages", type=int, default=2, metavar="M")
    pd.add_argument("--weights", choices=("tilde", "two", "zero"), default="tilde")
    pd.set_defaults(func=cmd_decompose)

    po = sub.add_parser("oracle", help="exact block-distribution divergences for a series graph")
    po.add_argument("path")
    po.add_argument("--messages", type=int, default=2, metavar="M")
    po.add_argument("--block", type=int, required=True, metavar="B",
                    help="block size in reduced channel uses")
    po.add_argument("--mode", choices=("uniform", "exact"), default="uniform")
    po.set_defaults(func=cmd_oracle)

    return parser


def main() -> int:
    """The ``netexp`` console script: arguments come from ``sys.argv``."""
    parser = build_parser()
    args = parser.parse_args()
    try:
        return args.func(args)
    except GraphFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NetexpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
