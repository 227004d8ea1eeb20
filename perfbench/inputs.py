"""Workload inputs, built from the workload seed alone.

Every generated graph follows a fixed schedule of family, message count,
node count, edge count, and each channel's kind and alphabet sizes; the
seed draws only the channel parameters, the output order and the
topology.  The exponent layer's cost depends mostly on the channel kinds
and sizes, so the schedule keeps each graph's cost, and so the median
and tail over graphs, nearly the same for every seed while the values
differ.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from netexp import graphio
from netexp.channel import bec, bsc, ksym, make_dmc, product
from netexp.flow import make_channel_graph
from netexp.harness import SimConfig

DEFAULT_SEED = 7

# Sample files analyzed by analyze-corpus, with the message count for each.
# noiseless.json and counterexample.json have noiseless edges, whose true
# zero-rate exponent is +inf.
CORPUS_FILES = (
    ("series-2-bsc.json", 2),
    ("series-2-bsc005.json", 2),
    ("diamond.json", 2),
    ("noiseless.json", 2),
    ("counterexample.json", 3),
)
CORPUS_RANDOM = 99  # 33 graphs per criterion-4 family
WIDE_NODES = (16, 17, 18, 19, 20)  # exhaustive back-edge search stops at 20


@dataclass(frozen=True)
class AnalyzeCase:
    name: str
    graph: object
    M: int


@dataclass(frozen=True)
class SimulateCase:
    name: str
    graph: object
    config: SimConfig


SIMULATE_WORKLOADS = {
    "simulate-golden": dict(
        file="series-2-bsc005.json", M=2, B=4, horizons=(12, 16, 20, 24),
        trials=100_000, decoder="exact", golden_csv="tests/data/golden_simulate.csv",
    ),
    "simulate-multipath": dict(
        file="diamond.json", M=3, B=48, horizons=(144, 192, 240),
        trials=10_000, decoder="heuristic", golden_csv=None,
    ),
}


def _generic_dmc(rng, n_in: int, n_out: int):
    mat = rng.random((n_in, n_out))
    return make_dmc(mat / mat.sum(axis=1, keepdims=True))


def _reversible(rng, n_in: int, kind: int):
    """Pairwise-reversible channel with n_in inputs (products of BSC, BEC and
    K-ary symmetric factors, outputs optionally shuffled); ``kind`` (0 or 1)
    picks between the two constructions for two and four inputs."""
    if n_in == 2:
        P = bsc(float(rng.uniform(0.02, 0.45))) if kind == 0 else bec(float(rng.uniform(0.05, 0.9)))
    elif n_in == 3:
        P = ksym(3, float(rng.uniform(0.01, 0.45)))
    elif kind == 0:
        P = ksym(4, float(rng.uniform(0.01, 0.3)))
    else:
        P = product(bsc(float(rng.uniform(0.02, 0.45))), bec(float(rng.uniform(0.05, 0.9))))
    if rng.random() < 0.5:
        P = make_dmc(P.probs[:, rng.permutation(P.output_size)])
    return P


def _ksym(rng, K: int):
    return ksym(K, float(rng.uniform(0.01, 0.9 / (K - 1))))


def _random_graph(rng, n_nodes: int, n_edges: int, chan_fn):
    """Graph with a random source->destination spine plus random extra edges."""
    inner = [v for v in range(1, n_nodes - 1) if rng.random() < 0.5]
    spine = [0] + [int(v) for v in rng.permutation(inner)] + [n_nodes - 1]
    pairs = list(zip(spine, spine[1:]))[:n_edges]
    if pairs[-1][1] != n_nodes - 1:  # spine longer than the edge budget
        pairs[-1] = (pairs[-1][0], n_nodes - 1)
    while len(pairs) < n_edges:
        t, h = (int(v) for v in rng.choice(n_nodes, size=2, replace=False))
        pairs.append((t, h))
    edges = [(t, h, chan_fn(j)) for j, (t, h) in enumerate(pairs)]
    return make_channel_graph(n_nodes, 0, n_nodes - 1, edges)


def corpus_cases(root: Path, seed: int, n_random: int = CORPUS_RANDOM):
    """analyze-corpus: criterion-4 family graphs of at most 6 nodes, then the
    sample files."""
    rng = np.random.default_rng([seed, 1])
    cases = []
    for i in range(n_random):
        family = i % 3
        M = 2 + (i // 3) % 3
        n_nodes = 2 + (i // 9) % 5
        n_edges = 2 + i % 5
        if family == 0:
            def chan(j, i=i):
                return _generic_dmc(rng, 2 + (i + j) % 3, 2 + (i + 2 * j + 1) % 3)
            tag = "dmc"
        elif family == 1:
            def chan(j, i=i):
                return _reversible(rng, 2 + (i + j) % 3, (i // 3 + j) % 2)
            tag = "reversible"
        else:
            def chan(j, i=i, M=M):
                return _ksym(rng, M + (i + j) % (6 - M))
            tag = "ksym"
        G = _random_graph(rng, n_nodes, n_edges, chan)
        cases.append(AnalyzeCase(name=f"{i:03d}-{tag}-M{M}", graph=G, M=M))
    for fname, M in CORPUS_FILES:
        G = graphio.load_graph_file(str(root / "graphs" / fname)).graph
        cases.append(AnalyzeCase(name=fname, graph=G, M=M))
    return cases


def wide_cases(seed: int, nodes=WIDE_NODES):
    """analyze-wide: sparse BSC/BEC graphs, two edges per node, M=2."""
    rng = np.random.default_rng([seed, 2])
    cases = []
    for n in nodes:
        def chan(j):
            if j % 2 == 0:
                return bsc(float(rng.uniform(0.02, 0.3)))
            return bec(float(rng.uniform(0.05, 0.6)))
        order = [0] + [int(v) for v in rng.permutation(np.arange(1, n - 1))] + [n - 1]
        pairs = list(zip(order, order[1:]))
        while len(pairs) < 2 * n:
            t, h = (int(v) for v in rng.choice(n, size=2, replace=False))
            pairs.append((t, h))
        G = make_channel_graph(n, 0, n - 1, [(t, h, chan(j)) for j, (t, h) in enumerate(pairs)])
        cases.append(AnalyzeCase(name=f"wide-{n}", graph=G, M=2))
    return cases


def simulate_case(root: Path, workload: str, seed: int, trials: int | None = None):
    spec = SIMULATE_WORKLOADS[workload]
    G = graphio.load_graph_file(str(root / "graphs" / spec["file"])).graph
    config = SimConfig(
        seed=seed, trials=trials or spec["trials"], horizons=spec["horizons"],
        B=spec["B"], M=spec["M"], decoder=spec["decoder"],
    )
    return SimulateCase(name=spec["file"], graph=G, config=config)
