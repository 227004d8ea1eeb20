"""Shared randomized-instance generators for the property suites, the
benchmark's input builders, and a traced-memory helper."""
import importlib.util
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from netexp.channel import bec, bsc, ksym, make_dmc, product
from netexp.flow import NetEdge, Network, make_channel_graph


def rand_dmc(rng, max_in=5, max_out=5, zeros=False):
    """Random row-stochastic channel; optionally with structural zeros."""
    nin = int(rng.integers(2, max_in + 1))
    nout = int(rng.integers(2, max_out + 1))
    mat = rng.random((nin, nout))
    if zeros:
        mask = rng.random((nin, nout)) < 0.3
        mat = np.where(mask, 0.0, mat)
        for r in range(nin):
            if mat[r].sum() == 0:
                mat[r, int(rng.integers(0, nout))] = 1.0
    return make_dmc(mat / mat.sum(axis=1, keepdims=True))


def rand_reversible(rng, max_inputs=6):
    """Random pairwise-reversible channel: products of classic symmetric
    channels, optionally input-restricted and output-shuffled (both preserve
    the property)."""

    def factor():
        kind = int(rng.integers(0, 3))
        if kind == 0:
            K = int(rng.integers(2, 5))
            return ksym(K, float(rng.uniform(0.01, 0.9 / (K - 1))))
        if kind == 1:
            return bec(float(rng.uniform(0.05, 0.9)))
        return bsc(float(rng.uniform(0.02, 0.45)))

    P = factor()
    while rng.random() < 0.4 and P.input_size * 4 <= max_inputs and P.output_size <= 12:
        P = product(P, factor())
    if rng.random() < 0.5 and P.input_size > 2:
        keep = sorted(
            int(v)
            for v in rng.choice(P.input_size, size=int(rng.integers(2, P.input_size + 1)), replace=False)
        )
        P = make_dmc(P.probs[keep])
    if rng.random() < 0.5:
        perm = rng.permutation(P.output_size)
        P = make_dmc(P.probs[:, perm])
    return P


def rand_network(rng, max_nodes=8, max_edges=14):
    """Random capacitated network with U[0,1] capacities; source 0, sink n-1."""
    n = int(rng.integers(2, max_nodes + 1))
    m = int(rng.integers(1, max_edges + 1))
    edges = []
    for j in range(m):
        t = int(rng.integers(0, n))
        h = int(rng.integers(0, n))
        while h == t:
            h = int(rng.integers(0, n))
        edges.append(NetEdge(t, h, float(rng.random()), j))
    return Network(n, 0, n - 1, tuple(edges))


def rand_channel_graph(rng, chan_fn, max_nodes=6, max_extra=6):
    """Random channel graph with a guaranteed source->destination path."""
    n = int(rng.integers(2, max_nodes + 1))
    spine = [0]
    for v in range(1, n - 1):
        if rng.random() < 0.5:
            spine.append(v)
    spine.append(n - 1)
    edges = [(a, b, chan_fn(rng)) for a, b in zip(spine, spine[1:])]
    for _ in range(int(rng.integers(0, max_extra + 1))):
        t = int(rng.integers(0, n))
        h = int(rng.integers(0, n))
        if t == h:
            continue
        edges.append((t, h, chan_fn(rng)))
    return make_channel_graph(n, 0, n - 1, edges)


ROOT = Path(__file__).resolve().parent.parent


def perfbench_inputs():
    """``perfbench/inputs.py``, which builds each workload's graphs from a
    seed (``corpus_cases(ROOT, seed)``, ``wide_cases(seed)``)."""
    name = "perfbench_inputs"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "inputs.py")
        mod = importlib.util.module_from_spec(spec)
        sys.modules[name] = mod  # its dataclasses look their module up
        spec.loader.exec_module(mod)
    return sys.modules[name]


def peak_traced(fn) -> int:
    """Peak bytes that tracemalloc traces while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
