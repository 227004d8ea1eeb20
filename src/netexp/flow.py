"""Exponent-weighted directed multigraphs: maxflow, mincut, flow
decomposition into simple paths, per-path edge budgets, and the
back-edge-free mincut test (one extra maxflow).
"""
from __future__ import annotations

import math
import warnings
from collections import deque
from dataclasses import dataclass

from .channel import Dmc, _sum_left_to_right
from .errors import GraphTooLarge, ParameterOutOfRange

FLOW_TOL = 1e-12


@dataclass(frozen=True)
class GraphEdge:
    tail: int
    head: int
    channel: Dmc
    id: int


@dataclass(frozen=True)
class ChannelGraph:
    """Directed multigraph of channels with one source and one destination.
    Each edge's id is its position in ``edges``: flows are indexed by it."""

    node_count: int
    source: int
    destination: int
    edges: tuple

    def __post_init__(self):
        for name, node in (("source", self.source), ("destination", self.destination)):
            if not 0 <= node < self.node_count:
                raise ParameterOutOfRange(f"{name} {node} is not a node of a {self.node_count}-node graph")
        if self.source == self.destination:
            raise ParameterOutOfRange("source and destination must differ")
        for i, e in enumerate(self.edges):
            if e.id != i:
                raise ParameterOutOfRange(f"edge {e.id} sits at position {i}; ids must be positions")
            if not (0 <= e.tail < self.node_count and 0 <= e.head < self.node_count):
                raise ParameterOutOfRange(f"edge {e.id} has endpoints outside the node range")
        if self.destination not in _reach(self.node_count, [(e.tail, e.head) for e in self.edges], self.source):
            raise ParameterOutOfRange("no directed path from source to destination")


def make_channel_graph(node_count, source, destination, edges) -> ChannelGraph:
    """Build a ChannelGraph from (tail, head, channel) triples; ids are positional."""
    built = tuple(GraphEdge(t, h, ch, i) for i, (t, h, ch) in enumerate(edges))
    return ChannelGraph(node_count, source, destination, built)


@dataclass(frozen=True)
class NetEdge:
    tail: int
    head: int
    capacity: float
    id: int


@dataclass(frozen=True)
class Network:
    """Capacitated digraph; capacities are nonnegative reals or +inf."""

    node_count: int
    source: int
    destination: int
    edges: tuple

    def sentinel(self) -> float:
        """Stand-in for +inf: strictly larger than any finite maxflow."""
        return 1.0 + _sum_left_to_right(e.capacity for e in self.edges if math.isfinite(e.capacity))


@dataclass(frozen=True)
class Flow:
    """Per-edge flow values, a tuple of built-in floats indexed like
    net.edges, and the total s->t value, a built-in float, +inf when the
    maxflow is unbounded."""

    edge_flows: tuple
    total: float


@dataclass(frozen=True)
class Cut:
    side_a: frozenset
    side_b: frozenset
    size: float


@dataclass(frozen=True)
class PathFlow:
    nodes: tuple
    value: float
    edge_ids: tuple


def _reach(node_count, arcs, src) -> frozenset:
    """Nodes reachable from src over the (tail, head) arcs."""
    adj = [[] for _ in range(node_count)]
    for t, h in arcs:
        adj[t].append(h)
    seen = [False] * node_count
    seen[src] = True
    q = deque([src])
    while q:
        u = q.popleft()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                q.append(v)
    return frozenset(v for v in range(node_count) if seen[v])


def per_channel(G: ChannelGraph, f) -> list:
    """f(edge.channel) for each of G's edges in edge order, calling f once
    per distinct channel object."""
    memo = {}
    for e in G.edges:
        if id(e.channel) not in memo:
            memo[id(e.channel)] = f(e.channel)
    return [memo[id(e.channel)] for e in G.edges]


def weighted_network(G: ChannelGraph, capacities) -> Network:
    """Network on G's edges with capacities[i], a 1-hop exponent of edge i's
    channel (see :func:`per_channel`), as edge i's capacity."""
    edges = tuple(NetEdge(e.tail, e.head, c, e.id) for e, c in zip(G.edges, capacities, strict=True))
    return Network(G.node_count, G.source, G.destination, edges)


def maxflow(net: Network) -> Flow:
    """Maximum flow by augmenting shortest residual paths (Edmonds-Karp).

    Infinite capacities are replaced internally by a sentinel exceeding the
    sum of all finite capacities, which keeps the arithmetic finite; a total
    that reaches the sentinel (within 1e-9) is returned as +inf.  Edge flows
    keep the sentinel-based values.  Residual capacities and arc heads are
    Python lists, since every access reads or writes one scalar.
    """
    n = net.node_count
    m = len(net.edges)
    sentinel = net.sentinel()
    res = [0.0] * (2 * m)
    to = [0] * (2 * m)
    adj = [[] for _ in range(n)]
    for i, e in enumerate(net.edges):
        cap = e.capacity if math.isfinite(e.capacity) else sentinel
        res[2 * i] = cap
        to[2 * i] = e.head
        to[2 * i + 1] = e.tail
        adj[e.tail].append(2 * i)
        adj[e.head].append(2 * i + 1)

    total = 0.0
    while True:
        prev = [-1] * n
        prev[net.source] = -2
        q = deque([net.source])
        while q and prev[net.destination] == -1:
            u = q.popleft()
            for ridx in adj[u]:
                v = to[ridx]
                if prev[v] == -1 and res[ridx] > FLOW_TOL:
                    prev[v] = ridx
                    q.append(v)
        if prev[net.destination] == -1:
            break
        bottleneck = math.inf
        v = net.destination
        while v != net.source:
            ridx = prev[v]
            bottleneck = min(bottleneck, res[ridx])
            v = to[ridx ^ 1]
        v = net.destination
        while v != net.source:
            ridx = prev[v]
            res[ridx] -= bottleneck
            res[ridx ^ 1] += bottleneck
            v = to[ridx ^ 1]
        total += bottleneck

    if total >= sentinel - 1e-9:
        total = math.inf
    return Flow(edge_flows=tuple(f if f >= FLOW_TOL else 0.0 for f in res[1::2]), total=total)


def mincut(net: Network, flow: Flow) -> Cut:
    """Residual-reachability cut for ``flow``, a maximum flow of ``net``; size
    matches the flow total."""
    sentinel = net.sentinel()
    arcs = []
    for e, f in zip(net.edges, flow.edge_flows):
        cap = e.capacity if math.isfinite(e.capacity) else sentinel
        if cap - f > 1e-9:
            arcs.append((e.tail, e.head))
        if f > 1e-9:
            arcs.append((e.head, e.tail))
    return _cut(net, _reach(net.node_count, arcs, net.source))


def _cut(net: Network, side_a: frozenset) -> Cut:
    """The cut whose source side is ``side_a``, sized by the capacities of
    the edges that leave it, added in edge order."""
    size = _sum_left_to_right(e.capacity for e in net.edges if e.tail in side_a and e.head not in side_a)
    return Cut(side_a=side_a, side_b=frozenset(range(net.node_count)) - side_a, size=size)


def _all_partitions(net: Network):
    rest = [v for v in range(net.node_count) if v not in (net.source, net.destination)]
    for mask in range(1 << len(rest)):
        side_a = {net.source}
        for bit, v in enumerate(rest):
            if mask >> bit & 1:
                side_a.add(v)
        yield frozenset(side_a)


def brute_force_mincut(net: Network) -> Cut:
    """Exhaustive minimum cut, the first of the smallest; oracle for duality
    tests (node_count <= 20)."""
    if net.node_count > 20:
        raise GraphTooLarge(f"brute force supports at most 20 nodes, got {net.node_count}")
    return min((_cut(net, side_a) for side_a in _all_partitions(net)), key=lambda cut: cut.size)


def mincut_without_backedges(net: Network, flow: Flow) -> Cut | None:
    """A minimum cut with no positive-capacity back-edge, or None if none exists.

    A back-edge runs from the sink side into the source side.  Giving every
    positive-capacity edge a reverse twin of capacity +inf makes exactly the
    cuts with a back-edge infinite and leaves the others at their size, so
    one more maxflow on that augmented network decides the question: a
    back-edge-free minimum cut exists iff its maxflow equals the original
    within 1e-9.  The cut returned is the residual-reachability cut of the
    augmented flow, i.e. the source-minimal back-edge-free minimum cut.

    When the original maxflow is infinite every cut is minimum, and the
    answer is the set of nodes that reach the source over positive-capacity
    edges, provided the destination is not among them.  ``flow`` is a maximum
    flow of ``net``.
    """
    total = flow.total
    if math.isinf(total):
        reverse = [(e.head, e.tail) for e in net.edges if e.capacity > 0]
        side_a = _reach(net.node_count, reverse, net.source)
        if net.destination in side_a:
            return None
    else:
        m = len(net.edges)
        twins = tuple(NetEdge(e.head, e.tail, math.inf, m + i)
                      for i, e in enumerate(net.edges) if e.capacity > 0)
        aug = Network(net.node_count, net.source, net.destination, net.edges + twins)
        aug_flow = maxflow(aug)
        if abs(aug_flow.total - total) > 1e-9:
            return None
        side_a = mincut(aug, aug_flow).side_a
    return _cut(net, side_a)


def decompose(net: Network, flow: Flow) -> tuple:
    """Decompose a flow into simple source->sink paths, a tuple of
    :class:`PathFlow`.

    Repeatedly extracts the path whose edge sequence is lexicographically
    smallest among positive-flow paths, pushes the bottleneck value along it,
    and subtracts.  Each round zeroes at least one edge, so at most |E| paths
    result.  Flow left on cycles disjoint from every source-sink path is
    discarded with a warning.  Paths name edges by their position in
    ``net.edges``, which in a :func:`weighted_network` is the edge's id.
    """
    n = net.node_count
    adj = [[] for _ in range(n)]
    for i, e in enumerate(net.edges):
        adj[e.tail].append((i, e.head))
    remaining = list(flow.edge_flows)
    paths = []
    while True:
        nodes, eids = [net.source], []
        while nodes[-1] != net.destination:
            live = [(e.tail, e.head) for e, r in zip(net.edges, remaining)
                    if r > FLOW_TOL and e.head not in nodes]
            step = next(((eid, head) for eid, head in adj[nodes[-1]]
                         if remaining[eid] > FLOW_TOL and head not in nodes
                         and net.destination in _reach(n, live, head)), None)
            if step is None:
                break
            eids.append(step[0])
            nodes.append(step[1])
        if nodes[-1] != net.destination:
            # only possible at the source: once a step is taken, the
            # reachability probe guarantees the path can be completed
            break
        value = min(remaining[eid] for eid in eids)
        for eid in eids:
            remaining[eid] -= value
            if remaining[eid] < FLOW_TOL:
                remaining[eid] = 0.0
        paths.append(PathFlow(nodes=tuple(nodes), value=float(value), edge_ids=tuple(eids)))
    leftover = _sum_left_to_right(remaining)
    if leftover > 1e-9:
        warnings.warn(f"discarding {leftover:.3g} units of circulation flow not on any source-sink path")
    return tuple(paths)


def path_edge_budgets(paths, B: int):
    """Per-(path, edge) sub-block sizes: B_i = ceil(f_i / sum_{j in S_e} f_j * B),
    for the :func:`decompose` paths ``paths``.

    Returns (budgets, share_count) where budgets[(path_index, edge_id)] is the
    number of channel uses granted to that path on that edge per block window,
    and share_count[edge_id] lists the paths using the edge.
    """
    users: dict[int, list[int]] = {}
    for i, p in enumerate(paths):
        for eid in p.edge_ids:
            users.setdefault(eid, []).append(i)
    budgets = {}
    for eid, idxs in users.items():
        fsum = _sum_left_to_right(paths[i].value for i in idxs)
        for i in idxs:
            ratio = paths[i].value / fsum
            budgets[(i, eid)] = math.ceil(ratio * B - 1e-9)
    return budgets, users
