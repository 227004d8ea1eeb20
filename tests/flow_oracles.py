"""Enumeration oracle for the back-edge-free minimum cut test."""
from netexp.errors import GraphTooLarge
from netexp.flow import Cut, Network


def _cut_size(net: Network, side_a) -> float:
    return sum(e.capacity for e in net.edges if e.tail in side_a and e.head not in side_a)


def _source_sides(net: Network):
    rest = [v for v in range(net.node_count) if v not in (net.source, net.destination)]
    for mask in range(1 << len(rest)):
        yield frozenset([net.source] + [v for bit, v in enumerate(rest) if mask >> bit & 1])


def enumerate_mincut_without_backedges(net: Network) -> Cut | None:
    """A minimum cut with no positive-capacity back-edge, by trying all 2^(n-2) cuts.

    Ties are resolved toward fewer back-edges, then lexicographic node-set
    order.  Returns None when every minimum cut has a back-edge.
    """
    if net.node_count > 20:
        raise GraphTooLarge(f"exhaustive cut search supports at most 20 nodes, got {net.node_count}")
    min_size = min(_cut_size(net, side_a) for side_a in _source_sides(net))
    best = None
    for side_a in _source_sides(net):
        size = _cut_size(net, side_a)
        if size > min_size + 1e-9:
            continue
        backs = sum(1 for e in net.edges if e.head in side_a and e.tail not in side_a and e.capacity > 0)
        key = (backs, tuple(sorted(side_a)))
        if best is None or key < best[0]:
            best = (key, side_a, size)
    (backs, _), side_a, size = best
    if backs > 0:
        return None
    return Cut(side_a=side_a, side_b=frozenset(range(net.node_count)) - side_a, size=size)
