import math
import warnings

import numpy as np
import pytest

from netexp.channel import _sum_left_to_right, bsc, identity_channel, ksym
from netexp.errors import GraphTooLarge, ParameterOutOfRange
from netexp.exponents import channel_exponents, exponent_two, tilde_exponent
from netexp.flow import (
    ChannelGraph,
    Flow,
    GraphEdge,
    NetEdge,
    Network,
    _cut,
    brute_force_mincut,
    decompose,
    make_channel_graph,
    maxflow,
    mincut_without_backedges,
    path_edge_budgets,
    per_channel,
    weighted_network,
)
from netexp.harness import counterexample_graph
from conftest import ROOT, perfbench_inputs, rand_network
from flow_oracles import enumerate_mincut_without_backedges, residual_source_side


def two_network(G):
    return weighted_network(G, per_channel(G, lambda P: exponent_two(P).value))


def tilde_network(G, M):
    return weighted_network(G, per_channel(G, lambda P: tilde_exponent(P, M).value))


def backedge_free(net):
    """mincut_without_backedges given net's own maximum flow."""
    return mincut_without_backedges(net, maxflow(net))


def mixed_networks():
    """2000 seeded networks of 2-10 nodes whose capacities mix +inf, 0,
    tied dyadic values and U[0,1] draws."""
    rng = np.random.default_rng(20261018)
    levels = [math.inf, 0.0, 0.25, 0.5, 0.5, 0.75, 1.0]
    for _ in range(2000):
        n = int(rng.integers(2, 11))
        edges = []
        for j in range(int(rng.integers(1, 2 * n + 3))):
            t, h = (int(v) for v in rng.choice(n, size=2, replace=False))
            cap = levels[int(rng.integers(len(levels)))] if rng.random() < 0.7 else float(rng.random())
            edges.append(NetEdge(t, h, cap, j))
        yield Network(n, 0, n - 1, tuple(edges))


def series_net(*caps):
    edges = tuple(NetEdge(i, i + 1, c, i) for i, c in enumerate(caps))
    return Network(len(caps) + 1, 0, len(caps), edges)


def parallel_net(*caps):
    edges = tuple(NetEdge(0, 1, c, i) for i, c in enumerate(caps))
    return Network(2, 0, 1, edges)


class TestWeightedNetwork:
    def test_series_two_weights(self):
        G = make_channel_graph(3, 0, 2, [(0, 1, bsc(0.1)), (1, 2, bsc(0.2))])
        net = two_network(G)
        assert abs(net.edges[0].capacity - (-math.log(0.6))) < 1e-9
        assert abs(net.edges[1].capacity - (-math.log(0.8))) < 1e-9

    def test_tilde2_matches_two_for_reversible(self):
        G = make_channel_graph(3, 0, 2, [(0, 1, bsc(0.1)), (1, 2, ksym(3, 0.05))])
        a = tilde_network(G, 2)
        b = two_network(G)
        for ea, eb in zip(a.edges, b.edges):
            assert abs(ea.capacity - eb.capacity) < 1e-7

    def test_noiseless_edge_infinite(self):
        G = make_channel_graph(2, 0, 1, [(0, 1, identity_channel(2))])
        net = tilde_network(G, 2)
        assert math.isinf(net.edges[0].capacity)

    def test_one_evaluation_per_distinct_channel(self):
        shared, other = bsc(0.1), bsc(0.1)
        G = make_channel_graph(4, 0, 3, [(0, 1, shared), (1, 2, shared), (2, 3, other)])
        seen = []

        def capacity(P):
            seen.append(P)
            return 0.5 * len(seen)

        caps = per_channel(G, capacity)
        assert [id(P) for P in seen] == [id(shared), id(other)]
        assert caps == [0.5, 0.5, 1.0]
        assert [e.capacity for e in weighted_network(G, caps).edges] == caps

    def test_one_capacity_per_edge(self):
        G = make_channel_graph(3, 0, 2, [(0, 1, bsc(0.1)), (1, 2, bsc(0.2))])
        with pytest.raises(ValueError):
            weighted_network(G, [0.5])


class TestMaxflow:
    def test_series_bottleneck(self):
        fl = maxflow(series_net(0.5108, 0.2231))
        assert abs(fl.total - 0.2231) < 1e-12

    def test_parallel_sum(self):
        fl = maxflow(parallel_net(0.3, 0.4))
        assert abs(fl.total - 0.7) < 1e-12

    def test_counterexample_graph_flow(self):
        # finite dotted edges plus infinite solid edges: total = sum of dotted
        G = counterexample_graph(0.01)
        net = tilde_network(G, 3)
        tern = -math.log(2 * math.sqrt(0.01 * 0.98) + 0.01)
        bsc3 = -(2.0 / 3.0) * math.log(2 * math.sqrt(0.01 * 0.99))
        assert abs(maxflow(net).total - (tern + bsc3)) < 1e-9

    def test_flow_is_valid(self, rng):
        for _ in range(50):
            net = rand_network(rng)
            fl = maxflow(net)
            for e, f in zip(net.edges, fl.edge_flows):
                assert -1e-12 <= f <= e.capacity + 1e-9
            for v in range(net.node_count):
                if v in (net.source, net.destination):
                    continue
                inflow = sum(f for e, f in zip(net.edges, fl.edge_flows) if e.head == v)
                outflow = sum(f for e, f in zip(net.edges, fl.edge_flows) if e.tail == v)
                assert abs(inflow - outflow) < 1e-9
            src_out = sum(f for e, f in zip(net.edges, fl.edge_flows) if e.tail == net.source)
            src_in = sum(f for e, f in zip(net.edges, fl.edge_flows) if e.head == net.source)
            assert abs(fl.total - (src_out - src_in)) < 1e-9


class TestMincut:
    def test_series(self):
        net = series_net(0.5108, 0.2231)
        cut = _cut(net, maxflow(net).source_side)
        assert cut.side_a == frozenset({0, 1})
        assert abs(cut.size - 0.2231) < 1e-12

    def test_parallel(self):
        net = parallel_net(0.3, 0.4)
        cut = _cut(net, maxflow(net).source_side)
        assert cut.side_a == frozenset({0})
        assert abs(cut.size - 0.7) < 1e-12

    def test_counterexample_cut_sides(self):
        net = tilde_network(counterexample_graph(0.01), 3)
        cut = _cut(net, maxflow(net).source_side)
        # nodes are 1..4 at indices 0..3; the only mincut is {1,3} | {2,4}
        assert cut.side_a == frozenset({0, 2})
        assert abs(cut.size - maxflow(net).total) < 1e-9


class TestSourceSide:
    """maxflow's cut side against the second residual search that it
    replaced, rebuilt from the edge flows at tolerance 1e-9."""

    def check(self, net):
        fl = maxflow(net)
        assert fl.source_side == residual_source_side(net, fl)
        if math.isfinite(fl.total):
            assert abs(_cut(net, fl.source_side).size - fl.total) <= 1e-9

    def test_mixed_networks(self):
        for net in mixed_networks():
            self.check(net)

    def test_benchmark_networks(self):
        inputs = perfbench_inputs()
        cases = inputs.corpus_cases(ROOT, inputs.DEFAULT_SEED) + inputs.wide_cases(inputs.DEFAULT_SEED)
        for case in cases:
            per_edge = per_channel(case.graph, lambda P: channel_exponents(P, case.M))
            for exponent in ("tilde", "two", "zero_rate"):
                self.check(weighted_network(case.graph, [getattr(rec, exponent).value for rec in per_edge]))

    def test_capacity_below_the_old_tolerance(self):
        # the 3e-12 arc is residual above FLOW_TOL but not above 1e-9: the
        # source reaches node 1, and the cut, the zero edge 1->2, meets the
        # zero total where the cut {0} would miss it by 3e-12
        net = series_net(3e-12, 0.0)
        fl = maxflow(net)
        assert fl.source_side == frozenset({0, 1}) != residual_source_side(net, fl)
        assert _cut(net, fl.source_side).size == fl.total == 0.0


class TestBruteForceMincut:
    def test_duality_random(self, rng):
        for _ in range(100):
            net = rand_network(rng)
            assert abs(maxflow(net).total - brute_force_mincut(net).size) < 1e-9

    def test_single_edge(self):
        assert abs(brute_force_mincut(series_net(0.42)).size - 0.42) < 1e-15

    def test_zero_capacities(self):
        assert brute_force_mincut(parallel_net(0.0, 0.0)).size == 0.0

    def test_guard(self):
        edges = tuple(NetEdge(i, i + 1, 1.0, i) for i in range(21))
        with pytest.raises(GraphTooLarge):
            brute_force_mincut(Network(22, 0, 21, edges))


class TestDecompose:
    def test_series_single_path(self):
        net = series_net(0.5108, 0.2231)
        paths = decompose(net, maxflow(net))
        assert len(paths) == 1
        assert paths[0].nodes == (0, 1, 2)
        assert abs(paths[0].value - 0.2231) < 1e-12

    def test_diamond_two_paths(self):
        edges = (
            NetEdge(0, 1, 0.3, 0), NetEdge(1, 3, 0.3, 1),
            NetEdge(0, 2, 0.4, 2), NetEdge(2, 3, 0.4, 3),
        )
        net = Network(4, 0, 3, edges)
        paths = decompose(net, maxflow(net))
        got = sorted((p.nodes, round(p.value, 9)) for p in paths)
        assert got == [((0, 1, 3), 0.3), ((0, 2, 3), 0.4)]

    def test_counterexample_two_paths(self):
        net = tilde_network(counterexample_graph(0.01), 3)
        paths = decompose(net, maxflow(net))
        routes = sorted(p.nodes for p in paths)
        assert routes == [(0, 1, 3), (0, 2, 3)]  # 1->2->4 and 1->3->4

    def test_reconstruction_random(self, rng):
        for _ in range(100):
            net = rand_network(rng)
            fl = maxflow(net)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                paths = decompose(net, fl)
            assert len(paths) <= len(net.edges)
            recon = np.zeros(len(net.edges))
            for p in paths:
                assert len(set(p.nodes)) == len(p.nodes)  # simple
                assert p.nodes[0] == net.source and p.nodes[-1] == net.destination
                for eid in p.edge_ids:
                    recon[eid] += p.value
            # maxflows from augmenting paths carry no circulations
            assert np.abs(recon - fl.edge_flows).max() < 1e-9

    def test_circulation_stripped_with_warning(self):
        # flow with an s->t path plus a disjoint 2-cycle
        edges = (
            NetEdge(0, 1, 1.0, 0),
            NetEdge(2, 3, 1.0, 1),
            NetEdge(3, 2, 1.0, 2),
        )
        net = Network(4, 0, 1, edges)
        fl = Flow(edge_flows=np.array([0.5, 0.25, 0.25]), total=0.5, source_side=frozenset({0}))
        with pytest.warns(UserWarning, match="circulation"):
            paths = decompose(net, fl)
        assert len(paths) == 1
        assert abs(paths[0].value - 0.5) < 1e-12

    def test_step_into_a_cycle_off_to_the_sink_is_skipped(self):
        # edge 1 leads from a to b, whose only flow returns to a: the path
        # s->a must leave a by edge 3, and the a-b cycle is stripped
        edges = (
            NetEdge(0, 1, 1.0, 0), NetEdge(1, 2, 1.0, 1),
            NetEdge(2, 1, 1.0, 2), NetEdge(1, 3, 1.0, 3),
        )
        net = Network(4, 0, 3, edges)
        fl = Flow(edge_flows=np.ones(4), total=1.0, source_side=frozenset({0}))
        with pytest.warns(UserWarning, match="circulation"):
            paths = decompose(net, fl)
        assert [(p.nodes, p.edge_ids, p.value) for p in paths] == [((0, 1, 3), (0, 3), 1.0)]

    def test_deterministic_lexicographic(self):
        # two equal-value routes: the smaller edge-id sequence must win first
        edges = (
            NetEdge(0, 1, 1.0, 0), NetEdge(1, 3, 1.0, 1),
            NetEdge(0, 2, 1.0, 2), NetEdge(2, 3, 1.0, 3),
        )
        net = Network(4, 0, 3, edges)
        paths = decompose(net, maxflow(net))
        assert paths[0].edge_ids == (0, 1)


class TestMincutWithoutBackedges:
    def test_series_has_one(self):
        cut = backedge_free(series_net(0.5, 0.2))
        assert cut is not None
        assert abs(cut.size - 0.2) < 1e-12

    def test_parallel_has_one(self):
        assert backedge_free(parallel_net(0.3, 0.4)) is not None

    def test_counterexample_has_none(self):
        net = tilde_network(counterexample_graph(0.01), 3)
        assert backedge_free(net) is None

    def test_forty_nodes_answered(self):
        # a 40-node chain with a back-edge out of every odd node; the unique
        # minimum cut sits behind the cheapest chain edge, and it has a
        # back-edge exactly when that edge ends in an odd node
        forward = [NetEdge(i, i + 1, 1.0 if i != 9 else 0.25, i) for i in range(39)]
        back = [NetEdge(i, i - 1, 0.5, 39 + k) for k, i in enumerate(range(1, 40, 2))]
        net = Network(40, 0, 39, tuple(forward + back))
        cut = backedge_free(net)
        assert cut is not None
        assert cut.side_a == frozenset(range(10))
        assert cut.size == 0.25
        # move the bottleneck onto an edge whose head has a back-edge into side a
        forward[9] = NetEdge(9, 10, 1.0, 9)
        forward[10] = NetEdge(10, 11, 0.25, 10)
        net = Network(40, 0, 39, tuple(forward + back))
        assert backedge_free(net) is None

    def test_infinite_maxflow(self):
        # every cut is minimum; one exists iff t cannot reach s
        assert backedge_free(series_net(math.inf, math.inf)).side_a == frozenset({0})
        edges = (NetEdge(0, 1, math.inf, 0), NetEdge(1, 0, 0.5, 1))
        assert backedge_free(Network(2, 0, 1, edges)) is None
        edges = (NetEdge(0, 1, math.inf, 0), NetEdge(1, 0, 0.0, 1))
        assert backedge_free(Network(2, 0, 1, edges)) is not None

    def test_matches_enumeration_oracle(self):
        found = 0
        for net in mixed_networks():
            cut = backedge_free(net)
            assert (cut is None) == (enumerate_mincut_without_backedges(net) is None)
            if cut is None:
                continue
            found += 1
            want = brute_force_mincut(net).size
            assert cut.size == want or abs(cut.size - want) <= 1e-9
            assert net.source in cut.side_a and net.destination not in cut.side_a
            assert not any(e.capacity > 0 and e.tail not in cut.side_a and e.head in cut.side_a
                           for e in net.edges)
        assert 400 < found < 1600  # both answers are well represented


class TestEnumerationOracle:
    def test_counterexample_has_none(self):
        net = tilde_network(counterexample_graph(0.01), 3)
        assert enumerate_mincut_without_backedges(net) is None

    def test_guard(self):
        edges = tuple(NetEdge(i, i + 1, 1.0, i) for i in range(21))
        with pytest.raises(GraphTooLarge):
            enumerate_mincut_without_backedges(Network(22, 0, 21, edges))


class TestPathEdgeBudgets:
    def test_single_path_keeps_full_block(self):
        net = series_net(0.5, 0.2)
        budgets, _ = path_edge_budgets(decompose(net, maxflow(net)), 10)
        assert budgets == {(0, 0): 10, (0, 1): 10}

    def test_two_equal_paths(self):
        edges = (NetEdge(0, 1, 1.0, 0), NetEdge(0, 1, 1.0, 1), NetEdge(1, 2, 2.0, 2))
        net = Network(3, 0, 2, edges)
        paths = decompose(net, maxflow(net))
        budgets, users = path_edge_budgets(paths, 10)
        assert sorted(budgets[(i, 2)] for i in users[2]) == [5, 5]

    def test_three_equal_paths(self):
        edges = (
            NetEdge(0, 1, 1.0, 0), NetEdge(0, 1, 1.0, 1), NetEdge(0, 1, 1.0, 2),
            NetEdge(1, 2, 3.0, 3),
        )
        net = Network(3, 0, 2, edges)
        paths = decompose(net, maxflow(net))
        assert len(paths) == 3
        budgets, users = path_edge_budgets(paths, 10)
        assert [budgets[(i, 3)] for i in users[3]] == [4, 4, 4]
        assert sum(budgets[(i, 3)] for i in users[3]) <= 10 + 3

    def test_capacity_bound(self, rng):
        # each path's budget keeps budget * c_e >= B * f_i on every edge it uses
        B = 16
        for _ in range(50):
            net = rand_network(rng)
            fl = maxflow(net)
            if fl.total <= 0:
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                paths = decompose(net, fl)
            budgets, _ = path_edge_budgets(paths, B)
            caps = {e.id: e.capacity for e in net.edges}
            for (i, eid), sub in budgets.items():
                assert sub * caps[eid] >= B * paths[i].value - 1e-6


class TestLeftToRightSums:
    # 1e16 + 1.0 rounds back to 1e16, so a left-to-right sum drops both ones,
    # while a compensated one (math.fsum; builtin sum from Python 3.12) keeps
    # them: these values pin the first on every interpreter
    CAPS = (1e16, 1.0, 1.0)

    def test_the_case_tells_the_two_apart(self):
        assert _sum_left_to_right(self.CAPS) == 1e16
        assert math.fsum(self.CAPS) == 1e16 + 2.0

    def test_sentinel(self):
        assert parallel_net(*self.CAPS).sentinel() == 1.0 + 1e16

    def test_cut_size(self):
        net = parallel_net(*self.CAPS)
        assert brute_force_mincut(net).size == 1e16
        assert _cut(net, maxflow(net).source_side).size == 1e16


class TestMonotonicity:
    def test_adding_edge_never_decreases(self, rng):
        for _ in range(100):
            net = rand_network(rng)
            base = maxflow(net).total
            t = int(rng.integers(0, net.node_count))
            h = int(rng.integers(0, net.node_count))
            if t == h:
                continue
            bigger = Network(
                net.node_count, net.source, net.destination,
                net.edges + (NetEdge(t, h, float(rng.random()), len(net.edges)),),
            )
            assert maxflow(bigger).total >= base - 1e-12


class TestChannelGraphValidation:
    def test_source_equals_destination(self):
        with pytest.raises(ParameterOutOfRange):
            make_channel_graph(2, 0, 0, [(0, 1, bsc(0.1))])

    def test_no_path(self):
        with pytest.raises(ParameterOutOfRange):
            make_channel_graph(3, 0, 2, [(1, 0, bsc(0.1)), (2, 1, bsc(0.1))])

    @pytest.mark.parametrize("nodes, source, destination, terminal", [
        (3, -1, 2, "source"),  # -1 would index node 2, the destination
        (3, 7, 1, "source"),
        (3, 0, 3, "destination"),
        (0, 0, 1, "source"),
    ])
    def test_terminal_outside_the_nodes(self, nodes, source, destination, terminal):
        edges = [(0, 1, bsc(0.1))] if nodes else []
        with pytest.raises(ParameterOutOfRange, match=f"^{terminal} "):
            make_channel_graph(nodes, source, destination, edges)

    def test_bad_endpoint(self):
        with pytest.raises(ParameterOutOfRange):
            ChannelGraph(2, 0, 1, (GraphEdge(0, 5, bsc(0.1), 0),))

    def test_ids_that_are_not_positions(self):
        # decompose and the network plan index flows by edge id; with these
        # ids the strong path's value was reported on the weak path (0, 2, 3)
        ends = [(0, 1, 0.1), (1, 3, 0.1), (0, 2, 0.2), (2, 3, 0.2)]
        edges = tuple(GraphEdge(t, h, bsc(p), i) for (t, h, p), i in zip(ends, [3, 2, 1, 0]))
        with pytest.raises(ParameterOutOfRange, match="position"):
            ChannelGraph(4, 0, 3, edges)
