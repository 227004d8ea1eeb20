import dataclasses
import gc
import json
import math
import pickle
import tracemalloc
from array import array

import numpy as np
import pytest

from netexp.channel import bsc, identity_channel, ksym, make_dmc
from netexp import channel, exponents, harness, protocol
from netexp.errors import AlphabetTooLarge, BoundsViolation, ParameterOutOfRange
from netexp.flow import Flow, make_channel_graph, maxflow, per_channel, weighted_network
from netexp.graphio import load_graph_file
from netexp.protocol import path_tables
from netexp.harness import (
    EdgeBounds,
    SimConfig,
    SimResult,
    SimRow,
    analyze,
    counterexample_channel,
    counterexample_experiment,
    counterexample_graph,
    simulate,
    wilson_interval,
)
from conftest import ROOT, perfbench_inputs, rand_dmc, rand_channel_graph
from exponent_oracles import oracle_exponent_1hop
import protocol_oracles as oracles
from sim_fit import InsufficientData, aggregate, fit_exponent, skipped_horizons

DB_BSC01 = -math.log(0.6)


def synthetic_result(points, trials=10**6):
    rows = tuple(
        SimRow(n=n, message=1, errors=int(round(p * trials)), trials=trials,
               p_hat=p, ci_lo=0.0, ci_hi=1.0)
        for n, p in points
    )
    cfg = SimConfig(seed=0, trials=trials, horizons=tuple(n for n, _ in points), B=2, M=2, decoder="exact")
    return SimResult(config=cfg, rows=rows)


class TestWilson:
    def test_zero_errors(self):
        lo, hi = wilson_interval(0, 1000)
        assert lo == 0.0 and 0 < hi < 0.01

    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(37, 500)
        assert lo < 37 / 500 < hi

    def test_all_errors(self):
        lo, hi = wilson_interval(100, 100)
        assert hi == 1.0 and lo > 0.95

    @pytest.mark.parametrize("errors, trials", [(5, 3), (-1, 10)])
    def test_errors_outside_trials_raise(self, errors, trials):
        with pytest.raises(ParameterOutOfRange, match="errors"):
            wilson_interval(errors, trials)


SAMPLE_GRAPHS = ("counterexample", "diamond", "noiseless", "series-2-bsc", "series-2-bsc005")


class TestAnalyze:
    @pytest.mark.parametrize("name", SAMPLE_GRAPHS)
    def test_flow_totals_and_report_floats_are_builtin(self, name):
        # np.float64 subclasses float, so an isinstance check would pass it
        G = load_graph_file(ROOT / "graphs" / f"{name}.json").graph
        for M in (2, 3):
            per_edge = per_channel(G, lambda P: exponents.channel_exponents(P, M))
            for weight in ("two", "tilde", "zero_rate"):
                net = weighted_network(G, [getattr(rec, weight).value for rec in per_edge])
                flow = maxflow(net)
                assert type(flow.total) is float
                assert {type(f) for f in flow.edge_flows} == {float}
            rep = analyze(G, M)
            for obj in (rep, *rep.edges):
                for f in dataclasses.fields(obj):
                    if f.type == "float":
                        assert type(getattr(obj, f.name)) is float, (name, M, f.name)

    def test_edge_flows_are_builtin_floats_on_the_corpus(self):
        for case in perfbench_inputs().corpus_cases(ROOT, 7):
            per_edge = per_channel(case.graph, lambda P: exponents.channel_exponents(P, case.M))
            for weight in ("two", "tilde", "zero_rate"):
                flow = maxflow(weighted_network(case.graph, [getattr(rec, weight).value for rec in per_edge]))
                assert type(flow.edge_flows) is tuple and len(flow.edge_flows) == len(case.graph.edges)
                assert {type(f) for f in flow.edge_flows} == {float}, (case.name, weight)

    def test_series_bsc(self):
        G = make_channel_graph(3, 0, 2, [(0, 1, bsc(0.1)), (1, 2, bsc(0.2))])
        rep = analyze(G, 2)
        assert abs(rep.maxflow_tilde - (-math.log(0.8))) < 1e-9
        assert abs(rep.maxflow_two - rep.maxflow_tilde) < 1e-9
        assert abs(rep.ratio_two_over_tilde - 1.0) < 1e-9
        assert rep.all_reversible
        assert rep.backedge_free_mincut_exists is True

    def test_counterexample_m3(self):
        rep = analyze(counterexample_graph(0.01), 3)
        tern = -math.log(2 * math.sqrt(0.01 * 0.98) + 0.01)
        bsc3 = -(2.0 / 3.0) * math.log(2 * math.sqrt(0.01 * 0.99))
        assert abs(rep.maxflow_tilde - (tern + bsc3)) < 1e-9
        assert rep.backedge_free_mincut_exists is False
        assert rep.all_reversible

    def test_z_channel_edge_not_reversible(self):
        Z = make_dmc([[1.0, 0.0], [0.5, 0.5]])
        G = make_channel_graph(3, 0, 2, [(0, 1, Z), (1, 2, bsc(0.1))])
        rep = analyze(G, 2)
        assert not rep.edges[0].reversible
        assert rep.edges[1].reversible
        assert not rep.all_reversible
        # tilde weight on the Z edge is the Bhattacharyya value, below Chernoff
        assert rep.edges[0].exp_tilde < rep.edges[0].exp_two - 1e-6

    def test_random_graphs_sandwich(self, rng):
        for _ in range(30):
            M = int(rng.integers(2, 5))
            G = rand_channel_graph(rng, lambda r: rand_dmc(r, max_in=4, max_out=4))
            rep = analyze(G, M)  # invariants asserted inside
            assert rep.maxflow_tilde <= rep.maxflow_two + 1e-9

    def test_backedge_flag_above_twenty_nodes(self):
        # a 24-node chain with a noisy back-edge into every other node
        edges = [(i, i + 1, bsc(0.1)) for i in range(23)]
        edges += [(i, i - 1, bsc(0.2)) for i in range(2, 24, 2)]
        rep = analyze(make_channel_graph(24, 0, 23, edges), 2)
        assert rep.backedge_free_mincut_exists is True
        edges += [(23, 0, bsc(0.3))]
        rep = analyze(make_channel_graph(24, 0, 23, edges), 2)
        assert rep.backedge_free_mincut_exists is False

    def test_json_obj_shape(self):
        G = make_channel_graph(3, 0, 2, [(0, 1, bsc(0.1)), (1, 2, bsc(0.2))])
        obj = analyze(G, 2).to_json_obj()
        assert set(obj) >= {
            "messages", "edges", "maxflow_tilde", "maxflow_two",
            "maxflow_zero_rate", "ratio_two_over_tilde", "all_reversible",
            "backedge_free_mincut_exists",
        }
        assert obj["edges"][0]["exponent_two"] == pytest.approx(0.510825623766)

    @pytest.mark.parametrize("name", ["diamond", "noiseless"])
    def test_slotted_report_round_trips(self, name):
        # no per-instance __dict__; pickle rebuilds an equal report with the
        # same edges, a changed exponent makes it unequal, and its JSON
        # object is the analyze golden's
        rep = analyze(load_graph_file(str(ROOT / "graphs" / f"{name}.json")).graph, 3)
        assert not hasattr(rep, "__dict__")
        assert not any(hasattr(e, "__dict__") for e in rep.edges)
        copy = pickle.loads(pickle.dumps(rep))
        assert copy == rep and copy.edges == rep.edges and hash(copy) == hash(rep)
        bumped = array("d", rep.exponents)
        bumped[-1] = -1.0
        assert dataclasses.replace(rep, exponents=bumped) != rep
        golden = json.loads((ROOT / "tests" / "data" / "cli_golden" / f"analyze-{name}-m3.txt").read_text())
        assert {**rep.to_json_obj(), "weights": "tilde", "maxflow": golden["maxflow"]} == golden

    def test_edges_unpack_the_per_channel_records(self, rng):
        # the EdgeBounds that analyze built one per edge before the report
        # was packed: ids, ends and labels from the graph, numbers from the
        # channel's exponent record
        def built(G, M):
            recs = [exponents.channel_exponents(e.channel, M) for e in G.edges]
            return tuple(
                EdgeBounds(edge_id=e.id, tail=e.tail, head=e.head, label=e.channel.label,
                           exp_two=r.two.value, exp_tilde=r.tilde.value,
                           exp_zero=r.zero_rate.value, reversible=r.reversible)
                for e, r in zip(G.edges, recs)
            )

        cases = [(case.graph, case.M) for case in perfbench_inputs().corpus_cases(ROOT, 7)[-12:]]
        cases += [(case.graph, case.M) for case in perfbench_inputs().wide_cases(7)]
        cases += [(counterexample_graph(0.05), 3)]
        cases += [(rand_channel_graph(rng, lambda r: rand_dmc(r, max_in=4, max_out=4)), 3)
                  for _ in range(10)]
        for G, M in cases:
            edges = analyze(G, M).edges
            assert edges == built(G, M)
            assert all(type(v) is float for e in edges for v in (e.exp_two, e.exp_tilde, e.exp_zero))
            assert all(type(e.reversible) is bool for e in edges)

    def test_retained_wide_report_is_small(self):
        # perfbench keeps every report of a run; a wide-18 graph's 36 edges
        # cost one float64 array, one flag byte each and the report itself
        G = next(c.graph for c in perfbench_inputs().wide_cases(7) if c.name == "wide-18")
        analyze(G, 2)  # first-call caches are not the report's
        gc.collect()
        tracemalloc.start()
        try:
            rep = analyze(G, 2)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(rep.exponents) == 3 * len(G.edges) == 108
        assert retained < 1536

    def test_exponents_once_per_distinct_channel(self, monkeypatch):
        # one BSC object on three edges, one ternary channel on the fourth;
        # every pair of both is flat at s=1/2, so none is searched
        calls = {"zero": 0, "chernoff": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(exponents, "zero_rate_exponent",
                            counted("zero", exponents.zero_rate_exponent))
        monkeypatch.setattr(channel, "chernoff", counted("chernoff", channel.chernoff))
        shared = bsc(0.1)
        G = make_channel_graph(4, 0, 3, [(0, 1, shared), (1, 2, shared), (2, 3, shared),
                                         (0, 3, ksym(3, 0.1))])
        analyze(G, 2)
        assert calls == {"zero": 2, "chernoff": 0}

    def test_chernoff_searches_on_the_benchmark_inputs(self, monkeypatch):
        # seed 7: a search of every pair makes 1725 on analyze-corpus; every
        # analyze-wide channel is a BSC or BEC with one pair, and it is flat
        calls = []
        real = channel.chernoff
        monkeypatch.setattr(channel, "chernoff", lambda *args: calls.append(args) or real(*args))
        inputs = perfbench_inputs()
        counts = []
        for cases in (inputs.corpus_cases(ROOT, 7), inputs.wide_cases(7)):
            calls.clear()
            for case in cases:
                analyze(case.graph, case.M)
            counts.append(len(calls))
        assert counts == [220, 0]

    def test_three_networks_through_weighted_network(self, monkeypatch):
        built = []
        real = harness.weighted_network

        def counted(G, capacity):
            built.append(real(G, capacity))
            return built[-1]

        monkeypatch.setattr(harness, "weighted_network", counted)
        G = make_channel_graph(3, 0, 2, [(0, 1, bsc(0.1)), (1, 2, ksym(3, 0.05))])
        rep = analyze(G, 3)
        assert len(built) == 3
        tilde, two, zero = ([e.capacity for e in net.edges] for net in built)
        assert tilde == [e.exp_tilde for e in rep.edges]
        assert two == [e.exp_two for e in rep.edges]
        assert zero == [e.exp_zero for e in rep.edges]

    def test_broken_sandwich_raises(self, monkeypatch):
        # maxflows in call order: tilde, two, zero; tilde above two is a breach
        totals = iter([2.0, 1.0, 1.0])
        monkeypatch.setattr(
            harness, "maxflow",
            lambda net: Flow(edge_flows=np.zeros(len(net.edges)), total=next(totals), source_side=frozenset()),
        )
        G = make_channel_graph(3, 0, 2, [(0, 1, bsc(0.1)), (1, 2, bsc(0.2))])
        with pytest.raises(BoundsViolation, match="exceeded two-message maxflow"):
            analyze(G, 2)


class TestSimulate:
    def test_noiseless_zero_errors(self):
        G = make_channel_graph(
            3, 0, 2, [(0, 1, identity_channel(2)), (1, 2, identity_channel(2))]
        )
        cfg = SimConfig(seed=1, trials=500, horizons=(12, 16), B=4, M=2, decoder="heuristic")
        res = simulate(G, cfg)
        assert all(r.errors == 0 for r in res.rows)
        assert len(skipped_horizons(res)) == 2
        with pytest.raises(InsufficientData):
            fit_exponent(res)

    def test_single_hop_single_block_matches_oracle(self):
        from netexp.protocol import build_network_plan, exact_block_distribution

        G = make_channel_graph(2, 0, 1, [(0, 1, bsc(0.1))])
        cfg = SimConfig(seed=11, trials=10**5, horizons=(8,), B=4, M=2, decoder="exact")
        res = simulate(G, cfg)
        plan = build_network_plan(G, 2, 4)
        exact = oracles.ml_error_probs(exact_block_distribution(plan.paths[0].spec, "uniform"))
        for r in res.rows:
            want = exact[r.message - 1]
            sigma = math.sqrt(want * (1 - want) / r.trials)
            assert abs(r.p_hat - want) <= 3 * sigma + 1e-12

    def test_thread_count_reproducibility(self, monkeypatch):
        # the diamond case's relays decide every row directly and its
        # decoder is heuristic, so four workers share each hop's read-only
        # codewords and chunk table
        cases = [
            (make_channel_graph(3, 0, 2, [(0, 1, bsc(0.1)), (1, 2, bsc(0.1))]),
             SimConfig(seed=3, trials=5000, horizons=(12, 16), B=4, M=2, decoder="heuristic")),
            (load_graph_file(str(ROOT / "graphs" / "diamond.json")).graph,
             SimConfig(seed=3, trials=300, horizons=(144, 192), B=48, M=3, decoder="heuristic")),
        ]
        for G, cfg in cases:
            monkeypatch.setenv("NETEXP_THREADS", "1")
            r1 = simulate(G, cfg)
            monkeypatch.setenv("NETEXP_THREADS", "4")
            r2 = simulate(G, cfg)
            assert r1.rows == r2.rows

    def test_hop_constants_built_once_per_call(self, monkeypatch):
        # diamond.json at M=3, B=48 has 2**48 blocks per hop, so both
        # relays decide their rows directly and the heuristic decoder reads
        # both final hops.  3000 trials make two tiles per hop and slot; the
        # chunk tables are built once per hop for the whole call all the same
        G = load_graph_file(str(ROOT / "graphs" / "diamond.json")).graph
        cfg = SimConfig(seed=7, trials=3000, horizons=(144, 192), B=48, M=3, decoder="heuristic")
        plan = protocol.build_network_plan(G, cfg.M, cfg.B)
        raw = math.factorial(cfg.M)  # raw symbols per reduced use
        assert all(protocol._tile_rows(cfg.trials, p.spec.B * raw) < cfg.trials for p in plan.paths)
        builds = []
        chunk_table = protocol._chunk_table

        def spy(base_logp, words, chunks):
            builds.append(chunks)
            return chunk_table(base_logp, words, chunks)

        monkeypatch.setattr(protocol, "_chunk_table", spy)
        simulate(G, cfg)
        assert len(builds) == sum(len(p.spec.channels) for p in plan.paths) == 4

    @pytest.mark.parametrize("graph, M, B, n, decoder", [
        (make_channel_graph(4, 0, 3, [(0, 1, bsc(0.1)), (1, 3, bsc(0.1)),
                                      (0, 2, bsc(0.2)), (2, 3, bsc(0.2))]), 3, 12, 48, "heuristic"),
        (make_channel_graph(3, 0, 2, [(0, 1, bsc(0.05)), (1, 2, bsc(0.05))]), 2, 4, 24, "exact"),
    ])
    def test_chunk_outer_loop_matches_slot_outer_loop(self, monkeypatch, graph, M, B, n, decoder):
        # 300 trials in chunks of 64: four full chunks and a partial one
        from netexp.protocol import build_network_plan, exact_block_distribution

        monkeypatch.setattr(harness, "_TRIAL_CHUNK", 64)
        plan = build_network_plan(graph, M, B)
        assert sum(plan.blocks_per_path(n)) >= 2
        dists = [exact_block_distribution(p.spec, "uniform") for p in plan.paths] if decoder == "exact" else None
        tables = [path_tables(p.spec, harness._TRIAL_CHUNK) for p in plan.paths]
        got = [harness._cell_errors(plan, tables, dists, decoder, n, m, 300, 5, 1)
               for m in range(1, M + 1)]
        want = [oracles.cell_errors(plan, dists, decoder, n, m, 300, 5, 1, chunk_size=64)
                for m in range(1, M + 1)]
        assert got == want
        assert sum(got) > 0

    @pytest.mark.parametrize("B, trials", [(4, 266), (8, 300)],
                             ids=["table-past-last-chunk", "direct"])
    def test_cell_errors_around_the_relay_table_size(self, monkeypatch, B, trials):
        # chunks of 64: with B=4 the relay's 2**4 blocks are tabulated once
        # and also serve the last chunk of 10 rows; with B=8 its 2**8 blocks
        # exceed every chunk, so it decides each row
        from netexp.protocol import build_network_plan, exact_block_distribution

        monkeypatch.setattr(harness, "_TRIAL_CHUNK", 64)
        G = make_channel_graph(3, 0, 2, [(0, 1, bsc(0.1)), (1, 2, bsc(0.1))])
        plan = build_network_plan(G, 2, B)
        tables = [path_tables(p.spec, harness._TRIAL_CHUNK) for p in plan.paths]
        assert (tables[0][0].next_state is None) == (B == 8)
        dists = [exact_block_distribution(p.spec, "uniform") for p in plan.paths]
        n = 4 * plan.window
        got = [harness._cell_errors(plan, tables, dists, "exact", n, m, trials, 5, 1)
               for m in (1, 2)]
        want = [oracles.cell_errors(plan, dists, "exact", n, m, trials, 5, 1, chunk_size=64)
                for m in (1, 2)]
        assert got == want
        assert sum(got) > 0

    def test_row_scan_is_argmax(self):
        # the strict greater-than scan keeps np.argmax's first maximum on
        # ties, on columns that are all -inf, and on mixed columns
        rng = np.random.default_rng(6)
        for M in (2, 3, 5):
            scores = rng.integers(-2, 2, (M, 400)).astype(float)
            scores[rng.random((M, 400)) < 0.3] = -np.inf
            scores[:, :7] = -np.inf
            scores[:, 7:14] = 0.5
            want = np.argmax(scores, axis=0)
            got = harness._first_max_rows(scores)[0]
            assert got.dtype == np.int64
            assert np.array_equal(got, want)
            assert not got[:14].any()

    def test_config_validation(self):
        with pytest.raises(ParameterOutOfRange, match="block size must be even"):
            SimConfig(seed=0, trials=10, horizons=(10,), B=3, M=2, decoder="exact")
        with pytest.raises(ParameterOutOfRange):
            SimConfig(seed=0, trials=10, horizons=(10, 10), B=2, M=2, decoder="exact")
        with pytest.raises(ParameterOutOfRange):
            SimConfig(seed=0, trials=10, horizons=(10,), B=2, M=2, decoder="magic")

    def test_empty_horizons_rejected(self):
        with pytest.raises(ParameterOutOfRange, match="at least one horizon"):
            SimConfig(seed=0, trials=10, horizons=(), B=2, M=2, decoder="exact")

    def test_exact_decoder_guard_translated(self):
        from netexp.errors import DistributionUnavailable

        # M=3 reduction has 2^6 outputs per reduced use; B=4 blows the
        # exact-enumeration guard, so the exact decoder must refuse
        G = make_channel_graph(2, 0, 1, [(0, 1, bsc(0.1))])
        cfg = SimConfig(seed=0, trials=10, horizons=(36,), B=24, M=3, decoder="exact")
        with pytest.raises(DistributionUnavailable):
            simulate(G, cfg)

    def test_heuristic_error_rate_trend(self):
        # worst-case heuristic error is non-increasing in n (2 sigma slack)
        G = make_channel_graph(3, 0, 2, [(0, 1, bsc(0.05)), (1, 2, bsc(0.05))])
        cfg = SimConfig(seed=7, trials=30000, horizons=(12, 16, 20, 24), B=4, M=2,
                        decoder="heuristic")
        res = simulate(G, cfg)
        points = aggregate(res)
        for (n1, p1), (n2, p2) in zip(points, points[1:]):
            s1 = math.sqrt(max(p1 * (1 - p1), 1e-12) / cfg.trials)
            s2 = math.sqrt(max(p2 * (1 - p2), 1e-12) / cfg.trials)
            assert p2 <= p1 + 2 * math.hypot(s1, s2)


class TestFitExponent:
    def test_exact_log_linear(self):
        res = synthetic_result([(n, math.exp(-0.3 * n)) for n in (10, 20, 30, 40)])
        slope, stderr = fit_exponent(res)
        assert abs(slope - 0.3) < 1e-12
        assert stderr < 1e-12

    def test_noisy_synthetic_within_3_stderr(self, rng):
        trials = 10**5
        points = []
        for n in (10, 20, 30, 40, 50):
            p = math.exp(-0.12 * n)
            k = rng.binomial(trials, p)
            points.append((n, max(k, 1) / trials))
        slope, stderr = fit_exponent(synthetic_result(points, trials))
        assert abs(slope - 0.12) <= 3 * max(stderr, 1e-4)

    def test_zero_horizons_excluded(self):
        res = synthetic_result([(10, 1e-2), (20, 1e-3), (30, 1e-4), (40, 0.0)])
        slope, _ = fit_exponent(res)
        assert slope > 0
        assert skipped_horizons(res) == (40,)

    def test_insufficient_data(self):
        res = synthetic_result([(10, 0.0), (20, 0.0), (30, 0.0)])
        with pytest.raises(InsufficientData):
            fit_exponent(res)


class TestCounterexample:
    def test_rows_sum_to_one_exactly(self):
        for p in (0.01, 0.2, 1 / 3 - 1e-6):
            Q = counterexample_channel(p)
            assert np.abs(Q.probs.sum(axis=1) - 1.0).max() < 1e-12

    def test_channel_entries(self):
        p = 0.01
        Q = counterexample_channel(p)
        assert Q.probs[0, 0] == pytest.approx((1 - 2 * p) * (1 - p))
        assert Q.probs[0, 1] == pytest.approx(p * p)
        assert Q.probs[0, 3] == pytest.approx((1 - 2 * p) * p)
        assert Q.probs[0, 4] == pytest.approx(p * (1 - p))

    def test_p001_beats_both_bounds(self):
        row = counterexample_experiment([0.01])[0]
        assert row.min_db_q == pytest.approx(3.0078, abs=1e-3)
        assert row.maxflow_bound == pytest.approx(2.6466, abs=1e-3)
        assert row.min_db_q > row.maxflow_bound
        assert row.min_db_q > row.maxflow_feedback_bound
        assert row.maxflow_feedback_bound > row.maxflow_bound

    def test_min_db_matches_closed_form(self):
        # sum of sqrt(Q0 Q1) collapses to 4 p sqrt((1-2p)(1-p)) + p
        for p in (0.01, 0.001):
            row = counterexample_experiment([p])[0]
            want = -math.log(4 * p * math.sqrt((1 - 2 * p) * (1 - p)) + p)
            assert row.min_db_q == pytest.approx(want, abs=1e-12)

    def test_one_tilde_exponent_per_distinct_channel(self, monkeypatch):
        # ternary, identity (one object on three edges) and binary edges;
        # the ternary edge's feedback capacity reuses its report
        calls = []
        real = harness.tilde_exponent

        def counted(P, M):
            calls.append(P)
            return real(P, M)

        monkeypatch.setattr(harness, "tilde_exponent", counted)
        row = counterexample_experiment([0.01])[0]
        assert len(calls) == 3 and len({id(P) for P in calls}) == 3
        tern = real(ksym(3, 0.01), 3).value
        assert row.maxflow_feedback_bound == tern + exponents.bsc_feedback_exponent_m3(0.01)

    def test_grid_validation(self):
        with pytest.raises(ParameterOutOfRange):
            counterexample_experiment([])
        with pytest.raises(ParameterOutOfRange):
            counterexample_experiment([0.4])


class TestOracle1Hop:
    def test_single_use(self):
        assert oracle_exponent_1hop(bsc(0.1), 2, 1) == pytest.approx(0.1, abs=1e-12)

    def test_repetition_3(self):
        # majority vote: p^3 + 3 p^2 (1-p)
        assert oracle_exponent_1hop(bsc(0.1), 2, 3) == pytest.approx(0.028, abs=1e-12)

    def test_n15_enumerated(self):
        # frozen from the enumeration; the finite-n exponent sits 34% above
        # the asymptotic Bhattacharyya value at this length
        p_err = oracle_exponent_1hop(bsc(0.1), 2, 15)
        assert p_err == pytest.approx(3.3624888e-05, rel=1e-6)
        exponent = -math.log(p_err) / 15
        assert abs(exponent - DB_BSC01) / DB_BSC01 < 0.4

    def test_guard(self):
        with pytest.raises(AlphabetTooLarge):
            oracle_exponent_1hop(ksym(10, 0.01), 2, 8)


class TestKaryEquality:
    def test_all_ksym_graphs_match(self, rng):
        for _ in range(15):
            M = int(rng.integers(2, 4))

            def kchan(r):
                K = int(r.integers(M, 6))
                return ksym(K, float(r.uniform(0.01, 0.9 / (K - 1))))

            G = rand_channel_graph(rng, kchan)
            rep = analyze(G, M)
            assert abs(rep.maxflow_tilde - rep.maxflow_two) < 1e-9
