"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (to the real stdout, so it shows under any capture mode)
and enforcing its runtime budget.
"""
import math
import time
import warnings
from contextlib import contextmanager

import numpy as np

from netexp.channel import bhattacharyya, bsc, ksym, make_dmc
from netexp.exponents import exponent_two, tilde_exponent, zero_rate_exponent
from netexp.flow import brute_force_mincut, decompose, make_channel_graph, maxflow
from netexp.harness import (
    SimConfig,
    analyze,
    counterexample_experiment,
    simulate,
)
from netexp.protocol import (
    block_scores_ml,
    exact_block_distribution,
    make_series_spec,
    path_tables,
)
from netexp.protocol import _encode_blocks
from conftest import rand_dmc, rand_network, rand_channel_graph, rand_reversible
from channel_oracles import chernoff_at, compose
from protocol_oracles import (
    destination_blocks,
    min_pairwise_block_db,
    ml_error_probs,
    verify_transition_bound,
)
from sim_fit import aggregate, fit_exponent

DB_BSC01 = -math.log(0.6)
E2_KSYM3 = -math.log(2 * math.sqrt(0.1 * 0.8) + 0.1)  # = 0.4069380549...


@contextmanager
def criterion(number, name, budget_s):
    """Wrap one criterion: print its PASS/FAIL line and enforce the budget.

    Run this module with `pytest -s` to see the lines as they happen.
    """
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{name}]: FAIL", flush=True)
        raise
    elapsed = time.monotonic() - start
    print(
        f"ACCEPTANCE {number} [{name}]: PASS ({elapsed:.2f}s / budget {budget_s}s)",
        flush=True,
    )
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


def test_criterion_1_counterexample_scaling():
    with criterion(1, "counterexample scaling", 1.0):
        grid = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
        rows = counterexample_experiment(grid)
        for row in rows:
            if row.p <= 0.01:
                assert row.min_db_q > row.maxflow_bound
                assert row.min_db_q > row.maxflow_feedback_bound
        fit_rows = [r for r in rows if r.p <= 1e-3]
        x = np.log([1.0 / r.p for r in fit_rows])
        slope_db = np.polyfit(x, [r.min_db_q for r in fit_rows], 1)[0]
        slope_bound = np.polyfit(x, [r.maxflow_bound for r in fit_rows], 1)[0]
        assert abs(slope_db - 1.0) <= 0.02
        assert abs(slope_bound - 5.0 / 6.0) <= 0.02


def test_criterion_2_closed_form_exponents():
    with criterion(2, "closed-form exponents", 1.0):
        assert abs(exponent_two(bsc(0.1)).value - 0.5108256) <= 1e-6
        assert abs(tilde_exponent(bsc(0.1), 3).value - 0.340550) <= 1e-6
        # the ternary value is pinned to its defining closed form
        # -log(2 sqrt(p(1-2p)) + p) = 0.4069381 at p = 0.1
        assert abs(exponent_two(ksym(3, 0.1)).value - E2_KSYM3) <= 1e-5
        assert abs(E2_KSYM3 - 0.4069381) <= 1e-6


def test_criterion_3_maxflow_mincut_duality():
    with criterion(3, "maxflow-mincut duality + decomposition", 30.0):
        rng = np.random.default_rng(31)
        for _ in range(500):
            net = rand_network(rng, max_nodes=8, max_edges=14)
            fl = maxflow(net)
            assert abs(fl.total - brute_force_mincut(net).size) <= 1e-9
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                paths = decompose(net, fl)
            assert len(paths) <= len(net.edges)
            recon = np.zeros(len(net.edges))
            for p in paths:
                assert len(set(p.nodes)) == len(p.nodes)
                for eid in p.edge_ids:
                    recon[eid] += p.value
            assert np.abs(recon - fl.edge_flows).max() <= 1e-9


def test_criterion_4_bound_sandwich_and_approximation():
    with criterion(4, "bound sandwich / 4x / 2x / ksym equality", 60.0):
        rng = np.random.default_rng(41)
        for i in range(200):
            kind = i % 3
            if kind == 0:
                M = int(rng.integers(2, 5))
                G = rand_channel_graph(rng, lambda r: rand_dmc(r, max_in=4, max_out=4))
            elif kind == 1:
                M = int(rng.integers(2, 4))
                G = rand_channel_graph(rng, lambda r: rand_reversible(r, max_inputs=4))
            else:
                M = int(rng.integers(2, 4))

                def kchan(r, m=M):
                    K = int(r.integers(m, 6))
                    return ksym(K, float(r.uniform(0.01, 0.9 / (K - 1))))

                G = rand_channel_graph(rng, kchan)
            rep = analyze(G, M)
            assert rep.maxflow_tilde <= rep.maxflow_two + 1e-9
            assert rep.maxflow_two <= 4 * rep.maxflow_tilde + 1e-9
            if M == 2 or rep.all_reversible:
                assert rep.maxflow_two <= 2 * rep.maxflow_tilde + 1e-9
            if kind == 2:
                assert abs(rep.maxflow_tilde - rep.maxflow_two) <= 1e-9


def test_criterion_5_zero_rate_sandwich():
    with criterion(5, "zero-rate sandwich", 60.0):
        rng = np.random.default_rng(51)
        for _ in range(100):
            P = rand_dmc(rng, max_in=5, max_out=5)
            z = zero_rate_exponent(P).value
            for M in (2, 3, 4):
                t = tilde_exponent(P, M).value
                assert t >= z - 1e-8
                assert z >= (M - 1) / M * t - 1e-8


def test_criterion_6_transition_inequalities():
    with criterion(6, "transition-inequality oracle", 60.0):
        for B in (2, 4, 6):
            spec = make_series_spec([bsc(0.1), bsc(0.1)], 2, B)
            rep = verify_transition_bound(spec)
            assert rep.all_hold
            assert rep.min_slack_occupancy >= -1e-9
            assert rep.min_slack_divergence >= -1e-9


def test_criterion_7_exact_vs_monte_carlo():
    with criterion(7, "exact vs Monte Carlo (1e6 trials)", 300.0):
        spec = make_series_spec([bsc(0.1), bsc(0.1)], 2, 2)
        ld = exact_block_distribution(spec, update_mode="uniform")
        exact_err = ml_error_probs(ld)
        trials = 10**6
        for m in (1, 2):
            rng = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence(entropy=7, spawn_key=(70, m)))
            )
            blocks = destination_blocks(spec, m, trials, rng)
            idx = _encode_blocks(blocks, path_tables(spec, 1)[-1].out)
            emp = np.bincount(idx, minlength=ld.shape[1]) / trials
            tv = 0.5 * float(np.abs(emp - np.exp(ld[m - 1])).sum())
            assert tv <= 5e-3
            decisions = np.argmax(block_scores_ml(blocks, ld, path_tables(spec, 1)[-1]), axis=0) + 1
            p_hat = float(np.mean(decisions != m))
            want = exact_err[m - 1]
            sigma = math.sqrt(want * (1 - want) / trials)
            assert abs(p_hat - want) <= 3 * sigma + 1e-12


def test_criterion_8_desk_scale_achievability_surrogates():
    # the asymptotic guarantee itself needs unbounded n and B; these are the
    # desk-scale substitutes: (a) block divergence grows strictly with B,
    # (b) the fitted Monte Carlo exponent is positive with non-increasing
    # error rates, (c) the invariant suites (the rest of this pytest run).
    with criterion(8, "desk-scale achievability surrogates", 600.0):
        vals = []
        for B in (2, 4, 6):
            spec = make_series_spec([bsc(0.1), bsc(0.1)], 2, B)
            vals.append(min_pairwise_block_db(exact_block_distribution(spec, "uniform")))
        assert vals[0] < vals[1] < vals[2]

        G = make_channel_graph(3, 0, 2, [(0, 1, bsc(0.05)), (1, 2, bsc(0.05))])
        cfg = SimConfig(
            seed=7, trials=10**5, horizons=(12, 16, 20, 24), B=4, M=2, decoder="exact"
        )
        res = simulate(G, cfg)
        slope, stderr = fit_exponent(res)
        assert slope > 0
        # golden anchor recorded from the first audited run of this benchmark
        assert 0.5 * 0.27076 <= slope <= 1.5 * 0.27076
        points = aggregate(res)
        for (n1, p1), (n2, p2) in zip(points, points[1:]):
            s1 = math.sqrt(max(p1 * (1 - p1), 1e-12) / cfg.trials)
            s2 = math.sqrt(max(p2 * (1 - p2), 1e-12) / cfg.trials)
            assert p2 <= p1 + 2 * math.hypot(s1, s2)


def test_criterion_9_divergence_property_suites():
    with criterion(9, "product/composite/LRT property suites", 120.0):
        rng = np.random.default_rng(91)

        # product channel inequality, two messages, arbitrary channels
        from netexp.channel import product

        for _ in range(200):
            P = rand_dmc(rng, max_in=4, max_out=4)
            Q = rand_dmc(rng, max_in=4, max_out=4)
            assert (
                exponent_two(product(P, Q)).value
                <= exponent_two(P).value + exponent_two(Q).value + 1e-9
            )

        # product equality for pairwise-reversible factors
        checked = 0
        while checked < 50:
            P = rand_reversible(rng, max_inputs=4)
            Q = rand_reversible(rng, max_inputs=4)
            for M in (2, 3):
                if math.comb(P.input_size * Q.input_size + M - 1, M) > 10**4:
                    continue
                lhs = tilde_exponent(product(P, Q), M).value
                rhs = tilde_exponent(P, M).value + tilde_exponent(Q, M).value
                assert abs(lhs - rhs) <= 1e-8
                checked += 1

        # composite-channel divergence bound, both sides exact
        for _ in range(100):
            P1 = rand_dmc(rng, max_in=4, max_out=4, zeros=True)
            mat = rng.random((P1.output_size, int(rng.integers(2, 5))))
            P2 = make_dmc(mat / mat.sum(axis=1, keepdims=True))
            C = compose(P1, P2)
            s = float(rng.random())
            for x in range(P1.input_size):
                for xp in range(P1.input_size):
                    lhs = chernoff_at(C, x, xp, s)
                    rhs = math.inf
                    for y in range(P1.output_size):
                        for yp in range(P1.output_size):
                            if P1.probs[x, y] <= 0 or P1.probs[xp, yp] <= 0:
                                continue
                            rhs = min(
                                rhs,
                                chernoff_at(P2, y, yp, s)
                                - (1 - s) * math.log(P1.probs[x, y])
                                - s * math.log(P1.probs[xp, yp]),
                            )
                    rhs -= 2 * math.log(P1.output_size)
                    assert lhs >= rhs - 1e-9

        # likelihood-ratio bound with exact enumeration
        checked = 0
        for _ in range(200):
            k = int(rng.integers(2, 7))
            p_vec = rng.dirichlet(np.ones(k))
            q_vec = rng.dirichlet(np.ones(k))
            D = make_dmc([p_vec, q_vec])
            db = bhattacharyya(D, 0, 1)
            ratio = np.where(q_vec > 0, p_vec / np.maximum(q_vec, 1e-300), math.inf)
            for L0 in (0.1, 1.0, 10.0):
                pr = float(p_vec[ratio <= L0].sum())
                if pr == 0.0:
                    continue
                assert -math.log(pr) >= db - 0.5 * math.log(L0) - 1e-12
                checked += 1
        assert checked > 100
