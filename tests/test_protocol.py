import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import peak_traced
from netexp.channel import bec, bhattacharyya, bsc, identity_channel, ksym, make_dmc, product
from netexp.errors import (
    HorizonTooShort,
    MTooLarge,
    ParameterOutOfRange,
    StateSpaceTooLarge,
)
from netexp import protocol
import protocol_oracles as oracles
from netexp.exponents import permutation_codebook, tilde_exponent
from netexp.flow import decompose, make_channel_graph, maxflow, path_edge_budgets, per_channel, weighted_network
from netexp.graphio import load_graph_file
from netexp import harness
from netexp.harness import _cell_errors
from netexp.protocol import (
    SeriesSpec,
    _codeword_table,
    _relay_states,
    build_network_plan,
    block_scores_ml,
    exact_block_distribution,
    make_series_spec,
    path_tables,
    reduce_inputs,
    run_series_blocks_batch,
)
from channel_oracles import power, restrict
from protocol_oracles import (
    NodeState,
    destination_blocks,
    logsumexp,
    min_pairwise_block_db,
    ml_error_probs,
    raw_hops,
    run_series_block,
    state_pseudometric,
    verify_transition_bound,
)

DB_BSC01 = -math.log(0.6)
GRAPHS = Path(__file__).resolve().parent.parent / "graphs"


def codeword(m, ell, B, M):
    """Protocol symbols (1..M) of state (m, ell)'s block, read from the
    engine's codeword table."""
    return tuple(int(s) + 1 for s in _codeword_table(M, B)[m - 1, ell])


def engine_hops(spec, m, n_blocks, rng, tables=None):
    """Each hop's (sender states, blocks) from the engine, tiles concatenated
    (copied as they come, since a relay hop's next tile reuses the array),
    with the source's one 0-d state repeated for every row.  Without
    ``tables`` the chain's tables are built for this batch."""
    if tables is None:
        tables = protocol.path_tables(spec, n_blocks)
    hops = {}
    for hop, state, y in protocol._hop_blocks(spec, m, n_blocks, rng, tables):
        hops.setdefault(hop, []).append((np.broadcast_to(state, len(y)).copy(), y.copy()))
    return [tuple(map(np.concatenate, zip(*hops[hop]))) for hop in sorted(hops)]


def assert_hops_equal(got, want, width):
    """Engine hops against the per-row oracle's (m_idx, ell, y) hops."""
    assert len(got) == len(want)
    for (gs, gy), (wm, we, wy) in zip(got, want):
        assert gs.dtype == wm.dtype == we.dtype
        assert np.array_equal(gs, wm * width + we)
        assert np.array_equal(gy, wy)


def relay_state(chan, B, flow_value, y):
    m_idx, ell = _relay_states(chan.base.log_probs, chan.words, B, flow_value, np.asarray([y]))
    return NodeState(m=int(m_idx[0]) + 1, ell=int(ell[0]))


@pytest.fixture(scope="module")
def reduced_bsc01_2hop():
    channels, flow_value, ell = reduce_inputs([bsc(0.1), bsc(0.1)], 2)
    return channels, flow_value, ell


class TestCodeword:
    def test_middle_state(self):
        assert codeword(2, 1, 6, 3) == (2, 2, 2, 2, 3, 3)

    def test_wraparound(self):
        assert codeword(3, 0, 4, 3) == (3, 3, 1, 1)

    def test_full_confidence(self):
        assert codeword(1, 3, 6, 4) == (1,) * 6

    def test_hamming_separation_exhaustive(self):
        # different messages: distance >= l1 + l2; same message: exactly |l1 - l2|
        for M in (2, 3, 4):
            for B in (2, 4, 6, 8, 10):
                states = [(m, l) for m in range(1, M + 1) for l in range(B // 2 + 1)]
                for m1, l1 in states:
                    w1 = codeword(m1, l1, B, M)
                    for m2, l2 in states:
                        w2 = codeword(m2, l2, B, M)
                        d_h = sum(a != b for a, b in zip(w1, w2))
                        if m1 == m2:
                            assert d_h == abs(l1 - l2)
                        else:
                            assert d_h >= l1 + l2

    def test_engine_table_matches_codeword(self):
        # the definition: B/2+ell copies of m, then B/2-ell of its successor
        for M in (2, 3, 4):
            for B in (2, 4, 6, 8, 10):
                tab = _codeword_table(M, B)
                for m in range(1, M + 1):
                    for ell in range(B // 2 + 1):
                        want = (m,) * (B // 2 + ell) + (m % M + 1,) * (B // 2 - ell)
                        assert tuple(tab[m - 1, ell] + 1) == want


class TestPseudometric:
    def test_same_message(self):
        assert state_pseudometric(NodeState(1, 2), NodeState(1, 5), 0.5) == 1.5

    def test_different_message(self):
        assert state_pseudometric(NodeState(1, 2), NodeState(2, 3), 0.5) == 2.5

    def test_zero_confidence_indistinguishable(self):
        assert state_pseudometric(NodeState(1, 0), NodeState(2, 0), 7.3) == 0.0

    def test_divergence_dominates_pseudometric(self, reduced_bsc01_2hop):
        # on reduced channels, codeword divergence >= state distance
        channels, flow_value, _ = reduced_bsc01_2hop
        Q = restrict(channels[0].base, channels[0].words)
        for B in (2, 4, 6):
            states = [(m, l) for m in (1, 2) for l in range(B // 2 + 1)]
            for m1, l1 in states:
                w1 = codeword(m1, l1, B, 2)
                for m2, l2 in states:
                    w2 = codeword(m2, l2, B, 2)
                    div = sum(bhattacharyya(Q, a - 1, b - 1) for a, b in zip(w1, w2))
                    dist = state_pseudometric(NodeState(m1, l1), NodeState(m2, l2), flow_value)
                    assert div >= dist - 1e-9

    def test_divergence_dominates_m3(self):
        channels, flow_value, _ = reduce_inputs([ksym(3, 0.1)], 3)
        Q = restrict(channels[0].base, channels[0].words)
        B = 6
        states = [(m, l) for m in (1, 2, 3) for l in range(B // 2 + 1)]
        for m1, l1 in states:
            for m2, l2 in states:
                w1, w2 = codeword(m1, l1, B, 3), codeword(m2, l2, B, 3)
                div = sum(bhattacharyya(Q, a - 1, b - 1) for a, b in zip(w1, w2))
                assert div >= state_pseudometric(NodeState(m1, l1), NodeState(m2, l2), flow_value) - 1e-9


class TestReduceInputs:
    def test_single_bsc(self, reduced_bsc01_2hop):
        channels, flow_value, ell = reduced_bsc01_2hop
        assert ell == 2
        assert channels[0].words.tolist() == [[0, 1], [1, 0]]
        assert abs(flow_value - 2 * DB_BSC01) < 1e-9
        Q = restrict(channels[0].base, channels[0].words)
        assert abs(bhattacharyya(Q, 0, 1) - 2 * DB_BSC01) < 1e-9

    def test_bottleneck_flow(self):
        _, flow_value, _ = reduce_inputs([bsc(0.1), bsc(0.2)], 2)
        assert abs(flow_value - 2 * (-math.log(0.8))) < 1e-9

    def test_ideal_channel_reduction_consistent(self):
        # a channel already having M separated inputs keeps its guarantee:
        # the reduced pairwise distance is exactly M! times the tilde exponent
        P = ksym(2, 0.1)
        channels, flow_value, ell = reduce_inputs([P], 2)
        assert ell == 2
        assert abs(flow_value - ell * DB_BSC01) < 1e-9
        assert abs(bhattacharyya(restrict(channels[0].base, channels[0].words), 0, 1) - ell * DB_BSC01) < 1e-9

    def test_m_guard(self):
        with pytest.raises(MTooLarge):
            reduce_inputs([bsc(0.1)], 5)


    def test_one_tilde_exponent_per_hop(self, monkeypatch):
        calls = []
        real = protocol.tilde_exponent

        def counted(P, M):
            calls.append(P)
            return real(P, M)

        monkeypatch.setattr(protocol, "tilde_exponent", counted)
        chans = [bsc(0.1), ksym(3, 0.05), make_dmc([[0.7, 0.2, 0.1], [0.1, 0.1, 0.8], [0.3, 0.4, 0.3]])]
        reduced, _, _ = reduce_inputs(chans, 3)
        assert calls == chans
        for P, r in zip(chans, reduced):
            assert r.base is P
            assert r.words.dtype == np.int64 and not r.words.flags.writeable
            assert r.words.tolist() == [list(w) for w in permutation_codebook(tilde_exponent(P, 3), 3)]

    def test_plan_one_tilde_exponent_per_distinct_channel(self, monkeypatch):
        # the flow weights and both hops' codebooks share one report
        calls = []
        real = protocol.tilde_exponent

        def counted(P, M):
            calls.append(P)
            return real(P, M)

        monkeypatch.setattr(protocol, "tilde_exponent", counted)
        shared = bsc(0.1)
        G = make_channel_graph(3, 0, 2, [(0, 1, shared), (1, 2, shared)])
        plan = build_network_plan(G, 2, 4)
        assert calls == [shared]
        got = plan.paths[0].spec
        want = make_series_spec([shared, shared], 2, got.B)
        # a hop's codewords are an array, so the specs compare field by field
        assert (got.M, got.B, got.flow_value) == (want.M, want.B, want.flow_value)
        for g, w in zip(got.channels, want.channels, strict=True):
            assert g.base is w.base and np.array_equal(g.words, w.words)


class TestLogsumexp:
    def test_bit_identical_to_scipy(self):
        special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(1234)
        checked = 0
        for shape in [(7,), (1,), (5, 4), (3, 1), (4, 3, 5), (2, 6, 3), (6, 2, 2, 3)]:
            for _ in range(40):
                a = rng.normal(scale=rng.choice([0.1, 3.0, 300.0]), size=shape)
                a = np.round(a, int(rng.integers(0, 3)))  # rounding makes ties common
                a[rng.random(shape) < 0.3] = -np.inf
                if a.ndim > 1 and rng.random() < 0.5:
                    a[int(rng.integers(0, shape[0]))] = -np.inf  # an all -inf row
                for arr in (a, a.T):
                    for axis in [None, *range(arr.ndim), -1]:
                        got = logsumexp(arr, axis=axis)
                        want = special.logsumexp(arr, axis=axis)
                        assert type(got) is type(want)
                        assert np.shape(got) == np.shape(want)
                        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
                        checked += 1
        assert checked > 2000


def _leading_lse_mismatches(reference):
    """Leading-axis lengths K = 2..300 at which the leading-axis log-sum-exp
    differs in any bit from ``reference`` on an array of shape (K, 3, 40),
    (K, 1), a single column, or (K, 5)."""
    rng = np.random.default_rng(77)
    bad = set()
    for K in range(2, 301):
        for trailing in ((3, 40), (1,), (5,)):
            x = rng.normal(scale=rng.choice([0.5, 3.0, 30.0]), size=(K, *trailing))
            x = np.round(x, 1)  # rounding makes ties common
            x[rng.random(x.shape) < 0.3] = -np.inf
            if trailing == (3, 40):
                x[:, 0, 0] = -np.inf  # an all -inf row
                x[:, 2, 5] = 1.5  # every entry ties at the maximum
                top = x[:, 1, 7].max()
                x[[0, K - 1], 1, 7] = top  # two ties at a row's maximum
                x[K // 2, 0, 3] = np.inf  # a row whose maximum is +inf
                x[[0, K - 1], 2, 9] = np.inf  # two +inf ties at a row's maximum
                x[1:, 1, 11] = np.inf  # +inf at every level but the first
            got = protocol._logsumexp_leading(x)
            want = reference(x)
            assert got.shape == want.shape == trailing
            if trailing == (3, 40):
                assert np.isneginf(got[0, 0])
                assert np.isposinf(got[[0, 2, 1], [3, 9, 11]]).all()
            if got.tobytes() != want.tobytes():
                bad.add(K)
    return sorted(bad)


class TestLeadingLogsumexp:
    def test_bit_identical_to_logsumexp(self):
        assert _leading_lse_mismatches(lambda x: logsumexp(x, axis=0)) == []

    def test_summation_order_is_seen(self):
        # numpy adds 8 or more terms pairwise along a contiguous last axis
        # but in sequence along a leading one, so a reference on the
        # moved-last contiguous copy must differ there, and only there
        def moved_last(x):
            return logsumexp(np.ascontiguousarray(np.moveaxis(x, 0, -1)), axis=-1)

        bad = _leading_lse_mismatches(moved_last)
        assert bad and min(bad) >= 8

    def test_uniform_message_loglik_layout(self):
        rng = np.random.default_rng(5)
        ll = rng.normal(scale=4.0, size=(9, 3, 50))
        got = protocol._uniform_message_loglik(ll)
        want = logsumexp(ll, axis=0) - math.log(9)
        assert got.shape == (3, 50)
        assert got.tobytes() == want.tobytes()


class TestStateUpdate:
    def test_noiseless_clamps_to_full_confidence(self):
        B, M = 6, 3
        chan = raw_hops([identity_channel(3)], M)[0]
        y = [s - 1 for s in codeword(2, B // 2, B, M)]
        st = relay_state(chan, B, 1.0, y)
        assert st == NodeState(2, B // 2)

    def test_equidistant_gives_zero(self):
        # all-erasure block: every codeword equally likely, ratio exactly 1
        from netexp.channel import bec

        B, M = 4, 2
        st = relay_state(raw_hops([bec(0.3)], M)[0], B, 1.0, [2, 2, 2, 2])
        assert st == NodeState(m=1, ell=0)  # tie resolved to the lowest index

    def test_golden_reduced_chain(self, reduced_bsc01_2hop):
        # frozen from the exact likelihood table of the reduced chain
        channels, flow_value, _ = reduced_bsc01_2hop
        Q = restrict(channels[0].base, channels[0].words)
        st = relay_state(raw_hops([Q], 2)[0], 4, flow_value, (1, 1, 2, 2))
        assert st == NodeState(m=1, ell=2)
        # base-granularity call agrees with the materialized channel
        st2 = relay_state(channels[0], 4, flow_value, (0, 1, 0, 1, 1, 0, 1, 0))
        assert st2 == st


class TestRunSeriesBlock:
    def test_noiseless_chain_forwards_codeword(self):
        B, M = 4, 2
        spec = SeriesSpec(
            channels=raw_hops([identity_channel(2), identity_channel(2)], M),
            M=M, B=B, flow_value=math.inf,
        )
        rng = np.random.default_rng(0)
        for m in (1, 2):
            for _ in range(5):
                t = run_series_block(spec, m, rng)
                assert t.final_block == tuple(s - 1 for s in codeword(m, B // 2, B, M))
                for hop in t.hops:
                    assert hop.state == NodeState(m, B // 2)

    def test_golden_transcript_seed0(self, reduced_bsc01_2hop):
        channels, flow_value, _ = reduced_bsc01_2hop
        spec = SeriesSpec(channels=channels, M=2, B=4, flow_value=flow_value)
        t = run_series_block(spec, 1, np.random.default_rng(0))
        assert t.dump() == (
            "hop=1 state=(1,1) sent=1111 recv=01000101\n"
            "hop=2 state=(1,1) sent=1112 recv=01000010"
        )
        assert t.final_block == (0, 1, 0, 0, 0, 0, 1, 0)

    def test_transcript_is_one_row_batch(self, reduced_bsc01_2hop):
        channels, flow_value, _ = reduced_bsc01_2hop
        spec = SeriesSpec(channels=channels, M=2, B=4, flow_value=flow_value)
        for seed in range(5):
            for m in (1, 2):
                t = run_series_block(spec, m, np.random.default_rng(seed))
                batch = destination_blocks(spec, m, 1, np.random.default_rng(seed))
                assert t.final_block == tuple(batch[0])

    def test_transcript_of_a_three_hop_chain(self):
        # two relays: each hop's record is that hop's one-row run
        spec = make_series_spec([bsc(0.2)] * 3, 2, 4)
        table = _codeword_table(2, spec.B)
        for seed in range(6):
            t = run_series_block(spec, 2, np.random.default_rng(seed))
            want = list(oracles.hop_blocks(spec, 2, 1, np.random.default_rng(seed)))
            assert len(t.hops) == 3
            for hop, (m_send, ell_send, y) in zip(t.hops, want):
                assert hop.received == tuple(y[0])
                assert hop.sent == tuple(int(s) + 1 for s in table[m_send[0], ell_send[0]])
            for hop, (m_recv, ell_recv, _) in zip(t.hops, want[1:]):
                assert hop.state == NodeState(int(m_recv[0]) + 1, int(ell_recv[0]))
            assert t.final_block == tuple(want[-1][2][0])

    def test_one_hop_matches_oracle_3sigma(self):
        # single hop, M=2: ML over single blocks vs exact enumerated error
        channels, flow_value, _ = reduce_inputs([bsc(0.1)], 2)
        spec = SeriesSpec(channels=channels, M=2, B=2, flow_value=flow_value)
        ld = exact_block_distribution(spec, update_mode="uniform")
        exact = ml_error_probs(ld)
        trials = 10**5
        rng = np.random.default_rng(123)
        for m in (1, 2):
            blocks = destination_blocks(spec, m, trials, rng)
            decisions = np.argmax(block_scores_ml(blocks, ld, path_tables(spec, 1)[-1]), axis=0) + 1
            p_hat = float(np.mean(decisions != m))
            sigma = math.sqrt(exact[m - 1] * (1 - exact[m - 1]) / trials)
            assert abs(p_hat - exact[m - 1]) <= 3 * sigma + 1e-12

    def test_empty_chain_rejected(self):
        # once accepted: the exact law then died with a bare IndexError
        with pytest.raises(ParameterOutOfRange, match="at least one hop"):
            SeriesSpec(channels=(), M=2, B=2, flow_value=1.0)

    def test_odd_block_size_rejected(self, reduced_bsc01_2hop):
        channels, flow_value, _ = reduced_bsc01_2hop
        with pytest.raises(ParameterOutOfRange, match="block size must be even"):
            SeriesSpec(channels=channels, M=2, B=3, flow_value=flow_value)

    @pytest.mark.parametrize("words", [
        np.array([[0], [1], [2]]),  # 3 codewords at M=2
        np.array([[0, 1]]),
        np.array([[0], [3]]),
        np.array([[-1], [1]]),
        np.zeros((2, 0), dtype=np.int64),
        np.array([0, 1]),
        np.array([[0.0], [1.0]]),
    ], ids=["three-words", "one-word", "symbol-past-the-inputs", "negative-symbol", "empty-words",
            "flat-words", "float-words"])
    def test_hop_codewords_are_checked(self, words):
        # M codewords of one nonzero length, whose symbols index the base
        # channel's inputs; a symbol past them once reached path_tables as a
        # bare IndexError
        hop = protocol.ReducedChannel(base=ksym(3, 0.1), words=words)
        with pytest.raises(ParameterOutOfRange, match="needs 2 int64 codewords .* channel's 3 inputs"):
            SeriesSpec(channels=(hop,), M=2, B=2, flow_value=1.0)


class TestExactBlockDistribution:
    def test_single_hop_is_power_rows(self):
        spec = SeriesSpec(channels=raw_hops([bsc(0.1)], 2), M=2, B=2, flow_value=2 * DB_BSC01)
        ld = exact_block_distribution(spec, "uniform")
        P2 = power(bsc(0.1), 2)
        assert np.allclose(np.exp(ld[0]), P2.probs[0])  # codeword (1,1)
        assert np.allclose(np.exp(ld[1]), P2.probs[3])  # codeword (2,2)

    def test_mass_sums_to_one(self, reduced_bsc01_2hop):
        channels, flow_value, _ = reduced_bsc01_2hop
        for B in (2, 4):
            for mode in ("uniform", "exact"):
                spec = SeriesSpec(channels=channels, M=2, B=B, flow_value=flow_value)
                ld = exact_block_distribution(spec, update_mode=mode)
                assert np.allclose(np.exp(ld).sum(axis=1), 1.0, atol=1e-9)

    def test_divergence_increases_with_block_size(self, reduced_bsc01_2hop):
        channels, flow_value, _ = reduced_bsc01_2hop
        for mode in ("uniform", "exact"):
            vals = []
            for B in (2, 4, 6):
                spec = SeriesSpec(channels=channels, M=2, B=B, flow_value=flow_value)
                vals.append(min_pairwise_block_db(exact_block_distribution(spec, mode)))
            assert vals[0] < vals[1] < vals[2]

    def test_state_space_guard(self):
        channels, flow_value, _ = reduce_inputs([bsc(0.1)], 3)  # 2^6 = 64 outputs
        spec = SeriesSpec(channels=channels, M=3, B=4, flow_value=flow_value)
        with pytest.raises(StateSpaceTooLarge):
            exact_block_distribution(spec, "uniform")

    def test_guard_fires_before_the_power_is_built(self):
        P = make_dmc(np.random.default_rng(5).dirichlet(np.ones(12), size=3))
        # 12 outputs at M=3: a reduced use has 12^6 outputs, and building
        # them took ~200 MB before the 12^12-block guard was read.  The
        # second hop of the bsc chain has 12^16 blocks: hop 1's 2^16-block
        # law once took 112 ms and a 30.8 MiB peak before that guard was read
        for spec in (make_series_spec([P], 3, 2), make_series_spec([bsc(0.05), P], 2, 8)):

            def run():
                with pytest.raises(StateSpaceTooLarge):
                    exact_block_distribution(spec, "uniform")

            assert peak_traced(run) < 4 * 2**20

    @pytest.mark.parametrize("mode, kernel", [("uniform", "_relay_states"),
                                              ("exact", "_states_from_loglik")])
    def test_destination_is_never_decided(self, mode, kernel, monkeypatch):
        # one decision per relay: the destination's block law needs no state
        spec = make_series_spec([bsc(0.1), bec(0.2), bsc(0.05)], 2, 2)
        calls = []
        inner = getattr(protocol, kernel)

        def counted(*args):
            calls.append(1)
            return inner(*args)

        monkeypatch.setattr(protocol, kernel, counted)
        exact_block_distribution(spec, mode)
        assert len(calls) == 2

    def test_exact_law_memory(self):
        # two bsc(0.05) hops at M=2, B=8: 4**8 blocks a hop.  Byte-wide
        # blocks and likelihoods built in place peak at 35.6 MiB; int64
        # blocks and fresh prefix, suffix and exp arrays peaked at 53.5 MiB
        spec = make_series_spec([bsc(0.05), bsc(0.05)], 2, 8)
        assert peak_traced(lambda: exact_block_distribution(spec, "uniform")) < 44 * 2**20

    @pytest.mark.parametrize(
        "P, M, B",
        [
            pytest.param(bsc(0.05), 2, 2, id="2"),
            pytest.param(bsc(0.05), 2, 4, id="4"),
            pytest.param(bsc(0.05), 2, 6, id="6"),
            # here a log of the restriction's product rows would decide 4515
            # of the 531441 blocks differently from the sampler's sums of logs
            pytest.param(ksym(3, 0.05), 3, 2, id="ksym3-M3-2"),
        ],
    )
    def test_exact_law_relays_like_the_sampler(self, P, M, B):
        # The occupancies the sampler's relay decisions give on every block
        # are the law's, float for float.
        spec = make_series_spec([P, P], M, B)
        occupancies, laws = oracles.restriction_trace(spec, "uniform")
        n_states = spec.M * (B // 2 + 1)
        for j, chan in enumerate(spec.channels):
            base, words = chan.base, chan.words
            # raw blocks in the law's block order (row-major digits)
            y = protocol._enumerate_blocks(base.output_size, B * words.shape[1])
            m_idx, ell = _relay_states(base.log_probs, words, B, spec.flow_value, y)
            occ = np.stack([np.bincount(m_idx * (B // 2 + 1) + ell, weights=np.exp(laws[j][m]),
                                        minlength=n_states) for m in range(spec.M)])
            assert np.array_equal(occ, occupancies[j + 1])

    def test_monte_carlo_total_variation(self, reduced_bsc01_2hop):
        channels, flow_value, _ = reduced_bsc01_2hop
        spec = SeriesSpec(channels=channels, M=2, B=2, flow_value=flow_value)
        ld = exact_block_distribution(spec, update_mode="uniform")
        trials = 2 * 10**5
        from netexp.protocol import _encode_blocks

        rng = np.random.default_rng(9)
        for m in (1, 2):
            blocks = destination_blocks(spec, m, trials, rng)
            idx = _encode_blocks(blocks, path_tables(spec, 1)[-1].out)
            emp = np.bincount(idx, minlength=ld.shape[1]) / trials
            tv = 0.5 * np.abs(emp - np.exp(ld[m - 1])).sum()
            assert tv < 5e-3


def _dirichlet_dmc(rng, n_in, n_out):
    """A random ``make_dmc`` channel with structural zeros in some rows."""
    mat = rng.dirichlet(np.ones(n_out), size=n_in)
    mat[rng.random(mat.shape) < 0.2] = 0.0
    mat[np.arange(n_in), rng.integers(0, n_out, n_in)] += 0.05  # no all-zero row
    return make_dmc(mat / mat.sum(axis=1, keepdims=True))


class TestRestrictionLaw:
    """The law builds each hop's product rows in place, as ``np.kron`` and
    ``make_dmc`` would: its rows are the log rows of the materialized
    restriction ``restrict(base, words)``, and the law is the one built from
    that restriction, byte for byte."""

    def test_rows_equal_the_restriction(self):
        rng = np.random.default_rng(26)
        channels = [bsc(0.1), bsc(0.37), bec(0.2), bec(0.6), ksym(3, 0.05), ksym(3, 0.3)]
        channels += [_dirichlet_dmc(rng, int(rng.integers(3, 6)), int(rng.integers(2, 6)))
                     for _ in range(60)]
        renormalized = 0
        for P in channels:
            for M in (2, 3):
                cases = [reduce_inputs([P], M)[0][0].words]
                cases += [rng.integers(0, P.input_size, (M, ell)) for ell in (1, 2, 3)]
                if M <= P.input_size:
                    ident = np.arange(M)[:, None]
                    cases.append(ident)
                    renormalized += not np.array_equal(restrict(P, ident).log_probs, P.log_probs[:M])
                for words in cases:
                    got = protocol._product_logs(P.probs, words)
                    want = restrict(P, words).log_probs
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes()
        # make_dmc's division moves last bits of rows that were already
        # normalized, so a one-symbol hop's rows are not its base logs
        assert renormalized > 0

    @pytest.mark.parametrize("mode", ["uniform", "exact"])
    @pytest.mark.parametrize("channels, M, B", [
        pytest.param([bsc(0.1), bsc(0.2)], 2, 4, id="bsc-M2"),
        pytest.param([bsc(0.1), bsc(0.05)], 3, 2, id="bsc-M3"),
        pytest.param([bec(0.2), bec(0.3)], 2, 4, id="bec-M2"),
        pytest.param([ksym(3, 0.05), ksym(3, 0.1)], 2, 2, id="ksym3-M2"),
        pytest.param([_dirichlet_dmc(np.random.default_rng(3), 4, 3), bsc(0.1)], 2, 4, id="dirichlet-M2"),
        pytest.param([_dirichlet_dmc(np.random.default_rng(4), 3, 2)] * 2, 3, 2, id="dirichlet-M3"),
        pytest.param([bsc(0.1), bec(0.2), bsc(0.05)], 2, 4, id="mixed-3-hop-M2"),
    ])
    def test_law_equals_the_restriction_law(self, channels, M, B, mode):
        spec = make_series_spec(channels, M, B)
        got = exact_block_distribution(spec, mode)
        want = oracles.restriction_law(spec, mode)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        # every prefix of the chain, so each relay hop's law is pinned too
        laws = oracles.restriction_trace(spec, mode)[1]
        for j in range(len(spec.channels)):
            prefix = dataclasses.replace(spec, channels=spec.channels[: j + 1])
            got = exact_block_distribution(prefix, mode)
            assert got.shape == laws[j].shape
            assert got.tobytes() == laws[j].tobytes()


class TestTransitionBounds:
    def test_source_node_point_mass(self, reduced_bsc01_2hop):
        channels, flow_value, _ = reduced_bsc01_2hop
        spec = SeriesSpec(channels=channels, M=2, B=4, flow_value=flow_value)
        occupancies, _ = oracles.restriction_trace(spec, update_mode="exact")
        half = 2
        for m_idx in range(2):
            occ = occupancies[0][m_idx]
            assert occ[m_idx * (half + 1) + half] == 1.0
            assert occ.sum() == 1.0

    def test_two_hop_inequalities_hold(self, reduced_bsc01_2hop):
        channels, flow_value, _ = reduced_bsc01_2hop
        for B in (2, 4):
            spec = SeriesSpec(channels=channels, M=2, B=B, flow_value=flow_value)
            rep = verify_transition_bound(spec)
            assert rep.all_hold
            assert rep.min_slack_occupancy >= -1e-9
            assert rep.min_slack_divergence >= -1e-9

    def test_noiseless_chain_vacuous(self):
        spec = SeriesSpec(
            channels=raw_hops([identity_channel(2), identity_channel(2)], 2),
            M=2, B=4, flow_value=math.inf,
        )
        rep = verify_transition_bound(spec)
        assert rep.all_hold


class TestNetworkProtocol:
    def test_single_path_reduces_to_series(self):
        G = make_channel_graph(3, 0, 2, [(0, 1, bsc(0.1)), (1, 2, bsc(0.1))])
        plan = build_network_plan(G, 2, 8)
        assert len(plan.paths) == 1
        assert plan.window == 8
        p = plan.paths[0]
        assert p.spec.B == 4  # floor(8 / 2!) kept even
        assert plan.blocks_per_path(40) == [40 // 8 - 2]
        blocks = destination_blocks(p.spec, 1, 3, np.random.default_rng(0))
        assert blocks.shape == (3, 8)

    def test_diamond_two_independent_paths(self):
        G = make_channel_graph(
            4, 0, 3,
            [(0, 1, bsc(0.1)), (1, 3, bsc(0.1)), (0, 2, bsc(0.2)), (2, 3, bsc(0.2))],
        )
        plan = build_network_plan(G, 2, 4)
        assert len(plan.paths) == 2
        assert len(plan.blocks_per_path(16)) == 2
        # both decoders aggregate the two paths' blocks
        dists = [exact_block_distribution(p.spec, "uniform") for p in plan.paths]
        tables = [protocol.path_tables(p.spec, 50) for p in plan.paths]
        for decoder in ("exact", "heuristic"):
            assert 0 <= _cell_errors(plan, tables, dists, decoder, 16, 2, 50, 5, 0) <= 50

    def test_horizon_too_short(self):
        G = make_channel_graph(3, 0, 2, [(0, 1, bsc(0.1)), (1, 2, bsc(0.1))])
        plan = build_network_plan(G, 2, 4)
        with pytest.raises(HorizonTooShort):
            plan.blocks_per_path(8)

    def test_pipelining_audit(self):
        # per-edge raw channel uses over the horizon never exceed n; path i
        # is the tilde flow's decomposition path i, and each reduced use
        # spends M! raw uses
        from netexp.harness import counterexample_graph

        cases = [
            (make_channel_graph(3, 0, 2, [(0, 1, bsc(0.1)), (1, 2, bsc(0.1))]), 2, (8, 12)),
            (make_channel_graph(
                3, 0, 2, [(0, 1, bsc(0.1)), (0, 1, bsc(0.12)), (1, 2, bsc(0.05))]
            ), 2, (8, 12)),
            (counterexample_graph(0.01), 3, (12, 24)),
        ]
        for G, M, blocks in cases:
            net = weighted_network(G, per_channel(G, lambda P: tilde_exponent(P, M).value))
            paths = decompose(net, maxflow(net))
            for B in blocks:
                plan = build_network_plan(G, M, B)
                assert [p.edge_ids for p in plan.paths] == [p.edge_ids for p in paths]
                budgets, _ = path_edge_budgets(paths, B)
                raw = [p.spec.B * math.factorial(M) for p in plan.paths]
                n = 6 * plan.window
                counts = plan.blocks_per_path(n)
                usage = {}
                for p, t, r in zip(plan.paths, counts, raw):
                    for eid in p.edge_ids:
                        usage[eid] = usage.get(eid, 0) + t * r
                assert all(v <= n for v in usage.values())
                # per-window budgets respected too
                for i, (p, r) in enumerate(zip(plan.paths, raw)):
                    for eid in p.edge_ids:
                        assert r <= budgets[(i, eid)]

    def test_counterexample_topology_schedule(self):
        # the four-node graph decomposes into its two finite-capacity routes,
        # 1->2->4 (edges 0, 3) and 1->3->4 (edges 1, 4); every split budget
        # is honored inside each window
        from netexp.harness import counterexample_graph

        plan = build_network_plan(counterexample_graph(0.01), 3, 12)
        assert sorted(p.edge_ids for p in plan.paths) == [(0, 3), (1, 4)]
        counts = plan.blocks_per_path(5 * plan.window)
        rng = np.random.default_rng(2)
        for p, t in zip(plan.paths, counts):
            assert t == 5 - len(p.edge_ids)
            assert destination_blocks(p.spec, 3, t, rng).shape[0] == t

    def test_block_budget_too_small(self):
        from netexp.errors import BTooSmall

        G = make_channel_graph(
            4, 0, 3,
            [(0, 1, bsc(0.1)), (1, 3, bsc(0.1)), (0, 2, bsc(0.2)), (2, 3, bsc(0.2))],
        )
        with pytest.raises(BTooSmall):
            build_network_plan(G, 2, 2)  # 2 uses per window < 2 * M!

    def test_fewer_uses_than_paths(self):
        from netexp.errors import BTooSmall

        G = make_channel_graph(2, 0, 1, [(0, 1, bsc(0.1)), (0, 1, bsc(0.2)), (0, 1, bsc(0.3))])
        with pytest.raises(BTooSmall, match="number of paths"):
            build_network_plan(G, 2, 2)

    def test_fresh_state_every_block(self):
        # blocks at different indices come from disjoint substreams and
        # restart from full confidence; identical substream -> identical block
        channels, flow_value, _ = reduce_inputs([bsc(0.1), bsc(0.1)], 2)
        spec = SeriesSpec(channels=channels, M=2, B=2, flow_value=flow_value)

        def stream(b):
            ss = np.random.SeedSequence(entropy=3, spawn_key=(0, 1, 0, b))
            return np.random.Generator(np.random.PCG64(ss))

        a = destination_blocks(spec, 1, 500, stream(0))
        b = destination_blocks(spec, 1, 500, stream(0))
        c = destination_blocks(spec, 1, 500, stream(1))
        assert (a == b).all()
        assert (a != c).any()

    def test_same_rng_reproducible(self):
        G = make_channel_graph(3, 0, 2, [(0, 1, bsc(0.1)), (1, 2, bsc(0.1))])
        plan = build_network_plan(G, 2, 4)
        tables = [protocol.path_tables(p.spec, 2000) for p in plan.paths]
        counts = [_cell_errors(plan, tables, None, "heuristic", 20, 1, 2000, 77, 0)
                  for _ in range(2)]
        assert counts[0] == counts[1]


class TestDecoders:
    def test_noiseless_always_correct(self):
        G = make_channel_graph(
            3, 0, 2, [(0, 1, identity_channel(2)), (1, 2, identity_channel(2))]
        )
        plan = build_network_plan(G, 2, 4)
        dists = [exact_block_distribution(p.spec, "uniform") for p in plan.paths]
        tables = [protocol.path_tables(p.spec, 5) for p in plan.paths]
        for m in (1, 2):
            for decoder in ("exact", "heuristic"):
                assert _cell_errors(plan, tables, dists, decoder, 24, m, 5, 1, 0) == 0

    def test_single_hop_ml_agrees_with_pairwise_test(self):
        # exhaustive over all B=2 blocks of the reduced single-hop channel
        channels, flow_value, _ = reduce_inputs([bsc(0.1)], 2)
        spec = SeriesSpec(channels=channels, M=2, B=2, flow_value=flow_value)
        ld = exact_block_distribution(spec, "uniform")
        Q = restrict(channels[0].base, channels[0].words)
        w1 = [s - 1 for s in codeword(1, 1, 2, 2)]
        w2 = [s - 1 for s in codeword(2, 1, 2, 2)]
        for y0 in range(4):
            for y1 in range(4):
                idx = y0 * 4 + y1
                direct = 1 if (
                    Q.log_probs[w1[0], y0] + Q.log_probs[w1[1], y1]
                    >= Q.log_probs[w2[0], y0] + Q.log_probs[w2[1], y1]
                ) else 2
                scores = ld[:, idx]
                ml = int(np.argmax(scores)) + 1
                assert ml == direct

    def test_heuristic_no_better_than_ml(self):
        # paired trials on the tiny instance: heuristic error >= exact-ML error
        channels, flow_value, _ = reduce_inputs([bsc(0.1), bsc(0.1)], 2)
        spec = SeriesSpec(channels=channels, M=2, B=2, flow_value=flow_value)
        ld = exact_block_distribution(spec, "uniform")
        trials = 10**5
        err_ml = err_h = 0
        for m in (1, 2):
            rng = np.random.default_rng(40 + m)
            blocks = destination_blocks(spec, m, trials, rng)
            s_ml = block_scores_ml(blocks, ld, path_tables(spec, 1)[-1])
            from netexp.protocol import block_scores_heuristic

            s_h = block_scores_heuristic(blocks, protocol.path_tables(spec, trials)[-1], 2)
            err_ml += int(np.count_nonzero(np.argmax(s_ml, axis=0) + 1 != m))
            err_h += int(np.count_nonzero(np.argmax(s_h, axis=0) + 1 != m))
        assert err_h >= err_ml

    def test_two_hop_empirical_matches_enumerated(self):
        channels, flow_value, _ = reduce_inputs([bsc(0.1), bsc(0.1)], 2)
        spec = SeriesSpec(channels=channels, M=2, B=2, flow_value=flow_value)
        ld = exact_block_distribution(spec, update_mode="uniform")
        exact = ml_error_probs(ld)
        trials = 2 * 10**5
        for m in (1, 2):
            rng = np.random.default_rng(800 + m)
            blocks = destination_blocks(spec, m, trials, rng)
            decisions = np.argmax(block_scores_ml(blocks, ld, path_tables(spec, 1)[-1]), axis=0) + 1
            p_hat = float(np.mean(decisions != m))
            sigma = math.sqrt(exact[m - 1] * (1 - exact[m - 1]) / trials)
            assert abs(p_hat - exact[m - 1]) <= 3 * sigma + 1e-12


class TestTranscriptFormat:
    def test_dump_line_shape(self, reduced_bsc01_2hop):
        channels, flow_value, _ = reduced_bsc01_2hop
        spec = SeriesSpec(channels=channels, M=2, B=4, flow_value=flow_value)
        t = run_series_block(spec, 2, np.random.default_rng(4))
        lines = t.dump().splitlines()
        assert len(lines) == 2
        for j, line in enumerate(lines, start=1):
            assert line.startswith(f"hop={j} state=(")
            assert " sent=" in line and " recv=" in line


class TestMakeSeriesSpec:
    def test_wraps_reduction(self):
        spec = make_series_spec([bsc(0.1), bsc(0.2)], 2, 6)
        assert spec.B == 6 and spec.M == 2
        assert abs(spec.flow_value - 2 * (-math.log(0.8))) < 1e-9


class _FixedDraws:
    """Stands in for a generator: ``random`` hands back prepared uniforms."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None, out=None):
        if out is None:
            assert size == self.u.shape
            return self.u
        assert out.shape == self.u.shape
        out[...] = self.u
        return out


def sample(thr, state, rng, rows=None):
    """The engine's sampler on fresh output and scratch arrays, its output
    in the channel's narrow symbol dtype; ``rows`` gives the row count when
    one ``state`` serves every row."""
    n, L = len(state) if rows is None else rows, thr.shape[2]
    y = np.empty((n, L), protocol._symbol_dtype(thr.shape[0] + 1))
    return protocol._sample_symbols(thr, state, rng, y, np.empty((2, n, L)))


def _kernel_channel(rng, n_in, n_out):
    """Random transition rows with structural zeros, kept exactly as drawn
    (no renormalization), so some rows' cumulative sums end below 1.0."""
    mat = rng.random((n_in, n_out))
    mat[rng.random((n_in, n_out)) < 0.3] = 0.0
    for row in mat:
        if row.sum() == 0:
            row[int(rng.integers(0, n_out))] = 1.0
    return mat / mat.sum(axis=1, keepdims=True)


class TestTableKernels:
    """The table-driven kernels equal the direct per-input and per-symbol
    loops of ``tests/protocol_oracles.py`` bit for bit."""

    CASES = [(M, ell, B) for M in (2, 3, 4) for ell in (1, 2, 6, 24) for B in (2, 4, 8, 48)]

    def test_sampler_matches_searchsorted(self):
        rng = np.random.default_rng(11)
        short_rows = 0
        for M, ell, B in self.CASES:
            n_out = int(rng.integers(2, 6))
            n_in = int(rng.integers(M, M + 3))
            probs = _kernel_channel(rng, n_in, n_out)
            short_rows += int((np.cumsum(probs, axis=1)[:, -1] < 1.0).sum())
            words = rng.integers(0, n_in, (M, ell))
            N = int(rng.integers(1, 40))
            m_idx = rng.integers(0, M, N)
            lvl = rng.integers(0, B // 2 + 1, N)
            u = rng.random((N, B * ell))
            # draws at and beyond every cumulative sum, up to just below 1.0
            cums = np.cumsum(probs, axis=1)
            u.flat[: n_in * n_out] = cums.ravel()[: u.size]
            u.flat[-1] = np.nextafter(1.0, 0.0)
            x = words[_codeword_table(M, B)[m_idx, lvl]].reshape(N, -1)
            want = oracles.sample_symbols(probs, x, _FixedDraws(u))
            thr = protocol._sampling_thresholds(probs, words, B)
            got = sample(thr, m_idx * (B // 2 + 1) + lvl, _FixedDraws(u))
            assert got.dtype == np.uint8
            assert np.array_equal(got, want), (M, ell, B)
        assert short_rows > 0

    def test_sampler_clamps_past_a_short_cumsum(self):
        # this row's cumulative sum ends at 0.9999999999999999: a draw there
        # counts every threshold, and the clamp keeps the last output
        probs = np.array([[0.7, 0.2, 0.1], [0.0, 0.5, 0.5]])
        assert np.cumsum(probs[0])[-1] < 1.0
        words = np.array([[0], [1]])
        state = np.array([0, 1, 2, 3])
        u = np.full((4, 2), np.nextafter(1.0, 0.0))
        u[1, 0] = 0.7
        x = words[_codeword_table(2, 2).reshape(4, 2)[state]].reshape(4, -1)
        want = oracles.sample_symbols(probs, x, _FixedDraws(u))
        thr = protocol._sampling_thresholds(probs, words, 2)
        got = sample(thr, state, _FixedDraws(u))
        assert np.array_equal(got, want)
        assert want[0, 0] == 2 and want[1, 0] == 1

    def test_sampler_consumes_the_same_stream(self):
        probs = _kernel_channel(np.random.default_rng(3), 4, 3)
        words = np.array([[0, 1], [2, 3], [1, 0]])
        state = np.array([0, 4, 7, 2, 5])
        thr = protocol._sampling_thresholds(probs, words, 4)
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        x = words[_codeword_table(3, 4).reshape(9, 4)[state]].reshape(5, -1)
        assert np.array_equal(sample(thr, state, rng_a),
                              oracles.sample_symbols(probs, x, rng_b))
        assert rng_a.random() == rng_b.random()

    @pytest.mark.parametrize("n_out", [1, 5])
    def test_sampler_output_counts(self, n_out):
        # one output: no thresholds, every draw maps to output 0; five
        # outputs: four thresholds counted onto the first comparison
        probs = _kernel_channel(np.random.default_rng(n_out), 3, n_out)
        words = np.array([[0, 2], [1, 0]])
        state = np.array([0, 1, 2, 3, 4, 5, 3, 0])
        thr = protocol._sampling_thresholds(probs, words, 4)
        assert thr.shape[0] == n_out - 1
        rng_a, rng_b = np.random.default_rng(21), np.random.default_rng(21)
        x = words[_codeword_table(2, 4).reshape(6, 4)[state]].reshape(8, -1)
        got = sample(thr, state, rng_a)
        want = oracles.sample_symbols(probs, x, rng_b)
        assert got.dtype == np.uint8 and want.dtype == np.int64
        assert np.array_equal(got, want)
        assert rng_a.random() == rng_b.random()
        if n_out == 1:
            assert not got.any()
        else:
            assert len(np.unique(got)) > 2

    def test_symbol_and_state_logliks(self):
        rng = np.random.default_rng(12)
        neg_inf = 0
        for M, ell, B in self.CASES:
            n_out = int(rng.integers(2, 6))
            n_in = int(rng.integers(M, M + 3))
            with np.errstate(divide="ignore"):
                logp = np.log(_kernel_channel(rng, n_in, n_out))
            words = rng.integers(0, n_in, (M, ell))
            for N in (1, 7):
                y = rng.integers(0, n_out, (N, B * ell))
                want = oracles.symbol_logliks(logp, words, y, B)
                got = protocol._symbol_logliks(logp, words, y, B)
                assert np.array_equal(got, want), (M, ell, B, N)
                neg_inf += int(np.isneginf(want).sum())
                # the engine keeps the confidence level leading: ll[ell, m, n]
                ll_want = oracles.state_logliks(want, B).transpose(2, 1, 0)
                assert np.array_equal(protocol._state_logliks(got, B), ll_want)
                assert np.array_equal(protocol._state_logliks(want, B), ll_want)
        assert neg_inf > 0

    def test_exact_law_and_decoder_paths(self):
        # the exact law reads ell=1 words over the whole block alphabet; the
        # heuristic decoder reads the reduced codewords
        spec = make_series_spec([bsc(0.1), make_dmc([[0.7, 0.3, 0.0], [0.0, 0.2, 0.8]])], 2, 4)
        Q = restrict(spec.channels[1].base, spec.channels[1].words)
        blocks = protocol._enumerate_blocks(Q.output_size, 4)
        ident = np.arange(2, dtype=np.int64)[:, None]
        la = protocol._symbol_logliks(Q.log_probs, ident, blocks, 4)
        assert np.array_equal(la, oracles.symbol_logliks(Q.log_probs, ident, blocks, 4))
        base, words = spec.channels[1].base, spec.channels[1].words
        y = destination_blocks(spec, 2, 300, np.random.default_rng(4))
        want = oracles.state_logliks(oracles.symbol_logliks(base.log_probs, words, y, 4), 4)
        assert np.array_equal(
            protocol.block_scores_heuristic(y, protocol.path_tables(spec, 300)[1], 4), want.max(axis=2).T
        )

    @pytest.mark.parametrize(
        "spec",
        [
            make_series_spec([bsc(0.05)] * 3, 2, 2),  # the golden hop: 2^4 blocks
            SeriesSpec(channels=raw_hops([bsc(0.05)] * 3, 2), M=2, B=4, flow_value=0.8),
            # zero entries: -inf likelihoods in every table row
            SeriesSpec(channels=raw_hops([bec(0.3)] * 3, 2), M=2, B=4, flow_value=0.35),
            SeriesSpec(channels=raw_hops([ksym(3, 0.05)] * 3, 3), M=3, B=4, flow_value=0.9),
        ],
        ids=["bsc-reduced", "bsc", "bec", "ksym3-M3"],
    )
    def test_relay_table_equals_direct_decisions(self, spec, monkeypatch):
        # Each relay reads its state from a table of every possible block
        # once out**L <= n_blocks; below that it decides each row itself.
        # States and every hop's blocks equal the per-row engine's.
        base, words = spec.channels[0].base, spec.channels[0].words
        K = base.output_size ** (spec.B * words.shape[1])
        decided = []  # rows each relay decision decides: a batch or a table
        relay_states = protocol._relay_states

        def spy(base_logp, words, B, flow_value, y, chunk=None):
            decided.append(len(y))
            return relay_states(base_logp, words, B, flow_value, y, chunk)

        monkeypatch.setattr(protocol, "_relay_states", spy)
        for n in (K - 1, K, 4 * K):
            for m in range(1, spec.M + 1):
                decided.clear()
                got = engine_hops(spec, m, n, np.random.default_rng(n + m))
                want = list(oracles.hop_blocks(spec, m, n, np.random.default_rng(n + m)))
                assert decided == ([n, n] if n < K else [K, K])
                assert len(got) == 3
                assert_hops_equal(got, want, spec.B // 2 + 1)

    @pytest.mark.parametrize(
        "spec",
        [
            make_series_spec([bsc(0.05)] * 3, 2, 2),
            SeriesSpec(channels=raw_hops([bec(0.3)] * 3, 2), M=2, B=4, flow_value=0.35),
            SeriesSpec(channels=raw_hops([ksym(3, 0.05)] * 3, 3), M=3, B=4, flow_value=0.9),
        ],
        ids=["bsc-reduced", "bec", "ksym3-M3"],
    )
    def test_keyed_path_serves_every_smaller_batch(self, spec, monkeypatch):
        # tables decided once for 4*out**L rows serve batches of out**L-1,
        # out**L and 4*out**L rows with no per-row decision, and every hop's
        # states and blocks equal the per-row engine's
        base, words = spec.channels[0].base, spec.channels[0].words
        K = base.output_size ** (spec.B * words.shape[1])
        tables = protocol.path_tables(spec, 4 * K)
        assert [t.next_state is None for t in tables] == [False, False, True]

        def no_row_decisions(*args):
            raise AssertionError("a keyed relay decided rows directly")

        monkeypatch.setattr(protocol, "_relay_states", no_row_decisions)
        for n in (K - 1, K, 4 * K):
            for m in range(1, spec.M + 1):
                got = engine_hops(spec, m, n, np.random.default_rng(n + m), tables)
                want = list(oracles.hop_blocks(spec, m, n, np.random.default_rng(n + m)))
                assert len(got) == 3
                assert_hops_equal(got, want, spec.B // 2 + 1)

    def test_one_output_channel_with_long_blocks(self):
        # 1**L <= n_blocks for any L: the relay table has one row, and
        # enumerating it must not build an L-dimensional index
        spec = SeriesSpec(channels=raw_hops([make_dmc([[1.0], [1.0]])] * 2, 2), M=2, B=70, flow_value=1.0)
        hops = engine_hops(spec, 2, 5, np.random.default_rng(0))
        assert hops[1][1].shape == (5, 70) and not hops[1][1].any()
        assert not hops[1][0].any()  # no evidence: state 0 is (1, 0)
        occupancies, _ = oracles.restriction_trace(spec, "uniform")
        assert occupancies[-1][:, 0].tolist() == [1.0, 1.0]


class TestRowTiles:
    """A batch runs each hop in row tiles of at most ``_TILE_ELEMS`` raw
    symbols; the tiles together equal the per-row oracles' one-piece runs."""

    SPECS = [
        pytest.param(SeriesSpec(channels=raw_hops([bsc(0.05)] * 3, 2), M=2, B=4, flow_value=0.8), id="bsc"),
        pytest.param(SeriesSpec(channels=raw_hops([bec(0.3)] * 3, 2), M=2, B=4, flow_value=0.35), id="bec"),
        pytest.param(SeriesSpec(channels=raw_hops([ksym(3, 0.05)] * 3, 3), M=3, B=4, flow_value=0.9), id="ksym3"),
        pytest.param(make_series_spec([bsc(0.1)] * 3, 3, 2), id="reduced-M3"),
    ]

    @pytest.mark.parametrize("keyed", [True, False], ids=["keyed", "direct"])
    @pytest.mark.parametrize("tile_rows", [7, 1])
    @pytest.mark.parametrize("spec", SPECS)
    def test_tiles_equal_the_one_piece_run(self, spec, tile_rows, keyed, monkeypatch):
        base, words = spec.channels[0].base, spec.channels[0].words
        L = spec.B * words.shape[1]
        K = base.output_size**L
        tables = protocol.path_tables(spec, K if keyed else K - 1)
        assert [t.next_state is not None for t in tables] == [keyed, keyed, False]
        monkeypatch.setattr(protocol, "_TILE_ELEMS", tile_rows * L)
        n = 5 * tile_rows + 3  # a ragged last tile
        sizes = [tile_rows] * (n // tile_rows) + [n % tile_rows] * (n % tile_rows > 0)
        decided = []  # rows of each direct relay decision
        relay_states = protocol._relay_states

        def spy(base_logp, words, B, flow_value, y, chunk=None):
            decided.append(len(y))
            return relay_states(base_logp, words, B, flow_value, y, chunk)

        monkeypatch.setattr(protocol, "_relay_states", spy)
        for m in range(1, spec.M + 1):
            tiles = {}
            for hop, state, y in protocol._hop_blocks(spec, m, n, np.random.default_rng(m), tables):
                # states as stored: the source's one 0-d state, a relay's rows
                assert state.shape == (() if hop == 0 else (len(y),))
                tiles.setdefault(hop, []).append(len(y))
            assert tiles == {0: sizes, 1: sizes, 2: sizes}
            decided.clear()
            rng, rng_want = np.random.default_rng(m), np.random.default_rng(m)
            got = engine_hops(spec, m, n, rng, tables)
            assert decided == ([] if keyed else sizes * 2)
            want = list(oracles.hop_blocks(spec, m, n, rng_want))
            assert_hops_equal(got, want, spec.B // 2 + 1)
            assert rng.random() == rng_want.random()  # the same draws, no more
            rng = np.random.default_rng(m)
            batch = run_series_blocks_batch(spec, m, n, rng, tables)
            assert [len(y) for y in batch] == sizes
            assert np.array_equal(np.concatenate(batch), want[-1][2])

    @pytest.mark.parametrize("graph, M, B, decoder", [
        pytest.param(make_channel_graph(3, 0, 2, [(0, 1, bsc(0.1)), (1, 2, bsc(0.1))]),
                     2, 4, "exact", id="bsc-keyed-exact"),
        pytest.param(make_channel_graph(3, 0, 2, [(0, 1, bsc(0.1)), (1, 2, bsc(0.1))]),
                     2, 8, "heuristic", id="bsc-direct-heuristic"),
        pytest.param(make_channel_graph(3, 0, 2, [(0, 1, bec(0.3)), (1, 2, bec(0.3))]),
                     2, 4, "exact", id="bec-direct-exact"),
        pytest.param(make_channel_graph(3, 0, 2, [(0, 1, ksym(3, 0.1)), (1, 2, ksym(3, 0.1))]),
                     3, 12, "heuristic", id="ksym3-reduced-M3-heuristic"),
        pytest.param(make_channel_graph(4, 0, 3, [(0, 1, bsc(0.1)), (1, 3, bsc(0.1)),
                                                  (0, 2, bsc(0.2)), (2, 3, bsc(0.2))]),
                     3, 12, "heuristic", id="diamond-M3-heuristic"),
    ])
    @pytest.mark.parametrize("tile_elems", [40, 1], ids=["ragged", "one-row"])
    def test_cell_errors_equal_the_oracle(self, monkeypatch, graph, M, B, decoder, tile_elems):
        # chunks of 64 trials, tiles of 40 // L rows (or one row) inside them
        monkeypatch.setattr(harness, "_TRIAL_CHUNK", 64)
        monkeypatch.setattr(protocol, "_TILE_ELEMS", tile_elems)
        plan = build_network_plan(graph, M, B)
        dists = [exact_block_distribution(p.spec, "uniform") for p in plan.paths] if decoder == "exact" else None
        tables = [protocol.path_tables(p.spec, harness._TRIAL_CHUNK) for p in plan.paths]
        n = 4 * plan.window
        got = [_cell_errors(plan, tables, dists, decoder, n, m, 150, 5, 1) for m in range(1, M + 1)]
        want = [oracles.cell_errors(plan, dists, decoder, n, m, 150, 5, 1, chunk_size=64)
                for m in range(1, M + 1)]
        assert got == want
        assert sum(got) > 0

    def test_sampler_broadcasts_one_state(self):
        # the source's one state for every row samples as the per-row states
        probs = _kernel_channel(np.random.default_rng(8), 3, 4)
        thr = protocol._sampling_thresholds(probs, np.array([[0, 2], [1, 0]]), 4)
        for s in range(6):
            got = sample(thr, np.array(s), np.random.default_rng(s), rows=9)
            want = sample(thr, np.full(9, s), np.random.default_rng(s))
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n_out", [2, 3, 5], ids=["1-threshold", "2-thresholds", "4-thresholds"])
    def test_source_hop_equals_the_oracle(self, n_out, monkeypatch):
        # the source's one state is gathered for a run of 1024 // L = 128
        # rows and compared with the draws a run at a time, then with the
        # rest of the tile; tiles of 300 rows leave a ragged last tile
        probs = _kernel_channel(np.random.default_rng(n_out), 3, n_out)
        spec = SeriesSpec(channels=raw_hops([make_dmc(probs)], 3), M=3, B=8, flow_value=1.0)
        monkeypatch.setattr(protocol, "_TILE_ELEMS", 300 * 8)
        seen = set()
        for n in (1, 127, 128, 261, 1000):
            for m in (1, 2, 3):
                rng, rng_want = np.random.default_rng(n + m), np.random.default_rng(n + m)
                got = engine_hops(spec, m, n, rng)
                want = list(oracles.hop_blocks(spec, m, n, rng_want))
                assert_hops_equal(got, want, spec.B // 2 + 1)
                assert rng.random() == rng_want.random()  # the same draws, no more
                seen |= set(got[0][1].ravel().tolist())
        assert seen == set(np.flatnonzero(probs.any(axis=0)).tolist())

    def test_decoder_reads_the_stored_chunk_table(self):
        # the final hop's chunk table is built once for 2730-row tiles
        # (g = 6 digits of a 6-digit chunk); a fresh build for the ragged
        # 3-row last tile tables only g = 4 digits.  The scores are the same
        # bits either way
        plan = build_network_plan(load_graph_file(str(GRAPHS / "diamond.json")).graph, 3, 48)
        spec = plan.paths[0].spec
        n = 2 * 2730 + 3
        tables = protocol.path_tables(spec, n)
        base, words = spec.channels[-1].base, spec.channels[-1].words
        assert tables[-1].chunk[1] == 6
        assert protocol._chunk_table(base.log_probs, words, 3 * spec.B)[1] == 4
        sizes = []
        for blocks in run_series_blocks_batch(spec, 2, n, np.random.default_rng(3), tables):
            got = protocol.block_scores_heuristic(blocks, tables[-1], spec.B)
            want = oracles.heuristic_scores(blocks, spec.channels[-1], spec.B)
            assert got.dtype == want.dtype and got.shape == want.shape == (3, len(blocks))
            assert got.tobytes() == want.tobytes()
            sizes.append(len(blocks))
        assert sizes == [2730, 2730, 3]

    def test_batch_memory_stays_in_tiles(self):
        # one diamond.json path at 10**4 rows, 48 raw symbols a block: the
        # batch and its heuristic decode, tile by tile, peak at 4.1 MiB, of
        # which the destination's (10**4, 48) uint8 blocks are 0.46 MiB and
        # one 2730-row tile's draws, thresholds and blocks 2.1 MiB.  With
        # int64 blocks (3.7 MiB at the destination) and fresh likelihood
        # arrays it peaked at 7.7 MiB; sampling and decoding whole
        # (10**4, 48) int64 arrays peaked at 11.8 MiB
        plan = build_network_plan(load_graph_file(str(GRAPHS / "diamond.json")).graph, 3, 48)
        spec = plan.paths[0].spec
        assert spec.B * math.factorial(3) == 48
        tables = protocol.path_tables(spec, 10**4)
        scores = np.zeros((3, 10**4))
        lo = 0

        def run():
            nonlocal lo
            for blocks in run_series_blocks_batch(spec, 1, 10**4, np.random.default_rng(0), tables):
                scores[:, lo : lo + len(blocks)] += protocol.block_scores_heuristic(
                    blocks, tables[-1], spec.B)
                lo += len(blocks)

        assert peak_traced(run) < 6 * 2**20
        assert lo == 10**4


class TestTableGuard:
    """``path_tables`` checks each hop's sampling-table bytes against
    ``TABLE_BYTES_GUARD`` before it builds any table."""

    def test_guard_boundary(self, monkeypatch):
        # two bsc hops at M=3, B=4: 6 raw symbols a use, so L=24, and 6
        # sender states; the codeword index and one threshold plane are
        # 8 * 2 * 3 * 3 * 24 bytes
        spec = make_series_spec([bsc(0.1)] * 2, 3, 4)
        size = 8 * 2 * 3 * 3 * 24
        monkeypatch.setattr(protocol, "TABLE_BYTES_GUARD", size)
        tables = protocol.path_tables(spec, 10)
        assert tables[0].thresholds.nbytes * 2 == size
        monkeypatch.setattr(protocol, "TABLE_BYTES_GUARD", size - 1)
        with pytest.raises(StateSpaceTooLarge, match="table guard"):
            protocol.path_tables(spec, 10)


class TestSymbolDtype:
    """Raw blocks are stored in the narrowest unsigned dtype that holds the
    channel's outputs; block keys are formed in intp."""

    WIDE = product(ksym(17, 0.03), ksym(17, 0.02))  # 289 outputs

    def wide_plan(self):
        # a direct (unreduced) chain at B=2: two raw symbols a block, so
        # 289**2 blocks, inside the exact-law guard
        P = self.WIDE
        spec = SeriesSpec(channels=raw_hops([P, P], 2), M=2, B=2, flow_value=bhattacharyya(P, 0, 1))
        path = protocol.PathPlan(index=0, edge_ids=(0, 1), spec=spec)
        return protocol.NetworkPlan(M=2, window=2, paths=(path,))

    def test_bsc_blocks_are_bytes(self):
        spec = make_series_spec([bsc(0.1)] * 3, 2, 2)
        tables = protocol.path_tables(spec, 50)
        assert tables[0].next_state is not None
        hops = list(protocol._hop_blocks(spec, 1, 50, np.random.default_rng(0), tables))
        assert {y.dtype for _, _, y in hops} == {np.dtype(np.uint8)}
        blocks = protocol._enumerate_blocks(2, 8)
        assert blocks.dtype == np.uint8
        assert np.array_equal(blocks, np.arange(256)[:, None] // 2 ** np.arange(7, -1, -1) % 2)

    def test_keys_of_byte_blocks_do_not_wrap(self):
        blocks = np.random.default_rng(4).integers(0, 2, (300, 12)).astype(np.uint8)
        blocks[0] = 1
        got = protocol._encode_blocks(blocks, 2)
        assert got.dtype == np.intp
        assert np.array_equal(got, blocks.astype(np.int64) @ 2 ** np.arange(11, -1, -1))
        assert got[0] == 4095

    def test_wide_channel_blocks_are_uint16(self):
        spec = self.wide_plan().paths[0].spec
        tables = protocol.path_tables(spec, 30)
        hops = list(protocol._hop_blocks(spec, 2, 30, np.random.default_rng(1), tables))
        assert {y.dtype for _, _, y in hops} == {np.dtype(np.uint16)}
        blocks = protocol._enumerate_blocks(289, 2)
        assert blocks.dtype == np.uint16
        assert blocks[-1].tolist() == [288, 288]
        assert np.array_equal(protocol._encode_blocks(blocks, 289), np.arange(289**2))

    @pytest.mark.parametrize("decoder", ["exact", "heuristic"])
    @pytest.mark.parametrize("tile_elems", [40, 1 << 17], ids=["ragged", "one-tile"])
    def test_wide_channel_cells_equal_the_oracle(self, monkeypatch, decoder, tile_elems):
        monkeypatch.setattr(harness, "_TRIAL_CHUNK", 64)
        monkeypatch.setattr(protocol, "_TILE_ELEMS", tile_elems)
        plan = self.wide_plan()
        dists = [exact_block_distribution(plan.paths[0].spec, "uniform")] if decoder == "exact" else None
        tables = [protocol.path_tables(p.spec, harness._TRIAL_CHUNK) for p in plan.paths]
        n = 6 * plan.window
        got = [_cell_errors(plan, tables, dists, decoder, n, m, 150, 5, 1) for m in (1, 2)]
        want = [oracles.cell_errors(plan, dists, decoder, n, m, 150, 5, 1, chunk_size=64)
                for m in (1, 2)]
        assert got == want
        assert sum(got) > 0


class TestBlockKeys:
    """``_encode_blocks`` runs Horner's rule in the narrowest unsigned dtype
    that holds out**L - 1 (intp above 2**62); its keys equal the intp Horner
    over strided columns of ``protocol_oracles.encode_blocks`` bit for bit."""

    @staticmethod
    def widths(out):
        """Block widths on both sides of each dtype boundary, out**L at or
        below 2**8, 2**16, 2**32 and 2**62 and above it, plus one whose
        keys wrap in intp (out**L above 2**64)."""
        if out == 1:
            return [0, 1, 2, 70]
        widths = {0}
        for bound in (2**8, 2**16, 2**32, 2**62):
            L = 0
            while out ** (L + 1) <= bound:
                L += 1
            widths |= {L, L + 1}
        L = max(widths)
        while out**L <= 2**64:
            L += 1
        return sorted(widths | {L})

    @pytest.mark.parametrize("out", [1, 2, 3, 17, 256, 289])
    def test_keys_equal_the_strided_horner(self, out):
        rng = np.random.default_rng(out)
        dtype = protocol._symbol_dtype(out)
        for L in self.widths(out):
            blocks = rng.integers(0, out, (60, L)).astype(dtype)
            blocks[0] = out - 1  # the largest key, out**L - 1
            blocks[1] = 0
            got = protocol._encode_blocks(blocks, out)
            want = oracles.encode_blocks(blocks, out)
            assert got.dtype == np.intp
            assert got.tobytes() == want.tobytes(), (out, L)
            if out**L <= 2**63:
                assert int(got[0]) == out**L - 1


class TestFirstMaxScan:
    """One strict greater-than scan gives the relay decision's and the cell
    decision's first maximum and the relays' runner-up; it equals
    ``np.argmax`` with a masked copy (``protocol_oracles.first_max_rows``)
    bit for bit."""

    @staticmethod
    def scores(M, rng):
        s = np.round(rng.normal(scale=2.0, size=(M, 400)))  # rounding makes ties common
        s[rng.random(s.shape) < 0.2] = -np.inf
        s[rng.random(s.shape) < 0.05] = np.inf
        s[:, 0] = -np.inf  # all -inf
        s[:, 1] = np.inf  # all +inf
        s[:, 2] = 1.0  # every row ties at the maximum
        s[:, 3] = -np.inf
        s[M - 1, 3] = np.inf  # one +inf over -inf
        s[:, 4] = 0.5
        s[M - 1, 4] = 2.0  # the others tie at the second best
        s[:, 5] = 0.5
        s[0, 5] = 2.0  # the best first, ties at the second best after it
        s[:, 6] = -1.0
        s[[0, M - 1], 6] = np.inf  # two +inf ties
        return s + 0.0  # no -0.0, whose sign a maximum may take from either operand

    def test_scan_equals_argmax_and_masked_copy(self):
        rng = np.random.default_rng(31)
        for M in (2, 3, 5):
            s = self.scores(M, rng)
            got = protocol._first_max_rows(s)
            want = oracles.first_max_rows(s)
            assert got[0].dtype == np.int64
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes(), M
            idx, _, second = got
            assert idx[:7].tolist() == [0, 0, 0, M - 1, M - 1, 0, 0]
            assert second[:7].tolist() == [-np.inf, np.inf, 1.0, -np.inf, 0.5, 0.5, np.inf]

    @pytest.mark.parametrize("flow_value", [0.0, 0.05, 0.7, np.inf])
    def test_states_equal_the_argmax_decision(self, flow_value):
        rng = np.random.default_rng(32)
        for M in (2, 3, 5):
            s = self.scores(M, rng)
            for half in (1, 4):
                got = protocol._states_from_loglik(s, flow_value, half)
                want = oracles.states_from_loglik(s, flow_value, half)
                for g, w in zip(got, want):
                    assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
