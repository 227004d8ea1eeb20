import itertools
import math

import numpy as np
import pytest

from netexp import channel, exponents
from netexp.channel import (
    _half_and_slope,
    bhattacharyya,
    bsc,
    identity_channel,
    is_pairwise_reversible,
    ksym,
    make_dmc,
    pairwise_chernoff,
    product,
)
from netexp.errors import ParameterOutOfRange, SearchSpaceTooLarge
from netexp.exponents import (
    ZERO_RATE_INPUT_GUARD,
    ChannelExponents,
    _best_multiset,
    _db_matrix,
    _kkt_certificate,
    _support_enumeration,
    bsc_feedback_exponent_m3,
    channel_exponents,
    exponent_two,
    permutation_codebook,
    tilde_exponent,
    zero_rate_exponent,
)
from channel_oracles import power
from conftest import ROOT, perfbench_inputs, rand_dmc, rand_reversible
from exponent_oracles import (
    adversarial_d_matrices,
    best_multiset_loop,
    ksym_closed_form,
    support_enumeration_loop,
)

DB_BSC01 = -math.log(0.6)
# -log(2 sqrt(p(1-2p)) + p) at p=0.1; the ternary symmetric pairwise distance
E2_KSYM3 = -math.log(2 * math.sqrt(0.1 * 0.8) + 0.1)


def kkt_channels(rng, count):
    """Seeded channels with 3 to 8 inputs: random, with structural zeros,
    products of reversible channels, and random ones with duplicated rows."""
    out = []
    while len(out) < count:
        kind = len(out) % 4
        if kind == 0:
            P = rand_dmc(rng, max_in=8, max_out=6)
        elif kind == 1:
            P = rand_dmc(rng, max_in=8, max_out=6, zeros=True)
        elif kind == 2:
            P = product(rand_reversible(rng, max_inputs=4), rand_reversible(rng, max_inputs=2))
        else:
            base = rand_dmc(rng, max_in=5, max_out=5)
            rows = rng.integers(0, base.input_size, size=int(rng.integers(3, 9)))
            P = make_dmc(base.probs[rows])
        if 3 <= P.input_size <= 8 and not np.isinf(_db_matrix(P)).any():
            out.append(P)
    return out


class TestExponentTwo:
    def test_bsc(self):
        rep = exponent_two(bsc(0.1))
        assert abs(rep.value - DB_BSC01) < 1e-9
        assert rep.optimizer == (0, 1)

    def test_ksym3_closed_form(self):
        # closed form evaluates to 0.4069381 (the formula is authoritative)
        rep = exponent_two(ksym(3, 0.1))
        assert abs(rep.value - E2_KSYM3) < 1e-9
        assert rep.optimizer is not None

    def test_one_input_channel(self):
        rep = exponent_two(make_dmc([[0.3, 0.7]]))
        assert rep.value == 0.0 and rep.optimizer is None

    def test_optimizer_reevaluates(self, rng):
        from netexp.channel import chernoff

        for _ in range(20):
            P = rand_dmc(rng)
            rep = exponent_two(P)
            x, xp = rep.optimizer
            assert abs(chernoff(P, x, xp).value - rep.value) < 1e-9


class TestTildeExponent:
    def test_bsc_m3(self):
        rep = tilde_exponent(bsc(0.1), 3)
        assert abs(rep.value - (2.0 / 3.0) * DB_BSC01) < 1e-9
        assert rep.optimizer == (0, 0, 1)

    def test_ksym3_m3_distinct(self):
        rep = tilde_exponent(ksym(3, 0.1), 3)
        assert abs(rep.value - E2_KSYM3) < 1e-9
        assert rep.optimizer == (0, 1, 2)

    def test_m2_equals_exponent_two_for_reversible(self, rng):
        for _ in range(20):
            P = rand_reversible(rng)
            assert abs(tilde_exponent(P, 2).value - exponent_two(P).value) < 1e-7

    def test_objective_reevaluates(self, rng):
        for _ in range(20):
            P = rand_dmc(rng)
            M = int(rng.integers(2, 5))
            rep = tilde_exponent(P, M)
            tup = rep.optimizer
            val = (
                2.0
                / (M * (M - 1))
                * sum(
                    bhattacharyya(P, tup[i], tup[j])
                    for i in range(M)
                    for j in range(i + 1, M)
                )
            )
            assert abs(val - rep.value) < 1e-9

    def test_search_guard(self):
        with pytest.raises(SearchSpaceTooLarge):
            tilde_exponent(ksym(100, 0.001), 6)

    def test_multiset_search_matches_array_loop(self, rng):
        # Python-float sums give the array loop's multiset and sum, bit for bit
        Ds = [_db_matrix(P) for P in pair_pass_channels(rng)]
        Ds += [D for _, D in adversarial_d_matrices(rng, 100)]
        for D in Ds:
            for M in (2, 3, 4):
                combo, pair_sum = best_multiset_loop(D, M)
                assert repr(_best_multiset(D, M)) == repr((combo, float(pair_sum)))


def corpus_channels(seeds=(7, 11)) -> list:
    """The distinct channels of the analyze-corpus benchmark inputs at these seeds."""
    return list({id(e.channel): e.channel for seed in seeds
                 for case in perfbench_inputs().corpus_cases(ROOT, seed) for e in case.graph.edges}.values())


def zero_channels(rng, count, min_in=3):
    """Seeded channels with min_in to 8 inputs, about 30% zero entries and
    no two inputs with disjoint output supports."""
    out = []
    while len(out) < count:
        P = rand_dmc(rng, max_in=8, max_out=6, zeros=True)
        if P.input_size >= min_in and not np.isinf(_db_matrix(P)).any():
            out.append(P)
    return out


def pair_pass_channels(rng, seeds=(7, 11)) -> list:
    """Corpus channels, random channels with zeros and disjoint rows, and
    random channels with one near-underflow entry per row."""
    out = corpus_channels(seeds)
    out += [rand_dmc(rng, max_in=6, max_out=5, zeros=True) for _ in range(300)]
    for _ in range(100):
        mat = rng.random((int(rng.integers(2, 7)), int(rng.integers(2, 6))))
        mat[np.arange(len(mat)), rng.integers(0, mat.shape[1], size=len(mat))] = 10.0 ** -rng.uniform(300, 320)
        out.append(make_dmc(mat / mat.sum(axis=1, keepdims=True)))
    return out


class TestZeroRate:
    def test_bsc_closed_form(self):
        rep = zero_rate_exponent(bsc(0.1))
        assert abs(rep.value - DB_BSC01 / 2) < 1e-12
        assert rep.optimizer == (0.5, 0.5)

    def test_ksym3_uniform(self):
        rep = zero_rate_exponent(ksym(3, 0.1))
        assert abs(rep.value - (2.0 / 3.0) * E2_KSYM3) < 1e-9
        assert max(abs(q - 1 / 3) for q in rep.optimizer) < 1e-6

    def test_grid_oracle(self, rng):
        # the optimizer must dominate a brute-force simplex grid
        for _ in range(10):
            P = rand_dmc(rng, max_in=4, max_out=4)
            rep = zero_rate_exponent(P)
            n = P.input_size
            D = np.zeros((n, n))
            for a in range(n):
                for b in range(a + 1, n):
                    D[a, b] = D[b, a] = bhattacharyya(P, a, b)
            step = 20
            best = 0.0
            for combo in itertools.combinations(range(step + n - 1), n - 1):
                parts = np.diff((-1,) + combo + (step + n - 1,)) - 1
                q = parts / step
                best = max(best, float(q @ D @ q))
            assert rep.value >= best - 1e-9

    def test_optimizer_reevaluates(self, rng):
        for _ in range(10):
            P = rand_dmc(rng)
            rep = zero_rate_exponent(P)
            q = np.array(rep.optimizer)
            n = P.input_size
            val = sum(
                q[a] * q[b] * bhattacharyya(P, a, b)
                for a in range(n)
                for b in range(n)
                if a != b
            )
            assert abs(val - rep.value) < 1e-9

    def test_capped_flag_for_noiseless(self):
        # disjoint-support inputs: +inf, attained by a half/half split
        rep = zero_rate_exponent(identity_channel(3))
        assert rep.value == math.inf
        assert rep.optimizer == (0.5, 0.5, 0.0)
        assert rep.method == "closed_form"

    def test_sandwich(self, rng):
        for _ in range(30):
            P = rand_dmc(rng)
            z = zero_rate_exponent(P).value
            for M in (2, 3, 4):
                t = tilde_exponent(P, M).value
                assert t >= z - 1e-8
                assert z >= (M - 1) / M * t - 1e-8

    def test_input_guard(self):
        with pytest.raises(SearchSpaceTooLarge):
            zero_rate_exponent(ksym(13, 0.001))

    def test_kkt_certificate(self, rng):
        # a maximizer of q^T D q on the simplex has (Dq)_i <= q^T D q for
        # every input, with equality on its support; a certified report is
        # the enumeration's, bit for bit
        for P in kkt_channels(rng, 200):
            rep = zero_rate_exponent(P)
            assert rep.method in ("support_enumeration", "kkt_certificate")
            TestKktCertificate.check_channel(P)
            q = np.array(rep.optimizer)
            assert q.min() >= 0 and abs(q.sum() - 1) < 1e-12
            grad = _db_matrix(P) @ q
            assert grad.max() <= rep.value + 1e-12
            assert np.all(np.abs(grad[q > 0] - rep.value) <= 1e-12)

    def test_ksym12_uniform(self):
        p = 0.005
        rep = zero_rate_exponent(ksym(12, p))
        d = -math.log(2 * math.sqrt(p * (1 - 11 * p)) + 10 * p)
        assert abs(rep.value - d * 11 / 12) < 1e-12
        assert max(abs(v - 1 / 12) for v in rep.optimizer) < 1e-12


class TestSupportEnumeration:
    """The batched ``_support_enumeration`` returns, bit for bit, what one
    ``np.linalg.solve`` per support returns."""

    @staticmethod
    def check(D):
        got, want = _support_enumeration(D), support_enumeration_loop(D)
        assert repr((got[0], got[1].tolist())) == repr((want[0], want[1].tolist()))

    def test_analyze_corpus_channels(self):
        Ds = [_db_matrix(P) for P in corpus_channels() if P.input_size >= 3]
        Ds = [D for D in Ds if not np.isinf(D).any()]
        assert len(Ds) > 500
        for D in Ds:
            self.check(D)

    def test_random_channels_with_zeros_and_singular_stacks(self, rng, monkeypatch):
        singular = []
        real = np.linalg.solve

        def solve(A, b):
            try:
                return real(A, b)
            except np.linalg.LinAlgError:
                singular.append(np.ndim(A))
                raise

        monkeypatch.setattr(np.linalg, "solve", solve)
        for P in zero_channels(rng, 600):
            self.check(_db_matrix(P))
        assert singular.count(3) >= 10

    def test_identical_rows_ksym_and_the_input_guard(self, rng):
        base = rand_dmc(rng, max_in=4, max_out=4)
        self.check(_db_matrix(make_dmc(base.probs[[0, 1, 0]])))
        for K in range(3, 13):
            self.check(_db_matrix(ksym(K, 0.01)))
        n = ZERO_RATE_INPUT_GUARD
        mat = rng.random((n, n))
        self.check(_db_matrix(make_dmc(mat / mat.sum(axis=1, keepdims=True))))

    def test_adversarial_matrices(self, rng):
        for _, D in adversarial_d_matrices(rng, 400):
            self.check(D)

    def test_one_solve_per_support_size(self, monkeypatch):
        calls = []
        real = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda A, b: calls.append(np.ndim(A)) or real(A, b))
        # one-point supports score 0.0 on a zero diagonal and need no solve
        _support_enumeration(_db_matrix(ksym(12, 0.01)))
        assert calls == [3] * 11
        # rows 0 and 1 are equal, so every support holding both is a
        # singular system: sizes 2 and 3 are re-solved one system at a time
        calls.clear()
        _support_enumeration(_db_matrix(make_dmc([[0.7, 0.2, 0.1], [0.7, 0.2, 0.1], [0.1, 0.3, 0.6]])))
        assert calls == [3, 2, 2, 2, 3, 2]

    def test_zero_and_unit_distance_matrices(self):
        # D is a _db_matrix, so its diagonal is 0.  All zeros: every system
        # from size 2 on is singular and e_0 stands.  Ones off the diagonal:
        # the uniform full support wins.
        for n in range(3, 7):
            self.check(np.zeros((n, n)))
            self.check(np.ones((n, n)) - np.eye(n))


def thin_interior(eps):
    """Three inputs with a concave D whose full-support KKT point is
    ((1 - eps) / 2, (1 - eps) / 2, eps); it beats the face eps = 0, value
    1/2, by eps^2 / (2 (1 - 2 eps))."""
    b = (1 - eps) / 2 / (1 - 2 * eps)
    return np.array([[0.0, 1.0, b], [1.0, 0.0, b], [b, b, 0.0]])


class TestKktCertificate:
    """Wherever ``_kkt_certificate`` fires, it returns what
    ``_support_enumeration`` returns, bit for bit."""

    @staticmethod
    def check_channel(P):
        rep = zero_rate_exponent(P)
        value, q = _support_enumeration(_db_matrix(P))
        assert repr((rep.value, rep.optimizer)) == repr((value, tuple(float(v) for v in q)))
        return rep.method == "kkt_certificate"

    @staticmethod
    def check_matrix(D):
        got = _kkt_certificate(D)
        if got is None:
            return False
        want = _support_enumeration(D)
        assert repr((got[0], got[1].tolist())) == repr((want[0], want[1].tolist()))
        return True

    @pytest.mark.parametrize("seed", [7, 11])
    def test_analyze_corpus_channels(self, seed):
        Ps = [P for P in corpus_channels((seed,)) if P.input_size >= 3]
        Ps = [P for P in Ps if not np.isinf(_db_matrix(P)).any()]
        certified = sum(self.check_channel(P) for P in Ps)
        assert (certified, len(Ps)) == (198, 299)

    def test_random_ksym_and_duplicated_rows(self, rng):
        base = rand_dmc(rng, max_in=4, max_out=4)
        Ps = zero_channels(rng, 600) + kkt_channels(rng, 200)
        Ps += [ksym(K, 0.01) for K in range(3, 13)]
        Ps += [make_dmc(base.probs[rows]) for rows in ([0, 1, 0], [0, 1, 1, 2], [2, 0, 1, 0, 1])]
        certified = sum(self.check_channel(P) for P in Ps)
        assert certified >= 50
        assert all(zero_rate_exponent(ksym(K, 0.01)).method == "kkt_certificate" for K in range(3, 13))

    def test_adversarial_matrices(self, rng):
        fired = {}
        for kind, D in adversarial_d_matrices(rng, 400):
            fired.setdefault(kind, []).append(self.check_matrix(D))
        # near-ties around the uniform optimum are certified; an input
        # repeated to 1e-13 leaves no margin
        assert all(fired["near_tie"]) and not any(fired["near_singular"])
        assert 0 < sum(fired["thin_interior"]) < len(fired["thin_interior"])

    def test_solve_counts(self, monkeypatch):
        calls = []
        real = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda A, b: calls.append(np.ndim(A)) or real(A, b))
        # certified: one solve of the (1, n+1, n+1) full-support stack
        for K in (3, 7, 12):
            calls.clear()
            assert zero_rate_exponent(ksym(K, 0.01)).method == "kkt_certificate"
            assert calls == [3]
        # not concave: the eigenvalues refuse it before any solve, so only
        # the enumeration's stacks of sizes 2 to 5 are solved
        mat = np.array([[0.9, 0.1, 0.01, 0.01], [0.1, 0.9, 0.01, 0.01], [0.01, 0.01, 0.9, 0.1],
                        [0.01, 0.01, 0.1, 0.9], [0.5, 0.5, 0.01, 0.01]])
        P = make_dmc(mat / mat.sum(axis=1, keepdims=True))
        D = _db_matrix(P)
        assert np.linalg.eigvalsh(D[:-1, :-1] - D[:-1, -1:] - D[-1:, :-1])[-1] > 0
        calls.clear()
        _support_enumeration(D)
        assert calls == [3] * 4
        calls.clear()
        assert zero_rate_exponent(P).method == "support_enumeration"
        assert calls == [3] * 4

    def test_refuses_an_interior_saddle(self):
        # two far pairs, close to each other: the uniform point is a
        # KKT point, but the optimum puts the mass on one pair
        s = 0.01
        D = np.array([[0.0, 1.0, s, s], [1.0, 0.0, s, s], [s, s, 0.0, 1.0], [s, s, 1.0, 0.0]])
        A = np.ones((5, 5))
        A[:4, :4] = D
        A[4, 4] = 0.0
        assert np.linalg.solve(A, np.eye(5)[4])[:4].min() > 0
        assert _kkt_certificate(D) is None
        value, q = _support_enumeration(D)
        assert (value, q.tolist()) == (0.5, [0.5, 0.5, 0.0, 0.0])

    def test_refuses_a_boundary_optimum(self):
        D = thin_interior(-1e-3)
        assert np.linalg.eigvalsh(D[:-1, :-1] - D[:-1, -1:] - D[-1:, :-1])[-1] < 0
        assert _kkt_certificate(D) is None
        value, q = _support_enumeration(D)
        assert (value, q.tolist()) == (0.5, [0.5, 0.5, 0.0])

    def test_refuses_an_interior_optimum_inside_the_tie_band(self):
        # the full support is optimal but beats the face by about 5e-15,
        # so the enumeration keeps the face it found first
        D = thin_interior(1e-7)
        value, q = _support_enumeration(D)
        assert (value, q.tolist()) == (0.5, [0.5, 0.5, 0.0])
        assert _kkt_certificate(D) is None

    def test_certifies_an_interior_optimum_past_the_margin(self):
        D = thin_interior(1e-3)
        assert self.check_matrix(D)
        assert np.all(_support_enumeration(D)[1] > 0)


class TestChannelExponents:
    def test_record_matches_public_functions(self, rng):
        reversible = [rand_reversible(rng) for _ in range(20)]
        for P in reversible + pair_pass_channels(rng, seeds=(7,)):
            M = int(rng.integers(2, 5))
            alone = ChannelExponents(
                two=exponent_two(P), tilde=tilde_exponent(P, M), zero_rate=zero_rate_exponent(P),
                reversible=is_pairwise_reversible(pairwise_chernoff(P))[0],
            )
            assert repr(channel_exponents(P, M)) == repr(alone)

    def test_screen_d_b_is_bhattacharyya(self, rng):
        # the screen and the matrix read the same _pair_halves values
        for P in pair_pass_channels(rng):
            D = _db_matrix(P)
            for x in range(P.input_size):
                for xp in range(x + 1, P.input_size):
                    want = repr(bhattacharyya(P, x, xp))
                    assert repr(_half_and_slope(P.log_probs[x], P.log_probs[xp])[0]) == want
                    assert repr(float(D[x, xp])) == repr(float(D[xp, x])) == want

    def test_one_pair_pass(self, rng, monkeypatch):
        calls = {"half": 0, "bhattacharyya": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        wrappers = {
            "_half_and_slope": counted("half", channel._half_and_slope),
            "bhattacharyya": counted("bhattacharyya", channel.bhattacharyya),
        }
        for module in (channel, exponents):
            for name, wrapper in wrappers.items():
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapper)
        for P in [ksym(5, 0.02), bsc(0.1)] + zero_channels(rng, 20, min_in=2):
            calls.update(half=0, bhattacharyya=0)
            channel_exponents(P, 3)
            n = P.input_size
            assert calls == {"half": n * (n - 1) // 2, "bhattacharyya": 0}


def berlekamp_codebook(P, M):
    return permutation_codebook(tilde_exponent(P, M), M)


class TestBerlekampCodebook:
    def test_bsc_m2(self):
        cb = berlekamp_codebook(bsc(0.1), 2)
        assert len(cb[0]) == 2 and len(cb) == 2
        assert cb == ((0, 1), (1, 0))
        P2 = power(bsc(0.1), 2)
        x = cb[0][0] * 2 + cb[0][1]
        xp = cb[1][0] * 2 + cb[1][1]
        assert abs(bhattacharyya(P2, x, xp) - 2 * tilde_exponent(bsc(0.1), 2).value) < 1e-9

    def test_ksym3_m3_equalized(self):
        P = ksym(3, 0.1)
        cb = berlekamp_codebook(P, 3)
        assert len(cb[0]) == 6
        target = 6 * tilde_exponent(P, 3).value
        for m1 in range(3):
            for m2 in range(m1 + 1, 3):
                d = sum(
                    bhattacharyya(P, cb[m1][j], cb[m2][j]) for j in range(6)
                )
                assert abs(d - target) < 1e-9

    def test_equalization_random(self, rng):
        for _ in range(10):
            P = rand_dmc(rng, max_in=4, max_out=4)
            M = int(rng.integers(2, 4))
            cb = berlekamp_codebook(P, M)
            target = math.factorial(M) * tilde_exponent(P, M).value
            for m1 in range(M):
                for m2 in range(m1 + 1, M):
                    d = sum(
                        bhattacharyya(P, cb[m1][j], cb[m2][j])
                        for j in range(len(cb[0]))
                    )
                    assert abs(d - target) < 1e-9

    def test_single_input(self):
        cb = berlekamp_codebook(make_dmc([[0.4, 0.6]]), 3)
        assert cb[0] == cb[1] == cb[2]


class TestClosedForms:
    def test_ksym_closed_form_values(self):
        assert abs(ksym_closed_form(3, 3, 0.1) - E2_KSYM3) < 1e-12
        assert abs(ksym_closed_form(2, 2, 0.1) - DB_BSC01) < 1e-12
        assert abs(ksym_closed_form(3, 2, 0.1) - E2_KSYM3) < 1e-12

    def test_agrees_with_exhaustive_search(self):
        for K in (2, 3, 4, 5):
            for M in range(2, K + 1):
                for p in (0.01, 0.1, 0.8 / (K - 1)):
                    got = ksym_closed_form(K, M, p)
                    want = tilde_exponent(ksym(K, p), M).value
                    assert abs(got - want) < 1e-9, (K, M, p)

    def test_ksym_closed_form_range(self):
        with pytest.raises(ParameterOutOfRange):
            ksym_closed_form(3, 4, 0.1)
        with pytest.raises(ParameterOutOfRange):
            ksym_closed_form(3, 2, 0.5)

    def test_bsc_feedback_value(self):
        want = -math.log(0.01 ** (1 / 3) * 0.99 ** (2 / 3) + 0.01 ** (2 / 3) * 0.99 ** (1 / 3))
        assert abs(bsc_feedback_exponent_m3(0.01) - want) < 1e-12

    def test_bsc_feedback_small_p_slope(self):
        p = 1e-6
        assert abs(bsc_feedback_exponent_m3(p) / math.log(1 / p) - 1 / 3) < 0.01

    def test_bsc_feedback_quarter(self):
        v = bsc_feedback_exponent_m3(0.25)
        want = -math.log(0.25 ** (1 / 3) * 0.75 ** (2 / 3) + 0.25 ** (2 / 3) * 0.75 ** (1 / 3))
        assert abs(v - want) < 1e-12 and v > 0

    def test_bsc_feedback_range(self):
        with pytest.raises(ParameterOutOfRange):
            bsc_feedback_exponent_m3(0.5)


class TestApproximationChains:
    def test_two_message_2_approx(self, rng):
        for _ in range(60):
            P = rand_dmc(rng)
            assert exponent_two(P).value <= 2 * tilde_exponent(P, 2).value + 1e-9

    def test_4_approx_chain(self, rng):
        for _ in range(30):
            P = rand_dmc(rng)
            e2 = exponent_two(P).value
            for M in (2, 3, 4):
                assert e2 <= 4 * tilde_exponent(P, M).value + 1e-9


class TestProductLemmas:
    def test_product_equality_reversible(self, rng):
        checked = 0
        for _ in range(40):
            P = rand_reversible(rng, max_inputs=4)
            Q = rand_reversible(rng, max_inputs=4)
            for M in (2, 3):
                if math.comb(P.input_size * Q.input_size + M - 1, M) > 10**4:
                    continue
                lhs = tilde_exponent(product(P, Q), M).value
                rhs = tilde_exponent(P, M).value + tilde_exponent(Q, M).value
                assert abs(lhs - rhs) < 1e-8
                checked += 1
        assert checked > 20

    def test_product_inequality_m2(self, rng):
        for _ in range(40):
            P = rand_dmc(rng, max_in=4, max_out=4)
            Q = rand_dmc(rng, max_in=4, max_out=4)
            lhs = exponent_two(product(P, Q)).value
            rhs = exponent_two(P).value + exponent_two(Q).value
            assert lhs <= rhs + 1e-9
