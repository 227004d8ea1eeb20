import itertools
import math

import numpy as np
import pytest

from netexp.channel import (
    bhattacharyya,
    bsc,
    identity_channel,
    is_pairwise_reversible,
    ksym,
    make_dmc,
    product,
)
from netexp.errors import ParameterOutOfRange, SearchSpaceTooLarge
from netexp.exponents import (
    _db_matrix,
    bsc_feedback_exponent_m3,
    channel_exponents,
    exponent_two,
    permutation_codebook,
    tilde_exponent,
    zero_rate_exponent,
)
from channel_oracles import power
from conftest import rand_dmc, rand_reversible
from exponent_oracles import ksym_closed_form

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
        # every input, with equality on its support
        for P in kkt_channels(rng, 200):
            rep = zero_rate_exponent(P)
            assert rep.method == "support_enumeration"
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


class TestChannelExponents:
    def test_record_matches_public_functions(self, rng):
        for i in range(60):
            P = rand_reversible(rng) if i % 3 == 0 else rand_dmc(rng, zeros=i % 3 == 2)
            M = int(rng.integers(2, 5))
            rec = channel_exponents(P, M)
            assert rec.two == exponent_two(P)
            assert rec.tilde == tilde_exponent(P, M)
            assert rec.zero_rate == zero_rate_exponent(P)
            assert rec.reversible == is_pairwise_reversible(P)[0]


def berlekamp_codebook(P, M):
    return permutation_codebook(tilde_exponent(P, M), M)


class TestBerlekampCodebook:
    def test_bsc_m2(self):
        cb = berlekamp_codebook(bsc(0.1), 2)
        assert cb.ell == 2 and cb.M == 2
        assert cb.words == ((0, 1), (1, 0))
        P2 = power(bsc(0.1), 2)
        x = cb.words[0][0] * 2 + cb.words[0][1]
        xp = cb.words[1][0] * 2 + cb.words[1][1]
        assert abs(bhattacharyya(P2, x, xp) - 2 * tilde_exponent(bsc(0.1), 2).value) < 1e-9

    def test_ksym3_m3_equalized(self):
        P = ksym(3, 0.1)
        cb = berlekamp_codebook(P, 3)
        assert cb.ell == 6
        target = 6 * tilde_exponent(P, 3).value
        for m1 in range(3):
            for m2 in range(m1 + 1, 3):
                d = sum(
                    bhattacharyya(P, cb.words[m1][j], cb.words[m2][j]) for j in range(6)
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
                        bhattacharyya(P, cb.words[m1][j], cb.words[m2][j])
                        for j in range(cb.ell)
                    )
                    assert abs(d - target) < 1e-9

    def test_single_input(self):
        cb = berlekamp_codebook(make_dmc([[0.4, 0.6]]), 3)
        assert cb.words[0] == cb.words[1] == cb.words[2]


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
