import math

import numpy as np
import pytest

from netexp import channel
from netexp.channel import (
    REVERSIBLE_TOL,
    TIE_TOL,
    DivergenceResult,
    _half_and_slope,
    _pair_halves,
    bec,
    bhattacharyya,
    bsc,
    channel_from_obj,
    channel_to_obj,
    chernoff,
    identity_channel,
    is_pairwise_reversible,
    ksym,
    make_dmc,
    pairwise_chernoff,
    product,
)
from netexp.errors import (
    AlphabetTooLarge,
    DimensionMismatch,
    IndexOutOfRange,
    NegativeEntry,
    NonFiniteEntry,
    NonStochasticRow,
    ParameterOutOfRange,
)
from netexp.exponents import exponent_two
from channel_oracles import (
    chernoff_array,
    chernoff_at,
    compose,
    every_pair_chernoff,
    half_and_slope_array,
    power,
    restrict,
)
from conftest import ROOT, perfbench_inputs, rand_dmc, rand_reversible

DB_BSC01 = -math.log(0.6)  # 2*sqrt(0.1*0.9) = 0.6


class TestMakeDmc:
    def test_identity_logs(self):
        P = make_dmc(np.eye(2))
        assert np.allclose(np.diag(P.log_probs), 0.0)
        assert P.log_probs[0, 1] == -math.inf and P.log_probs[1, 0] == -math.inf

    def test_bsc_echo(self):
        P = make_dmc([[0.9, 0.1], [0.1, 0.9]])
        assert np.allclose(P.probs, bsc(0.1).probs)

    def test_non_stochastic_row(self):
        with pytest.raises(NonStochasticRow):
            make_dmc([[0.5, 0.6], [0.1, 0.9]])

    def test_negative_entry(self):
        with pytest.raises(NegativeEntry, match=r"entry at \(0, 1\) is negative: -0.1"):
            make_dmc([[1.1, -0.1], [0.5, 0.5]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry(self, bad):
        # a NaN row sums to NaN, which no tolerance comparison rejects
        with pytest.raises(NonFiniteEntry, match=r"entry at \(1, 0\)"):
            make_dmc([[0.5, 0.5], [bad, 1.0]])

    def test_tiny_negative_clamped(self):
        P = make_dmc([[1.0, -1e-16], [0.5, 0.5]])
        assert P.probs[0, 1] == 0.0

    def test_rows_renormalized(self):
        P = make_dmc([[0.5 + 3e-10, 0.5], [0.25, 0.75]])
        assert abs(P.probs.sum(axis=1) - 1.0).max() < 1e-15

    def test_not_a_matrix(self):
        with pytest.raises(DimensionMismatch):
            make_dmc([0.5, 0.5])

    def test_immutable(self):
        P = bsc(0.1)
        with pytest.raises(ValueError):
            P.probs[0, 0] = 0.3


class TestConstructors:
    def test_ksym_matrix(self):
        P = ksym(3, 0.1)
        assert np.allclose(P.probs, [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])

    def test_bsc_is_ksym2(self):
        assert np.allclose(bsc(0.1).probs, ksym(2, 0.1).probs)

    def test_bec_rows(self):
        P = bec(0.3)
        assert np.allclose(P.probs, [[0.7, 0.0, 0.3], [0.0, 0.7, 0.3]])
        assert np.allclose(P.probs.sum(axis=1), 1.0)

    @pytest.mark.parametrize("call", [
        lambda: bsc(0.0), lambda: bsc(0.5), lambda: bec(1.0),
        lambda: ksym(1, 0.1), lambda: ksym(3, 0.5),
    ])
    def test_parameter_range(self, call):
        with pytest.raises(ParameterOutOfRange):
            call()


class TestBhattacharyya:
    def test_bsc_closed_form(self):
        assert abs(bhattacharyya(bsc(0.1), 0, 1) - DB_BSC01) < 1e-12
        # independent check: direct summation in the probability domain
        P = bsc(0.1)
        direct = -math.log(np.sqrt(P.probs[0] * P.probs[1]).sum())
        assert abs(bhattacharyya(P, 0, 1) - direct) < 1e-12

    def test_same_row_zero(self, rng):
        for _ in range(10):
            P = rand_dmc(rng)
            x = int(rng.integers(0, P.input_size))
            assert bhattacharyya(P, x, x) == 0.0

    def test_disjoint_support_infinite(self):
        assert bhattacharyya(identity_channel(2), 0, 1) == math.inf

    def test_symmetry_exact(self, rng):
        for _ in range(30):
            P = rand_dmc(rng, zeros=True)
            for x in range(P.input_size):
                for xp in range(P.input_size):
                    assert bhattacharyya(P, x, xp) == bhattacharyya(P, xp, x)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            bhattacharyya(bsc(0.1), 0, 2)


class TestChernoffAt:
    def test_half_is_bhattacharyya(self):
        assert abs(chernoff_at(bsc(0.1), 0, 1, 0.5) - DB_BSC01) < 1e-12

    def test_s0_full_support(self, rng):
        for _ in range(10):
            P = rand_dmc(rng)  # no zeros
            assert abs(chernoff_at(P, 0, 1, 0.0)) < 1e-12

    def test_z_channel_endpoint(self):
        Z = make_dmc([[1.0, 0.0], [0.5, 0.5]])
        # at s=1 the sum runs over supp(P_0), collecting P(y=0|1) = 0.5
        assert abs(chernoff_at(Z, 0, 1, 1.0) - (-math.log(0.5))) < 1e-12

    def test_s_out_of_range(self):
        with pytest.raises(ParameterOutOfRange):
            chernoff_at(bsc(0.1), 0, 1, 1.5)

    def test_endpoint_limit_convention(self, rng):
        # s=0 value equals the one-sided limit, approached over 10 points
        checked = 0
        for _ in range(40):
            P = rand_dmc(rng, zeros=True)
            for x in range(P.input_size):
                for xp in range(P.input_size):
                    if x == xp:
                        continue
                    v0 = chernoff_at(P, x, xp, 0.0)
                    if not math.isfinite(v0):
                        continue
                    approach = [chernoff_at(P, x, xp, 10.0 ** (-k)) for k in range(1, 11)]
                    assert abs(approach[-1] - v0) < 1e-6
                    checked += 1
        assert checked > 20


class TestChernoff:
    def test_bsc_optimum_at_half(self):
        res = chernoff(bsc(0.1), 0, 1)
        assert abs(res.value - DB_BSC01) < 1e-9
        assert res.argmax_s == 0.5

    def test_z_channel_boundary_optimum(self):
        res = chernoff(make_dmc([[1.0, 0.0], [0.5, 0.5]]), 0, 1)
        assert abs(res.value - math.log(2)) < 1e-9
        assert abs(res.argmax_s - 1.0) < 1e-9

    def test_same_input_zero(self, rng):
        P = rand_dmc(rng)
        assert chernoff(P, 0, 0).value == 0.0

    def test_grid_oracle(self, rng):
        grid_s = np.linspace(0.0, 1.0, 1001)
        for _ in range(50):
            P = rand_dmc(rng, zeros=True)
            for x in range(P.input_size):
                for xp in range(x + 1, P.input_size):
                    res = chernoff(P, x, xp)
                    if math.isinf(res.value):
                        assert all(math.isinf(chernoff_at(P, x, xp, s)) for s in (0.25, 0.5, 0.75))
                        continue
                    best = max(chernoff_at(P, x, xp, s) for s in grid_s)
                    assert res.value >= best - 1e-8
                    assert abs(chernoff_at(P, x, xp, res.argmax_s) - res.value) < 1e-9

    def test_symmetry_with_argmax_mapping(self, rng):
        for _ in range(30):
            P = rand_dmc(rng, zeros=True)
            for x in range(P.input_size):
                for xp in range(x + 1, P.input_size):
                    a = chernoff(P, x, xp)
                    b = chernoff(P, xp, x)
                    if math.isinf(a.value):
                        assert math.isinf(b.value)
                        continue
                    assert abs(a.value - b.value) < 1e-9
                    # the mirrored optimizer attains the same value
                    assert chernoff_at(P, x, xp, 1.0 - b.argmax_s) >= a.value - 1e-8


class TestPairwiseReversible:
    def test_classic_channels(self):
        assert is_pairwise_reversible(pairwise_chernoff(bsc(0.1)))[0]
        assert is_pairwise_reversible(pairwise_chernoff(bec(0.3)))[0]
        assert is_pairwise_reversible(pairwise_chernoff(ksym(4, 0.05)))[0]

    def test_z_channel_witness(self):
        flag, witness = is_pairwise_reversible(pairwise_chernoff(make_dmc([[1.0, 0.0], [0.5, 0.5]])))
        assert not flag
        x, xp, s_star = witness
        assert (x, xp) == (0, 1)
        assert abs(s_star - 1.0) < 1e-6

    def test_random_family(self, rng):
        for _ in range(25):
            assert is_pairwise_reversible(pairwise_chernoff(rand_reversible(rng)))[0]

    def test_reads_midpoint_from_the_optimizer(self, rng):
        # d_C(1/2) carried by chernoff equals a fresh chernoff_at(.., 0.5), so
        # flags and witnesses match a check that recomputes it per pair
        def recomputed(P):
            for (x, xp), opt in every_pair_chernoff(P).items():
                mid = chernoff_at(P, x, xp, 0.5)
                if math.isinf(opt.value) and math.isinf(mid):
                    continue
                if opt.value > mid + REVERSIBLE_TOL:
                    return False, (x, xp, opt.argmax_s)
            return True, None

        channels = [rand_dmc(rng, zeros=bool(i % 2)) for i in range(40)]
        channels += [rand_reversible(rng) for _ in range(10)]
        channels += [make_dmc([[1.0, 0.0], [0.0, 1.0]]), make_dmc([[1.0, 0.0], [0.5, 0.5]])]
        flags = set()
        for P in channels:
            for (x, xp), opt in every_pair_chernoff(P).items():
                mid = chernoff_at(P, x, xp, 0.5)
                assert opt.at_half == mid or (math.isinf(opt.at_half) and math.isinf(mid))
            got = is_pairwise_reversible(pairwise_chernoff(P))
            assert got == recomputed(P)
            flags.add(got[0])
        assert flags == {True, False}


@pytest.fixture
def searched(monkeypatch):
    """The (x, x') of each ``chernoff`` search ``pairwise_chernoff`` makes."""
    calls = []
    real = channel.chernoff
    monkeypatch.setattr(channel, "chernoff", lambda *args: calls.append(args[1:]) or real(*args))
    return calls


class TestPrunedPairs:
    """``pairwise_chernoff`` searches only the pairs that can change
    ``exponent_two`` or ``is_pairwise_reversible``; both must read exactly
    what a search of every pair gives."""

    @staticmethod
    def check(P, searched) -> tuple:
        """(searches, input pairs) of P, after checking that the stored pairs
        and both readers equal those of a search of every pair."""
        searched.clear()
        pruned = pairwise_chernoff(P)
        n_searched = len(searched)
        full = every_pair_chernoff(P)
        assert list(pruned) == [pair for pair in full if pair in pruned]
        assert all(repr(res) == repr(full[pair]) for pair, res in pruned.items())
        assert repr(exponent_two(P, pairs=pruned)) == repr(exponent_two(P, pairs=full))
        assert repr(is_pairwise_reversible(pruned)) == repr(is_pairwise_reversible(full))
        return n_searched, len(full)

    @pytest.mark.parametrize("seed", [7, 11])
    def test_analyze_corpus_channels(self, seed, searched):
        channels = {id(e.channel): e.channel
                    for case in perfbench_inputs().corpus_cases(ROOT, seed) for e in case.graph.edges}
        counts = [self.check(P, searched) for P in channels.values()]
        assert tuple(sum(c) for c in zip(*counts)) == ({7: 220, 11: 224}[seed], 1725)

    def test_random_channels_with_zeros_and_disjoint_rows(self, rng, searched):
        seen = set()
        for _ in range(250):
            n_in, n_out = (int(v) for v in rng.integers(2, 7, size=2))
            mat = np.where(rng.random((n_in, n_out)) < 0.5, 0.0, rng.random((n_in, n_out)))
            for r in np.flatnonzero(mat.sum(axis=1) == 0):
                mat[r, int(rng.integers(0, n_out))] = 1.0
            P = make_dmc(mat / mat.sum(axis=1, keepdims=True))
            self.check(P, searched)
            value = exponent_two(P).value
            seen.add(("inf" if math.isinf(value) else "finite", is_pairwise_reversible(pairwise_chernoff(P))[0]))
        assert seen == {("inf", True), ("inf", False), ("finite", True), ("finite", False)}

    def test_ksym_ties_and_perturbations_near_both_tolerances(self, searched):
        # ksym's pairs tie and are flat at 1/2; moving eps of one row's mass
        # between two outputs tilts every pair with that row.  Scaled so the
        # tilted pairs' slopes land just under and over TIE_TOL and
        # REVERSIBLE_TOL, and swept over 1e-16 .. 1e-6.
        def tilted(K, p, row, eps):
            mat = ksym(K, p).probs.copy()
            mat[row, (row + 1) % K] += eps
            mat[row, (row + 2) % K] -= eps
            return make_dmc(mat)

        slopes = []
        for K, p in ((3, 0.1), (4, 0.05), (5, 0.02)):
            assert self.check(ksym(K, p), searched) == (0, K * (K - 1) // 2)
            for row in (0, K - 1):
                # the most tilted pair after the first, which is always searched
                unit, pair = max((abs(_half_and_slope(tilted(K, p, row, 1e-9), x, xp)[1]) / 1e-9, (x, xp))
                                 for x in range(K) for xp in range(x + 1, K) if (x, xp) != (0, 1))
                eps_list = [t / unit * f for t in (TIE_TOL, REVERSIBLE_TOL) for f in (0.9, 0.999, 1.001, 1.1)]
                for eps in eps_list + list(np.logspace(-16, -6, 21)):
                    P = tilted(K, p, row, eps)
                    self.check(P, searched)
                    slopes.append(abs(_half_and_slope(P, *pair)[1]))
        for tol in (TIE_TOL, REVERSIBLE_TOL):
            assert any(tol / 1.1 < s <= tol for s in slopes)
            assert any(tol < s < tol * 1.1 for s in slopes)


    def test_pair_that_wins_by_its_slope_alone(self, searched):
        # after the witness (0, 1), pair (1, 2)'s d_B sits half its interior
        # gain below the best so far, with |d_C'(1/2)| under 1e-6: only the
        # concavity bound shows that it can still win
        def tuned(t, eta=6e-6):
            return make_dmc([[0.5, 0.2, 0.3], [1 - 2 * t, t, t], [t + eta, 1 - 2 * t, t - eta]])

        def excess(t):
            P = tuned(t)
            res = chernoff(P, 1, 2)
            best = max(chernoff(P, 0, 1).value, chernoff(P, 0, 2).value)
            return (res.at_half + res.value) / 2 - best

        lo, hi = 0.2, 0.25
        for _ in range(60):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if excess(mid) > 0 else (lo, mid)
        P = tuned(lo)
        full = every_pair_chernoff(P)
        assert TIE_TOL < abs(_half_and_slope(P, 1, 2)[1]) < 1e-6
        assert full[(1, 2)].at_half < max(full[(0, 1)].value, full[(0, 2)].value) < full[(1, 2)].value
        assert exponent_two(P).optimizer == (1, 2)
        assert is_pairwise_reversible(pairwise_chernoff(P))[1][:2] == (0, 1)
        self.check(P, searched)


class TestFlatPairs:
    """A pair with |d_C'(1/2)| <= TIE_TOL is not searched: concavity keeps
    every probe within TIE_TOL of d_C(1/2), so the search returns
    (d_B, 1/2, d_B), the result ``pairwise_chernoff`` stores for every
    flat pair."""

    @pytest.mark.parametrize("seed", [7, 11])
    def test_benchmark_flat_pairs_match_the_search(self, seed, searched):
        inputs = perfbench_inputs()
        cases = inputs.corpus_cases(ROOT, seed) + inputs.wide_cases(seed)
        channels = {id(e.channel): e.channel for case in cases for e in case.graph.edges}
        flat = 0
        for P in channels.values():
            halves = _pair_halves(P)
            searched.clear()
            kept = pairwise_chernoff(P, halves=halves)
            assert all(abs(halves[pair][1]) > TIE_TOL for pair in searched)
            for pair, (d_b, slope) in halves.items():
                if abs(slope) > TIE_TOL:
                    continue
                shortcut = DivergenceResult(value=d_b, argmax_s=0.5, at_half=d_b)
                assert repr(shortcut) == repr(chernoff(P, *pair))
                assert repr(kept[pair]) == repr(shortcut)
                flat += 1
        assert flat > 1500


def _one_ulp_tilts():
    """Rows 0 and 1 one ulp apart in two outputs, then ksym(3, 0.1) with
    row 0 tilted by eps between outputs 1 and 2: one ulp, and the tilts that
    put pair (0, 1)'s slope just under and over TIE_TOL."""
    def tilted(eps):
        mat = ksym(3, 0.1).probs.copy()
        mat[0, 1] += eps
        mat[0, 2] -= eps
        return make_dmc(mat)

    twin = make_dmc([[0.2, 0.3, 0.5], [0.2, np.nextafter(0.3, 1), np.nextafter(0.5, 0)], [0.3, 0.3, 0.4]])
    unit = abs(_half_and_slope(tilted(1e-9), 0, 1)[1]) / 1e-9
    return [twin, tilted(np.spacing(0.1))] + [tilted(TIE_TOL / unit * f) for f in (0.99, 0.999, 1.001, 1.01)]


def _wide_rows(rng):
    """Channels whose rows share 8 to 130 outputs: numpy's add.reduce sums 8
    or more terms in 8-way blocks, not left to right."""
    out = []
    for n_out in (8, 9, 12, 15, 16, 17, 24, 40, 130):
        for _ in range(4):
            mat = np.exp(3.0 * rng.normal(size=(3, n_out)))
            out.append(make_dmc(mat / mat.sum(axis=1, keepdims=True)))
    return out


def _left_to_right(a) -> float:
    total = 0.0
    for u in a.tolist():
        total += u
    return total


class TestNumpySummationRule:
    """``channel._probe`` sums fewer than ``PAIRWISE_BLOCK`` terms with a
    left-to-right loop because ``np.add.reduce`` adds them that way; from 8
    terms on numpy sums in 8-way blocks.  A numpy release that moves the
    rule fails here before any output moves."""

    @staticmethod
    def arrays(rng, n, count):
        # uniform in (0, 1), spread down to 1e-300, and spread over 1e+-300
        out = []
        for i in range(count):
            if i % 3 == 0:
                out.append(rng.random(n))
            else:
                out.append(10.0 ** rng.uniform(-300.0, 0.0 if i % 3 == 1 else 300.0, n))
        return out

    def test_fewer_than_eight_terms_add_left_to_right(self, rng):
        assert channel.PAIRWISE_BLOCK == 8
        for n in range(1, channel.PAIRWISE_BLOCK):
            for a in self.arrays(rng, n, 3000):
                assert repr(_left_to_right(a)) == repr(float(np.add.reduce(a))), a

    def test_eight_terms_do_not(self, rng):
        arrays = self.arrays(rng, channel.PAIRWISE_BLOCK, 3000)
        differ = sum(_left_to_right(a) != np.add.reduce(a) for a in arrays)
        assert differ > 0


def _split_channels(rng):
    """Both sides of ``PAIRWISE_BLOCK``: rows with exactly 7 and exactly 8
    outputs, and 16-output rows whose zeros mask the pairs down to 8, 7, 3
    and 11 common outputs."""
    out = []
    for n_out in (7, 8):
        mat = np.exp(3.0 * rng.normal(size=(3, n_out)))
        out.append(make_dmc(mat / mat.sum(axis=1, keepdims=True)))
    supports = [range(0, 12), range(4, 16), range(5, 16), [0, 10, 11, 12, 13, 14, 15]]
    mat = np.zeros((4, 16))
    for r, cols in enumerate(supports):
        mat[r, list(cols)] = np.exp(3.0 * rng.normal(size=len(cols)))
    out.append(make_dmc(mat / mat.sum(axis=1, keepdims=True)))
    return out


class TestFloatProbe:
    """``chernoff`` and ``_half_and_slope`` evaluate d_C(s) over Python
    floats with numpy's exp, summing the weights left to right below
    ``PAIRWISE_BLOCK`` common outputs and with ``np.add.reduce`` from it on;
    they return the bits of the array-form references ``chernoff_array``
    and ``half_and_slope_array``."""

    @staticmethod
    def check(P, both_orders=False) -> int:
        n = P.input_size
        pairs = [(x, xp) for x in range(n) for xp in range(n) if x != xp and (both_orders or x < xp)]
        for x, xp in pairs:
            assert repr(chernoff(P, x, xp)) == repr(chernoff_array(P, x, xp)), (P.probs, x, xp)
            assert repr(_half_and_slope(P, x, xp)) == repr(half_and_slope_array(P, x, xp)), (P.probs, x, xp)
        return len(pairs)

    @pytest.mark.parametrize("seed", [7, 11])
    def test_benchmark_channels(self, seed):
        inputs = perfbench_inputs()
        cases = inputs.corpus_cases(ROOT, seed) + inputs.wide_cases(seed)
        channels = {id(e.channel): e.channel for case in cases for e in case.graph.edges}
        assert sum(self.check(P) for P in channels.values()) > 1500

    def test_eight_or_more_common_outputs(self, rng):
        for P in _wide_rows(rng):
            self.check(P)

    def test_both_sides_of_the_pairwise_block(self, rng):
        def sizes(P):
            n = P.input_size
            return {(x, xp): len(channel._common_support(P, x, xp)) for x in range(n) for xp in range(x + 1, n)}

        seven, eight, masked = _split_channels(rng)
        assert set(sizes(seven).values()) == {7}
        assert set(sizes(eight).values()) == {8}
        assert sizes(masked) == {(0, 1): 8, (0, 2): 7, (0, 3): 3, (1, 2): 11, (1, 3): 6, (2, 3): 6}
        for P in (seven, eight, masked):
            self.check(P, both_orders=True)

    def test_a_wide_channel(self, rng):
        # 2048 terms: above 128 terms numpy's pairwise sum splits recursively
        mat = np.exp(3.0 * rng.normal(size=(12, 2048)))
        self.check(make_dmc(mat / mat.sum(axis=1, keepdims=True)))

    def test_entries_near_the_underflow_limit(self):
        for tiny in (1e-300, 3e-305, 2.5e-308):
            self.check(make_dmc([[tiny, 0.5, 0.5 - tiny, 0.0],
                                 [7 * tiny, 0.0, 0.25, 0.75 - 7 * tiny],
                                 [tiny, 1.0 - 2 * tiny, 0.0, tiny]]), both_orders=True)
            # the one common output carries ~1e-300 in both rows
            self.check(make_dmc([[tiny, 1.0 - tiny, 0.0], [13 * tiny, 0.0, 1.0 - 13 * tiny]]), both_orders=True)

    def test_probability_one_outputs_and_single_common_outputs(self):
        for rows in (
            [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.5, 0.0]],
            [[1.0, 0.0], [0.3, 0.7], [0.0, 1.0]],
            [[0.3, 0.7, 0.0], [0.0, 0.4, 0.6], [0.0, 0.0, 1.0]],
            np.eye(3),
        ):
            self.check(make_dmc(rows), both_orders=True)

    def test_rows_one_ulp_apart_and_slopes_at_the_tie_tolerance(self):
        channels = _one_ulp_tilts()
        assert np.count_nonzero(channels[0].probs[0] != channels[0].probs[1]) == 2
        slopes = [abs(_half_and_slope(P, 0, 1)[1]) for P in channels[2:]]
        assert any(TIE_TOL / 1.1 < s <= TIE_TOL for s in slopes)
        assert any(TIE_TOL < s < TIE_TOL * 1.1 for s in slopes)
        for P in channels:
            self.check(P, both_orders=True)


class TestProductPower:
    def test_power_bsc_row(self):
        P2 = power(bsc(0.1), 2)
        assert np.allclose(P2.probs[0], [0.81, 0.09, 0.09, 0.01])

    def test_product_identity(self):
        I4 = product(identity_channel(2), identity_channel(2))
        assert np.allclose(I4.probs, np.eye(4))

    def test_tensorization_bhattacharyya(self):
        P = bsc(0.1)
        P3 = power(P, 3)
        x = 0 * 4 + 0 * 2 + 0
        xp = 1 * 4 + 1 * 2 + 1
        assert abs(bhattacharyya(P3, x, xp) - 3 * DB_BSC01) < 1e-9

    def test_tensorization_random_s(self, rng):
        for _ in range(100):
            P = rand_dmc(rng, max_in=3, max_out=3, zeros=True)
            k = int(rng.integers(1, 5))
            Pk = power(P, k)
            xs = [int(v) for v in rng.integers(0, P.input_size, k)]
            ys = [int(v) for v in rng.integers(0, P.input_size, k)]
            xi = yi = 0
            for a, b in zip(xs, ys):
                xi = xi * P.input_size + a
                yi = yi * P.input_size + b
            s = float(rng.random())
            lhs = chernoff_at(Pk, xi, yi, s)
            rhs = sum(chernoff_at(P, a, b, s) for a, b in zip(xs, ys))
            if math.isinf(lhs) or math.isinf(rhs):
                assert math.isinf(lhs) and math.isinf(rhs)
            else:
                assert abs(lhs - rhs) < 1e-9

    def test_guard(self):
        with pytest.raises(AlphabetTooLarge):
            power(ksym(10, 0.01), 8)


class TestRestrict:
    def test_repetition_code(self):
        Q = restrict(bsc(0.1), [(0, 0), (1, 1)])
        assert Q.input_size == 2 and Q.output_size == 4
        assert np.allclose(Q.probs[0], [0.81, 0.09, 0.09, 0.01])
        assert np.allclose(Q.probs[1], [0.01, 0.09, 0.09, 0.81])

    def test_single_codeword(self):
        Q = restrict(bsc(0.1), [(0, 1, 0)])
        assert Q.input_size == 1
        assert abs(Q.probs.sum() - 1.0) < 1e-12

    def test_preserves_reversibility(self, rng):
        for _ in range(50):
            P = rand_reversible(rng)
            ell = int(rng.integers(1, 4))
            if P.output_size**ell > 10**5:
                ell = 1
            n_words = int(rng.integers(2, 5))
            words = [tuple(int(v) for v in rng.integers(0, P.input_size, ell)) for _ in range(n_words)]
            assert is_pairwise_reversible(pairwise_chernoff(restrict(P, words)))[0]


class TestCompose:
    def test_identity_neutral(self, rng):
        P = rand_dmc(rng)
        C = compose(identity_channel(P.input_size), P)
        assert np.allclose(C.probs, P.probs)

    def test_bsc_cascade(self):
        C = compose(bsc(0.1), bsc(0.1))
        assert np.allclose(C.probs, bsc(0.18).probs)

    def test_rows_stochastic(self, rng):
        for _ in range(20):
            P1 = rand_dmc(rng)
            P2 = rand_dmc(rng)
            if P1.output_size != P2.input_size:
                continue
            C = compose(P1, P2)
            assert np.allclose(C.probs.sum(axis=1), 1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            compose(bec(0.3), bsc(0.1))


class TestLikelihoodRatioBound:
    def test_bound_holds(self, rng):
        # -log Pr(L <= L0) >= d_B(P, Q) - log(L0)/2, Pr computed by enumeration
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
                    continue  # vacuous
                assert -math.log(pr) >= db - 0.5 * math.log(L0) - 1e-12
                checked += 1
        assert checked > 100


class TestCompositeChannelBound:
    def test_bound_holds(self, rng):
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
                            v = (
                                chernoff_at(P2, y, yp, s)
                                - (1 - s) * math.log(P1.probs[x, y])
                                - s * math.log(P1.probs[xp, yp])
                            )
                            rhs = min(rhs, v)
                    rhs -= 2 * math.log(P1.output_size)
                    assert lhs >= rhs - 1e-9


class TestSerialization:
    @pytest.mark.parametrize("obj", [
        {"kind": "bsc", "p": 0.1},
        {"kind": "bec", "p": 0.3},
        {"kind": "ksym", "k": 4, "p": 0.05},
        {"kind": "matrix", "rows": [[0.2, 0.8], [0.7, 0.3]]},
    ])
    def test_round_trip(self, obj):
        P = channel_from_obj(obj)
        Q = channel_from_obj(channel_to_obj(P, obj))
        assert np.allclose(P.probs, Q.probs)

    def test_unknown_kind(self):
        with pytest.raises(ParameterOutOfRange):
            channel_from_obj({"kind": "awgn", "snr": 3})
