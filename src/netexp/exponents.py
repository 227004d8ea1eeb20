"""1-hop error exponents: two-message, Bhattacharyya-averaged M-message,
zero-rate, the permutation codebook that equalizes pairwise distances, and
closed-form reference values for symmetric channels.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import Dmc, bhattacharyya, chernoff
from .errors import MTooLarge, ParameterOutOfRange, SearchSpaceTooLarge

MULTISET_GUARD = 10**6
ZERO_RATE_INPUT_GUARD = 12
GRID_STEP_DENOM = 40
GRID_POINT_BUDGET = 300_000
ASCENT_RESTARTS = 20


@dataclass(frozen=True)
class ExponentReport:
    """Exponent value (nats per channel use) plus the witness that attains it.

    ``optimizer`` is an input pair, an input tuple, or a simplex distribution
    depending on the operation; None for degenerate one-input channels.
    """

    value: float
    optimizer: tuple | None
    method: str


@dataclass(frozen=True)
class Codebook:
    """M codewords of length ell with equal pairwise Bhattacharyya distance."""

    M: int
    ell: int
    words: tuple


def _db_matrix(P: Dmc) -> np.ndarray:
    n = P.input_size
    D = np.zeros((n, n))
    for x in range(n):
        for xp in range(x + 1, n):
            D[x, xp] = D[xp, x] = bhattacharyya(P, x, xp)
    return D


def exponent_two(P: Dmc) -> ExponentReport:
    """Two-message exponent: max over input pairs of the Chernoff divergence."""
    best_val = 0.0
    best_pair = None
    for x in range(P.input_size):
        for xp in range(x + 1, P.input_size):
            val = chernoff(P, x, xp).value
            if best_pair is None or val > best_val:
                best_val, best_pair = val, (x, xp)
    if best_pair is None:
        return ExponentReport(value=0.0, optimizer=None, method="exhaustive")
    return ExponentReport(value=best_val, optimizer=best_pair, method="exhaustive")


def _best_multiset(D: np.ndarray, M: int):
    """Maximize sum of pairwise D over size-M multisets of row indices."""
    n = D.shape[0]
    if math.comb(n + M - 1, M) > MULTISET_GUARD:
        raise SearchSpaceTooLarge(
            f"{math.comb(n + M - 1, M)} multisets of size {M} from {n} inputs exceeds the 1e6 guard"
        )
    best_sum = -1.0
    best = None
    for combo in itertools.combinations_with_replacement(range(n), M):
        s = 0.0
        for i in range(M):
            for j in range(i + 1, M):
                s += D[combo[i], combo[j]]
        if best is None or s > best_sum:
            best_sum, best = s, combo
    return best, best_sum


def tilde_exponent(P: Dmc, M: int) -> ExponentReport:
    """Bhattacharyya-averaged M-message exponent.

    Maximizes (2 / (M(M-1))) * sum of pairwise d_B over input tuples with
    repetition; the objective is permutation-invariant so only multisets are
    enumerated.
    """
    if M < 2:
        raise ParameterOutOfRange(f"need M >= 2, got {M}")
    if P.input_size == 1:
        return ExponentReport(value=0.0, optimizer=None, method="exhaustive")
    D = _db_matrix(P)
    combo, pair_sum = _best_multiset(D, M)
    value = 2.0 / (M * (M - 1)) * pair_sum
    return ExponentReport(value=float(value), optimizer=tuple(combo), method="exhaustive")


@lru_cache(maxsize=32)
def _simplex_grid(n: int, denom: int) -> np.ndarray:
    """All distributions with denominator `denom` on n atoms (stars and bars)."""
    count = math.comb(denom + n - 1, n - 1)
    cuts = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(denom + n - 1), n - 1)),
        dtype=np.int64,
        count=count * (n - 1),
    ).reshape(count, n - 1)
    bounds = np.concatenate(
        [np.full((count, 1), -1), cuts, np.full((count, 1), denom + n - 1)], axis=1
    )
    grid = (np.diff(bounds, axis=1) - 1) / denom
    grid.flags.writeable = False
    return grid


def _pairwise_ascent(q: np.ndarray, D: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Iterated conditional improvement of q^T D q over coordinate pairs.

    For fixed mass t on a pair (i, j), the objective is quadratic in the
    split with nonpositive curvature (D >= 0), so each pair update is exact.
    """
    q = q.copy()
    n = len(q)
    for _ in range(500):
        improved = 0.0
        r = D @ q
        for i in range(n):
            for j in range(i + 1, n):
                t = q[i] + q[j]
                if t <= 0:
                    continue
                ri = r[i] - D[i, j] * q[j]
                rj = r[j] - D[i, j] * q[i]
                dij = D[i, j]
                if dij > 0:
                    a = t / 2 + (ri - rj) / (2 * dij)
                    a = min(max(a, 0.0), t)
                else:
                    a = t if ri > rj else (q[i] if ri == rj else 0.0)
                gain = (
                    2 * a * ri + 2 * (t - a) * rj + 2 * dij * a * (t - a)
                    - (2 * q[i] * ri + 2 * q[j] * rj + 2 * dij * q[i] * q[j])
                )
                if gain > tol:
                    improved += gain
                    r += D[:, i] * (a - q[i]) + D[:, j] * (t - a - q[j])
                    q[i], q[j] = a, t - a
        if improved <= tol:
            break
    return q


def zero_rate_exponent(P: Dmc) -> ExponentReport:
    """Zero-rate exponent: max over input distributions q of sum q_x q_x' d_B(x, x').

    Global search = simplex grid anchor + pairwise coordinate ascent from the
    grid optimum, the uniform point, random restarts, and the empirical types
    of the best M-tuples for M in {2, 3, 4} (these starts alone certify the
    (M-1)/M lower bound against the tilde exponent).  Two inputs with
    disjoint output supports make the exponent +inf, attained by splitting
    the mass evenly between them.
    """
    n = P.input_size
    if n > ZERO_RATE_INPUT_GUARD:
        raise SearchSpaceTooLarge(f"zero-rate search supports at most {ZERO_RATE_INPUT_GUARD} inputs, got {n}")
    if n == 1:
        return ExponentReport(value=0.0, optimizer=(1.0,), method="closed_form")
    D = _db_matrix(P)
    disjoint = np.argwhere(np.isinf(D))
    if disjoint.size:
        q = np.zeros(n)
        q[disjoint[0]] = 0.5
        return ExponentReport(
            value=math.inf, optimizer=tuple(float(v) for v in q), method="closed_form"
        )

    if n == 2:
        return ExponentReport(
            value=float(D[0, 1] / 2.0), optimizer=(0.5, 0.5), method="closed_form"
        )

    starts = [np.full(n, 1.0 / n)]
    for M in (2, 3, 4):
        combo, _ = _best_multiset(D, M)
        t = np.zeros(n)
        for c in combo:
            t[c] += 1.0 / M
        starts.append(t)

    denom = GRID_STEP_DENOM
    while math.comb(denom + n - 1, n - 1) > GRID_POINT_BUDGET:
        denom -= 1
    grid = _simplex_grid(n, denom)
    vals = np.einsum("gi,ij,gj->g", grid, D, grid)
    starts.append(grid[int(np.argmax(vals))])

    rng = np.random.default_rng(2718281828)
    for _ in range(ASCENT_RESTARTS):
        starts.append(rng.dirichlet(np.ones(n)))

    best_q = None
    best_val = -1.0
    for q0 in starts:
        q = _pairwise_ascent(q0, D)
        val = float(q @ D @ q)
        if val > best_val:
            best_val, best_q = val, q
    return ExponentReport(
        value=best_val, optimizer=tuple(float(v) for v in best_q), method="grid_plus_ascent"
    )


def berlekamp_codebook(P: Dmc, M: int) -> Codebook:
    """Permutation codebook of length M! whose pairwise distances all equal
    M! times the tilde exponent.

    Column sigma (permutations in lexicographic order) assigns word m the
    symbol x_{sigma(m)}, where (x_1..x_M) is the tilde-optimal tuple.
    """
    if M < 2 or M > 6:
        raise MTooLarge(f"codebook construction supports 2 <= M <= 6, got {M}")
    report = tilde_exponent(P, M)
    tup = report.optimizer if report.optimizer is not None else (0,) * M
    perms = list(itertools.permutations(range(M)))
    words = tuple(tuple(tup[sigma[m]] for sigma in perms) for m in range(M))
    return Codebook(M=M, ell=math.factorial(M), words=words)


def ksym_closed_form(K: int, M: int, p: float) -> float:
    """Tilde exponent of the K-ary symmetric channel with M <= K messages.

    Any M distinct inputs attain the optimum and every distinct pair has the
    same distance, so the value is -log(2 sqrt(p (1-(K-1)p)) + (K-2) p)
    independently of M.
    """
    if K < 2 or not 2 <= M <= K:
        raise ParameterOutOfRange(f"need 2 <= M <= K with K >= 2, got M={M}, K={K}")
    if not 0 < p < 1 / (K - 1):
        raise ParameterOutOfRange(f"need p in (0, 1/{K - 1}), got {p}")
    return -math.log(2.0 * math.sqrt(p * (1.0 - (K - 1) * p)) + (K - 2) * p)


def bsc_feedback_exponent_m3(p: float) -> float:
    """Three-message feedback exponent of the binary symmetric channel."""
    if not 0 < p < 0.5:
        raise ParameterOutOfRange(f"need p in (0, 1/2), got {p}")
    return -math.log(p ** (1 / 3) * (1 - p) ** (2 / 3) + p ** (2 / 3) * (1 - p) ** (1 / 3))
