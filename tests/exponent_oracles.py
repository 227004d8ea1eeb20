"""Enumeration oracle for the finite-length error probability of a 1-hop
permutation codebook, the closed-form tilde exponent of the K-ary
symmetric channel, the array-indexing tilde multiset search, the
one-system-at-a-time zero-rate support enumeration, and a seeded
generator of adversarial distance matrices for the zero-rate solvers."""
import itertools
import math

import numpy as np

from netexp.channel import Dmc
from netexp.errors import AlphabetTooLarge, ParameterOutOfRange
from netexp.exponents import permutation_codebook, tilde_exponent


def oracle_exponent_1hop(P: Dmc, M: int, n: int) -> float:
    """Exact worst-case ML error probability of the permutation codebook
    repeated cyclically to length n, by full output enumeration."""
    if P.output_size**n > 10**7:
        raise AlphabetTooLarge(f"{P.output_size}^{n} outputs exceed the 1e7 guard")
    cb = permutation_codebook(tilde_exponent(P, M), M)
    words = [[cb[m][j % len(cb[0])] for j in range(n)] for m in range(M)]
    L = np.zeros((M, 1))
    for j in range(n):
        cols = np.array([words[m][j] for m in range(M)])
        L = (L[:, :, None] + P.log_probs[cols][:, None, :]).reshape(M, -1)
    decisions = np.argmax(L, axis=0)
    worst = 0.0
    for m_idx in range(M):
        wrong = decisions != m_idx
        p_err = float(np.exp(L[m_idx][wrong]).sum()) if wrong.any() else 0.0
        worst = max(worst, p_err)
    return worst


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


def support_enumeration_loop(D: np.ndarray):
    """``exponents._support_enumeration`` with one ``np.linalg.solve`` per
    support: same supports, order, skip rule and 1e-12 tie rule."""
    n = D.shape[0]
    best_val, best_q = -math.inf, None
    for k in range(1, n + 1):
        rhs = np.zeros(k + 1)
        rhs[k] = 1.0
        for S in itertools.combinations(range(n), k):
            A = np.ones((k + 1, k + 1))
            A[:k, :k] = D[np.ix_(S, S)]
            A[k, k] = 0.0
            try:
                sol = np.linalg.solve(A, rhs)
            except np.linalg.LinAlgError:
                continue
            if np.any(sol[:k] < 0):
                continue
            q = np.zeros(n)
            q[list(S)] = sol[:k]
            val = float(q @ D @ q)
            if val > best_val + 1e-12:
                best_val, best_q = val, q
    return best_val, best_q


def best_multiset_loop(D: np.ndarray, M: int):
    """``exponents._best_multiset`` reading numpy scalars from the array:
    same multisets, order, additions and first-maximum rule."""
    n = D.shape[0]
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


ADVERSARIAL_KINDS = ("near_singular", "near_tie", "large", "thin_interior")


def _symmetric(upper: np.ndarray) -> np.ndarray:
    """The symmetric matrix with zero diagonal and this upper triangle."""
    D = np.triu(upper, 1)
    return D + D.T


def adversarial_d_matrices(rng, count: int) -> list:
    """``count`` seeded (kind, D) pairs: symmetric distance matrices with a
    zero diagonal, 3 to 8 inputs and finite entries, cycling through
    ``ADVERSARIAL_KINDS``.

    - near_singular: an input repeated with its distances moved by at most
      1e-13, so bordered systems holding both copies are (near-)singular.
    - near_tie: equal off-diagonal distances moved by at most 1e-13, so many
      supports score within the enumeration's 1e-12 tie band.
    - large: distances up to 745, the d_B of outputs near float underflow.
    - thin_interior: a concave matrix whose full-support KKT point has one
      coordinate eps in +-(1e-8 .. 1e-2): it beats the face eps = 0 by a
      multiple of eps^2, from below the 1e-12 tie band to above the
      certificate's margin, or (eps < 0) lies outside the simplex.
    """
    out = []
    while len(out) < count:
        kind = ADVERSARIAL_KINDS[len(out) % len(ADVERSARIAL_KINDS)]
        n = int(rng.integers(3, 9))
        if kind == "near_singular":
            D = _symmetric(rng.uniform(0.05, 2.0, (n, n)))
            i, j = rng.choice(n, size=2, replace=False)
            D[j] = D[:, j] = D[i] + rng.uniform(-1e-13, 1e-13, n)
            D[i, j] = D[j, i] = float(rng.choice([0.0, 1e-14]))
            D[j, j] = 0.0
        elif kind == "near_tie":
            D = _symmetric(float(rng.uniform(0.1, 3.0)) + rng.uniform(-1e-13, 1e-13, (n, n)))
        elif kind == "large":
            D = _symmetric(10.0 ** rng.uniform(-2.0, math.log10(745.0), (n, n)))
        else:
            # inputs 0..n-2 at mutual distance a, each at distance b from
            # input n-1; (s, ..., s, eps) is a KKT point when
            # b = a s (n-2) / (1 - 2 eps), s = (1 - eps) / (n - 1)
            eps = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-8.0, -2.0))
            a = float(rng.uniform(0.5, 2.0))
            s = (1 - eps) / (n - 1)
            D = np.full((n, n), a)
            D[-1] = D[:, -1] = a * s * (n - 2) / (1 - 2 * eps)
            D = _symmetric(D + rng.uniform(0.0, 1e-15, (n, n)))
            perm = rng.permutation(n)
            D = D[np.ix_(perm, perm)]
        out.append((kind, np.abs(D)))
    return out
