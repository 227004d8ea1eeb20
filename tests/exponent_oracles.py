"""Enumeration oracle for the finite-length error probability of a 1-hop
permutation codebook, the closed-form tilde exponent of the K-ary
symmetric channel, and the one-system-at-a-time zero-rate support
enumeration."""
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
    words = [[cb.words[m][j % cb.ell] for j in range(n)] for m in range(M)]
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
