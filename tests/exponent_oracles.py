"""Enumeration oracle for the finite-length error probability of a 1-hop
permutation codebook, and the closed-form tilde exponent of the K-ary
symmetric channel."""
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
