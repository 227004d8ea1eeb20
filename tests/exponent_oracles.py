"""Enumeration oracle for the finite-length error probability of a 1-hop
permutation codebook."""
import numpy as np

from netexp.channel import Dmc
from netexp.errors import AlphabetTooLarge
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
