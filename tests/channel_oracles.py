"""Channel operations that only tests use: the Chernoff divergence at a
fixed s, the search of every input pair, the k-fold power of a channel and
the cascade of two channels.  They are the reference forms for the
divergence identities the tests check (additivity over products, the
data-processing bound of a cascade) and for the pairs that
``pairwise_chernoff`` leaves unsearched."""
import math

import numpy as np

from netexp.channel import PRODUCT_GUARD, Dmc, _lse, chernoff, make_dmc, product
from netexp.errors import AlphabetTooLarge, DimensionMismatch, ParameterOutOfRange


def chernoff_at(P: Dmc, x: int, xp: int, s: float) -> float:
    """Chernoff divergence at parameter s: -log sum_y P(y|x)^(1-s) P(y|x')^s.

    Uses the convention 0^0 = 0 inside the sum, so the endpoint values are
    the one-sided limits (at s=0 the sum runs over supp(P_x') of P(y|x)).
    """
    P.check_input(x)
    P.check_input(xp)
    if not 0.0 <= s <= 1.0:
        raise ParameterOutOfRange(f"s must lie in [0, 1], got {s}")
    lx, ly = P.log_probs[x], P.log_probs[xp]
    mask = np.isfinite(lx) & np.isfinite(ly)
    if not mask.any():
        return math.inf
    val = -_lse((1.0 - s) * lx[mask] + s * ly[mask])
    return val if val > 1e-12 else 0.0


def every_pair_chernoff(P: Dmc) -> dict:
    """Optimized Chernoff divergence of every input pair, keyed (x, x') with
    x < x' in lexicographic order."""
    n = P.input_size
    return {(x, xp): chernoff(P, x, xp) for x in range(n) for xp in range(x + 1, n)}


def power(P: Dmc, k: int) -> Dmc:
    """k-fold product of P with itself."""
    if k < 1:
        raise ParameterOutOfRange(f"power requires k >= 1, got {k}")
    if P.output_size**k > PRODUCT_GUARD or P.input_size**k > PRODUCT_GUARD:
        raise AlphabetTooLarge(f"alphabet size {P.output_size}^{k} exceeds the 1e7 guard")
    out = P
    for _ in range(k - 1):
        out = product(out, P)
    return out


def compose(P1: Dmc, P2: Dmc) -> Dmc:
    """Composite channel feeding P1's output into P2: matrix product."""
    if P1.output_size != P2.input_size:
        raise DimensionMismatch(
            f"compose needs P1.output_size == P2.input_size, got {P1.output_size} vs {P2.input_size}"
        )
    return make_dmc(P1.probs @ P2.probs)
