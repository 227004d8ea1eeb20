"""Channel operations that only tests use: the Chernoff divergence at a
fixed s, the search of every input pair, the k-fold power of a channel, its
restriction to a set of codewords and the cascade of two channels.  They are
the reference forms for the divergence identities the tests check
(additivity over products, the data-processing bound of a cascade), for the
pairs that ``pairwise_chernoff`` leaves unsearched and for the rows of the
exact protocol law, which builds a hop's restriction in place.  ``chernoff_array`` and
``half_and_slope_array`` evaluate every d_C(s) with numpy's element-wise
ufuncs on the masked log rows; ``channel.chernoff`` and
``channel._half_and_slope`` must return the same bits."""
import math

import numpy as np

from netexp.channel import (
    GOLDEN_TOL,
    PRODUCT_GUARD,
    TIE_TOL,
    DivergenceResult,
    Dmc,
    chernoff,
    make_dmc,
    product,
)
from netexp.errors import AlphabetTooLarge, DimensionMismatch, ParameterOutOfRange


def _lse(v: np.ndarray) -> float:
    """log(sum(exp(v))) of a small 1-d array, shifted by its maximum; a
    non-finite maximum is returned as it is.  Calls the ufunc reductions
    directly: ``v.max()`` and ``.sum()`` are the same reductions behind a
    Python wrapper."""
    mx = np.maximum.reduce(v)
    if not math.isfinite(mx):
        return float(mx)
    return float(mx + math.log(np.add.reduce(np.exp(v - mx))))


def common_support_array(P: Dmc, x: int, xp: int):
    """The log rows of inputs x and x' on the outputs both can produce, as
    (log P(.|x), log P(.|x')), or None when their supports are disjoint."""
    lx, ly = P.log_probs[x], P.log_probs[xp]
    mask = np.isfinite(lx) & np.isfinite(ly)
    if not mask.any():
        return None
    return lx[mask], ly[mask]


def chernoff_array(P: Dmc, x: int, xp: int) -> DivergenceResult:
    """Chernoff divergence with optimized s, via golden-section search.

    d_C(s) is concave in s, so a golden-section search on [0, 1] converges;
    the midpoint and both endpoints are probed as well so pairwise-reversible
    channels return value equal to the Bhattacharyya distance exactly.
    """
    P.check_input(x)
    P.check_input(xp)
    rows = common_support_array(P, x, xp)
    if rows is None:
        return DivergenceResult(value=math.inf, argmax_s=0.5, at_half=math.inf)
    la, lb = rows

    def f(s: float) -> float:
        val = -_lse((1.0 - s) * la + s * lb)
        return val if val > 1e-12 else 0.0

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.0, 1.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > GOLDEN_TOL:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    s_star = 0.5 * (a + b)

    # Probe order fixes tie-breaking: prefer s=1/2, then the interior optimum.
    candidates = [(f(0.5), 0.5), (f(s_star), s_star), (f(0.0), 0.0), (f(1.0), 1.0)]
    best_val, best_s = candidates[0]
    for val, s in candidates[1:]:
        if val > best_val + TIE_TOL:
            best_val, best_s = val, s
    return DivergenceResult(value=best_val, argmax_s=best_s, at_half=candidates[0][0])


def half_and_slope_array(P: Dmc, x: int, xp: int) -> tuple:
    """d_C(1/2), bit-identical to the value :func:`chernoff_array` probes there,
    and the slope d_C'(1/2): minus the mean of log(P_x'/P_x) under weights
    proportional to sqrt(P_x P_x').  Disjoint rows give (+inf, 0)."""
    rows = common_support_array(P, x, xp)
    if rows is None:
        return math.inf, 0.0
    la, lb = rows
    v = 0.5 * la + 0.5 * lb
    mx = np.maximum.reduce(v)
    w = np.exp(v - mx)
    total = np.add.reduce(w)
    val = -float(mx + math.log(total))
    slope = -float(w @ (lb - la)) / float(total)
    return (val if val > 1e-12 else 0.0), slope


def chernoff_at(P: Dmc, x: int, xp: int, s: float) -> float:
    """Chernoff divergence at parameter s: -log sum_y P(y|x)^(1-s) P(y|x')^s.

    Uses the convention 0^0 = 0 inside the sum, so the endpoint values are
    the one-sided limits (at s=0 the sum runs over supp(P_x') of P(y|x)).
    """
    P.check_input(x)
    P.check_input(xp)
    if not 0.0 <= s <= 1.0:
        raise ParameterOutOfRange(f"s must lie in [0, 1], got {s}")
    rows = common_support_array(P, x, xp)
    if rows is None:
        return math.inf
    val = -_lse((1.0 - s) * rows[0] + s * rows[1])
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


def product_row(P: Dmc, word) -> np.ndarray:
    """Row of the len(word)-fold power of P at the given input sequence,
    by ``np.kron`` from the left."""
    row = np.ones(1)
    for sym in word:
        P.check_input(int(sym))
        row = np.kron(row, P.probs[int(sym)])
    return row


def restrict(P: Dmc, codewords) -> Dmc:
    """Restriction of P^ell to a list of equal-length input sequences.

    The result has one input per codeword; its rows are the product-channel
    rows of the codewords, normalized by ``make_dmc``, so divergences between
    codewords are preserved.
    """
    return make_dmc(np.stack([product_row(P, w) for w in codewords]))
