"""Discrete memoryless channels and their divergence calculus.

A channel is a row-stochastic matrix P(y|x) stored alongside its natural
logs (with ln 0 = -inf), so that every divergence can be accumulated in the
log domain.  All values are in nats.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AlphabetTooLarge,
    DimensionMismatch,
    IndexOutOfRange,
    LengthMismatch,
    NegativeEntry,
    NonFiniteEntry,
    NonStochasticRow,
    ParameterOutOfRange,
)

ROW_SUM_TOL = 1e-9
NEG_CLAMP = -1e-15
PRODUCT_GUARD = 10**7

# Invariant: golden-section bracket shrinks to this width; d_C is concave in s
# so the bracket always contains the maximizer.
GOLDEN_TOL = 1e-10
# A Chernoff probe replaces d_C(1/2) only when it is higher by more than this.
TIE_TOL = 1e-13
# A pair whose optimum exceeds d_C(1/2) by more than this is not reversible.
REVERSIBLE_TOL = 1e-7
# Rounding slack on the concavity bound d_C(s) <= d_C(1/2) + |d_C'(1/2)|/2.
BOUND_SLACK = 1e-9


def _lse(v: np.ndarray) -> float:
    """log(sum(exp(v))) of a small 1-d array, shifted by its maximum; a
    non-finite maximum is returned as it is.  Calls the ufunc reductions
    directly: ``v.max()`` and ``.sum()`` are the same reductions behind a
    Python wrapper."""
    mx = np.maximum.reduce(v)
    if not math.isfinite(mx):
        return float(mx)
    return float(mx + math.log(np.add.reduce(np.exp(v - mx))))


@dataclass(frozen=True)
class Dmc:
    """Finite channel: ``probs[x, y] = P(y | x)``, rows sum to one.

    ``log_probs`` caches entrywise natural logs, -inf where the entry is 0.
    Instances are immutable; build them through :func:`make_dmc` or the
    named constructors below.
    """

    probs: np.ndarray
    log_probs: np.ndarray
    label: str | None = None

    @property
    def input_size(self) -> int:
        return self.probs.shape[0]

    @property
    def output_size(self) -> int:
        return self.probs.shape[1]

    def check_input(self, x: int) -> None:
        if not 0 <= x < self.input_size:
            raise IndexOutOfRange(f"input index {x} outside [0, {self.input_size})")

    def __repr__(self) -> str:
        name = self.label or "dmc"
        return f"<Dmc {name} {self.input_size}x{self.output_size}>"


@dataclass(frozen=True)
class DivergenceResult:
    """Optimized Chernoff divergence: value in nats, the maximizing s, and
    the value at s=1/2 (the Bhattacharyya distance)."""

    value: float
    argmax_s: float = 0.5
    at_half: float = field(kw_only=True)


def make_dmc(probs, label: str | None = None) -> Dmc:
    """Validate and normalize a transition matrix into a `Dmc`.

    A NaN or infinite entry raises NonFiniteEntry.  Entries in [-1e-15, 0)
    are clamped to 0 (serialization round-trip noise); anything more negative
    raises NegativeEntry.  Row sums must be within 1e-9 of 1; rows are then
    renormalized exactly.
    """
    arr = np.array(probs, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DimensionMismatch(f"expected a 2-d matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        r, c = (int(i) for i in np.argwhere(~np.isfinite(arr))[0])
        raise NonFiniteEntry(f"entry at ({r}, {c}) is not finite: {arr[r, c]}")
    if np.any(arr < NEG_CLAMP):
        r, c = (int(i) for i in np.argwhere(arr < NEG_CLAMP)[0])
        raise NegativeEntry(f"entry at ({r}, {c}) is negative: {arr[r, c]}")
    arr = np.where(arr < 0, 0.0, arr)
    sums = arr.sum(axis=1)
    off = np.abs(sums - 1.0)
    if np.any(off > ROW_SUM_TOL):
        r = int(np.argmax(off))
        raise NonStochasticRow(f"row {r} sums to {sums[r]!r}, expected 1")
    arr = arr / sums[:, None]
    with np.errstate(divide="ignore"):
        logs = np.log(arr)
    arr.flags.writeable = False
    logs.flags.writeable = False
    return Dmc(probs=arr, log_probs=logs, label=label)


def bsc(p: float) -> Dmc:
    """Binary symmetric channel with crossover probability p in (0, 1/2)."""
    if not 0 < p < 0.5:
        raise ParameterOutOfRange(f"bsc requires p in (0, 1/2), got {p}")
    return make_dmc([[1 - p, p], [p, 1 - p]], label=f"bsc({p:g})")


def bec(p: float) -> Dmc:
    """Binary erasure channel; outputs are (0, 1, erasure)."""
    if not 0 < p < 1:
        raise ParameterOutOfRange(f"bec requires p in (0, 1), got {p}")
    return make_dmc([[1 - p, 0.0, p], [0.0, 1 - p, p]], label=f"bec({p:g})")


def ksym(K: int, p: float) -> Dmc:
    """K-ary symmetric channel: P(y|x) = 1-(K-1)p if y=x, else p."""
    if K < 2:
        raise ParameterOutOfRange(f"ksym requires K >= 2, got {K}")
    if not 0 < p < 1 / (K - 1):
        raise ParameterOutOfRange(f"ksym requires p in (0, 1/{K - 1}), got {p}")
    mat = np.full((K, K), p)
    np.fill_diagonal(mat, 1 - (K - 1) * p)
    return make_dmc(mat, label=f"ksym({K},{p:g})")


def identity_channel(K: int) -> Dmc:
    """Noiseless K-ary channel (identity matrix)."""
    if K < 1:
        raise ParameterOutOfRange(f"identity requires K >= 1, got {K}")
    return make_dmc(np.eye(K), label=f"identity({K})")


def _common_support(P: Dmc, x: int, xp: int):
    """The log rows of inputs x and x' on the outputs both can produce, as
    (log P(.|x), log P(.|x')), or None when their supports are disjoint."""
    lx, ly = P.log_probs[x], P.log_probs[xp]
    mask = np.isfinite(lx) & np.isfinite(ly)
    if not mask.any():
        return None
    return lx[mask], ly[mask]


def bhattacharyya(P: Dmc, x: int, xp: int) -> float:
    """Bhattacharyya distance between input rows: -log sum_y sqrt(P(y|x)P(y|x')).

    Returns +inf when the rows have disjoint support.  The value is
    :func:`_half_and_slope`'s d_B, accumulated via log-sum-exp over the
    common support.
    """
    P.check_input(x)
    P.check_input(xp)
    return _half_and_slope(P, x, xp)[0]


def chernoff(P: Dmc, x: int, xp: int) -> DivergenceResult:
    """Chernoff divergence with optimized s, via golden-section search.

    d_C(s) is concave in s, so a golden-section search on [0, 1] converges;
    the midpoint and both endpoints are probed as well so pairwise-reversible
    channels return value equal to the Bhattacharyya distance exactly.
    """
    P.check_input(x)
    P.check_input(xp)
    rows = _common_support(P, x, xp)
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


def _half_and_slope(P: Dmc, x: int, xp: int) -> tuple:
    """d_C(1/2), bit-identical to the value :func:`chernoff` probes there,
    and the slope d_C'(1/2): minus the mean of log(P_x'/P_x) under weights
    proportional to sqrt(P_x P_x').  Disjoint rows give (+inf, 0)."""
    rows = _common_support(P, x, xp)
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


def _pair_halves(P: Dmc) -> dict:
    """:func:`_half_and_slope` of every input pair (x, x'), x < x', keyed by
    pair: the one d_B pass that the Bhattacharyya matrix and the
    :func:`pairwise_chernoff` screen both read."""
    n = P.input_size
    return {(x, xp): _half_and_slope(P, x, xp) for x in range(n) for xp in range(x + 1, n)}


def _off_half(res: DivergenceResult) -> bool:
    """Whether the optimum sits more than REVERSIBLE_TOL above d_C(1/2)."""
    return res.value > res.at_half + REVERSIBLE_TOL


def pairwise_chernoff(P: Dmc, *, halves: dict | None = None) -> dict:
    """Optimized Chernoff divergence of the input pairs that can change
    ``exponents.exponent_two`` or :func:`is_pairwise_reversible`, keyed
    (x, x') with x < x' in lexicographic order.

    A flat pair, |d_C'(1/2)| <= TIE_TOL, is stored as (d_B, 1/2, d_B)
    without a search: d_C is concave on [0, 1], so its optimum is at most
    d_B + TIE_TOL/2 with d_B = d_C(1/2), no probe beats d_C(1/2) by TIE_TOL,
    and d_B is bit-identical to the value :func:`chernoff` probes at 1/2.
    Disjoint rows, (+inf, 0), give chernoff's (+inf, 1/2, +inf) this way.
    Any other pair is searched with :func:`chernoff` when
    - the concavity bound d_B + |d_C'(1/2)|/2, plus BOUND_SLACK, reaches
      the best value so far, or
    - no stored pair is off its midpoint yet and |d_C'(1/2)| exceeds
      REVERSIBLE_TOL, so the pair could be the first non-reversible one,
    and left out otherwise: it can neither be the first maximum nor the
    first witness, so both readers return what a search of every pair gives.
    ``halves``, the channel's :func:`_pair_halves`, saves recomputing them.
    """
    if halves is None:
        halves = _pair_halves(P)
    pairs = {}
    best, witnessed = -math.inf, False
    for pair, (d_b, slope) in halves.items():
        if abs(slope) <= TIE_TOL:
            res = DivergenceResult(value=d_b, argmax_s=0.5, at_half=d_b)
        elif d_b + abs(slope) / 2 + BOUND_SLACK >= best or (not witnessed and abs(slope) > REVERSIBLE_TOL):
            res = chernoff(P, *pair)
        else:
            continue
        pairs[pair] = res
        best = max(best, res.value)
        witnessed = witnessed or _off_half(res)
    return pairs


def is_pairwise_reversible(P: Dmc, *, pairs: dict | None = None):
    """Check whether every input pair's Chernoff optimum is attained at s=1/2,
    up to REVERSIBLE_TOL.

    Returns ``(flag, witness)``; witness is ``(x, x', s*)`` for the first
    violating pair when the flag is False, else None.  ``pairs``, the
    channel's :func:`pairwise_chernoff`, saves recomputing it.  Pairs with
    disjoint rows (value and midpoint both +inf) never violate.
    """
    if pairs is None:
        pairs = pairwise_chernoff(P)
    for (x, xp), opt in pairs.items():
        if _off_half(opt):
            return False, (x, xp, opt.argmax_s)
    return True, None


def product(P: Dmc, Q: Dmc) -> Dmc:
    """Product channel on the Cartesian alphabets, first factor varying slowest."""
    if P.input_size * Q.input_size > PRODUCT_GUARD or P.output_size * Q.output_size > PRODUCT_GUARD:
        raise AlphabetTooLarge("product alphabet exceeds the 1e7 guard")
    return make_dmc(np.kron(P.probs, Q.probs))


def product_row(P: Dmc, word) -> np.ndarray:
    """Row of the len(word)-fold power of P at the given input sequence."""
    row = np.ones(1)
    for sym in word:
        P.check_input(int(sym))
        row = np.kron(row, P.probs[int(sym)])
    return row


def restrict(P: Dmc, codewords) -> Dmc:
    """Restriction of P^ell to a list of equal-length input sequences.

    The result has one input per codeword; its rows are the product-channel
    rows of the codewords, so divergences between codewords are preserved.
    """
    words = [tuple(int(s) for s in w) for w in codewords]
    if not words:
        raise LengthMismatch("need at least one codeword")
    ell = len(words[0])
    if any(len(w) != ell for w in words):
        raise LengthMismatch("codewords must all have the same length")
    if ell < 1:
        raise LengthMismatch("codewords must be non-empty")
    if P.output_size**ell > PRODUCT_GUARD:
        raise AlphabetTooLarge(f"output alphabet {P.output_size}^{ell} exceeds the 1e7 guard")
    rows = np.stack([product_row(P, w) for w in words])
    return make_dmc(rows)


def channel_from_obj(obj) -> Dmc:
    """Build a channel from its serialized form.

    Accepted objects: {"kind":"bsc","p":r}, {"kind":"bec","p":r},
    {"kind":"ksym","k":int,"p":r}, {"kind":"matrix","rows":[[...],...]}.
    """
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParameterOutOfRange(f"channel object must be a dict with a 'kind': {obj!r}")
    kind = obj["kind"]
    if kind in ("bsc", "bec", "ksym"):
        p = obj["p"]
        if not isinstance(p, (int, float)) or isinstance(p, bool):
            raise ParameterOutOfRange(f"{kind} requires a number p, got {p!r}")
    if kind == "bsc":
        return bsc(float(p))
    if kind == "bec":
        return bec(float(p))
    if kind == "ksym":
        k = obj["k"]
        if not isinstance(k, int) or isinstance(k, bool):
            raise ParameterOutOfRange(f"ksym requires an integer k, got {k!r}")
        return ksym(k, float(p))
    if kind == "matrix":
        return make_dmc(obj["rows"])
    raise ParameterOutOfRange(f"unknown channel kind {kind!r}")


def channel_to_obj(P: Dmc, obj) -> dict:
    """Canonical form of ``obj``, the serialized channel that
    :func:`channel_from_obj` built P from.  Named kinds keep their compact
    form with the parameters exactly as parsed; a matrix lists P's
    normalized rows."""
    kind = obj["kind"]
    if kind == "matrix":
        return {"kind": "matrix", "rows": [[float(v) for v in row] for row in P.probs]}
    if kind == "ksym":
        return {"kind": "ksym", "k": int(obj["k"]), "p": float(obj["p"])}
    return {"kind": kind, "p": float(obj["p"])}
