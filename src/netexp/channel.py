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
# numpy's summation rule: np.add.reduce adds fewer than 8 terms left to
# right and longer arrays in 8-way unrolled blocks (pairwise summation).
PAIRWISE_BLOCK = 8


@dataclass(frozen=True)
class Dmc:
    """Finite channel: ``probs[x, y] = P(y | x)``, rows sum to one.

    ``log_probs`` caches entrywise natural logs, -inf where the entry is 0.
    Instances are immutable; build them through :func:`make_dmc` or the
    named constructors below.
    """

    probs: np.ndarray
    log_probs: np.ndarray
    label: str | None

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
    argmax_s: float
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
    if K * K > PRODUCT_GUARD:
        raise AlphabetTooLarge(f"ksym({K}) has {K}x{K} entries, over the 1e7 guard")
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


def _common_support(lx: np.ndarray, ly: np.ndarray):
    """Two log rows (-inf exactly where the probability is 0) on the outputs
    both can produce, or None when their supports are disjoint: a list of
    (lx[y], ly[y]) Python float pairs below PAIRWISE_BLOCK outputs, from it
    on two arrays, the rows themselves when neither has a zero."""
    if lx.shape[0] < PAIRWISE_BLOCK:
        rows = [(a, b) for a, b in zip(lx.tolist(), ly.tolist()) if a != -math.inf and b != -math.inf]
        return rows or None
    mask = np.isfinite(lx) & np.isfinite(ly)
    if mask.all():
        return lx, ly
    return (lx[mask], ly[mask]) if mask.any() else None


def _sum_left_to_right(values) -> float:
    """0.0 plus each value in turn, the order in which ``np.add.reduce``
    adds fewer than PAIRWISE_BLOCK terms.  The builtin ``sum`` adds floats
    this way only up to Python 3.11; from 3.12 on it compensates."""
    total = 0.0
    for v in values:
        total += v
    return total


def _probe(rows, s: float) -> tuple:
    """d_C(s) over ``rows``, a :func:`_common_support` value, with rounding
    noise (values <= 1e-12) read as 0, and the weights w = exp(v - max v)
    of v = (1-s) log P(.|x) + s log P(.|x') and their sum.

    Each step is one IEEE operation per term: in Python floats on a list,
    whose fewer than PAIRWISE_BLOCK weights are added left to right as
    ``np.add.reduce`` adds them, and as ufuncs, in place on v, on arrays.
    ``exp`` is numpy's: ``math.exp`` rounds differently."""
    t = 1.0 - s
    if isinstance(rows, list):
        v = [t * a + s * b for a, b in rows]
        mx = max(v)
        w = np.exp([u - mx for u in v])
        total = _sum_left_to_right(w.tolist())
    else:
        v = t * rows[0]
        v += s * rows[1]
        mx = float(np.maximum.reduce(v))
        v -= mx
        w = np.exp(v, out=v)
        total = float(np.add.reduce(w))
    val = -(mx + math.log(total))
    return (val if val > 1e-12 else 0.0), w, total


def bhattacharyya(P: Dmc, x: int, xp: int) -> float:
    """Bhattacharyya distance between input rows: -log sum_y sqrt(P(y|x)P(y|x')).

    Returns +inf when the rows have disjoint support.  The value is
    :func:`_half_and_slope`'s d_B, accumulated via log-sum-exp over the
    common support.
    """
    P.check_input(x)
    P.check_input(xp)
    return _half_and_slope(P.log_probs[x], P.log_probs[xp])[0]


def chernoff(P: Dmc, x: int, xp: int) -> DivergenceResult:
    """Chernoff divergence with optimized s, via golden-section search.

    d_C(s) is concave in s, so a golden-section search on [0, 1] converges;
    the midpoint and both endpoints are probed as well so pairwise-reversible
    channels return value equal to the Bhattacharyya distance exactly.
    """
    P.check_input(x)
    P.check_input(xp)
    rows = _common_support(P.log_probs[x], P.log_probs[xp])
    if rows is None:
        return DivergenceResult(value=math.inf, argmax_s=0.5, at_half=math.inf)

    def f(s: float) -> float:
        return _probe(rows, s)[0]

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


def _half_and_slope(lx: np.ndarray, ly: np.ndarray) -> tuple:
    """d_C(1/2) between two log rows, a channel's inputs P_x and P_x' or two
    messages' block laws, bit-identical to the value :func:`chernoff` probes
    there, and the slope d_C'(1/2): minus the mean of log(P_x'/P_x) under
    weights proportional to sqrt(P_x P_x').  Disjoint rows give (+inf, 0)."""
    rows = _common_support(lx, ly)
    if rows is None:
        return math.inf, 0.0
    val, w, total = _probe(rows, 0.5)
    diff = np.array([b - a for a, b in rows]) if isinstance(rows, list) else rows[1] - rows[0]
    return val, -float(w @ diff) / total


def _pair_halves(P: Dmc) -> dict:
    """:func:`_half_and_slope` of every input pair (x, x'), x < x', keyed by
    pair: the one d_B pass that the Bhattacharyya matrix and the
    :func:`pairwise_chernoff` screen both read."""
    n, logs = P.input_size, P.log_probs
    return {(x, xp): _half_and_slope(logs[x], logs[xp]) for x in range(n) for xp in range(x + 1, n)}


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


def is_pairwise_reversible(pairs: dict):
    """Check whether every input pair's Chernoff optimum is attained at s=1/2,
    up to REVERSIBLE_TOL, from ``pairs``, a channel's :func:`pairwise_chernoff`.

    Returns ``(flag, witness)``; witness is ``(x, x', s*)`` for the first
    violating pair when the flag is False, else None.  Pairs with disjoint
    rows (value and midpoint both +inf) never violate.
    """
    for (x, xp), opt in pairs.items():
        if _off_half(opt):
            return False, (x, xp, opt.argmax_s)
    return True, None


def product(P: Dmc, Q: Dmc) -> Dmc:
    """Product channel on the Cartesian alphabets, first factor varying slowest."""
    if P.input_size * Q.input_size > PRODUCT_GUARD or P.output_size * Q.output_size > PRODUCT_GUARD:
        raise AlphabetTooLarge("product alphabet exceeds the 1e7 guard")
    return make_dmc(np.kron(P.probs, Q.probs))


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
