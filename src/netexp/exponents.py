"""1-hop error exponents: two-message, Bhattacharyya-averaged M-message,
zero-rate, the per-channel record that holds all of them, the permutation
codebook that equalizes pairwise distances, and the binary symmetric
channel's closed-form three-message feedback exponent.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import Dmc, _pair_halves, is_pairwise_reversible, pairwise_chernoff
from .errors import ParameterOutOfRange, SearchSpaceTooLarge

MULTISET_GUARD = 10**6
ZERO_RATE_INPUT_GUARD = 12
# the margin by which a certified interior optimum beats every face
CERTIFICATE_GAP = 1e-9


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
class ChannelExponents:
    """The 1-hop exponents of one channel for M messages and its reversibility."""

    two: ExponentReport
    tilde: ExponentReport
    zero_rate: ExponentReport
    reversible: bool


def _db_matrix(P: Dmc, halves: dict | None = None) -> np.ndarray:
    """Pairwise Bhattacharyya distances of P's inputs.  ``halves``, the
    channel's ``_pair_halves``, saves recomputing them."""
    if halves is None:
        halves = _pair_halves(P)
    n = P.input_size
    D = np.zeros((n, n))
    for (x, xp), (d_b, _) in halves.items():
        D[x, xp] = D[xp, x] = d_b
    return D


def channel_exponents(P: Dmc, M: int) -> ChannelExponents:
    """Every exponent of P for M messages, from one (d_B, d_C'(1/2)) pass over
    the input pairs and one pass of pairwise Chernoff.  The pass fills the
    Bhattacharyya matrix and feeds the Chernoff screen.  The tilde and
    zero-rate guards fire first, in that order, before the pass."""
    _tilde_guard(P.input_size, M)
    _zero_rate_guard(P.input_size)
    halves = _pair_halves(P)
    D = _db_matrix(P, halves)
    pairs = pairwise_chernoff(P, halves=halves)
    return ChannelExponents(
        two=exponent_two(P, pairs=pairs),
        tilde=tilde_exponent(P, M, db_matrix=D),
        zero_rate=zero_rate_exponent(P, db_matrix=D),
        reversible=is_pairwise_reversible(pairs)[0],
    )


def exponent_two(P: Dmc, *, pairs: dict | None = None) -> ExponentReport:
    """Two-message exponent: max over input pairs of the Chernoff divergence.

    ``pairs``, the channel's ``pairwise_chernoff``, saves recomputing it.
    """
    if pairs is None:
        pairs = pairwise_chernoff(P)
    best_val = 0.0
    best_pair = None
    for pair, res in pairs.items():
        if best_pair is None or res.value > best_val:
            best_val, best_pair = res.value, pair
    if best_pair is None:
        return ExponentReport(value=0.0, optimizer=None, method="exhaustive")
    return ExponentReport(value=best_val, optimizer=best_pair, method="exhaustive")


def _tilde_guard(n: int, M: int) -> None:
    """Raise what :func:`tilde_exponent` raises for M messages on n inputs,
    from n and M alone: M < 2, then, above one input, more multisets, or
    multisets times M(M-1)/2 pair sums, than the guard admits at M = 4."""
    if M < 2:
        raise ParameterOutOfRange(f"need M >= 2, got {M}")
    count, sums = math.comb(n + M - 1, M), math.comb(M, 2)
    if n > 1 and (count > MULTISET_GUARD or count * sums > MULTISET_GUARD * math.comb(4, 2)):
        raise SearchSpaceTooLarge(
            f"{count} multisets of size {M} from {n} inputs, {sums} pair sums each, exceed the 1e6 guard"
        )


def _zero_rate_guard(n: int) -> None:
    """Raise what :func:`zero_rate_exponent` raises on n inputs, from n alone."""
    if n > ZERO_RATE_INPUT_GUARD:
        raise SearchSpaceTooLarge(f"zero-rate search supports at most {ZERO_RATE_INPUT_GUARD} inputs, got {n}")


def _best_multiset(D: np.ndarray, M: int):
    """Maximize sum of pairwise D over size-M multisets of row indices.

    The sums add Python floats read from ``D.tolist()``: the same additions,
    in the same order, as indexing the array, without a numpy scalar per
    term.  The first multiset to reach the maximum wins; :func:`_tilde_guard`
    bounds the search.
    """
    n = D.shape[0]
    rows = D.tolist()
    pairs = [(i, j) for i in range(M) for j in range(i + 1, M)]
    best_sum = -1.0
    best = None
    for combo in itertools.combinations_with_replacement(range(n), M):
        s = 0.0
        for i, j in pairs:
            s += rows[combo[i]][combo[j]]
        if best is None or s > best_sum:
            best_sum, best = s, combo
    return best, best_sum


def tilde_exponent(P: Dmc, M: int, *, db_matrix: np.ndarray | None = None) -> ExponentReport:
    """Bhattacharyya-averaged M-message exponent.

    Maximizes (2 / (M(M-1))) * sum of pairwise d_B over input tuples with
    repetition; the objective is permutation-invariant so only multisets are
    enumerated.  ``db_matrix``, the channel's pairwise Bhattacharyya
    distances, saves recomputing them.  :func:`_tilde_guard` fires before
    any pass over the inputs.
    """
    _tilde_guard(P.input_size, M)
    if P.input_size == 1:
        return ExponentReport(value=0.0, optimizer=None, method="exhaustive")
    combo, pair_sum = _best_multiset(_db_matrix(P) if db_matrix is None else db_matrix, M)
    value = 2.0 / (M * (M - 1)) * pair_sum
    return ExponentReport(value=float(value), optimizer=tuple(combo), method="exhaustive")


def _bordered_stack(D: np.ndarray, supports: np.ndarray):
    """The bordered KKT systems [D_SS 1; 1^T 0] of a stack of supports of
    one size, and their common right-hand side (0, ..., 0, 1)."""
    k = supports.shape[1]
    A = np.ones((len(supports), k + 1, k + 1))
    A[:, :k, :k] = D[supports[:, :, None], supports[:, None, :]]
    A[:, k, k] = 0.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    return A, rhs


def _support_enumeration(D: np.ndarray):
    """Maximum of q^T D q over the simplex, and a maximizer, by solving the
    bordered KKT system [D_SS 1; 1^T 0] for every support S (Bomze 1998).

    The systems of one support size are solved as one stack.  A singular
    system is skipped: the objective is then constant along a direction that
    reaches a smaller support.  Supports run by size, then lexicographically;
    a later one must win by more than 1e-12.  D is a :func:`_db_matrix`, whose
    diagonal is 0, so every one-point support scores 0.0 and the first, e_0,
    is kept without a solve.
    """
    n = D.shape[0]
    best_val, best_q = 0.0, np.eye(n)[0]
    for k in range(2, n + 1):
        supports = np.array(list(itertools.combinations(range(n), k)))
        sols, solved = _solve_stack(*_bordered_stack(D, supports))
        feasible = solved & ~np.any(sols[:, :k] < 0, axis=1)
        for i in np.flatnonzero(feasible):
            q = np.zeros(n)
            q[supports[i]] = sols[i, :k]
            val = float(q @ D @ q)
            if val > best_val + 1e-12:
                best_val, best_q = val, q
    return best_val, best_q


def _kkt_certificate(D: np.ndarray):
    """The maximum of q^T D q over the simplex and its maximizer when a
    certificate shows that the full support attains it, else None.

    W = V^T D V with V = [e_i - e_n] is the objective's curvature on the
    simplex.  If its largest eigenvalue lam is negative, every direction v
    inside the simplex has v^T D v <= -kappa |v|^2 with kappa = -lam / n.
    At the full-support KKT point q* > 0 (value v*), any q on a face then
    has q^T D q <= v* - kappa min(q*)^2.  When that gap exceeds
    ``CERTIFICATE_GAP``, far outside ``_support_enumeration``'s 1e-12 tie
    band, the enumeration would return q* from its last, full-size stack;
    this solves that same stack and returns what the enumeration returns,
    bit for bit.  A D that is not concave costs only the eigenvalues.
    """
    n = D.shape[0]
    W = D[:-1, :-1] - D[:-1, -1:] - D[-1:, :-1] + D[-1, -1]
    lam = np.linalg.eigvalsh(W)[-1]
    if not lam < 0:
        return None
    sols, solved = _solve_stack(*_bordered_stack(D, np.arange(n)[None]))
    q = sols[0, :n]
    if not (solved[0] and q.min() > 0 and -lam / n * q.min() ** 2 > CERTIFICATE_GAP):
        return None
    return float(q @ D @ q), q


def _solve_stack(A: np.ndarray, rhs: np.ndarray):
    """Solutions of every system in the stack A against the 1-D rhs, which
    the batched solve broadcasts over the stack, and which were nonsingular.
    One singular system fails the batched call; the stack is then solved
    one system at a time."""
    try:
        return np.linalg.solve(A, rhs), np.ones(len(A), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    sols = np.zeros((len(A), len(rhs)))
    solved = np.zeros(len(A), dtype=bool)
    for i, system in enumerate(A):
        try:
            sols[i] = np.linalg.solve(system, rhs)
            solved[i] = True
        except np.linalg.LinAlgError:
            pass
    return sols, solved


def zero_rate_exponent(P: Dmc, *, db_matrix: np.ndarray | None = None) -> ExponentReport:
    """Zero-rate exponent: max over input distributions q of sum q_x q_x' d_B(x, x').

    For three or more inputs the full-support KKT point is taken when
    ``_kkt_certificate`` proves it optimal (method ``kkt_certificate``);
    otherwise every support is solved (``support_enumeration``).  Both give
    the same value and maximizer bit for bit.  Two inputs with disjoint
    output supports make the exponent +inf, attained by splitting the mass
    evenly between them.  ``db_matrix``, the channel's pairwise
    Bhattacharyya distances, saves recomputing them; it must be the
    channel's :func:`_db_matrix`, whose diagonal is 0, which the support
    enumeration relies on.
    """
    n = P.input_size
    _zero_rate_guard(n)
    if n == 1:
        return ExponentReport(value=0.0, optimizer=(1.0,), method="closed_form")
    D = _db_matrix(P) if db_matrix is None else db_matrix
    if np.isinf(D).any():
        q = np.zeros(n)
        q[np.argwhere(np.isinf(D))[0]] = 0.5
        return ExponentReport(
            value=math.inf, optimizer=tuple(float(v) for v in q), method="closed_form"
        )

    if n == 2:
        return ExponentReport(
            value=float(D[0, 1] / 2.0), optimizer=(0.5, 0.5), method="closed_form"
        )

    certified = _kkt_certificate(D)
    if certified is not None:
        value, q = certified
        method = "kkt_certificate"
    else:
        value, q = _support_enumeration(D)
        method = "support_enumeration"
    return ExponentReport(value=value, optimizer=tuple(float(v) for v in q), method=method)


def permutation_codebook(report: ExponentReport, M: int) -> tuple:
    """The M words of length M! of the permutation codebook built on a
    tilde-exponent report; its pairwise distances all equal M! times the
    report's value.

    Column sigma (permutations in lexicographic order) assigns word m the
    symbol x_{sigma(m)}, where (x_1..x_M) is the report's optimal tuple.
    """
    tup = report.optimizer if report.optimizer is not None else (0,) * M
    perms = list(itertools.permutations(range(M)))
    return tuple(tuple(tup[sigma[m]] for sigma in perms) for m in range(M))


def bsc_feedback_exponent_m3(p: float) -> float:
    """Three-message feedback exponent of the binary symmetric channel."""
    if not 0 < p < 0.5:
        raise ParameterOutOfRange(f"need p in (0, 1/2), got {p}")
    return -math.log(p ** (1 / 3) * (1 - p) ** (2 / 3) + p ** (2 / 3) * (1 - p) ** (1 / 3))
