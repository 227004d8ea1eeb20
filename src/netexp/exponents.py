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


@dataclass(frozen=True)
class Codebook:
    """M codewords of length ell with equal pairwise Bhattacharyya distance."""

    M: int
    ell: int
    words: tuple


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
    Bhattacharyya matrix and feeds the Chernoff screen."""
    halves = _pair_halves(P)
    D = _db_matrix(P, halves)
    pairs = pairwise_chernoff(P, halves=halves)
    return ChannelExponents(
        two=exponent_two(P, pairs=pairs),
        tilde=tilde_exponent(P, M, db_matrix=D),
        zero_rate=zero_rate_exponent(P, db_matrix=D),
        reversible=is_pairwise_reversible(P, pairs=pairs)[0],
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


def tilde_exponent(P: Dmc, M: int, *, db_matrix: np.ndarray | None = None) -> ExponentReport:
    """Bhattacharyya-averaged M-message exponent.

    Maximizes (2 / (M(M-1))) * sum of pairwise d_B over input tuples with
    repetition; the objective is permutation-invariant so only multisets are
    enumerated.  ``db_matrix``, the channel's pairwise Bhattacharyya
    distances, saves recomputing them.
    """
    if M < 2:
        raise ParameterOutOfRange(f"need M >= 2, got {M}")
    if P.input_size == 1:
        return ExponentReport(value=0.0, optimizer=None, method="exhaustive")
    combo, pair_sum = _best_multiset(_db_matrix(P) if db_matrix is None else db_matrix, M)
    value = 2.0 / (M * (M - 1)) * pair_sum
    return ExponentReport(value=float(value), optimizer=tuple(combo), method="exhaustive")


def _support_enumeration(D: np.ndarray):
    """Maximum of q^T D q over the simplex, and a maximizer, by solving the
    bordered KKT system [D_SS 1; 1^T 0] for every support S (Bomze 1998).

    The systems of one support size are solved as one stack.  A singular
    system is skipped: the objective is then constant along a direction that
    reaches a smaller support.  Supports run by size, then lexicographically;
    a later one must win by more than 1e-12.
    """
    n = D.shape[0]
    best_val, best_q = -math.inf, None
    for k in range(1, n + 1):
        supports = np.array(list(itertools.combinations(range(n), k)))
        A = np.ones((len(supports), k + 1, k + 1))
        A[:, :k, :k] = D[supports[:, :, None], supports[:, None, :]]
        A[:, k, k] = 0.0
        rhs = np.zeros(k + 1)
        rhs[k] = 1.0
        sols, solved = _solve_stack(A, rhs)
        feasible = solved & ~np.any(sols[:, :k] < 0, axis=1)
        for i in np.flatnonzero(feasible):
            q = np.zeros(n)
            q[supports[i]] = sols[i, :k]
            val = float(q @ D @ q)
            if val > best_val + 1e-12:
                best_val, best_q = val, q
    return best_val, best_q


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

    Solved exactly by support enumeration for three or more inputs.  Two
    inputs with disjoint output supports make the exponent +inf, attained by
    splitting the mass evenly between them.  ``db_matrix``, the channel's
    pairwise Bhattacharyya distances, saves recomputing them.
    """
    n = P.input_size
    if n > ZERO_RATE_INPUT_GUARD:
        raise SearchSpaceTooLarge(f"zero-rate search supports at most {ZERO_RATE_INPUT_GUARD} inputs, got {n}")
    if n == 1:
        return ExponentReport(value=0.0, optimizer=(1.0,), method="closed_form")
    D = _db_matrix(P) if db_matrix is None else db_matrix
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

    value, q = _support_enumeration(D)
    return ExponentReport(
        value=value, optimizer=tuple(float(v) for v in q), method="support_enumeration"
    )


def permutation_codebook(report: ExponentReport, M: int) -> Codebook:
    """Permutation codebook of length M! built on a tilde-exponent report;
    its pairwise distances all equal M! times the report's value.

    Column sigma (permutations in lexicographic order) assigns word m the
    symbol x_{sigma(m)}, where (x_1..x_M) is the report's optimal tuple.
    """
    tup = report.optimizer if report.optimizer is not None else (0,) * M
    perms = list(itertools.permutations(range(M)))
    words = tuple(tuple(tup[sigma[m]] for sigma in perms) for m in range(M))
    return Codebook(M=M, ell=math.factorial(M), words=words)


def bsc_feedback_exponent_m3(p: float) -> float:
    """Three-message feedback exponent of the binary symmetric channel."""
    if not 0 < p < 0.5:
        raise ParameterOutOfRange(f"need p in (0, 1/2), got {p}")
    return -math.log(p ** (1 / 3) * (1 - p) ** (2 / 3) + p ** (2 / 3) * (1 - p) ** (1 / 3))
