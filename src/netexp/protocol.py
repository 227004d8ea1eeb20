"""Sequential-block forwarding over chains of channels, and its multipath
extension to general graphs.

A relay's belief is a state (m, ell): most likely message plus a quantized
confidence level.  Each node re-encodes its state as a sorted block -- B/2+ell
copies of m followed by B/2-ell copies of m's successor -- and the next node
updates its state from block likelihoods.  Exact small-instance distribution
oracles run the same dynamics by enumeration instead of sampling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import Dmc
from .errors import (
    BoundsViolation,
    BTooSmall,
    HorizonTooShort,
    MTooLarge,
    ParameterOutOfRange,
    StateSpaceTooLarge,
)
from .exponents import permutation_codebook, tilde_exponent
from .flow import ChannelGraph, decompose, maxflow, path_edge_budgets, per_channel, weighted_network

EXACT_BLOCK_GUARD = 10**6
TABLE_BYTES_GUARD = 1 << 28  # one hop's sampling tables, see path_tables
_TILE_ELEMS = 1 << 17  # raw symbols one hop samples at once


@dataclass(frozen=True, eq=False)
class ReducedChannel:
    """One hop of the protocol: a base channel and the read-only (M, ell)
    int64 array ``words`` whose row a lists the base inputs sent for protocol
    symbol a+1.  Blocks stay in base symbols."""

    base: Dmc
    words: np.ndarray


@dataclass(frozen=True)
class SeriesSpec:
    """A chain of hops (:class:`ReducedChannel`) plus the protocol parameters.

    ``B`` counts hop-channel uses per block and must be even; ``flow_value``
    is the divergence scale |f| used in the confidence update (for reduced
    chains: the bottleneck pairwise Bhattacharyya distance per use).
    """

    channels: tuple
    M: int
    B: int
    flow_value: float

    def __post_init__(self):
        if self.B % 2 != 0 or self.B < 2:
            raise ParameterOutOfRange("block size must be even and at least 2")
        if self.M < 2:
            raise ParameterOutOfRange(f"need M >= 2, got {self.M}")
        if not self.channels:
            raise ParameterOutOfRange("a chain needs at least one hop")
        for ch in self.channels:
            w = ch.words
            if not (w.dtype == np.int64 and w.ndim == 2 and w.shape[0] == self.M and w.size
                    and 0 <= w.min() and w.max() < ch.base.input_size):
                raise ParameterOutOfRange(
                    f"a hop needs {self.M} int64 codewords of one length whose symbols index "
                    f"its channel's {ch.base.input_size} inputs, got {w.dtype} {w.shape} words"
                )


def _symbol_dtype(out: int) -> np.dtype:
    """Narrowest unsigned dtype that holds raw outputs 0..out-1: uint8 up to
    256 outputs.  Raw blocks are stored in it; their keys are formed in intp
    by :func:`_encode_blocks`."""
    return np.min_scalar_type(out - 1)


def _codeword_table(M: int, B: int) -> np.ndarray:
    """Sorted state blocks tab[m_idx, ell]: B/2+ell copies of m_idx, then
    B/2-ell copies of its successor (wrapping M-1 back to 0)."""
    half = B // 2
    tab = np.empty((M, half + 1, B), dtype=np.int64)
    for m_idx in range(M):
        nxt = (m_idx + 1) % M
        for ell in range(half + 1):
            tab[m_idx, ell, : half + ell] = m_idx
            tab[m_idx, ell, half + ell :] = nxt
    return tab


def _chunk_table(base_logp: np.ndarray, words: np.ndarray, chunks: int):
    """(table, g) for :func:`_symbol_logliks` on up to ``chunks`` chunks:
    table[a, k] sums log P(digit j | words[a, j]) over a chunk's first g
    raw digits, whose row-major key is k, in order from 0.0.  g is the
    largest with out**g no larger than ``chunks``, so the table is never
    bigger than the data it replaces."""
    M, ell = words.shape
    out = base_logp.shape[1]
    g = 0
    while g < ell and out ** (g + 1) <= chunks:
        g += 1
    table = np.zeros((M, 1))
    for j in range(g):
        table = (table[:, :, None] + base_logp[words[:, j]][:, None, :]).reshape(M, -1)
    return table, g


def _symbol_logliks(base_logp: np.ndarray, words: np.ndarray, y: np.ndarray, B: int,
                    chunk=None) -> np.ndarray:
    """Per-use log-likelihoods la[a, n, r] = log P(chunk r of y_n | symbol a+1).

    A chunk's first g raw digits key one row of ``chunk``'s table
    (:func:`_chunk_table`, by default built for y's N*B chunks); the
    remaining digits are added one at a time.  Every sum runs over the
    digits in order from 0.0, so the floats do not depend on g, and a table
    built once for a hop's largest tile serves every tile.  The result is a
    view whose memory runs use-major, la[a, :, r] contiguous.
    """
    ell = words.shape[1]
    N = y.shape[0]
    out = base_logp.shape[1]
    digits = y.reshape(N * B, ell)
    table, g = _chunk_table(base_logp, words, N * B) if chunk is None else chunk
    la = np.take(table, _encode_blocks(digits[:, :g], out).reshape(N, B).T, axis=1)
    for j in range(g, ell):
        la += np.take(base_logp[words[:, j]], digits[:, j].reshape(N, B).T, axis=1)
    return la.transpose(0, 2, 1)


def _state_logliks(la: np.ndarray, B: int) -> np.ndarray:
    """Codeword log-likelihoods ll[ell, m, n] from per-use symbol likelihoods.

    Codewords are two homogeneous segments, so a prefix sum for the leading
    symbol plus a suffix sum for the trailing one covers every ell at once.
    Both run over the uses in sequence, as ``cumsum`` does, for all symbols
    and blocks at once, and the successor's suffix sum is added into each
    level's prefix sums in place.  Sums never mix +inf and -inf, so zeros in
    the channel stay -inf.  The confidence axis leads, so each level's (M, N)
    slice is contiguous for the element-wise reductions over it.
    """
    M, N, _ = la.shape
    half = B // 2
    uses = la.transpose(2, 0, 1)  # (B, M, N)
    ll = np.empty((half + 1, M, N))  # sums of the first half..B uses
    ll[0] = uses[0]
    for r in range(1, half):
        ll[0] += uses[r]
    for e in range(1, half + 1):
        np.add(ll[e - 1], uses[half + e - 1], out=ll[e])
    # level half's suffix is empty.  Adding its 0.0 would change nothing:
    # the likelihoods are sums that start from +0.0, so none is -0.0.
    # suffix[a] sums the last half-e uses of symbol a; the successor of a
    # is a+1, and of M-1 it is 0
    suffix = uses[B - 1].copy()
    for e in range(half - 1, -1, -1):
        if e < half - 1:
            suffix += uses[half + e]
        ll[e, : M - 1] += suffix[1:]
        ll[e, M - 1] += suffix[0]
    return ll


def _logsumexp_leading(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) over the leading axis, as element-wise work on the
    contiguous trailing slices.  It takes ``scipy.special.logsumexp``'s steps
    (max, tie count, exp-sum, ``log1p``/``log``, non-finite fallback) with
    the same reductions, so it is bit-identical to scipy's log-sum-exp over
    axis 0 of the array as given.  The exp terms live in one buffer, and the
    trailing-shaped steps run in place in the same order:
    (log1p(s) + log(m)) + max."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max(axis=0)
        # 1.0 at the maxima, +0.0 elsewhere: summed, the tie count m
        is_max = (a == a_max).astype(a.dtype)
        m = np.add.reduce(is_max, axis=0)
        # exp(a - max) less the mask zeroes the maxima's terms, as exp(-inf)
        # would (numpy's exp takes a slow path on -inf arguments): a finite
        # maximum's term is exp(+0.0) = 1.0, and 1.0 - 1.0 = +0.0, while
        # every other term loses exactly 0.0.  A column whose maximum is not
        # finite takes the fallback below
        terms = np.subtract(a, a_max)
        np.exp(terms, out=terms)
        terms -= is_max
        s = np.add.reduce(terms, axis=0)
        np.divide(s, m, out=s, where=s != 0)
        out = np.log1p(s, out=s)
        out += np.log(m, out=m)
        out += a_max
        bad = ~np.isfinite(out)
        if bad.any():
            np.copyto(out, np.log(np.add.reduce(np.exp(a, out=terms), axis=0)), where=bad)
    return out


def _uniform_message_loglik(ll: np.ndarray) -> np.ndarray:
    """Mixture likelihood per message, shape (M, N), from ll[ell, m, n]:
    uniform prior over the sender's ell."""
    out = _logsumexp_leading(ll)
    out -= math.log(ll.shape[0])
    return out


def _first_max_rows(scores: np.ndarray):
    """For each column of scores[k, n] (at least two rows): the index and
    value of its largest entry, and its largest value once that entry is left
    out.  One strict greater-than scan over the rows keeps
    ``np.argmax(scores, axis=0)``'s first-maximum rule, so ties (all -inf
    columns included) go to the lowest row, and a tie at the maximum is the
    second value too.  Scores are log-likelihood sums, never NaN."""
    idx = (scores[1] > scores[0]).astype(np.int64)
    best = np.maximum(scores[0], scores[1])
    second = np.minimum(scores[0], scores[1])
    for k in range(2, len(scores)):
        # k is above every index so far, so this sets it exactly where row
        # k is strictly better; a masked assignment would branch on every
        # element
        np.maximum(idx, (scores[k] > best) * k, out=idx)
        np.maximum(second, np.minimum(best, scores[k]), out=second)
        np.maximum(best, scores[k], out=best)
    return idx, best, second


def _states_from_loglik(msg_ll: np.ndarray, flow_value: float, half: int):
    """Most likely message plus quantized log-likelihood-ratio confidence,
    from message log-likelihoods msg_ll[m, n].

    Ties break to the lowest message index; an infinite ratio clamps to B/2.
    """
    m_idx, val1, val2 = _first_max_rows(msg_ll)
    with np.errstate(divide="ignore", invalid="ignore"):
        llr = val1 - val2
        ell = np.floor(llr / (4.0 * flow_value))
    # fmax takes NaN (from 0/0, inf/inf or inf - inf) to 0
    ell = np.fmin(np.fmax(ell, 0.0), half)
    np.copyto(ell, half, where=llr == np.inf)
    return m_idx, ell.astype(np.int64)


def _relay_states(base_logp: np.ndarray, words: np.ndarray, B: int, flow_value: float,
                  y: np.ndarray, chunk=None):
    """Receiving relay's (m_idx, ell) for each row of raw base-symbol blocks
    y, from the hop's base log-likelihoods and codewords.

    Hypothesis likelihoods marginalize the sender's confidence uniformly:
    P(y|m) = mean over ell of P(y|codeword(m, ell)).  ``chunk`` is the
    hop's :func:`_chunk_table`, by default built for y.
    """
    ll = _state_logliks(_symbol_logliks(base_logp, words, y, B, chunk), B)
    return _states_from_loglik(_uniform_message_loglik(ll), flow_value, B // 2)


def _sampling_thresholds(probs: np.ndarray, words: np.ndarray, B: int) -> np.ndarray:
    """Inverse-CDF table of one hop for :func:`_sample_symbols`.

    Entry [k, s, i] is the cumulative probability of raw outputs 0..k at raw
    position i of the codeword of sender state s = m_idx * (B/2+1) + ell,
    for k < out-1.
    """
    M = words.shape[0]
    raw = words[_codeword_table(M, B)].reshape(M * (B // 2 + 1), -1)
    return np.cumsum(probs, axis=1)[:, :-1].T[:, raw]


def _sample_symbols(thresholds: np.ndarray, state: np.ndarray, rng, out: np.ndarray,
                    work: np.ndarray) -> np.ndarray:
    """Inverse-CDF sampling of the raw outputs of each sender's codeword into
    the rows of ``out``, which it returns.  ``out`` has an unsigned dtype
    that holds out-1 (:func:`_symbol_dtype`), or any wider integer dtype.

    ``state`` holds each row's sender state, or is 0-d: one state for every
    row.  One row of ``thresholds`` (see :func:`_sampling_thresholds`) per
    sender state; counting the thresholds at or below a uniform draw is
    ``searchsorted(side="right")`` clamped to the last output.  ``work`` is
    float64 scratch of shape (2,) + out.shape for the draws and the gathered
    thresholds.  The first threshold's comparison starts the count, written
    through a bool view when ``out`` has one-byte items; a one-output channel
    has no thresholds and gets zeros.
    """
    u = rng.random(out=work[0])
    if not len(thresholds):
        out[...] = 0
        return out
    first = out.view(bool) if out.itemsize == 1 else out
    n, L = out.shape
    # one state for every row.  Broadcast against the (n, L) draws, its
    # threshold row would make numpy's inner loop run over only L elements
    # per row, so it is filled into a run of k rows (about 1024 thresholds)
    # and compared with the draws k rows at a time, then with the last
    # n % k rows.  A state per row gathers one run of all n rows
    k = n if state.ndim else min(n, max(1, 1024 // L))
    m = n - n % k
    run = work[1][:k]
    parts = [(run, *(a[:m].reshape(-1, k, L) for a in (u, out, first)))]
    if m < n:
        parts.append((run[: n - m], u[m:], out[m:], first[m:]))
    for i, thr in enumerate(thresholds):
        if state.ndim:
            # states are rows of the table, so "clip" moves no index; with
            # "raise" np.take would gather into a temporary copy first
            np.take(thr, state, axis=0, out=run, mode="clip")
        else:
            run[...] = thr[state]
        for gathered, draws, count, count_bool in parts:
            if i:
                count += gathered <= draws
            else:
                np.less_equal(gathered, draws, out=count_bool)
    return out


def reduce_inputs(channels, M: int, *, reports=None):
    """Give each hop channel the permutation codebook on its M!-fold power:
    M codewords of M! symbols with equal pairwise distances.

    Returns (:class:`ReducedChannel` hops, flow_value, ell_factor) where
    flow_value is the bottleneck pairwise Bhattacharyya distance per reduced
    use (M! times the weakest hop's M-message exponent) and ell_factor = M!.
    ``reports``, the channels' ``tilde_exponent`` reports for M, saves
    recomputing them.
    """
    if M < 2 or M > 4:
        raise MTooLarge(f"input reduction supports 2 <= M <= 4, got {M}")
    if reports is None:
        reports = [tilde_exponent(P, M) for P in channels]
    ell = math.factorial(M)
    reduced = []
    flow_value = math.inf
    for P, report in zip(channels, reports):
        words = np.array(permutation_codebook(report, M), dtype=np.int64)
        words.flags.writeable = False
        reduced.append(ReducedChannel(base=P, words=words))
        flow_value = min(flow_value, ell * report.value)
    return tuple(reduced), float(flow_value), ell


def make_series_spec(channels, M: int, B: int) -> SeriesSpec:
    """Reduce raw hop channels and wrap them in a SeriesSpec.

    ``B`` here counts reduced uses per block (each reduced use spends M!
    raw channel uses).
    """
    reduced, flow_value, _ = reduce_inputs(channels, M)
    return SeriesSpec(channels=reduced, M=M, B=B, flow_value=flow_value)


@dataclass(frozen=True)
class HopTables:
    """Read-only tables of one hop, built by :func:`path_tables`.

    ``thresholds`` is the hop's :func:`_sampling_thresholds`, ``log_probs``
    its base channel's log-likelihoods and ``words`` its codeword array.
    On a relay hop whose out**L possible raw blocks are no more than the
    rows the tables were built for, ``next_state[key]`` is the receiving
    relay's sender-state index m_idx * (B/2+1) + ell for the block whose
    :func:`_encode_blocks` key is ``key``, and ``chunk`` is None.
    Elsewhere ``next_state`` is None, and ``chunk`` is the
    :func:`_chunk_table` sized for the hop's largest tile, which a relay
    that decides each row itself and the heuristic decoder of the final
    hop read.
    """

    thresholds: np.ndarray
    log_probs: np.ndarray
    words: np.ndarray
    next_state: np.ndarray | None
    chunk: tuple | None

    def __post_init__(self):
        # shared by every batch and worker thread of a call
        table = self.chunk[0] if self.chunk else None
        for arr in (self.thresholds, self.words, self.next_state, table):
            if arr is not None:
                arr.flags.writeable = False

    @property
    def out(self) -> int:
        """The base output size."""
        return self.log_probs.shape[1]


def _tile_rows(n_blocks: int, L: int) -> int:
    """Rows of a hop's tiles: at most ``_TILE_ELEMS`` raw symbols, and at
    least one row."""
    return max(1, min(n_blocks, _TILE_ELEMS // L))


def path_tables(spec: SeriesSpec, rows: int) -> tuple:
    """Every hop's :class:`HopTables` for batches of up to ``rows`` blocks.

    A relay table is decided once from every possible block, so it is never
    bigger than the largest batch that reads it.  Every other hop's chunk
    table is built here once, for the hop's largest tile, and not per tile.
    A hop's sampling tables
    grow with B**2: before any is built, each hop's size is checked against
    ``TABLE_BYTES_GUARD``, and :class:`StateSpaceTooLarge` is raised above it.
    """
    width = spec.B // 2 + 1
    for chan in spec.channels:
        # :func:`_sampling_thresholds`' int64 codeword index and its out-1
        # float64 threshold planes, each M*(B/2+1)*L entries
        L = spec.B * chan.words.shape[1]
        size = 8 * chan.base.output_size * spec.M * width * L
        if size > TABLE_BYTES_GUARD:
            raise StateSpaceTooLarge(
                f"blocks of {L} raw symbols need {size} bytes of sampling tables "
                f"per hop, above the {TABLE_BYTES_GUARD}-byte table guard"
            )
    tables = []
    for hop, chan in enumerate(spec.channels):
        base, words = chan.base, chan.words
        out, L = base.output_size, spec.B * words.shape[1]
        next_state = chunk = None
        if hop < len(spec.channels) - 1 and out**L <= rows:  # Python ints: no int64 wrap-around
            m_tab, ell_tab = _relay_states(
                base.log_probs, words, spec.B, spec.flow_value, _enumerate_blocks(out, L)
            )
            next_state = m_tab * width + ell_tab
        else:
            chunk = _chunk_table(base.log_probs, words, _tile_rows(rows, L) * spec.B)
        tables.append(HopTables(_sampling_thresholds(base.probs, words, spec.B), base.log_probs,
                                words, next_state, chunk))
    return tuple(tables)


def _hop_blocks(spec: SeriesSpec, m: int, n_blocks: int, rng, tables):
    """The protocol engine: n_blocks independent sequential block runs.

    Runs hop after hop, each hop in consecutive row tiles of at most
    ``_TILE_ELEMS`` raw symbols, and yields (hop, state, y) per tile: the
    sending node's state index m_idx * (B/2+1) + ell as stored, the source's
    one 0-d state for every row or a relay's slice of the tile's rows, and
    the raw base-symbol blocks the receiving node gets, in the hop's
    :func:`_symbol_dtype`.  A hop's tiles draw their uniforms in row
    order, so together they take the draws of one (n_blocks, L) call.  A
    relay decides each tile into the next hop's states once the next tile is
    requested, and that tile reuses the array, so copy a relay hop's tile to
    keep it.  The destination's tiles are row slices of one (n_blocks, L)
    array; its state is never computed here.

    ``tables`` are the chain's :func:`path_tables`.  A relay with a decision
    table keys each block once and reads its next sender state from the
    table; the others decide every row directly from their hop's codewords
    and chunk table.
    """
    if not 1 <= m <= spec.M:
        raise BoundsViolation(f"message {m} outside 1..{spec.M}")
    width = spec.B // 2 + 1
    last = len(spec.channels) - 1
    state = np.array((m - 1) * width + width - 1)  # the source's, for every row
    buf = None
    for hop, tab in enumerate(tables):
        L = tab.thresholds.shape[2]
        dtype = _symbol_dtype(tab.out)
        rows = _tile_rows(n_blocks, L)
        size = rows * L
        if buf is None or buf.size < (16 + dtype.itemsize) * size:
            # a tile's float64 draws and gathered thresholds and a relay
            # hop's tile, carved from one allocation that every tile reuses:
            # with fresh tile-sized arrays the allocator handed their pages
            # back and faulted them in again, tile after tile
            buf = np.empty((16 + dtype.itemsize) * size, dtype=np.uint8)
        work = buf[: 16 * size].view(np.float64).reshape(2, rows, L)
        tile = buf[16 * size : (16 + dtype.itemsize) * size].view(dtype).reshape(rows, L)
        if hop == last:
            dest = np.empty((n_blocks, L), dtype=dtype)
        else:
            nxt = np.empty(n_blocks, dtype=np.int64)
        for lo in range(0, n_blocks, rows):
            sender = state[lo : lo + rows] if state.ndim else state
            n = min(rows, n_blocks - lo)
            y = dest[lo : lo + n] if hop == last else tile[:n]
            _sample_symbols(tab.thresholds, sender, rng, y, work[:, :n])
            yield hop, sender, y
            if hop == last:
                continue
            decided = nxt[lo : lo + n]
            if tab.next_state is not None:
                # keys index the table's rows, so "clip" moves none
                np.take(tab.next_state, _encode_blocks(y, tab.out), out=decided, mode="clip")
            else:
                m_idx, ell = _relay_states(tab.log_probs, tab.words, spec.B, spec.flow_value, y,
                                           tab.chunk)
                np.multiply(m_idx, width, out=decided)
                decided += ell
        if hop < last:
            state = nxt


def run_series_blocks_batch(spec: SeriesSpec, m: int, n_blocks: int, rng, tables) -> list:
    """Vectorized sequential block transmissions: n_blocks independent runs.

    Returns the destination's raw base-symbol blocks as row tiles in row
    order, each of shape (rows, B * ell_of_final_hop) in the final hop's
    :func:`_symbol_dtype` (uint8 up to 256 outputs), as :func:`_hop_blocks`
    samples them.  Nodes hold no state across blocks.  ``tables`` are as for
    :func:`_hop_blocks`.
    """
    last = len(spec.channels) - 1
    return [y for hop, _, y in _hop_blocks(spec, m, n_blocks, rng, tables) if hop == last]


def _enumerate_blocks(out_size: int, B: int) -> np.ndarray:
    """Every block of B base symbols in row-major digit order (first digit
    slowest), so row k is the block whose ``_encode_blocks`` key is k, in
    :func:`_symbol_dtype`.  Written column by column: digit j counts up once
    every out_size**(B-1-j) rows."""
    blocks = np.empty((out_size**B, B), dtype=_symbol_dtype(out_size))
    for j in range(B):
        blocks.reshape(out_size**j, out_size, -1, B)[:, :, :, j] = np.arange(out_size)[:, None]
    return blocks


def _product_logs(probs: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Log rows of base^ell at the M codewords, shape (M, out**ell), outputs
    row-major over the base digits.  Each row is ``np.kron``'s left-to-right
    product of the codeword's base rows, divided by its sum and logged in
    place, as ``make_dmc`` normalizes a matrix."""
    M, ell = words.shape
    rows = probs[words[:, 0]]
    for j in range(1, ell):
        rows = (rows[:, :, None] * probs[words[:, j]][:, None, :]).reshape(M, -1)
    rows /= rows.sum(axis=1)[:, None]
    with np.errstate(divide="ignore"):
        return np.log(rows, out=rows)


def exact_block_distribution(spec: SeriesSpec, update_mode: str) -> np.ndarray:
    """Exact per-message log distributions of the destination's block: shape
    (M, out**L) for the final hop's out base outputs and L raw symbols a
    block.  Blocks are indexed in row-major base-output digit order, so a
    received block maps to its column by :func:`_encode_blocks`.

    Every hop's block alphabet is enumerated; each relay maps blocks to
    states deterministically and passes its state occupancies on.  The
    destination's state is never decided.  ``update_mode='uniform'`` decides
    relay states with the sampled relays' own ``_relay_states``, so it is the
    sampled protocol's law; ``'exact'`` lets each relay weight hypothesis
    likelihoods by the true predecessor state occupancies (computable without
    data since the protocol is known).
    """
    if update_mode not in ("uniform", "exact"):
        raise ParameterOutOfRange(f"unknown update mode {update_mode!r}")
    M, B = spec.M, spec.B
    half = B // 2
    n_states = M * (half + 1)
    # the guard reads the base sizes, so it fires before any hop is
    # enumerated and before _product_logs builds the out**ell product columns
    for chan in spec.channels:
        symbols = B * chan.words.shape[1]
        if chan.base.output_size**symbols > EXACT_BLOCK_GUARD:
            raise StateSpaceTooLarge(
                f"{chan.base.output_size}^{symbols} block outcomes exceed the exact-enumeration guard"
            )

    occ = np.zeros((M, n_states))
    occ[np.arange(M), np.arange(M) * (half + 1) + half] = 1.0
    ident = np.arange(M, dtype=np.int64)[:, None]
    for hop, chan in enumerate(spec.channels):
        base, words = chan.base, chan.words
        logq = _product_logs(base.probs, words)
        blocks = _enumerate_blocks(logq.shape[1], B)
        ll = _state_logliks(_symbol_logliks(logq, ident, blocks, B), B)  # (half+1, M, K)
        flat = ll.transpose(1, 0, 2).reshape(n_states, ll.shape[2])  # (state, block)
        with np.errstate(divide="ignore"):
            logocc = np.log(occ)
        ld = np.empty((M, flat.shape[1]))
        for m_idx in range(M):
            ld[m_idx] = _logsumexp_leading(flat + logocc[m_idx][:, None])
        if hop == len(spec.channels) - 1:
            return ld
        del ll, flat, blocks, logq
        if update_mode == "uniform":
            # the sampled relays' own decision; the product columns run
            # row-major over the base digits, so these rows are the law's
            midx, ell = _relay_states(
                base.log_probs, words, B, spec.flow_value,
                _enumerate_blocks(base.output_size, B * words.shape[1]),
            )
        else:
            midx, ell = _states_from_loglik(ld, spec.flow_value, half)
        sidx = midx * (half + 1) + ell
        occ = np.stack([np.bincount(sidx, weights=np.exp(ld[m]), minlength=n_states) for m in range(M)])


@dataclass(frozen=True)
class PathPlan:
    """Schedule for one decomposition path: its edges and reduced chain."""

    index: int
    edge_ids: tuple
    spec: SeriesSpec


@dataclass(frozen=True)
class NetworkPlan:
    """Per-path schedules derived from the tilde-weighted flow decomposition.

    ``window`` is the number of time steps one block round occupies; path i
    uses at most its per-edge budget of raw channel uses inside each window.
    """

    M: int
    window: int
    paths: tuple

    def blocks_per_path(self, n: int):
        counts = []
        for p in self.paths:
            t = n // self.window - len(p.edge_ids)
            if t < 1:
                raise HorizonTooShort(
                    f"horizon {n} too short: path {p.index} needs at least "
                    f"{(len(p.edge_ids) + 1) * self.window} steps"
                )
            counts.append(t)
        return counts


def build_network_plan(G: ChannelGraph, M: int, B: int) -> NetworkPlan:
    """Decompose the tilde-weighted maxflow into paths and allocate each path
    its per-edge sub-blocks.

    Every path runs the chain protocol over its reduced channels with an even
    per-path block size floor(min edge budget / M!); a window stretches past B
    only when shared edges make the ceilinged budgets overflow it.
    """
    if B % 2 != 0 or B < 2:
        raise ParameterOutOfRange("block size must be even and at least 2")
    tilde = per_channel(G, lambda P: tilde_exponent(P, M))
    net = weighted_network(G, [rep.value for rep in tilde])
    fl = maxflow(net)
    if fl.total <= 0:
        raise ParameterOutOfRange("graph maxflow is zero; no information can cross")
    flow_paths = decompose(net, fl)
    k = len(flow_paths)
    if B < k:
        raise BTooSmall(f"need B >= number of paths ({k}), got {B}")
    budgets, users = path_edge_budgets(flow_paths, B)
    window = B
    for eid, idxs in users.items():
        window = max(window, sum(budgets[(i, eid)] for i in idxs))

    paths = []
    for i, p in enumerate(flow_paths):
        raw_budget = min(budgets[(i, eid)] for eid in p.edge_ids)
        hops = [G.edges[eid].channel for eid in p.edge_ids]
        reduced, flow_value, ell = reduce_inputs(hops, M, reports=[tilde[eid] for eid in p.edge_ids])
        b_red = (raw_budget // ell) // 2 * 2
        if b_red < 2:
            raise BTooSmall(
                f"path {i} gets only {raw_budget} uses per window; needs at least {2 * ell}"
            )
        spec = SeriesSpec(channels=reduced, M=M, B=b_red, flow_value=flow_value)
        paths.append(PathPlan(index=i, edge_ids=p.edge_ids, spec=spec))
    return NetworkPlan(M=M, window=window, paths=tuple(paths))


def _encode_blocks(blocks: np.ndarray, base_out: int) -> np.ndarray:
    """Row-major digit index of each base-symbol block, by Horner's rule in
    place over the contiguous rows of one column-major copy.  The copy's
    dtype is the narrowest unsigned one that holds every key, base_out**L - 1,
    and intp above 2**62, where keys wrap as intp arithmetic wraps.  The keys
    come back as intp whatever the symbols' dtype, and a block of no symbols
    has key 0."""
    L = blocks.shape[1]
    if not L:
        return np.zeros(len(blocks), dtype=np.intp)
    keys = base_out**L  # Python ints: no wrap-around
    digits = np.array(blocks.T, order="C",
                      dtype=np.min_scalar_type(keys - 1) if keys <= 1 << 62 else np.intp)
    idx = digits[0]
    for t in range(1, L):
        idx *= base_out
        idx += digits[t]
    return idx.astype(np.intp)


def block_scores_ml(blocks: np.ndarray, log_dists: np.ndarray, tab: HopTables) -> np.ndarray:
    """Per-block exact log-likelihood scores, message-major: shape (M, n_blocks),
    read from the chain's :func:`exact_block_distribution` ``log_dists``.
    ``tab`` is the final hop's :class:`HopTables`, which gives the base
    output size the blocks are keyed in."""
    return np.take(log_dists, _encode_blocks(blocks, tab.out), axis=1)


def block_scores_heuristic(blocks: np.ndarray, tab: HopTables, B: int) -> np.ndarray:
    """Per-block scores, message-major: shape (M, n_blocks), under the final
    hop's codeword family: for each message, the best log-likelihood over the
    sender's confidence levels, an element-wise maximum over the leading
    level axis.  ``tab`` is the final hop's :class:`HopTables`, whose
    codewords and chunk table are built once per call."""
    la = _symbol_logliks(tab.log_probs, tab.words, blocks, B, tab.chunk)
    return np.maximum.reduce(_state_logliks(la, B))
