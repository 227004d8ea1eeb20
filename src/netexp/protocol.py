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

from .channel import Dmc, restrict
from .errors import (
    BoundsViolation,
    BTooSmall,
    DistributionUnavailable,
    HorizonTooShort,
    MTooLarge,
    ParameterOutOfRange,
    StateSpaceTooLarge,
)
from .exponents import permutation_codebook, tilde_exponent
from .flow import ChannelGraph, decompose, maxflow, path_edge_budgets, weighted_network

EXACT_BLOCK_GUARD = 10**6
TABLE_BYTES_GUARD = 1 << 28  # one hop's sampling tables, see path_tables
_TILE_ELEMS = 1 << 17  # raw symbols one hop samples at once


@dataclass(frozen=True)
class ReducedChannel:
    """Lazy restriction of base^ell to M codewords (one per message).

    Kept unmaterialized so the Monte Carlo path never enumerates the
    output alphabet; ``to_dmc`` materializes the restriction for exact ops.
    """

    base: Dmc
    words: tuple
    ell: int
    pair_db: float

    @property
    def input_size(self) -> int:
        return len(self.words)

    def to_dmc(self) -> Dmc:
        return restrict(self.base, self.words)


@dataclass(frozen=True)
class SeriesSpec:
    """A chain of hop channels plus the protocol parameters.

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
        for ch in self.channels:
            if ch.input_size < self.M:
                raise ParameterOutOfRange(
                    f"hop channel has {ch.input_size} inputs, needs at least M={self.M}"
                )


@dataclass(frozen=True)
class CompositeDistribution:
    """Exact per-message log distributions over the destination block alphabet.

    Blocks are indexed in row-major base-output digit order, so a received
    base block maps to its index by Horner evaluation.
    """

    log_dists: np.ndarray
    base_output_size: int
    block_symbols: int


def _hop_view(chan, M: int):
    """Uniform (base channel, codeword table) view of a hop channel.

    words[a] lists the base symbols transmitted for protocol symbol a+1.
    """
    if isinstance(chan, ReducedChannel):
        if chan.input_size < M:
            raise ParameterOutOfRange("reduced channel has fewer inputs than messages")
        return chan.base, np.asarray(chan.words[:M], dtype=np.int64)
    if chan.input_size < M:
        raise ParameterOutOfRange(f"channel has {chan.input_size} inputs, needs {M}")
    return chan, np.arange(M, dtype=np.int64)[:, None]


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


def _symbol_logliks(base_logp: np.ndarray, words: np.ndarray, y: np.ndarray, B: int) -> np.ndarray:
    """Per-use log-likelihoods la[a, n, r] = log P(chunk r of y_n | symbol a+1).

    A chunk's first g raw digits key one row of a table that holds their
    summed log-likelihoods; the remaining digits are added one at a time.
    Every sum runs over the digits in order from 0.0, so the floats do not
    depend on g.  g is the largest with out**g no larger than the chunk
    count, so the table is never bigger than the data it replaces.  The
    result is a view whose memory runs use-major, la[a, :, r] contiguous.
    """
    M, ell = words.shape
    N = y.shape[0]
    out = base_logp.shape[1]
    digits = y.reshape(N * B, ell)
    g = 0
    while g < ell and out ** (g + 1) <= N * B:
        g += 1
    table = np.zeros((M, 1))
    for j in range(g):
        table = (table[:, :, None] + base_logp[words[:, j]][:, None, :]).reshape(M, -1)
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
        is_max = a == a_max
        m = is_max.sum(axis=0, dtype=a.dtype)
        # exp(a - max) with the maxima's terms then zeroed, as exp(-inf) is:
        # numpy's exp takes a slow path on -inf arguments.  A maximum's own
        # term may be NaN (an all -inf column, or a +inf maximum) before
        # the zeroing
        terms = np.subtract(a, a_max)
        np.exp(terms, out=terms)
        np.putmask(terms, is_max, 0.0)
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
    ell[np.isposinf(llr)] = half
    return m_idx, ell.astype(np.int64)


def _relay_states(chan, M: int, B: int, flow_value: float, y: np.ndarray):
    """Receiving relay's (m_idx, ell) for each row of raw base-symbol blocks.

    Hypothesis likelihoods marginalize the sender's confidence uniformly:
    P(y|m) = mean over ell of P(y|codeword(m, ell)).
    """
    base, words = _hop_view(chan, M)
    ll = _state_logliks(_symbol_logliks(base.log_probs, words, y, B), B)
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

    ``state`` holds each row's sender state, or one state for every row.
    One row of ``thresholds`` (see :func:`_sampling_thresholds`) per sender
    state; counting the thresholds at or below a uniform draw is
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
    if state.ndim:
        pieces = [(state, u, out, first)]
    else:
        # one state for every row.  Broadcast against the (n, L) draws, its
        # threshold row would make numpy's inner loop run over only L
        # elements per row, so it is gathered for a run of k rows (about
        # 1024 thresholds) and compared with the draws k rows at a time,
        # then with the last n % k rows
        n, L = out.shape
        k = min(n, max(1, 1024 // L))
        m = n - n % k
        pieces = [(np.broadcast_to(state, k), *(a[:m].reshape(-1, k, L) for a in (u, out, first)))]
        if m < n:
            pieces.append((np.broadcast_to(state, n - m), u[m:], out[m:], first[m:]))
    for i, thr in enumerate(thresholds):
        for rows, draws, count, count_bool in pieces:
            # states are rows of the table, so "clip" moves no index; with
            # "raise" np.take would gather into a temporary copy first
            gathered = np.take(thr, rows, axis=0, out=work[1][: len(rows)], mode="clip")
            if i:
                count += gathered <= draws
            else:
                np.less_equal(gathered, draws, out=count_bool)
    return out


def reduce_inputs(channels, M: int, *, reports=None):
    """Replace each hop channel by the permutation-codebook restriction of its
    M!-fold power, giving M-input channels with equal pairwise distances.

    Returns (reduced channels, flow_value, ell_factor) where flow_value is
    the bottleneck pairwise Bhattacharyya distance per reduced use (M! times
    the weakest hop's M-message exponent) and ell_factor = M!.  ``reports``,
    the channels' ``tilde_exponent`` reports for M, saves recomputing them.
    """
    if M < 2 or M > 4:
        raise MTooLarge(f"input reduction supports 2 <= M <= 4, got {M}")
    if reports is None:
        reports = [tilde_exponent(P, M) for P in channels]
    ell = math.factorial(M)
    reduced = []
    flow_value = math.inf
    for P, report in zip(channels, reports):
        pair_db = ell * report.value
        words = permutation_codebook(report, M).words
        reduced.append(ReducedChannel(base=P, words=words, ell=ell, pair_db=pair_db))
        flow_value = min(flow_value, pair_db)
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

    ``thresholds`` is the hop's :func:`_sampling_thresholds` and ``out`` its
    base output size.  On a relay hop whose out**L possible raw blocks are
    no more than the rows the tables were built for, ``next_state[key]`` is
    the receiving relay's sender-state index m_idx * (B/2+1) + ell for the
    block whose :func:`_encode_blocks` key is ``key``; elsewhere it is None
    and the relay decides each row itself.
    """

    thresholds: np.ndarray
    out: int
    next_state: np.ndarray | None

    def __post_init__(self):
        # shared by every batch and worker thread of a call
        for arr in (self.thresholds, self.next_state):
            if arr is not None:
                arr.flags.writeable = False


def path_tables(spec: SeriesSpec, rows: int) -> tuple:
    """Every hop's :class:`HopTables` for batches of up to ``rows`` blocks.

    A relay table is decided once from every possible block, so it is never
    bigger than the largest batch that reads it.  A hop's sampling tables
    grow with B**2: before any is built, each hop's size is checked against
    ``TABLE_BYTES_GUARD``, and :class:`StateSpaceTooLarge` is raised above it.
    """
    width = spec.B // 2 + 1
    views = [_hop_view(chan, spec.M) for chan in spec.channels]
    for base, words in views:
        # :func:`_sampling_thresholds`' int64 codeword index and its out-1
        # float64 threshold planes, each M*(B/2+1)*L entries
        L = spec.B * words.shape[1]
        size = 8 * base.output_size * spec.M * width * L
        if size > TABLE_BYTES_GUARD:
            raise StateSpaceTooLarge(
                f"blocks of {L} raw symbols need {size} bytes of sampling tables "
                f"per hop, above the {TABLE_BYTES_GUARD}-byte table guard"
            )
    tables = []
    for hop, (chan, (base, words)) in enumerate(zip(spec.channels, views)):
        out, L = base.output_size, spec.B * words.shape[1]
        next_state = None
        if hop < len(spec.channels) - 1 and out**L <= rows:  # Python ints: no int64 wrap-around
            m_tab, ell_tab = _relay_states(
                chan, spec.M, spec.B, spec.flow_value, _enumerate_blocks(out, L)
            )
            next_state = m_tab * width + ell_tab
        tables.append(HopTables(_sampling_thresholds(base.probs, words, spec.B), out, next_state))
    return tuple(tables)


def _hop_blocks(spec: SeriesSpec, m: int, n_blocks: int, rng, tables=None):
    """The protocol engine: n_blocks independent sequential block runs.

    Runs hop after hop, each hop in consecutive row tiles of at most
    ``_TILE_ELEMS`` raw symbols, and yields (hop, state, y) per tile: the
    sending node's state index m_idx * (B/2+1) + ell for each of the tile's
    rows and the raw base-symbol blocks the receiving node gets, in the
    hop's :func:`_symbol_dtype`.  A hop's tiles draw their uniforms in row
    order, so together they take the draws of one (n_blocks, L) call.  A
    relay decides each tile into the next hop's states once the next tile is
    requested, and that tile reuses the array, so copy a relay hop's tile to
    keep it.  The destination's tiles are row slices of one (n_blocks, L)
    array; its state is never computed here.

    ``tables`` are the chain's :func:`path_tables`, built for this batch when
    None.  A relay with a decision table keys each block once and reads its
    next sender state from the table; the others decide every row directly.
    """
    if not 1 <= m <= spec.M:
        raise BoundsViolation(f"message {m} outside 1..{spec.M}")
    if tables is None:
        tables = path_tables(spec, n_blocks)
    width = spec.B // 2 + 1
    last = len(spec.channels) - 1
    state = np.array((m - 1) * width + width - 1)  # the source's, for every row
    buf = None
    for hop, (chan, tab) in enumerate(zip(spec.channels, tables)):
        L = tab.thresholds.shape[2]
        dtype = _symbol_dtype(tab.out)
        rows = max(1, min(n_blocks, _TILE_ELEMS // L))
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
            yield hop, np.broadcast_to(sender, n), y
            if hop == last:
                continue
            if tab.next_state is not None:
                nxt[lo : lo + n] = np.take(tab.next_state, _encode_blocks(y, tab.out))
            else:
                m_idx, ell = _relay_states(chan, spec.M, spec.B, spec.flow_value, y)
                nxt[lo : lo + n] = m_idx * width + ell
        if hop < last:
            state = nxt


def run_series_blocks_batch(spec: SeriesSpec, m: int, n_blocks: int, rng,
                            tables=None) -> list:
    """Vectorized sequential block transmissions: n_blocks independent runs.

    Returns the destination's raw base-symbol blocks as row tiles in row
    order, each of shape (rows, B * ell_of_final_hop) in the final hop's
    :func:`_symbol_dtype` (uint8 up to 256 outputs), as :func:`_hop_blocks`
    samples them.  Nodes hold no state across blocks.  ``tables`` are as for
    :func:`_hop_blocks`.
    """
    last = len(spec.channels) - 1
    return [y for hop, _, y in _hop_blocks(spec, m, n_blocks, rng, tables) if hop == last]


@dataclass(frozen=True)
class ForwardTrace:
    """Exact protocol law on a chain: per-node state occupancies given each
    source message, and per-hop block log distributions."""

    occupancies: tuple
    block_logdists: tuple


def _enumerate_blocks(out_size: int, B: int) -> np.ndarray:
    """Every block of B base symbols in row-major digit order (first digit
    slowest), so row k is the block whose ``_encode_blocks`` key is k, in
    :func:`_symbol_dtype`.  Written column by column: digit j counts up once
    every out_size**(B-1-j) rows."""
    blocks = np.empty((out_size**B, B), dtype=_symbol_dtype(out_size))
    for j in range(B):
        blocks.reshape(out_size**j, out_size, -1, B)[:, :, :, j] = np.arange(out_size)[:, None]
    return blocks


def series_forward_trace(spec: SeriesSpec, update_mode: str = "uniform") -> ForwardTrace:
    """Exact forward pass: enumerate every hop's block alphabet, map blocks to
    states deterministically, and propagate state occupancies.

    ``update_mode='uniform'`` decides relay states with the sampled relays'
    own ``_relay_states``, so it is the sampled protocol's law; ``'exact'`` lets
    each node weight hypothesis likelihoods by the true predecessor state
    occupancies (computable without data since the protocol is known).
    """
    if update_mode not in ("uniform", "exact"):
        raise ParameterOutOfRange(f"unknown update mode {update_mode!r}")
    M, B = spec.M, spec.B
    half = B // 2
    n_states = M * (half + 1)

    occ = np.zeros((M, n_states))
    for m_idx in range(M):
        occ[m_idx, m_idx * (half + 1) + half] = 1.0
    occupancies = [occ]
    block_logdists = []

    for chan in spec.channels:
        # the guard reads the base sizes, so it fires before to_dmc builds
        # the restriction's out**ell product columns
        base, words = _hop_view(chan, M)
        symbols = B * words.shape[1]
        if base.output_size**symbols > EXACT_BLOCK_GUARD:
            raise StateSpaceTooLarge(
                f"{base.output_size}^{symbols} block outcomes exceed the exact-enumeration guard"
            )
        Q = chan.to_dmc() if isinstance(chan, ReducedChannel) else chan
        blocks = _enumerate_blocks(Q.output_size, B)
        ident = np.arange(M, dtype=np.int64)[:, None]
        ll = _state_logliks(_symbol_logliks(Q.log_probs, ident, blocks, B), B)  # (half+1, M, K)
        flat = ll.transpose(1, 0, 2).reshape(n_states, ll.shape[2])  # (state, block)
        prev = occupancies[-1]
        with np.errstate(divide="ignore"):
            logocc = np.log(prev)
        ld = np.empty((M, flat.shape[1]))
        for m_idx in range(M):
            ld[m_idx] = _logsumexp_leading(flat + logocc[m_idx][:, None])
        if update_mode == "uniform":
            # the sampled relays' own decision; restrict's outputs run
            # row-major over the base digits, so these rows are the law's
            midx, ell = _relay_states(
                chan, M, B, spec.flow_value, _enumerate_blocks(base.output_size, symbols)
            )
        else:
            midx, ell = _states_from_loglik(ld, spec.flow_value, half)
        sidx = midx * (half + 1) + ell
        nxt = np.zeros((M, n_states))
        for m_idx in range(M):
            nxt[m_idx] = np.bincount(sidx, weights=np.exp(ld[m_idx]), minlength=n_states)
        occupancies.append(nxt)
        block_logdists.append(ld)

    return ForwardTrace(occupancies=tuple(occupancies), block_logdists=tuple(block_logdists))


def exact_block_distribution(spec: SeriesSpec, update_mode: str = "uniform") -> CompositeDistribution:
    """Exact per-message distribution of the destination's block."""
    trace = series_forward_trace(spec, update_mode=update_mode)
    base, words = _hop_view(spec.channels[-1], spec.M)
    return CompositeDistribution(
        log_dists=trace.block_logdists[-1],
        base_output_size=base.output_size,
        block_symbols=spec.B * words.shape[1],
    )


def composite_db(cd: CompositeDistribution, m1: int, m2: int) -> float:
    """Bhattacharyya distance between two messages' exact block distributions."""
    l1 = cd.log_dists[m1 - 1]
    l2 = cd.log_dists[m2 - 1]
    mask = np.isfinite(l1) & np.isfinite(l2)
    if not mask.any():
        return math.inf
    half_sum = 0.5 * (l1[mask] + l2[mask])
    # max keeps the first of equal values, so -lse = -0.0 gives 0.0
    return max(0.0, -float(_logsumexp_leading(half_sum[:, None])[0]))


@dataclass(frozen=True)
class PathPlan:
    """Schedule for one decomposition path: its reduced chain and budgets."""

    index: int
    nodes: tuple
    edge_ids: tuple
    edge_budgets: tuple
    spec: SeriesSpec
    ell_factor: int


@dataclass(frozen=True)
class NetworkPlan:
    """Per-path schedules derived from the tilde-weighted flow decomposition.

    ``window`` is the number of time steps one block round occupies; path i
    uses at most its per-edge budget of raw channel uses inside each window.
    """

    M: int
    B: int
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
    channels = {id(e.channel): e.channel for e in G.edges}
    tilde = {key: tilde_exponent(P, M) for key, P in channels.items()}
    net = weighted_network(G, lambda P: tilde[id(P)].value)
    fl = maxflow(net)
    if fl.total <= 0:
        raise ParameterOutOfRange("graph maxflow is zero; no information can cross")
    dec = decompose(net, fl)
    k = len(dec.paths)
    if B < k:
        raise BTooSmall(f"need B >= number of paths ({k}), got {B}")
    budgets, users = path_edge_budgets(dec, B)
    window = B
    for eid, idxs in users.items():
        window = max(window, sum(budgets[(i, eid)] for i in idxs))

    chan_by_id = {g_edge.id: g_edge.channel for g_edge in G.edges}

    paths = []
    for i, p in enumerate(dec.paths):
        raw_budget = min(budgets[(i, eid)] for eid in p.edge_ids)
        hops = [chan_by_id[eid] for eid in p.edge_ids]
        reduced, flow_value, ell = reduce_inputs(hops, M, reports=[tilde[id(P)] for P in hops])
        b_red = (raw_budget // ell) // 2 * 2
        if b_red < 2:
            raise BTooSmall(
                f"path {i} gets only {raw_budget} uses per window; needs at least {2 * ell}"
            )
        spec = SeriesSpec(channels=reduced, M=M, B=b_red, flow_value=flow_value)
        paths.append(
            PathPlan(
                index=i,
                nodes=p.nodes,
                edge_ids=p.edge_ids,
                edge_budgets=tuple(budgets[(i, eid)] for eid in p.edge_ids),
                spec=spec,
                ell_factor=ell,
            )
        )
    return NetworkPlan(M=M, B=B, window=window, paths=tuple(paths))


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


def block_scores_ml(blocks: np.ndarray, cd: CompositeDistribution) -> np.ndarray:
    """Per-block exact log-likelihood scores, message-major: shape (M, n_blocks)."""
    if blocks.shape[1] != cd.block_symbols:
        raise DistributionUnavailable(
            f"block length {blocks.shape[1]} does not match the distribution ({cd.block_symbols})"
        )
    return np.take(cd.log_dists, _encode_blocks(blocks, cd.base_output_size), axis=1)


def block_scores_heuristic(blocks: np.ndarray, final_channel, M: int, B: int) -> np.ndarray:
    """Per-block scores, message-major: shape (M, n_blocks), under the final
    hop's codeword family: for each message, the best log-likelihood over the
    sender's confidence levels, an element-wise maximum over the leading
    level axis."""
    base, words = _hop_view(final_channel, M)
    la = _symbol_logliks(base.log_probs, words, blocks, B)
    return np.maximum.reduce(_state_logliks(la, B))
