"""Reference forms of the protocol kernels and of the simulate cell loop,
and exact-enumeration oracles on a chain's protocol law.

The engine in ``netexp.protocol`` computes the kernels' quantities with
table lookups and decides each distinct relay block once, and
``harness._cell_errors`` loops over trial chunks on the outside; these
direct forms (per-input masks, per-symbol loops, per-row relay decisions,
slot-outer loop, intp Horner over strided columns, ``np.argmax`` with a
masked copy for the runner-up) are the oracles their results must equal bit
for bit; ``logsumexp``, scipy's log-sum-exp step for step, is the one
that the engine's leading-axis log-sum-exp must equal.  The
law oracles (exact ML error, the state-transition inequalities) read
``exact_block_distribution`` and ``restriction_trace``, which rebuilds that
law hop by hop from each hop's materialized restriction
(``channel_oracles.restrict``) with these kernels, and keeps every node's
state occupancies, the destination's included.  A one-block
transcript (``run_series_block``) reads the engine's ``_hop_blocks`` and
records what each hop sent, received and decided.
"""
import math
from dataclasses import dataclass

import numpy as np

from channel_oracles import restrict

from netexp.channel import _half_and_slope
from netexp.protocol import (
    ReducedChannel,
    SeriesSpec,
    _codeword_table,
    _hop_blocks,
    _relay_states,
    _state_logliks,
    _symbol_logliks,
    block_scores_ml,
    path_tables,
    run_series_blocks_batch,
)


def logsumexp(a, axis=None):
    """log(sum(exp(a))) over ``axis`` (all axes when None) for real input,
    step for step as ``scipy.special.logsumexp`` computes it, so bit-identical;
    its direct-formula fallback is evaluated only when a result is non-finite."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    axis = tuple(range(a.ndim)) if axis is None else axis
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = np.max(a, axis=axis, keepdims=True)
        is_max = a == a_max
        m = np.sum(is_max, axis=axis, keepdims=True, dtype=a.dtype)
        rest = a.copy(order="K")
        rest[is_max] = -np.inf
        s = np.sum(np.exp(rest - a_max), axis=axis, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        bad = ~np.isfinite(out)
        if bad.any():
            out = np.where(bad, np.log(np.sum(np.exp(a), axis=axis, keepdims=True)), out)
    out = np.squeeze(out, axis=axis)
    return out[()] if out.ndim == 0 else out


@dataclass(frozen=True)
class NodeState:
    """Belief state: message index m in 1..M, confidence ell in 0..B/2."""

    m: int
    ell: int


@dataclass(frozen=True)
class HopRecord:
    sent: tuple
    received: tuple
    state: NodeState


@dataclass(frozen=True)
class Transcript:
    """Per-hop sent/received blocks and resulting states for one block run.

    ``sent`` holds protocol symbols (1..M, one per hop-channel use);
    ``received`` holds raw base-channel output indices.
    """

    hops: tuple
    final_block: tuple

    def dump(self) -> str:
        lines = []
        for j, hop in enumerate(self.hops, start=1):
            sent = "".join(str(s) for s in hop.sent)
            recv = "".join(str(s) for s in hop.received)
            lines.append(f"hop={j} state=({hop.state.m},{hop.state.ell}) sent={sent} recv={recv}")
        return "\n".join(lines)


def raw_hops(channels, M: int) -> tuple:
    """Hops that send protocol symbol a+1 as the channel's input a: each
    channel with one-symbol codewords 0..M-1."""
    words = np.arange(M, dtype=np.int64)[:, None]
    words.flags.writeable = False
    return tuple(ReducedChannel(base=P, words=words) for P in channels)


def destination_blocks(spec: SeriesSpec, m: int, n_blocks: int, rng) -> np.ndarray:
    """The destination's blocks of one ``run_series_blocks_batch`` call, its
    tiles concatenated, with the chain's tables built for that batch."""
    return np.concatenate(run_series_blocks_batch(spec, m, n_blocks, rng, path_tables(spec, n_blocks)))


def run_series_block(spec: SeriesSpec, m: int, rng) -> Transcript:
    """One sequential block transmission with a full per-hop transcript.

    The source starts at full confidence (m, B/2); each relay applies the
    uniform-prior state update.  The draws are those of a one-row
    ``run_series_blocks_batch``.
    """
    width = spec.B // 2 + 1
    hops = [(int(state.flat[0]), y[0].copy())
            for _, state, y in _hop_blocks(spec, m, 1, rng, path_tables(spec, 1))]
    y_last = hops[-1][1]
    chan = spec.channels[-1]
    m_idx, ell = _relay_states(chan.base.log_probs, chan.words, spec.B, spec.flow_value, y_last[None])
    received = [divmod(state, width) for state, _ in hops[1:]]
    received.append((int(m_idx[0]), int(ell[0])))
    table = _codeword_table(spec.M, spec.B).reshape(-1, spec.B)
    records = tuple(
        HopRecord(
            sent=tuple(int(s) + 1 for s in table[state]),
            received=tuple(int(v) for v in y),
            state=NodeState(m=m_recv + 1, ell=ell_recv),
        )
        for (state, y), (m_recv, ell_recv) in zip(hops, received)
    )
    return Transcript(hops=records, final_block=tuple(int(v) for v in y_last))


def sample_symbols(probs: np.ndarray, x_idx: np.ndarray, rng) -> np.ndarray:
    """Inverse-CDF sampling of channel outputs for a matrix of inputs."""
    u = rng.random(x_idx.shape)
    y = np.empty(x_idx.shape, dtype=np.int64)
    cums = np.cumsum(probs, axis=1)
    for a in range(probs.shape[0]):
        mask = x_idx == a
        y[mask] = np.searchsorted(cums[a], u[mask], side="right")
    np.minimum(y, probs.shape[1] - 1, out=y)
    return y


def hop_blocks(spec: SeriesSpec, m: int, n_blocks: int, rng):
    """The protocol engine with every hop sampled in one piece by
    :func:`sample_symbols` and every relay deciding every row directly."""
    half = spec.B // 2
    table = _codeword_table(spec.M, spec.B)
    m_idx = np.full(n_blocks, m - 1, dtype=np.int64)
    ell = np.full(n_blocks, half, dtype=np.int64)
    for hop, chan in enumerate(spec.channels):
        base, words = chan.base, chan.words
        y = sample_symbols(base.probs, words[table[m_idx, ell]].reshape(n_blocks, -1), rng)
        yield m_idx, ell, y
        if hop < len(spec.channels) - 1:
            m_idx, ell = _relay_states(base.log_probs, words, spec.B, spec.flow_value, y)


def encode_blocks(blocks: np.ndarray, base_out: int) -> np.ndarray:
    """Row-major digit index of each block by Horner's rule in intp over the
    strided columns, wrapping as intp arithmetic wraps."""
    idx = np.zeros(len(blocks), dtype=np.intp)
    for t in range(blocks.shape[1]):
        idx *= base_out
        idx += blocks[:, t]
    return idx


def first_max_rows(scores: np.ndarray):
    """``np.argmax`` over the rows of scores[k, n], the maximum it picks, and
    the largest value of a copy with that entry set to -inf."""
    cols = np.arange(scores.shape[1])
    idx = np.argmax(scores, axis=0)
    rest = scores.copy()
    rest[idx, cols] = -np.inf
    return idx, scores[idx, cols], rest.max(axis=0)


def states_from_loglik(msg_ll: np.ndarray, flow_value: float, half: int):
    """The relay decision from the values of :func:`first_max_rows`: the
    floored log-likelihood ratio over 4*flow_value, an infinite ratio clamped
    to ``half``, NaN ratios (both values infinite) to 0 or ``half``."""
    m_idx, val1, val2 = first_max_rows(msg_ll)
    with np.errstate(divide="ignore", invalid="ignore"):
        llr = val1 - val2
        raw = np.floor(llr / (4.0 * flow_value))
    ell = np.where(np.isposinf(raw), half, raw)
    ell = np.where(np.isnan(ell), np.where(np.isposinf(llr), half, 0), ell)
    return m_idx, np.clip(ell, 0, half).astype(np.int64)


def symbol_logliks(base_logp: np.ndarray, words: np.ndarray, y: np.ndarray, B: int) -> np.ndarray:
    """Per-use log-likelihoods la[a, n, r] = log P(chunk r of y_n | symbol a+1)."""
    M, ell = words.shape
    N = y.shape[0]
    yr = y.reshape(N, B, ell)
    la = np.zeros((M, N, B))
    for a in range(M):
        for j in range(ell):
            la[a] += base_logp[words[a, j]][yr[:, :, j]]
    return la


def state_logliks(la: np.ndarray, B: int) -> np.ndarray:
    """Codeword log-likelihoods ll[n, m, ell] by one prefix and one suffix
    sum per symbol."""
    M, N, _ = la.shape
    half = B // 2
    cols = half + np.arange(half + 1)
    prefix = np.empty((M, N, B + 1))
    suffix = np.empty((M, N, B + 1))
    for a in range(M):
        prefix[a, :, 0] = 0.0
        np.cumsum(la[a], axis=1, out=prefix[a, :, 1:])
        suffix[a, :, B] = 0.0
        suffix[a, :, :B] = np.cumsum(la[a][:, ::-1], axis=1)[:, ::-1]
    ll = np.empty((N, M, half + 1))
    for m_idx in range(M):
        nxt = (m_idx + 1) % M
        ll[:, m_idx, :] = prefix[m_idx][:, cols] + suffix[nxt][:, cols]
    return ll


def heuristic_scores(blocks: np.ndarray, final_channel, B: int) -> np.ndarray:
    """``block_scores_heuristic``'s (M, n_blocks) scores with the final
    hop's chunk table built afresh for these blocks."""
    la = _symbol_logliks(final_channel.base.log_probs, final_channel.words, blocks, B)
    return np.maximum.reduce(_state_logliks(la, B))


def cell_errors(plan, dists, decoder: str, n: int, m: int, trials: int, seed: int,
                h_idx: int, chunk_size: int) -> int:
    """Error count for one simulate cell with the slot loop outside: every
    (path, block) slot samples all its trials with the per-row engine
    :func:`hop_blocks` before the next slot starts, into one score row per
    trial, and each row is decided by ``np.argmax``."""
    counts = plan.blocks_per_path(n)
    scores = np.zeros((trials, plan.M))
    for p, t in zip(plan.paths, counts):
        spec = p.spec
        final = path_tables(spec, 1)[-1]
        for b_idx in range(t):
            ss = np.random.SeedSequence(entropy=seed, spawn_key=(h_idx, m, p.index, b_idx))
            rng = np.random.Generator(np.random.PCG64(ss))
            done = 0
            while done < trials:
                chunk = min(chunk_size, trials - done)
                *_, (_, _, blocks) = hop_blocks(spec, m, chunk, rng)
                if decoder == "exact":
                    scores[done : done + chunk] += block_scores_ml(blocks, dists[p.index], final).T
                else:
                    scores[done : done + chunk] += heuristic_scores(blocks, spec.channels[-1], spec.B).T
                done += chunk
    decided = np.argmax(scores, axis=1) + 1
    return int(np.count_nonzero(decided != m))


def state_pseudometric(a: NodeState, b: NodeState, flow_value: float) -> float:
    """Belief distance: |f|*|ell1-ell2| on equal messages, else |f|*(ell1+ell2)."""
    steps = abs(a.ell - b.ell) if a.m == b.m else a.ell + b.ell
    if steps == 0:
        return 0.0  # even when flow_value is infinite
    return flow_value * steps


def all_blocks(out: int, L: int) -> np.ndarray:
    """Every block of L symbols from 0..out-1, first digit slowest."""
    if out == 1:  # np.indices takes at most 64 dimensions
        return np.zeros((1, L), dtype=np.int64)
    return np.indices((out,) * L, dtype=np.int64).reshape(L, -1).T


def restriction_trace(spec: SeriesSpec, update_mode: str):
    """(occupancies, laws) of the chain: every node's state occupancies given
    each source message, source first and destination last, and every hop's
    ``exact_block_distribution`` array.  Each hop is built from the log rows
    of ``restrict(base, words)``, the materialized channel whose inputs are
    the hop's codewords, and the direct kernels of this module; the
    destination's state is decided as a relay's would be.  Every log-sum-exp
    runs over a leading axis, as the engine's does."""
    M, B = spec.M, spec.B
    half = B // 2
    n_states = M * (half + 1)
    occ = np.zeros((M, n_states))
    occ[np.arange(M), np.arange(M) * (half + 1) + half] = 1.0
    occupancies, laws = [occ], []
    ident = np.arange(M)[:, None]
    for chan in spec.channels:
        Q = restrict(chan.base, chan.words)
        ll = state_logliks(symbol_logliks(Q.log_probs, ident, all_blocks(Q.output_size, B), B), B)
        flat = np.ascontiguousarray(ll.transpose(1, 2, 0).reshape(n_states, -1))  # (state, block)
        with np.errstate(divide="ignore"):
            logocc = np.log(occ)
        ld = np.stack([logsumexp(flat + logocc[m][:, None], axis=0) for m in range(M)])
        if update_mode == "uniform":
            raw = all_blocks(chan.base.output_size, B * chan.words.shape[1])
            ll = state_logliks(symbol_logliks(chan.base.log_probs, chan.words, raw, B), B)
            msg = logsumexp(np.ascontiguousarray(ll.transpose(2, 1, 0)), axis=0) - math.log(half + 1)
        else:
            msg = ld
        m_idx, ell = states_from_loglik(msg, spec.flow_value, half)
        occ = np.stack([np.bincount(m_idx * (half + 1) + ell, weights=np.exp(ld[m]), minlength=n_states)
                        for m in range(M)])
        occupancies.append(occ)
        laws.append(ld)
    return occupancies, laws


def restriction_law(spec: SeriesSpec, update_mode: str) -> np.ndarray:
    """The destination's block law of :func:`restriction_trace`."""
    return restriction_trace(spec, update_mode)[1][-1]


def min_pairwise_block_db(ld: np.ndarray) -> float:
    """The smallest d_B between two messages' rows of the block law ``ld``."""
    M = ld.shape[0]
    return min(_half_and_slope(ld[a], ld[b])[0] for a in range(M) for b in range(a + 1, M))


def ml_error_probs(ld: np.ndarray) -> np.ndarray:
    """Exact maximum-likelihood error probability per message (ties to the
    lowest index), decoding a single block of the law ``ld``."""
    M = ld.shape[0]
    decisions = np.argmax(ld, axis=0)
    errs = np.empty(M)
    for m_idx in range(M):
        wrong = decisions != m_idx
        errs[m_idx] = float(np.exp(ld[m_idx][wrong]).sum()) if wrong.any() else 0.0
    return errs


@dataclass(frozen=True)
class TransitionReport:
    """Slack audit of the state-occupancy and block-divergence inequalities."""

    all_hold: bool
    min_slack_occupancy: float
    min_slack_divergence: float
    details: tuple


def verify_transition_bound(spec: SeriesSpec) -> TransitionReport:
    """Check, by exact enumeration, that every reachable state's probability
    decays with its distance from the source state, and that per-hop block
    divergences stay above the chained lower bound.

    Both checks use the exact-occupancy update variant.
    """
    occupancies, laws = restriction_trace(spec, update_mode="exact")
    M, B = spec.M, spec.B
    half = B // 2
    f = spec.flow_value
    logmb = math.log(M * (B + 1))
    logm1 = math.log(M - 1) if M > 1 else 0.0

    details = []
    min_occ = math.inf
    for j, occ in enumerate(occupancies):
        for m1 in range(1, M + 1):
            for mp in range(1, M + 1):
                for ellp in range(half + 1):
                    p = occ[m1 - 1, (mp - 1) * (half + 1) + ellp]
                    lhs = -math.log(p) if p > 0 else math.inf
                    dist = state_pseudometric(NodeState(m1, half), NodeState(mp, ellp), f)
                    rhs = 2 * dist - 2 * j * logmb - 2 * j * f - j * logm1
                    slack = lhs - rhs
                    details.append(("occupancy", j, m1, (mp, ellp), slack))
                    if math.isfinite(slack):
                        min_occ = min(min_occ, slack)

    min_div = math.inf
    for j, ld in enumerate(laws):
        rhs = B * f - 2 * (j + 1) * logmb - 2 * j * f - j * logm1
        for m1 in range(1, M + 1):
            for m2 in range(m1 + 1, M + 1):
                l1, l2 = ld[m1 - 1], ld[m2 - 1]
                mask = np.isfinite(l1) & np.isfinite(l2)
                lhs = math.inf if not mask.any() else max(
                    -float(logsumexp(0.5 * (l1[mask] + l2[mask]))), 0.0
                )
                slack = lhs - rhs
                details.append(("divergence", j, m1, m2, slack))
                if math.isfinite(slack):
                    min_div = min(min_div, slack)

    all_hold = (min_occ >= -1e-9 or math.isinf(min_occ)) and (
        min_div >= -1e-9 or math.isinf(min_div)
    )
    return TransitionReport(
        all_hold=all_hold,
        min_slack_occupancy=min_occ,
        min_slack_divergence=min_div,
        details=tuple(details),
    )
