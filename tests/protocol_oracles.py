"""Reference forms of the protocol kernels and of the simulate cell loop.

The engine in ``netexp.protocol`` computes the kernels' quantities with
table lookups, and ``harness._cell_errors`` loops over trial chunks on the
outside; these direct forms (per-input masks, per-symbol loops, slot-outer
loop) are the oracles their results must equal bit for bit.
"""
import numpy as np

from netexp.protocol import block_scores_heuristic, block_scores_ml, run_series_blocks_batch


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


def cell_errors(plan, dists, decoder: str, n: int, m: int, trials: int, seed: int,
                h_idx: int, chunk_size: int) -> int:
    """Error count for one simulate cell with the slot loop outside: every
    (path, block) slot samples all its trials before the next slot starts,
    into one score row per trial."""
    counts = plan.blocks_per_path(n)
    scores = np.zeros((trials, plan.M))
    for p, t in zip(plan.paths, counts):
        spec = p.spec
        for b_idx in range(t):
            ss = np.random.SeedSequence(entropy=seed, spawn_key=(h_idx, m, p.index, b_idx))
            rng = np.random.Generator(np.random.PCG64(ss))
            done = 0
            while done < trials:
                chunk = min(chunk_size, trials - done)
                blocks = run_series_blocks_batch(spec, m, chunk, rng)
                if decoder == "exact":
                    scores[done : done + chunk] += block_scores_ml(blocks, dists[p.index])
                else:
                    scores[done : done + chunk] += block_scores_heuristic(
                        blocks, spec.channels[-1], spec.M, spec.B
                    )
                done += chunk
    decided = np.argmax(scores, axis=1) + 1
    return int(np.count_nonzero(decided != m))
