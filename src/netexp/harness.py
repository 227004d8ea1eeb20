"""Monte Carlo error-probability estimation, bound comparison reports, and
the four-node counterexample experiment."""
from __future__ import annotations

import math
import os
from array import array
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import (
    Dmc,
    bhattacharyya,
    bsc,
    identity_channel,
    ksym,
    make_dmc,
)
from .errors import (
    BoundsViolation,
    DistributionUnavailable,
    ParameterOutOfRange,
    StateSpaceTooLarge,
)
from .exponents import bsc_feedback_exponent_m3, channel_exponents, tilde_exponent
from .flow import (
    ChannelGraph, Network, make_channel_graph, maxflow, mincut_without_backedges, per_channel,
    weighted_network,
)
from .protocol import (
    NetworkPlan,
    _first_max_rows,
    block_scores_heuristic,
    block_scores_ml,
    build_network_plan,
    exact_block_distribution,
    path_tables,
    run_series_blocks_batch,
)

WILSON_Z = 1.959963984540054  # 95%


def wilson_interval(errors: int, trials: int):
    """Wilson score interval for a binomial proportion at z = WILSON_Z."""
    if trials < 1:
        raise ParameterOutOfRange("trials must be >= 1")
    if not 0 <= errors <= trials:
        raise ParameterOutOfRange(f"errors must lie in [0, {trials}], got {errors}")
    p = errors / trials
    z = WILSON_Z
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    lo = center - half
    hi = center + half
    if abs(lo) < 1e-15:
        lo = 0.0
    return max(0.0, lo), min(1.0, hi)


@dataclass(frozen=True, slots=True)
class EdgeBounds:
    edge_id: int
    tail: int
    head: int
    label: str | None
    exp_two: float
    exp_tilde: float
    exp_zero: float
    reversible: bool


@dataclass(frozen=True, slots=True, eq=False)
class BoundsReport:
    """Achievability/converse summary for one graph and message count.

    The per-edge numbers are packed: ``exponents`` holds each edge's (two,
    tilde, zero-rate) exponents edge after edge in one float64 array, and
    ``reversible`` one 0/1 byte per edge.  Edge ids, ends and labels stay in
    ``graph_edges``, the analyzed graph's own edge tuple; :attr:`edges`
    unpacks all of them into `EdgeBounds`."""

    M: int
    graph_edges: tuple
    exponents: array
    reversible: bytes
    maxflow_tilde: float
    maxflow_two: float
    maxflow_zero: float
    ratio_two_over_tilde: float
    all_reversible: bool
    backedge_free_mincut_exists: bool

    @property
    def edges(self) -> tuple:
        ex, rev = self.exponents, self.reversible
        return tuple(
            EdgeBounds(edge_id=e.id, tail=e.tail, head=e.head, label=e.channel.label,
                       exp_two=ex[3 * i], exp_tilde=ex[3 * i + 1], exp_zero=ex[3 * i + 2],
                       reversible=bool(rev[i]))
            for i, e in enumerate(self.graph_edges)
        )

    def _key(self) -> tuple:
        """What equality compares: the unpacked edges, not the graph's
        channels, whose arrays a copy does not share."""
        return (self.M, self.edges, self.maxflow_tilde, self.maxflow_two, self.maxflow_zero,
                self.ratio_two_over_tilde, self.all_reversible, self.backedge_free_mincut_exists)

    def __eq__(self, other):
        if not isinstance(other, BoundsReport):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def to_json_obj(self) -> dict:
        def num(v):
            if math.isinf(v):
                return "inf"
            return float(f"{v:.12g}")

        return {
            "messages": self.M,
            "edges": [
                {
                    "id": e.edge_id,
                    "tail": e.tail,
                    "head": e.head,
                    "label": e.label,
                    "exponent_two": num(e.exp_two),
                    "exponent_tilde": num(e.exp_tilde),
                    "exponent_zero_rate": num(e.exp_zero),
                    "pairwise_reversible": e.reversible,
                }
                for e in self.edges
            ],
            "maxflow_tilde": num(self.maxflow_tilde),
            "maxflow_two": num(self.maxflow_two),
            "maxflow_zero_rate": num(self.maxflow_zero),
            "ratio_two_over_tilde": num(self.ratio_two_over_tilde),
            "all_reversible": self.all_reversible,
            "backedge_free_mincut_exists": self.backedge_free_mincut_exists,
        }


def _effective_total(net: Network, total: float) -> float:
    """+inf for a total at the sentinel: the rule `maxflow` applies itself.
    Nothing in netexp calls it; the benchmark's checks do."""
    return math.inf if total >= net.sentinel() - 1e-9 else total


def analyze(G: ChannelGraph, M: int) -> BoundsReport:
    """Per-edge exponents, the three maxflow bounds, and structural flags.

    The sandwich maxflow_tilde <= maxflow_two and the 4x (2x under M=2 or
    all-reversible) approximation are checked before returning; a breach
    raises BoundsViolation.
    """
    per_edge = per_channel(G, lambda P: channel_exponents(P, M))
    net_tilde = weighted_network(G, [rec.tilde.value for rec in per_edge])
    net_two = weighted_network(G, [rec.two.value for rec in per_edge])
    net_zero = weighted_network(G, [rec.zero_rate.value for rec in per_edge])
    flow_tilde = maxflow(net_tilde)
    f_tilde = flow_tilde.total
    f_two = maxflow(net_two).total
    f_zero = maxflow(net_zero).total

    if f_tilde == 0 and f_two == 0:
        ratio = 1.0
    elif math.isinf(f_tilde) and math.isinf(f_two):
        ratio = 1.0
    else:
        ratio = f_two / f_tilde

    all_rev = all(rec.reversible for rec in per_edge)
    backedge_free = mincut_without_backedges(net_tilde, flow_tilde) is not None

    if f_tilde > f_two + 1e-9:
        raise BoundsViolation("tilde-weighted maxflow exceeded two-message maxflow")
    if ratio > 4 + 1e-9:
        raise BoundsViolation("approximation ratio above 4")
    if (M == 2 or all_rev) and ratio > 2 + 1e-9:
        raise BoundsViolation("approximation ratio above 2 in the reversible/M=2 regime")

    return BoundsReport(
        M=M,
        graph_edges=G.edges,
        exponents=array("d", [v for rec in per_edge
                              for v in (rec.two.value, rec.tilde.value, rec.zero_rate.value)]),
        reversible=bytes(rec.reversible for rec in per_edge),
        maxflow_tilde=f_tilde,
        maxflow_two=f_two,
        maxflow_zero=f_zero,
        ratio_two_over_tilde=ratio,
        all_reversible=all_rev,
        backedge_free_mincut_exists=backedge_free,
    )


@dataclass(frozen=True)
class SimConfig:
    seed: int
    trials: int
    horizons: tuple
    B: int
    M: int
    decoder: str

    def __post_init__(self):
        if self.seed < 0:
            raise ParameterOutOfRange(f"seed must be >= 0, got {self.seed}")
        if self.trials < 1:
            raise ParameterOutOfRange("trials must be >= 1")
        hs = tuple(self.horizons)
        if not hs:
            raise ParameterOutOfRange("at least one horizon is required")
        if any(b <= a for a, b in zip(hs, hs[1:])):
            raise ParameterOutOfRange("horizons must be strictly increasing")
        if self.decoder not in ("exact", "heuristic"):
            raise ParameterOutOfRange(f"unknown decoder {self.decoder!r}")
        if self.B % 2 != 0 or self.B < 2:
            raise ParameterOutOfRange("block size must be even and at least 2")


@dataclass(frozen=True)
class SimRow:
    n: int
    message: int
    errors: int
    trials: int
    p_hat: float
    ci_lo: float
    ci_hi: float


@dataclass(frozen=True)
class SimResult:
    config: SimConfig
    rows: tuple


_TRIAL_CHUNK = 1 << 14


def _cell_errors(plan: NetworkPlan, tables, dists, decoder: str, n: int, m: int, trials: int,
                 seed: int, h_idx: int) -> int:
    """Error count for one (horizon, message) cell; deterministic in its key.

    ``tables`` are the paths' :func:`path_tables`, built for the loop's
    largest batch, min(trials, _TRIAL_CHUNK) rows.  Each
    (path, block) slot gets a substream keyed by (h_idx, m, path, block) and
    samples its trials from it chunk after chunk in a fixed chunk layout, so
    results do not depend on worker scheduling.  Trial chunks are the outer
    loop, so memory holds one chunk's scores, not every trial's; scores are
    message-major, (M, chunk), and each of a batch's row tiles is decoded
    into its own columns; the heuristic decoder reads the final hop's
    codewords and chunk table from ``tables``, the exact decoder its base
    output size.
    """
    counts = plan.blocks_per_path(n)
    slots = [
        (p, tab, np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(entropy=seed, spawn_key=(h_idx, m, p.index, b_idx)))))
        for p, tab, t in zip(plan.paths, tables, counts)
        for b_idx in range(t)
    ]
    errors = 0
    for done in range(0, trials, _TRIAL_CHUNK):
        chunk = min(_TRIAL_CHUNK, trials - done)
        scores = np.zeros((plan.M, chunk))
        for p, tab, rng in slots:
            spec = p.spec
            lo = 0
            for blocks in run_series_blocks_batch(spec, m, chunk, rng, tab):
                cols = scores[:, lo : lo + len(blocks)]
                if decoder == "exact":
                    cols += block_scores_ml(blocks, dists[p.index], tab[-1])
                else:
                    cols += block_scores_heuristic(blocks, tab[-1], spec.B)
                lo += len(blocks)
            del blocks, cols  # free this batch's blocks before the next batch allocates
        errors += int(np.count_nonzero(_first_max_rows(scores)[0] != m - 1))
    return errors


def simulate(G: ChannelGraph, config: SimConfig) -> SimResult:
    """Estimate message error probabilities of the multipath protocol.

    Every (horizon, message) pair is simulated with `config.trials` trials on
    deterministically derived substreams; NETEXP_THREADS > 1 parallelizes over
    those pairs without changing any count.
    """
    threads = os.environ.get("NETEXP_THREADS", "1")
    try:
        workers = int(threads)
    except ValueError:
        raise ParameterOutOfRange(f"NETEXP_THREADS must be an integer, got {threads!r}") from None
    if workers < 1:
        raise ParameterOutOfRange(f"NETEXP_THREADS must be at least 1, got {threads!r}")
    plan = build_network_plan(G, config.M, config.B)
    dists = None
    if config.decoder == "exact":
        try:
            dists = [exact_block_distribution(p.spec, update_mode="uniform") for p in plan.paths]
        except StateSpaceTooLarge as exc:
            raise DistributionUnavailable(str(exc)) from exc

    tables = [path_tables(p.spec, min(config.trials, _TRIAL_CHUNK)) for p in plan.paths]

    cells = [
        (h_idx, n, m)
        for h_idx, n in enumerate(config.horizons)
        for m in range(1, config.M + 1)
    ]

    def run_cell(cell):
        h_idx, n, m = cell
        return _cell_errors(plan, tables, dists, config.decoder, n, m, config.trials,
                            config.seed, h_idx)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            errs = list(pool.map(run_cell, cells))
    else:
        errs = [run_cell(c) for c in cells]

    rows = []
    for (h_idx, n, m), e in zip(cells, errs):
        lo, hi = wilson_interval(e, config.trials)
        rows.append(SimRow(n=n, message=m, errors=e, trials=config.trials,
                           p_hat=e / config.trials, ci_lo=lo, ci_hi=hi))
    return SimResult(config=config, rows=tuple(rows))


def counterexample_channel(p: float) -> Dmc:
    """Composite per-transmission channel of the four-node counterexample.

    Inputs {0,1,2}; outputs (a, b) with a in {0,1,2} the relayed symbol and
    b the comparison bit, ordered [(0,0),(1,0),(2,0),(0,1),(1,1),(2,1)].
    """
    if not 0 < p < 1 / 3:
        raise ParameterOutOfRange(f"need p in (0, 1/3), got {p}")
    rows = []
    for m in range(3):
        agree = [(1 - 2 * p) * (1 - p) if a == m else p * p for a in range(3)]
        flag = [(1 - 2 * p) * p if a == m else p * (1 - p) for a in range(3)]
        rows.append(agree + flag)
    return make_dmc(rows, label=f"counterexample({p:g})")


def counterexample_graph(p: float) -> ChannelGraph:
    """Four-node graph: finite ternary and binary symmetric edges bridged by
    noiseless edges, whose unique minimum cut has a back-edge."""
    if not 0 < p < 1 / 3:
        raise ParameterOutOfRange(f"need p in (0, 1/3), got {p}")
    ident = identity_channel(3)
    # nodes 0..3 = 1..4; source 0, destination 3
    edges = [
        (0, 1, ksym(3, p)),
        (0, 2, ident),
        (1, 2, ident),
        (1, 3, ident),
        (2, 3, bsc(p)),
    ]
    return make_channel_graph(4, 0, 3, edges)


@dataclass(frozen=True)
class CounterexampleRow:
    p: float
    min_db_q: float
    maxflow_bound: float
    maxflow_feedback_bound: float


def counterexample_experiment(p_grid) -> list:
    """For each noise level: the composite channel's worst pairwise distance
    against the plain and feedback-weighted maxflow bounds (M=3)."""
    ps = [float(p) for p in p_grid]
    if not ps:
        raise ParameterOutOfRange("p grid must be non-empty")
    rows = []
    for p in ps:
        Q = counterexample_channel(p)
        min_db = min(
            bhattacharyya(Q, a, b) for a in range(3) for b in range(a + 1, 3)
        )
        G = counterexample_graph(p)
        tilde = per_channel(G, lambda P: tilde_exponent(P, 3).value)
        bound = maxflow(weighted_network(G, tilde)).total

        # feedback raises only the BSC edge's exponent; the ternary edge
        # keeps its tilde exponent and the noiseless edges stay infinite
        feedback = tilde[:4] + [bsc_feedback_exponent_m3(p)] + tilde[5:]
        fb_bound = maxflow(weighted_network(G, feedback)).total

        rows.append(
            CounterexampleRow(
                p=p, min_db_q=min_db, maxflow_bound=bound, maxflow_feedback_bound=fb_bound
            )
        )
    return rows
