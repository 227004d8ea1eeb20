"""Error-exponent bounds and forwarding protocols on channel graphs."""

from .channel import (
    Dmc,
    DivergenceResult,
    bec,
    bhattacharyya,
    bsc,
    channel_from_obj,
    channel_to_obj,
    chernoff,
    identity_channel,
    is_pairwise_reversible,
    ksym,
    make_dmc,
    product,
)
from .exponents import (
    ExponentReport,
    bsc_feedback_exponent_m3,
    exponent_two,
    tilde_exponent,
    zero_rate_exponent,
)
from .flow import (
    ChannelGraph,
    Cut,
    Flow,
    Network,
    NetEdge,
    brute_force_mincut,
    decompose,
    make_channel_graph,
    maxflow,
    mincut,
    mincut_without_backedges,
    per_channel,
    weighted_network,
)
from .protocol import (
    SeriesSpec,
    exact_block_distribution,
    make_series_spec,
    reduce_inputs,
)
from .harness import (
    BoundsReport,
    SimConfig,
    SimResult,
    analyze,
    counterexample_experiment,
    simulate,
    wilson_interval,
)

__all__ = [name for name in dir() if not name.startswith("_")]
