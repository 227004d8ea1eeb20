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
    chernoff_at,
    compose,
    identity_channel,
    is_pairwise_reversible,
    ksym,
    make_dmc,
    power,
    product,
    restrict,
)
from .exponents import (
    Codebook,
    ExponentReport,
    bsc_feedback_exponent_m3,
    exponent_two,
    ksym_closed_form,
    tilde_exponent,
    zero_rate_exponent,
)
from .flow import (
    ChannelGraph,
    Cut,
    Flow,
    Network,
    NetEdge,
    PathDecomposition,
    brute_force_mincut,
    decompose,
    make_channel_graph,
    maxflow,
    mincut,
    mincut_without_backedges,
    weighted_network,
)
from .protocol import (
    CompositeDistribution,
    NodeState,
    SeriesSpec,
    Transcript,
    composite_db,
    exact_block_distribution,
    make_series_spec,
    reduce_inputs,
    run_series_block,
)
from .harness import (
    BoundsReport,
    SimConfig,
    SimResult,
    analyze,
    counterexample_experiment,
    fit_exponent,
    simulate,
    wilson_interval,
)

__all__ = [name for name in dir() if not name.startswith("_")]
