"""The benchmark's trace stages (``perfbench/spans.py``) against the package:
every function a stage wraps exists, and a simulate call reaches each
stage under the parent stage the per-layer numbers assume."""
import importlib
import importlib.util
from pathlib import Path

import netexp.graphio  # noqa: F401  (the tracer wraps only imported modules)
from netexp.channel import bsc
from netexp.flow import make_channel_graph
from netexp.harness import SimConfig, simulate

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_wrapped_name_exists():
    stages = _spans_module().STAGES
    assert stages
    missing = [
        f"{stage}: netexp.{modname}.{fname}"
        for stage, modname, fnames, _, _ in stages
        for fname in fnames
        if not callable(getattr(importlib.import_module(f"netexp.{modname}"), fname, None))
    ]
    assert missing == []


def test_simulate_stages_keep_their_parents(monkeypatch):
    # 10 trials are fewer than the relay's 2**4 possible blocks, so the
    # relay decides its rows inside each batch and the state update is
    # reached there; the tracer's stack is single-threaded
    monkeypatch.setenv("NETEXP_THREADS", "1")
    spans = _spans_module()
    tracer = spans.Tracer()
    assert tracer.absent == []
    G = make_channel_graph(3, 0, 2, [(0, 1, bsc(0.1)), (1, 2, bsc(0.1))])
    cfg = SimConfig(seed=1, trials=10, horizons=(12, 16), B=4, M=2, decoder="exact")
    tracer.install()
    try:
        simulate(G, cfg)
    finally:
        tracer.uninstall()
    parents = {}
    for stage, _, _, parent, _ in tracer.spans:
        parents.setdefault(stage, set()).add(tracer.spans[parent][0] if parent >= 0 else None)
    assert parents["protocol.batch"] == {"harness.cell"}
    assert parents["protocol.decoder"] == {"harness.cell"}
    for stage, _, _, only_under, _ in spans.STAGES:
        if only_under is not None:
            assert parents.get(stage) == {only_under}, stage
