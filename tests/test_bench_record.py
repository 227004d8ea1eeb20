import importlib.util

import pytest

from conftest import ROOT

spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

END_TO_END = [
    {"name": "graphs_per_s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
    {"name": "setup_s", "better": "lower", "bound": 0.25},
]


def one(**values):
    return {"workloads": {"analyze-wide": {"end_to_end": {k: {"value": v, "unit": ""} for k, v in values.items()}}}}


def test_change_is_signed_worse_and_checked_against_the_bound():
    old = one(graphs_per_s=1000.0, peak_rss_mb=60.0, setup_s=0.5)
    new = one(graphs_per_s=700.0, peak_rss_mb=63.0)
    rows = {name: row for _, name, *row in bench_record.compare(old, new, END_TO_END)}
    # a metric missing from either record is skipped
    assert set(rows) == {"graphs_per_s", "peak_rss_mb"}
    a, b, worse, bound, beyond = rows["graphs_per_s"]
    assert (a, b, bound, beyond) == (1000.0, 700.0, 0.25, True)
    assert worse == pytest.approx(0.3)
    a, b, worse, bound, beyond = rows["peak_rss_mb"]
    assert (a, b, bound, beyond) == (60.0, 63.0, 0.1, False)
    assert worse == pytest.approx(0.05)


def test_improvements_read_negative_and_new_workloads_are_skipped():
    old = one(graphs_per_s=1000.0, peak_rss_mb=60.0)
    new = one(graphs_per_s=1100.0, peak_rss_mb=54.0)
    new["workloads"]["simulate-golden"] = one(graphs_per_s=13.0)["workloads"]["analyze-wide"]
    rows = bench_record.compare(old, new, END_TO_END)
    assert [(w, name) for w, name, *_ in rows] == [("analyze-wide", "graphs_per_s"), ("analyze-wide", "peak_rss_mb")]
    assert [row[4] for row in rows] == [pytest.approx(-0.1), pytest.approx(-0.1)]
    assert not any(row[6] for row in rows)
