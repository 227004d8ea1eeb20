import importlib.util
import json
import sys

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


def fake_command(script):
    """A benchmark command that runs ``script`` in a fresh interpreter."""
    return [sys.executable, "-c", script]


def test_run_workload_reads_the_last_two_json_lines():
    script = "import json, sys; print('warming up'); print(json.dumps({'seed': 7})); print(json.dumps(sys.argv[1:]))"
    with pytest.raises(SystemExit, match="printed no report and result"):
        bench_record.run_workload(fake_command(script), "analyze-wide")  # the result is a list
    script = "import json, sys; print('warming up'); print(json.dumps({'seed': 7})); print(json.dumps({'argv': sys.argv[1:]}))"
    report, result = bench_record.run_workload(fake_command(script), "analyze-wide", "--trace", "1")
    assert report == {"seed": 7}
    assert result == {"argv": ["--workload", "analyze-wide", "--trace", "1"]}


@pytest.mark.parametrize("script", [
    "import sys; print('{\"seed\": 7}'); print('{\"wall_s\"'); sys.exit('worker crashed')",
    "import sys; print('{\"seed\": 7}'); sys.exit('worker crashed')",
    "import sys; sys.exit('worker crashed')",
], ids=["truncated-result", "one-line", "no-output"])
def test_run_workload_stops_with_the_command_and_its_stderr(script):
    with pytest.raises(SystemExit) as exc:
        bench_record.run_workload(fake_command(script), "analyze-wide", "--trace", "0")
    message = str(exc.value)
    assert "--workload analyze-wide --trace 0 printed no report and result" in message
    assert "worker crashed" in message


def test_printout_calls_one_run_per_side_no_verdict(tmp_path, monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))
    (tmp_path / "BENCH_1.json").write_text(json.dumps(one(graphs_per_s=1000.0, peak_rss_mb=60.0)))
    new = one(graphs_per_s=700.0, peak_rss_mb=61.0)
    new["workloads"]["analyze-wide"]["correct"] = True
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    monkeypatch.setattr(bench_record, "record", lambda bench: new)
    assert bench_record.main(["2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert (tmp_path / "BENCH_2.json").exists()
    assert out[1] == "change against BENCH_1.json, one run per side (positive is worse):"
    assert out[2].endswith("+30.0% (bound 25.0%)  outside bound in one run")
    assert out[3].endswith("+1.7% (bound 10.0%)")
