import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import peak_traced
from netexp import cli, protocol
from netexp.channel import bsc
from netexp.flow import make_channel_graph
from netexp.graphio import dump_normalized, load_graph_file, parse_graph_obj
from netexp.errors import GraphFileError, NetexpError

ROOT = Path(__file__).resolve().parent.parent
GRAPHS = ROOT / "graphs"
TEST_GRAPHS = Path(__file__).resolve().parent / "data" / "graphs"
GOLDEN = Path(__file__).resolve().parent / "data" / "golden_simulate.csv"
CLI_GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden"
SAMPLE_GRAPHS = ("counterexample", "diamond", "noiseless", "series-2-bsc", "series-2-bsc005")

# (golden file stem, argv): stdout recorded before the second
# implementations and test-only code left src/
CLI_GOLDEN_CASES = (
    [(f"analyze-{g}-m{M}", ["analyze", str(GRAPHS / f"{g}.json"), "--messages", M])
     for g in SAMPLE_GRAPHS for M in ("2", "3")]
    + [(f"decompose-{g}-{w}", ["decompose", str(GRAPHS / f"{g}.json"), "--weights", w])
       for g in SAMPLE_GRAPHS for w in ("two", "tilde", "zero")]
    + [("counterexample-default", ["counterexample"])]
    + [(f"oracle-{g}-{mode}", ["oracle", str(GRAPHS / f"{g}.json"), "--messages", "2",
                               "--block", "4", "--mode", mode])
       for g in ("series-2-bsc", "series-2-bsc005") for mode in ("uniform", "exact")]
    # M=3 B=2 and M=2 B=8 have rounding-close relay decisions: a last-bit
    # change to the law's rows moves these printed values by up to 1.5%
    + [(f"oracle-{g}-{mode}-m{M}-b{B}", ["oracle", str(GRAPHS / f"{g}.json"), "--messages", M,
                                        "--block", B, "--mode", mode])
       for g in ("series-2-bsc", "series-2-bsc005") for mode in ("uniform", "exact")
       for M, B in (("3", "2"), ("2", "8"))]
    # three hops: occupancies passed across two relays
    + [(f"oracle-series-3-mixed-{mode}-m{M}-b{B}",
        ["oracle", str(TEST_GRAPHS / "series-3-mixed.json"), "--messages", M, "--block", B,
         "--mode", mode])
       for mode in ("uniform", "exact") for M, B in (("2", "4"), ("3", "2"))]
)

# (golden file stem, argv): simulate stdout recorded before the relays'
# likelihoods kept the confidence level on the leading axis.  Diamond at
# M=3 reduces 6 raw uses to one, so --block 16/48 run 2/5 confidence
# levels and --block 96/288 run 9/25 (summed pairwise, as numpy sums 8
# or more terms); the noisy graphs keep errors in every cell.
SIMULATE_GOLDEN_CASES = (
    ("simulate-diamond-heuristic-m3-b16",
     [str(GRAPHS / "diamond.json"), "--messages", "3", "--block", "16",
      "--horizons", "48,64", "--trials", "1000", "--decoder", "heuristic"]),
    ("simulate-diamond-heuristic-m3-b48",
     [str(GRAPHS / "diamond.json"), "--messages", "3", "--block", "48",
      "--horizons", "144,192", "--trials", "1000", "--decoder", "heuristic"]),
    ("simulate-noisy-diamond-heuristic-m3-b96",
     [str(TEST_GRAPHS / "noisy-diamond.json"), "--messages", "3", "--block", "96",
      "--horizons", "288,384", "--trials", "500", "--decoder", "heuristic"]),
    ("simulate-noisy-diamond-heuristic-m3-b288",
     [str(TEST_GRAPHS / "noisy-diamond.json"), "--messages", "3", "--block", "288",
      "--horizons", "864,1152", "--trials", "500", "--decoder", "heuristic"]),
    ("simulate-noisy-series-exact-m2-b16",
     [str(TEST_GRAPHS / "noisy-series.json"), "--messages", "2", "--block", "16",
      "--horizons", "48,64", "--trials", "2000", "--decoder", "exact"]),
)


def main(argv):
    """Run the CLI as the ``netexp`` console script does: ``cli.main`` reads
    its arguments from ``sys.argv``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "argv", ["netexp", *argv])
        return cli.main()


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.mark.parametrize("stem, argv", CLI_GOLDEN_CASES, ids=[c[0] for c in CLI_GOLDEN_CASES])
def test_cli_golden_stdout(capsys, stem, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out == (CLI_GOLDEN / f"{stem}.txt").read_text()


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize(
    "stem, argv", SIMULATE_GOLDEN_CASES, ids=[c[0] for c in SIMULATE_GOLDEN_CASES]
)
def test_simulate_golden_stdout(capsys, monkeypatch, stem, argv, threads):
    monkeypatch.setenv("NETEXP_THREADS", threads)
    code, out = run_cli(capsys, "simulate", *argv, "--seed", "7")
    assert code == 0
    assert out == (CLI_GOLDEN / f"{stem}.txt").read_text()


class TestAnalyzeCommand:
    def test_series_maxflow(self, capsys):
        code, out = run_cli(capsys, "analyze", str(GRAPHS / "series-2-bsc.json"))
        assert code == 0
        obj = json.loads(out)
        assert obj["maxflow"] == pytest.approx(0.223143551314)
        assert obj["maxflow_tilde"] == pytest.approx(0.223143551314)

    def test_counterexample_backedge_absent(self, capsys):
        code, out = run_cli(
            capsys, "analyze", str(GRAPHS / "counterexample.json"), "--messages", "3"
        )
        assert code == 0
        assert json.loads(out)["backedge_free_mincut_exists"] is False

    def test_malformed_channel_kind_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "nodes": ["a", "b"], "source": "a", "destination": "b",
            "edges": [{"from": "a", "to": "b", "channel": {"kind": "awgn"}}],
        }))
        code = main(["analyze", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert "edges[0].channel" in err

    @pytest.mark.parametrize("chan, message", [
        ({"kind": "matrix", "rows": [[0.5, 0.5], [float("nan"), 1.0]]},
         "entry at (1, 0) is not finite: nan"),
        ({"kind": "ksym", "k": 2.5, "p": 0.1}, "ksym requires an integer k, got 2.5"),
        ({"kind": "ksym", "k": True, "p": 0.1}, "ksym requires an integer k, got True"),
        ({"kind": "bsc", "p": "0.1"}, "bsc requires a number p, got '0.1'"),
        ({"kind": "bec", "p": True}, "bec requires a number p, got True"),
        ({"kind": "ksym", "k": 3, "p": None}, "ksym requires a number p, got None"),
        ({"kind": "ksym", "k": 3163, "p": 1e-6}, "ksym(3163) has 3163x3163 entries, over the 1e7 guard"),
    ], ids=["nan-matrix", "fractional-k", "bool-k", "string-p", "bool-p", "null-p", "huge-k"])
    def test_invalid_channel_parameter_exit_2(self, tmp_path, capsys, chan, message):
        # each once parsed: NaN gave inf exponents, k was truncated to an int,
        # a string p was converted, a bool p read as 0 or 1 and a huge k
        # built its K x K matrix
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "nodes": ["a", "b"], "source": "a", "destination": "b",
            "edges": [{"from": "a", "to": "b", "channel": {"kind": "bsc", "p": 0.1}},
                      {"from": "a", "to": "b", "channel": chan}],
        }))
        for extra in ([], ["--dump-normalized"]):
            code = main(["analyze", str(bad), *extra])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert f"error: edges[1].channel: {message}" in captured.err

    @pytest.mark.parametrize("field", ["source", "destination", "from", "to"])
    @pytest.mark.parametrize("value", [["a"], {"id": "a"}], ids=["list", "object"])
    def test_non_string_node_reference_exit_2(self, tmp_path, capsys, field, value):
        obj = {
            "nodes": ["a", "b"], "source": "a", "destination": "b",
            "edges": [{"from": "a", "to": "b", "channel": {"kind": "bsc", "p": 0.1}}],
        }
        where = obj if field in obj else obj["edges"][0]
        where[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        code = main(["analyze", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        name = field if field in obj else f"edges[0].{field}"
        assert f"error: {name}: node id must be a string" in err

    def test_missing_file_exit_2(self, capsys):
        assert main(["analyze", str(GRAPHS / "missing.json")]) == 2

    def test_noiseless_zero_rate_is_inf(self, capsys):
        code, out = run_cli(capsys, "analyze", str(GRAPHS / "noiseless.json"), "--weights", "zero")
        assert code == 0
        obj = json.loads(out)
        assert obj["maxflow"] == "inf"
        assert obj["maxflow_zero_rate"] == "inf"
        assert all(e["exponent_zero_rate"] == "inf" for e in obj["edges"])

    def test_twelve_significant_digits(self, capsys):
        _, out = run_cli(capsys, "analyze", str(GRAPHS / "series-2-bsc.json"))
        assert "0.510825623766" in out  # 12 significant digits


class TestSimulateCommand:
    def test_noiseless_all_zero(self, capsys):
        code, out = run_cli(
            capsys, "simulate", str(GRAPHS / "noiseless.json"),
            "--block", "4", "--horizons", "12,16", "--trials", "200", "--seed", "5",
            "--decoder", "heuristic",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,message,errors,trials,p_hat,ci_lo,ci_hi"
        for line in lines[1:]:
            assert line.split(",")[2] == "0"

    def test_golden_benchmark_csv(self, capsys):
        code, out = run_cli(
            capsys, "simulate", str(GRAPHS / "series-2-bsc005.json"),
            "--messages", "2", "--block", "4", "--horizons", "12,16,20,24",
            "--trials", "100000", "--seed", "7", "--decoder", "exact",
        )
        assert code == 0
        assert out == GOLDEN.read_text()

    # Per-cell counts of the heuristic decoder at M=3 over the two diamond
    # paths (each reduced use spends 3! raw uses), recorded before the
    # protocol kernels became table lookups.  At B=48 no cell errs in 2000
    # trials, so B=12 pins nonzero counts on the same path.
    HEURISTIC_M3 = {
        ("48", "144"): (
            "n,message,errors,trials,p_hat,ci_lo,ci_hi\n"
            "144,1,0,2000,0,0,0.00191704728125\n"
            "144,2,0,2000,0,0,0.00191704728125\n"
            "144,3,0,2000,0,0,0.00191704728125\n"
        ),
        ("12", "36,48"): (
            "n,message,errors,trials,p_hat,ci_lo,ci_hi\n"
            "36,1,61,2000,0.0305,0.0238173954902,0.0389827119069\n"
            "36,2,123,2000,0.0615,0.0517881702341,0.0728930802315\n"
            "36,3,116,2000,0.058,0.048578071454,0.0691165983426\n"
            "48,1,13,2000,0.0065,0.00380259649407,0.0110895291725\n"
            "48,2,43,2000,0.0215,0.0160007805091,0.0288338337391\n"
            "48,3,31,2000,0.0155,0.0109409729337,0.0219166458818\n"
        ),
    }

    @pytest.mark.parametrize("block, horizons", sorted(HEURISTIC_M3))
    def test_heuristic_m3_counts(self, capsys, block, horizons):
        code, out = run_cli(
            capsys, "simulate", str(GRAPHS / "diamond.json"), "--messages", "3",
            "--block", block, "--horizons", horizons, "--trials", "2000", "--seed", "7",
            "--decoder", "heuristic",
        )
        assert code == 0
        assert out == self.HEURISTIC_M3[(block, horizons)]

    def test_odd_block_exit_3(self, capsys):
        code = main([
            "simulate", str(GRAPHS / "series-2-bsc.json"),
            "--block", "3", "--horizons", "12",
        ])
        err = capsys.readouterr().err
        assert code == 3
        assert "block size must be even" in err

    def test_one_message_exit_3(self, capsys):
        code = main([
            "simulate", str(GRAPHS / "series-2-bsc.json"), "--messages", "1",
            "--block", "4", "--horizons", "12", "--trials", "10",
        ])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "error: need M >= 2, got 1" in captured.err

    def test_message_guard_fires_before_the_tilde_exponents(self, capsys, monkeypatch):
        # input reduction stops at M = 4: no exponent is computed first
        calls = []
        monkeypatch.setattr(protocol, "tilde_exponent", lambda *a, **k: calls.append(a))
        code = main([
            "simulate", str(GRAPHS / "series-2-bsc.json"), "--messages", "300",
            "--block", "4", "--horizons", "12", "--trials", "10",
        ])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "error: input reduction supports 2 <= M <= 4, got 300" in captured.err
        assert calls == []

    def test_table_guard_fires_before_the_tables_are_built(self, capsys):
        # --block 40000 on series-2-bsc005 at M=2: blocks of 40000 raw
        # symbols in 10001 confidence levels need 12.8 GB of sampling tables
        argv = ["simulate", str(GRAPHS / "series-2-bsc005.json"), "--block", "40000",
                "--horizons", "160000", "--trials", "10", "--decoder", "heuristic"]
        code = None

        def run():
            nonlocal code
            code = main(argv)

        assert peak_traced(run) < 4 * 2**20
        assert code == 3
        assert "table guard" in capsys.readouterr().err

    def test_empty_horizons_exit_3(self, capsys):
        code, out = run_cli(
            capsys, "simulate", str(GRAPHS / "series-2-bsc.json"),
            "--block", "4", "--horizons", "", "--trials", "10",
        )
        assert code == 3
        assert out == ""

    def test_malformed_horizons_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", str(GRAPHS / "series-2-bsc.json"), "--block", "4", "--horizons", "12,x"])
        assert exc.value.code == 2
        assert "--horizons" in capsys.readouterr().err

    def test_negative_seed_exit_3(self, capsys):
        # rejected by the configuration, not by numpy's seeding deep in a cell
        code = main([
            "simulate", str(GRAPHS / "series-2-bsc.json"),
            "--block", "4", "--horizons", "12", "--trials", "10", "--seed", "-1",
        ])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "error: seed must be >= 0, got -1" in captured.err

    def test_non_integer_threads_exit_3(self, capsys, monkeypatch):
        monkeypatch.setenv("NETEXP_THREADS", "abc")
        code = main([
            "simulate", str(GRAPHS / "series-2-bsc.json"),
            "--block", "4", "--horizons", "12", "--trials", "10",
        ])
        assert code == 3
        assert "NETEXP_THREADS" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_exit_3(self, capsys, monkeypatch, threads):
        monkeypatch.setenv("NETEXP_THREADS", threads)
        code = main([
            "simulate", str(GRAPHS / "series-2-bsc.json"),
            "--block", "4", "--horizons", "12", "--trials", "10",
        ])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert f"NETEXP_THREADS must be at least 1, got '{threads}'" in captured.err


class TestCounterexampleCommand:
    def test_single_p(self, capsys):
        code, out = run_cli(capsys, "counterexample", "--p-grid", "0.01")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p,min_db_q,maxflow_bound,maxflow_feedback_bound"
        p, db, bound, fb = (float(v) for v in lines[1].split(","))
        assert db == pytest.approx(3.0078, abs=1e-3)
        assert bound == pytest.approx(2.6466, abs=1e-3)
        assert db > bound and db > fb

    def test_default_grid_slopes(self, capsys):
        code, out = run_cli(capsys, "counterexample")
        assert code == 0
        rows = [list(map(float, line.split(","))) for line in out.strip().splitlines()[1:]]
        small = [r for r in rows if r[0] <= 1e-3]
        x = np.log([1 / r[0] for r in small])
        assert np.polyfit(x, [r[1] for r in small], 1)[0] == pytest.approx(1.0, abs=0.02)
        assert np.polyfit(x, [r[2] for r in small], 1)[0] == pytest.approx(5 / 6, abs=0.02)

    def test_out_of_range_exit_3(self, capsys):
        assert main(["counterexample", "--p-grid", "0.4"]) == 3

    def test_empty_grid_exit_3(self, capsys):
        assert main(["counterexample", "--p-grid", ""]) == 3

    def test_malformed_grid_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["counterexample", "--p-grid", "0.01,abc"])
        assert exc.value.code == 2
        assert "--p-grid" in capsys.readouterr().err


class TestDecomposeCommand:
    def test_diamond_two_lines(self, capsys):
        code, out = run_cli(capsys, "decompose", str(GRAPHS / "diamond.json"))
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0] == "s->a->t value=0.510825623766"
        assert lines[1] == "s->b->t value=0.223143551314"

    def test_series_one_line(self, capsys):
        code, out = run_cli(capsys, "decompose", str(GRAPHS / "series-2-bsc.json"))
        assert code == 0
        assert out.strip().splitlines() == ["s->r->t value=0.223143551314"]

    def test_counterexample_deterministic(self, capsys):
        code, out1 = run_cli(
            capsys, "decompose", str(GRAPHS / "counterexample.json"), "--messages", "3"
        )
        assert code == 0
        routes = [line.split(" ")[0] for line in out1.strip().splitlines()]
        assert routes == ["1->2->4", "1->3->4"]

    def test_noiseless_path_value_is_inf(self, capsys):
        code, out = run_cli(capsys, "decompose", str(GRAPHS / "noiseless.json"))
        assert code == 0
        assert out.strip().splitlines() == ["s->r->t value=inf"]

    def test_diamond_two_weights(self, capsys):
        code, out = run_cli(capsys, "decompose", str(GRAPHS / "diamond.json"), "--weights", "two")
        assert code == 0
        assert out == "s->a->t value=0.510825623766\ns->b->t value=0.223143551314\n"


    def test_unknown_weights_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["decompose", str(GRAPHS / "diamond.json"), "--weights", "shannon"])
        assert exc.value.code == 2
        assert "--weights" in capsys.readouterr().err

    def test_tilde_one_message_exit_3(self, capsys):
        code = main(["decompose", str(GRAPHS / "diamond.json"), "--weights", "tilde",
                     "--messages", "1"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "error: need M >= 2, got 1" in captured.err


class TestOracleCommand:
    def test_series_divergence(self, capsys):
        code, out = run_cli(
            capsys, "oracle", str(GRAPHS / "series-2-bsc.json"),
            "--messages", "2", "--block", "2",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "m1,m2,db_nats"
        assert float(lines[1].split(",")[2]) > 0

    def test_non_series_graph_exit_3(self, capsys):
        assert main(["oracle", str(GRAPHS / "diamond.json"), "--block", "2"]) == 3

    def test_one_message_exit_3(self, capsys):
        # too few messages is a range error, not "M too large"
        code = main(["oracle", str(GRAPHS / "series-2-bsc.json"), "--messages", "1", "--block", "2"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "error: need M >= 2, got 1" in captured.err

    def test_edges_off_the_chain_exit_3(self, tmp_path, capsys):
        # every node has one outgoing edge, and s->r->t reaches the
        # destination, but t->x and x->r are not on that chain
        graph = tmp_path / "off-chain.json"
        bsc = {"kind": "bsc", "p": 0.1}
        graph.write_text(json.dumps({
            "nodes": ["s", "r", "t", "x"], "source": "s", "destination": "t",
            "edges": [{"from": a, "to": b, "channel": bsc}
                      for a, b in (("s", "r"), ("r", "t"), ("t", "x"), ("x", "r"))],
        }))
        assert main(["oracle", str(graph), "--block", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "oracle requires a series graph" in captured.err

    @staticmethod
    def run_identical_rows_hop(tmp_path, mode, messages, block):
        """Runs ``oracle`` in a subprocess on a bsc(0.1) hop followed by a
        hop with identical rows."""
        graph = tmp_path / "identical-rows.json"
        graph.write_text(json.dumps({
            "nodes": ["s", "r", "t"], "source": "s", "destination": "t",
            "edges": [{"from": "s", "to": "r", "channel": {"kind": "bsc", "p": 0.1}},
                      {"from": "r", "to": "t", "channel": {"kind": "matrix", "rows": [[0.5, 0.5], [0.5, 0.5]]}}],
        }))
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "netexp.cli", "oracle", str(graph), "--messages", str(messages),
             "--block", str(block), "--mode", mode],
            capture_output=True, text=True, cwd=str(ROOT), env={**os.environ, "PYTHONPATH": path},
        )

    @pytest.mark.parametrize("mode", ["uniform", "exact"])
    def test_identical_rows_hop_prints_zero(self, tmp_path, mode):
        # the last hop cannot tell the messages apart: the exact distance
        # is 0 (not -0), and a zero flow value divides by zero in the relay
        # update, which must not reach the user's stderr as a numpy warning
        proc = self.run_identical_rows_hop(tmp_path, mode, 2, 2)
        assert proc.returncode == 0
        assert proc.stdout == "m1,m2,db_nats\n1,2,0\n"
        assert proc.stderr == ""

    @pytest.mark.parametrize("messages,block", [(2, 6), (3, 2)])
    @pytest.mark.parametrize("mode", ["uniform", "exact"])
    def test_identical_rows_hop_has_no_rounding_noise(self, tmp_path, mode, messages, block):
        # longer blocks and more messages leave log-sum-exp rounding of
        # about 2e-14 where the distance is exactly 0; it must read 0
        proc = self.run_identical_rows_hop(tmp_path, mode, messages, block)
        pairs = [(a, b) for a in range(1, messages + 1) for b in range(a + 1, messages + 1)]
        assert proc.returncode == 0
        assert proc.stdout == "m1,m2,db_nats\n" + "".join(f"{a},{b},0\n" for a, b in pairs)
        assert proc.stderr == ""


def series_channels_reference(gf) -> list:
    """The series check that the one walk of ``cli._series_channels``
    replaced: follow the last out-edge of each node from the source, fail
    at a dead end or a repeated node, then fail unless every edge was used."""
    out_edges = {e.tail: e for e in gf.graph.edges}
    chain = []
    node = gf.graph.source
    seen = {node}
    while node != gf.graph.destination:
        if node not in out_edges:
            raise NetexpError("oracle requires a series graph reaching the destination")
        e = out_edges[node]
        chain.append(e.channel)
        node = e.head
        if node in seen:
            raise NetexpError("oracle requires an acyclic series graph")
        seen.add(node)
    if len(chain) < len(gf.graph.edges):
        raise NetexpError("oracle requires a series graph (every edge on the source->destination chain)")
    return chain


def series_graph(nodes, source, destination, arcs):
    """A graph file stand-in whose edges each carry their own channel."""
    edges = [(t, h, bsc(0.1)) for t, h in arcs]
    return SimpleNamespace(graph=make_channel_graph(nodes, source, destination, edges))


def series_outcome(check, gf):
    """``check``'s chain as edge ids, or None when it raises."""
    try:
        chain = check(gf)
    except NetexpError:
        return None
    return [next(e.id for e in gf.graph.edges if e.channel is ch) for ch in chain]


class TestSeriesChannels:
    @pytest.mark.parametrize("arcs, want", [
        pytest.param([(0, 1), (1, 2), (2, 3)], [0, 1, 2], id="chain"),
        pytest.param([(1, 2), (0, 1), (2, 3)], [1, 0, 2], id="chain-out-of-order"),
        pytest.param([(0, 1), (1, 1), (1, 2), (2, 3)], None, id="self-loop"),
        pytest.param([(0, 1), (1, 2), (2, 3), (0, 1)], None, id="parallel-edges"),
        pytest.param([(0, 3), (0, 3)], None, id="parallel-s-t-edges"),
        pytest.param([(0, 1), (1, 2), (2, 3), (1, 4)], None, id="dead-end-branch"),
        pytest.param([(0, 1), (1, 2), (2, 3), (4, 1)], None, id="edge-off-the-walk"),
        pytest.param([(0, 1), (1, 3), (3, 2)], None, id="destination-out-edge"),
        pytest.param([(0, 1), (1, 3), (3, 2), (2, 3)], None, id="cycle-through-the-destination"),
        pytest.param([(0, 1), (1, 2), (2, 1), (2, 3)], None, id="cycle-back-into-the-chain"),
        pytest.param([(0, 1), (1, 2), (2, 3), (3, 0)], None, id="cycle-back-to-the-source"),
    ])
    def test_named_graphs(self, arcs, want):
        # five nodes, source 0, destination 3
        gf = series_graph(5, 0, 3, arcs)
        assert series_outcome(cli._series_channels, gf) == want
        assert series_outcome(series_channels_reference, gf) == want
        if want is None:  # one message for every way a graph is not a series
            with pytest.raises(NetexpError, match="^oracle requires a series graph: one source->destination "
                                                  "chain holding every edge$"):
                cli._series_channels(gf)

    def test_matches_the_reference_on_random_multigraphs(self):
        # self-loops and parallel edges allowed; the walk must return the
        # same chain as the reference, or fail where it fails
        rng = np.random.default_rng(32)
        valid = accepted = 0
        for _ in range(10000):
            nodes = int(rng.integers(2, 6))
            source, destination = (int(v) for v in rng.choice(nodes, 2, replace=False))
            arcs = [tuple(int(v) for v in rng.integers(0, nodes, 2)) for _ in range(int(rng.integers(1, 7)))]
            try:
                gf = series_graph(nodes, source, destination, arcs)
            except NetexpError:  # the destination is out of reach
                continue
            got = series_outcome(cli._series_channels, gf)
            assert got == series_outcome(series_channels_reference, gf), (source, destination, arcs)
            valid += 1
            accepted += got is not None
        assert valid > 3500 and accepted > 200, (valid, accepted)


class TestDumpNormalized:
    def test_round_trip_identical_graph(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "analyze", str(GRAPHS / "counterexample.json"), "--dump-normalized"
        )
        assert code == 0
        reparsed = parse_graph_obj(json.loads(out))
        original = load_graph_file(str(GRAPHS / "counterexample.json"))
        assert reparsed.graph.node_count == original.graph.node_count
        assert reparsed.graph.source == original.graph.source
        assert reparsed.graph.destination == original.graph.destination
        for a, b in zip(reparsed.graph.edges, original.graph.edges):
            assert (a.tail, a.head, a.id) == (b.tail, b.head, b.id)
            assert np.allclose(a.channel.probs, b.channel.probs)
        # normalizing twice is a fixed point
        assert dump_normalized(reparsed) == out.strip()

    @pytest.mark.parametrize("chan", [
        {"kind": "bsc", "p": 0.123456789},
        {"kind": "bec", "p": 0.123456789},
        {"kind": "ksym", "k": 3, "p": 0.123456789},
    ])
    def test_round_trip_keeps_parameters(self, capsys, tmp_path, chan):
        original = tmp_path / "graph.json"
        original.write_text(json.dumps({
            "nodes": ["s", "t"], "source": "s", "destination": "t",
            "edges": [{"from": "s", "to": "t", "channel": chan}],
        }))
        code, dumped = run_cli(capsys, "analyze", str(original), "--dump-normalized")
        assert code == 0
        normalized = tmp_path / "normalized.json"
        normalized.write_text(dumped)
        a, b = (load_graph_file(str(p)).graph.edges[0].channel for p in (original, normalized))
        assert a.probs.tobytes() == b.probs.tobytes()
        assert run_cli(capsys, "analyze", str(normalized)) == run_cli(capsys, "analyze", str(original))


class TestByteDeterminism:
    @pytest.mark.parametrize("argv", [
        ["analyze", str(GRAPHS / "series-2-bsc.json")],
        ["decompose", str(GRAPHS / "diamond.json")],
        ["counterexample", "--p-grid", "1e-2,1e-3"],
        ["simulate", str(GRAPHS / "series-2-bsc.json"), "--block", "4",
         "--horizons", "12,16", "--trials", "300", "--seed", "2", "--decoder", "heuristic"],
    ])
    def test_run_twice_same_bytes(self, capsys, argv):
        code1 = main(list(argv))
        out1 = capsys.readouterr().out
        code2 = main(list(argv))
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2


class TestGraphFileValidation:
    def test_duplicate_node_ids(self):
        with pytest.raises(GraphFileError, match="nodes"):
            parse_graph_obj({
                "nodes": ["a", "a"], "source": "a", "destination": "a",
                "edges": [],
            })

    def test_unknown_endpoint_named(self):
        with pytest.raises(GraphFileError, match=r"edges\[0\]\.to"):
            parse_graph_obj({
                "nodes": ["a", "b"], "source": "a", "destination": "b",
                "edges": [{"from": "a", "to": "zzz", "channel": {"kind": "bsc", "p": 0.1}}],
            })

    def test_no_path_rejected(self):
        with pytest.raises(GraphFileError, match="edges"):
            parse_graph_obj({
                "nodes": ["a", "b"], "source": "a", "destination": "b",
                "edges": [{"from": "b", "to": "a", "channel": {"kind": "bsc", "p": 0.1}}],
            })

    def test_parallel_edges_allowed(self):
        gf = parse_graph_obj({
            "nodes": ["a", "b"], "source": "a", "destination": "b",
            "edges": [
                {"from": "a", "to": "b", "channel": {"kind": "bsc", "p": 0.1}},
                {"from": "a", "to": "b", "channel": {"kind": "bsc", "p": 0.2}},
            ],
        })
        assert len(gf.graph.edges) == 2


class TestEntryPoint:
    def test_module_invocation(self):
        # the child imports netexp from this checkout's src, as pytest does
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "netexp.cli", "counterexample", "--p-grid", "0.01"],
            capture_output=True, text=True, cwd=str(ROOT), env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("p,min_db_q,")
