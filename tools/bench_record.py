"""Record the benchmark's numbers for one change as ``BENCH_<pr>.json``.

    python3 tools/bench_record.py 31

For each workload in BENCHMARK.json it runs the benchmark command with
``--trace 0 --seconds <run_seconds>`` and then with ``--trace 1``, and
writes ``BENCH_<pr>.json`` at the repository root: run.py's provenance
(git sha, nproc, versions, ``src_nonblank_lines``) and, per workload, the
end-to-end and per-layer metrics, the output digest and ``correct``.
When an earlier ``BENCH_*.json`` exists, it prints each end-to-end
metric's relative change next to its BENCHMARK.json bound.  Both sides
are one run each, and one run of a workload can spread wider than its
bound, so a row outside its bound is a prompt to measure more, not a
verdict.  It exits non-zero when any run is not correct.
"""
from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_workload(command, workload: str, *options) -> tuple[dict, dict]:
    """One benchmark run: its JSON report line and its result object, the
    last two lines it prints."""
    cmd = command + ["--workload", workload, *options]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    try:
        report, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    except ValueError:  # fewer than two lines, or one that is not JSON
        report = result = None
    if isinstance(report, dict) and isinstance(result, dict):
        return report, result
    raise SystemExit(f"bench_record: {' '.join(cmd)} printed no report and result:\n{proc.stderr}")


def record(bench: dict) -> dict:
    """Every workload's numbers, from one untraced and one traced run each."""
    workloads, provenance = {}, None
    for wl in bench["workloads"]:
        name = wl["name"]
        report, timed = run_workload(bench["command"], name, "--trace", "0", "--seconds", str(bench["run_seconds"]))
        _, traced = run_workload(bench["command"], name, "--trace", "1")
        provenance = provenance or report["provenance"]
        workloads[name] = {
            "correct": timed["correct"] and traced["correct"],
            "output_digest": report["output_digest"],
            "end_to_end": timed["metrics"],
            "per_layer": traced["metrics"],
        }
    return {"provenance": provenance, "seed": report["seed"], "run_seconds": bench["run_seconds"],
            "workloads": workloads}


def compare(old: dict, new: dict, end_to_end: list) -> list:
    """(workload, metric, old, new, relative change, bound, beyond bound)
    for each end-to-end metric both records hold.  The change is signed
    so that a positive value is worse, whichever way the metric improves."""
    rows = []
    for workload, rec in new["workloads"].items():
        before = old["workloads"].get(workload)
        if before is None:
            continue
        for metric in end_to_end:
            name = metric["name"]
            if name not in before["end_to_end"] or name not in rec["end_to_end"]:
                continue
            a = before["end_to_end"][name]["value"]
            b = rec["end_to_end"][name]["value"]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            rows.append((workload, name, a, b, worse, metric["bound"], worse > metric["bound"]))
    return rows


def previous_record(pr: int) -> Path | None:
    """The BENCH file of the highest PR number below ``pr``."""
    found = [(int(m.group(1)), path) for path in ROOT.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", path.name)) and int(m.group(1)) < pr]
    return max(found)[1] if found else None


def main(argv) -> int:
    if len(argv) != 1 or not argv[0].isdigit():
        raise SystemExit("usage: python3 tools/bench_record.py PR")
    pr = int(argv[0])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    new = {"pr": pr, **record(bench)}
    target = ROOT / f"BENCH_{pr}.json"
    target.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {target.name}")
    prev = previous_record(pr)
    if prev is not None:
        old = json.loads(prev.read_text(encoding="utf-8"))
        print(f"change against {prev.name}, one run per side (positive is worse):")
        for workload, name, a, b, worse, bound, beyond in compare(old, new, bench["end_to_end"]):
            flag = "  outside bound in one run" if beyond else ""
            print(f"  {workload} {name}: {a:.6g} -> {b:.6g}  {worse:+.1%} (bound {bound:.1%}){flag}")
    bad = [name for name, rec in new["workloads"].items() if not rec["correct"]]
    if bad:
        print(f"not correct: {', '.join(bad)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
