"""netexp benchmark: one workload per run, a single-process closed loop.

    python3 perfbench/run.py --workload analyze-corpus --seed 7 --seconds 20 --trace 0

Run it from a checkout that holds ``src/netexp`` and ``graphs/``; it imports
netexp from ``src`` and fails when that is missing.  Calls run back to back
with NETEXP_THREADS=1.

--trace 0 cycles through the workload's operations until --seconds of
calls have been timed (each at least once) and prints the end-to-end
metrics, with every time scaled to a reference machine speed (speed.py).  --trace 1 makes a
warm-up pass, then runs the set-up and each operation twice in a row,
untraced and traced, and prints the per-layer metrics; the traced time
minus the untraced time is the tracing overhead.  Either way every output
is checked, one JSON report line (provenance, output digest, failures)
precedes the result, and the last line is the result object.  See
perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
TAIL_BEYOND = 10  # samples required beyond the reported tail percentile


def _import_netexp():
    src = ROOT / "src"
    if not (src / "netexp" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no netexp package under {src}; run from a repository checkout")
    sys.path.insert(0, str(src))
    import netexp

    if Path(netexp.__file__).resolve().parent != (src / "netexp").resolve():
        raise SystemExit(f"perfbench: imported netexp from {netexp.__file__}, not {src}")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--shrink", action="store_true", help="small inputs, for the benchmark's own tests")
    ap.add_argument("--setup-only", action="store_true", help="import and build the inputs, then exit")
    return ap.parse_args(argv)


def provenance() -> dict:
    sha = None
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        lines = proc.stdout.split()
        if proc.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    import numpy
    import scipy

    src_lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for line in fh if line.strip())
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "src_nonblank_lines": src_lines,
    }


def measure_setup(args):
    """Time of one fresh process that imports netexp and builds the
    inputs, as (wall, at the reference speed).  The process times its own
    set-up with the probe (see speed.py); its whole wall time, less the
    probe's, is scaled by the ratio it measured."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--shrink"] if args.shrink else [])
    start = time.perf_counter()
    proc = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=170)
    wall = time.perf_counter() - start
    own = json.loads(proc.stdout.splitlines()[-1])
    wall -= own["probe_s"]
    return wall, wall * own["scaled_s"] / own["wall_s"]


def setup(args):
    """Import netexp and build the workload's inputs."""
    _import_netexp()
    import workloads

    try:
        wl = workloads.make(args.workload, ROOT, args.seed, args.shrink)
    except ValueError as exc:
        raise SystemExit(f"perfbench: {exc}")
    return wl, wl.build()


def attempt(wl, case):
    """One operation; an exception is its output."""
    try:
        return wl.call(case)
    except Exception as exc:  # a failed operation is counted, not fatal
        return exc


def run_pass(wl, cases):
    return [(i, attempt(wl, case)) for i, case in enumerate(cases)]


def tally(wl, cases, execs):
    """Check each operation's first output and compare its later outputs
    with it.  A unit (a graph, or a simulate cell) is attempted once
    however often its operation ran, and fails when any of its executions
    has a problem, so the counts do not depend on the run's length.
    Returns (attempted, failed, known-defect failures, problem lines,
    digest of the first outputs)."""
    import checks

    first = {}
    problems = {}  # (operation, unit) -> problems over all executions
    for i, out in execs:
        vals = wl.unit_values(cases[i], out)
        if i not in first:
            first[i] = (vals, wl.check(cases[i], out))
        vals0, checked = first[i]
        for u, (v0, v, probs) in enumerate(zip(vals0, vals, checked)):
            found = problems.setdefault((i, u), [])
            if v != v0:
                probs = probs + ["output differs from this operation's first output"]
            found += [p for p in probs if p not in found]
    bad = {key: probs for key, probs in problems.items() if probs}
    known = sum(checks.is_known_defect(probs) for probs in bad.values())
    lines = [f"{wl.unit_names(cases[i])[u]}: " + "; ".join(probs) for (i, u), probs in sorted(bad.items())]
    digest = checks.digest([first[i][0] for i in sorted(first)])
    return len(problems), len(bad), known, lines, digest


def peak_rss_mb() -> float:
    """High-water resident set of this process image.  Unlike ru_maxrss it
    does not include the parent's memory from before exec, so it does not
    depend on what launched the benchmark."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise SystemExit("perfbench: no VmHWM in /proc/self/status")


def tail(samples):
    """Highest whole percentile with at least TAIL_BEYOND samples above its
    nearest-rank value; the maximum (percentile 100) when there are fewer."""
    s = sorted(samples)
    n = len(s)
    if n <= TAIL_BEYOND:
        return 100, s[-1]
    pct = math.floor(100 * (n - TAIL_BEYOND) / n)
    return pct, s[math.ceil(pct * n / 100) - 1]


def timed_run(wl, cases, args):
    """Cycle through the operations until --seconds of calls have been
    timed and each has run at least once.  Every time is scaled to the
    reference machine speed (see speed.py), and an operation's latency is
    the fastest of its executions: the calls are deterministic, and the
    shared machine only ever adds time to them.  The set-up processes are
    spread over the run, one each time another share of --seconds has been
    timed, so that no single moment of the machine sets ``setup_s``."""
    import speed

    clock = speed.ScaledClock(wl.probe)
    repeats = 1 if args.shrink else SETUP_REPEATS
    setup_runs = [measure_setup(args)]
    execs, wall, scaled = [], [[] for _ in cases], [[] for _ in cases]
    timed = 0.0
    while len(execs) < len(cases) or timed < args.seconds:
        if len(setup_runs) < repeats and timed >= len(setup_runs) * args.seconds / repeats:
            setup_runs.append(measure_setup(args))
        i = len(execs) % len(cases)
        out, w, t = clock.time(lambda: attempt(wl, cases[i]))
        execs.append((i, out))
        wall[i].append(w)
        scaled[i].append(t)
        timed += w
    while len(setup_runs) < repeats:
        setup_runs.append(measure_setup(args))
    attempted, failed, known, lines, digest = tally(wl, cases, execs)
    per_op = [min(s) for s in scaled]
    wall_op = [min(w) for w in wall]
    tail_pct, tail_s = tail(per_op)
    metrics = {
        "setup_s": (statistics.median(t for _, t in setup_runs), "s"),
        "graphs_per_s": (len(cases) / sum(per_op), "graphs/s"),
        "graph_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
        "graph_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ok_ratio": (1 - failed / attempted, "ratio"),
    }
    details = {
        "setup_runs_wall_s": [w for w, _ in setup_runs], "setup_runs_s": [t for _, t in setup_runs],
        "wall_setup_s": statistics.median(w for w, _ in setup_runs),
        "wall_graphs_per_s": len(cases) / sum(wall_op),
        "wall_graph_p50_ms": statistics.median(wall_op) * 1e3,
        "wall_graph_tail_ms": tail(wall_op)[1] * 1e3,
        "calls": len(execs), "timed_wall_s": timed, "graphs": len(cases),
        "tail_percentile": tail_pct, "tail_samples": len(per_op),
        "fail_ratio": failed / attempted, **wl.extra(cases, per_op),
    }
    return metrics, (attempted, failed, known, lines, digest), details


def traced_run(wl, cases, args):
    """A warm-up pass, then each step twice in a row: untraced, then traced.
    Pairing the two keeps drift in machine speed out of the overhead."""
    import spans

    tracer = spans.Tracer()
    warm = run_pass(wl, cases)

    def twice(fn):
        start = time.perf_counter()
        plain = fn()
        mid = time.perf_counter()
        tracer.install()
        try:
            traced = fn()
        finally:
            tracer.uninstall()
        return plain, traced, mid - start, time.perf_counter() - mid

    cases, _, untraced_s, traced_s = twice(wl.build)
    plain, traced = [], []
    for i, case in enumerate(cases):
        tracer.operation = i
        out_p, out_t, u, t = twice(lambda: attempt(wl, case))
        plain.append((i, out_p))
        traced.append((i, out_t))
        untraced_s += u
        traced_s += t
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(span_file)
    metrics = {k: (v["value"], v["unit"]) for k, v in tracer.metrics(traced_s - untraced_s).items()}
    attempted, failed, known, lines, digest = tally(wl, cases, warm + plain + traced)
    details = {
        "untraced_s": untraced_s, "traced_s": traced_s, "spans": len(tracer.spans),
        "span_file": str(span_file.relative_to(ROOT)), "absent_stages": tracer.absent,
        "fail_ratio": failed / attempted,
    }
    return metrics, (attempted, failed, known, lines, digest), details


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seed < 0:
        raise SystemExit("perfbench: --seed must be a non-negative integer")
    os.environ["NETEXP_THREADS"] = "1"
    if args.setup_only:
        import speed

        clock = speed.ScaledClock("interpreter")  # set-up is mostly imports
        _, wall, scaled = clock.time(lambda: setup(args))
        print(json.dumps({"wall_s": wall, "scaled_s": scaled, "probe_s": clock.probe_s}))
        return 0
    wl, cases = setup(args)
    run = traced_run if args.trace else timed_run
    metrics, (attempted, failed, known, lines, digest), details = run(wl, cases, args)
    correct = failed == known  # every failure is the recorded known defect
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for line in lines:
        print(f"FAILED {line}", file=sys.stderr)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "shrink": args.shrink,
        "output_digest": digest, "known_defect_failures": known, "failures": lines,
        "details": details, "provenance": provenance(),
    }
    print(json.dumps(report, sort_keys=True))
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
