"""eamod benchmark: one workload for a fixed time, one JSON result line.

    python3 bench/run.py --workload sweep-d21-f27 --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; the program is imported from
src/.  Each round is a fresh worker process (bench/worker.py), so no
round can reuse results that another round computed, and rounds run one
at a time.  Rounds start while the time left covers the median round so
far, so every run does whole rounds, at least one.

--trace 0 prints the end-to-end metrics over rounds: the upper quartile
of wall_s (see upper_quartile), and the medians of setup_s and
peak_rss_mb.  Each round also starts SETUP_PER_ROUND set-up-only
processes after its worker, so setup_s is the median of many short
samples spread over the whole run.  A round fails when any of its
processes fails.

--trace 1 alternates untraced and traced rounds (at least one of each)
and prints the per-layer metrics: medians over traced rounds, plus
trace.overhead_s, the traced wall_s minus the untraced one, each the
upper quartile of its rounds.
Span files go to .bench_out/ at the root of the checkout.

The last line of standard output is the result object; the exit code is
0 when a result was printed and 2 when the checkout has no eamod source.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PER_ROUND = 3
DEADLINE_S = 170.0  # a run ends within 180 s; no round may outlive this
# one BLAS thread: the two cores are shared with the rest of the host
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# BENCHMARK.json lists the workloads the benchmark runs; jordan-d715-f5
# is kept runnable by hand (see README.md, "Dropped workload").
WORKLOADS = ("sweep-d21-f27", "jordan-d715-f5", "decompose-d30-f9")


def upper_quartile(values):
    """Upper quartile (inclusive method) of the rounds' wall_s.

    On the shared 2-vCPU KVM guest of the reference runs, round times have
    a ceiling, the speed under the usual contention, and fast outliers,
    from bursts when the neighbours idle.  The upper quartile follows the ceiling, and no one
    or two straggler rounds move it; README.md, "Host noise and
    steadiness", has the measurements behind the choice.
    """
    values = list(values)
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def spawn(args, run_start):
    """Run one worker; returns its result dict, or None if it failed."""
    env = dict(os.environ, **CHILD_ENV)
    budget = DEADLINE_S - (time.monotonic() - run_start)
    if budget <= 0:
        return None
    launch = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--launch", repr(launch)] + args
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=budget)
    except subprocess.TimeoutExpired:
        print(f"worker timed out: {' '.join(args)}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "eamod" / "__init__.py").is_file():
        print(f"no eamod source under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out_dir = ROOT / ".bench_out"
    if args.trace:
        out_dir.mkdir(exist_ok=True)
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    start = time.monotonic()
    rounds = []  # (traced, result or None)
    durations = []
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        extra = ["--round", str(len(rounds))]
        if traced:
            trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}-round{len(rounds)}.json"
            extra += ["--trace-file", str(trace_file)]
        t0 = time.monotonic()
        result = spawn(base + extra, start)
        if result is not None and not args.trace:
            result["setups"] = [result["setup_s"]]
            for _ in range(SETUP_PER_ROUND):
                probe = spawn(base + extra + ["--setup-only"], start)
                if probe is None:
                    result = None
                    break
                result["setups"].append(probe["setup_s"])
        rounds.append((traced, result))
        durations.append(time.monotonic() - t0)
        shown = {k: v for k, v in (result or {}).items() if k.endswith(("_s", "_mb"))}
        print(f"round {len(rounds) - 1}{' traced' if traced else ''}: {shown or 'failed'}", file=sys.stderr)
        elapsed = time.monotonic() - start
        need_pair = bool(args.trace) and len(rounds) < 2
        if not need_pair and elapsed + statistics.median(durations) > args.seconds:
            break
        if elapsed + statistics.median(durations) > DEADLINE_S:
            break

    done = [(traced, r) for traced, r in rounds if r is not None]
    failed = len(rounds) - len(done)
    problems = [p for _, r in done for p in r["problems"]]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    plain = [r for traced, r in done if not traced]
    values = {}
    if not args.trace:
        if plain:
            values = {
                "setup_s": statistics.median(s for r in plain for s in r["setups"]),
                "wall_s": upper_quartile(r["wall_s"] for r in plain),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            }
    else:
        layered = [r for traced, r in done if traced]
        if plain and layered:
            values = {
                name: statistics.median(r["layers"][name] for r in layered)
                for name in layered[0]["layers"]
            }
            values["trace.overhead_s"] = upper_quartile(
                r["wall_s"] for r in layered
            ) - upper_quartile(r["wall_s"] for r in plain)

    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted
        if m["name"] in values
    }
    result = {
        "correct": not problems,
        "attempted": len(rounds),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
