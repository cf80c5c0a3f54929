"""One round of one workload, in a fresh process; prints one JSON line.

Started by run.py with the parent's CLOCK_MONOTONIC reading taken just
before the process was spawned, so setup_s covers interpreter start,
the numpy and eamod imports, field construction and input generation.
wall_s runs from inputs ready to the finished answer; the independent
checks run afterwards and are not timed.  With --trace 1 the eamod
functions are wrapped before the timed region and the spans are written
to --trace-file.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (imports numpy and eamod)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, required=True)
    ap.add_argument("--launch", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-file")
    args = ap.parse_args()

    work = workloads.WORKLOADS[args.workload]
    rng = random.Random(f"{work.name}:{args.seed}:{args.round}")
    inputs = work.prepare(rng)
    setup_s = time.monotonic() - args.launch  # CLOCK_MONOTONIC is system-wide
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace_file:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    answer = work.run(inputs)
    end = time.perf_counter()
    # ru_maxrss is in KiB on Linux; report 10^6-byte megabytes
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    problems = work.check(inputs, work.extract(inputs, answer))
    result = {
        "setup_s": setup_s,
        "wall_s": end - start,
        "peak_rss_mb": peak_rss_mb,
        "problems": problems,
    }
    if tracer is not None:
        result["layers"] = tracer.summarize(start, end)
        tracer.write(args.trace_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
