"""Run two sets of benchmark runs of the same code and hold them to the bounds.

    python3 bench/compare.py --runs 10

Each set runs every workload of BENCHMARK.json --runs times, each run
with its own seed (set s, run i: seed = --seed-base + 1000 s + i),
interleaving the workloads, with run_seconds from BENCHMARK.json and
tracing off.  For every end-to-end metric it prints the median and
quartiles of each set (statistics.quantiles, n=4), their spread,
(Q3 - Q1) / median, and the drift, the share by which the second
median is worse than the first.  The benchmark holds when, on every
workload, every spread and the size of every drift are within the
metric's bound and the share of failed operations is the same in both
sets; the exit code is 0 then and 1 otherwise.  Raw results go to
.bench_out/compare.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2
OUT = ROOT / ".bench_out" / "compare.json"


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"run failed ({proc.returncode}): {' '.join(cmd)}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=100)
    args = ap.parse_args()

    results = {w: [[] for _ in range(SETS)] for w in names}
    for s in range(SETS):
        for i in range(args.runs):
            for w in names:
                seed = args.seed_base + 1000 * s + i
                r = run_once(w, seed, spec["run_seconds"])
                results[w][s].append(r)
                shown = " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
                print(f"set {s + 1} run {i + 1} {w} seed {seed}: {shown}", flush=True)
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps(results, indent=1))

    ok = True
    for w in names:
        print(f"\n{w}")
        sets = results[w]
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for rs in sets]
        correct = all(r["correct"] for rs in sets for r in rs)
        if len(set(shares)) > 1 or not correct:
            ok = False
        print(f"  failed share per set {shares}, all correct {correct}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = [summarize([r["metrics"][name]["value"] for r in rs]) for rs in sets]
            cells = []
            for st in stats:
                cells.append(f"median {st['median']:.4g} [{st['q1']:.4g}, {st['q3']:.4g}] "
                             f"spread {st['spread']:.3f}")
                if st["spread"] > bound:
                    ok = False
            drift = (stats[1]["median"] - stats[0]["median"]) / stats[0]["median"]
            if m["better"] == "higher":
                drift = -drift
            if abs(drift) > bound:
                ok = False
            print(f"  {name:12s} bound {bound}: " + " | ".join(cells) + f" | drift {drift:+.3f}")
    print("\nholds" if ok else "\ndoes NOT hold")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
