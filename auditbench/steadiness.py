"""Steadiness report: run one workload N times on the same code.

    python3 auditbench/steadiness.py --workload stream_durable --runs 10 --sets 2

Each run uses another seed (1..N, the same seeds in every set).  For
every metric the report prints the median, the quartiles, the
interquartile spread as a share of the median and the min/max spread.
With ``BENCHMARK.json`` bounds at hand it marks each end-to-end spread
against a third of its bound and, with two or more sets, the drift of
each later set's median from the first set's against the bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import iqr_share, quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"run failed ({proc.returncode}):\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    host = next((json.loads(l[5:]) for l in lines if l.startswith("host ")), {})
    return {"seed": seed, **result, "host": host}


def bounds() -> dict[str, dict]:
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: m for m in spec.get("end_to_end", [])}


def worse_by(metric: dict, first: float, later: float) -> float:
    """How much worse *later* is than *first*, as a share of *first*."""
    if metric.get("better") == "higher":
        return (first - later) / first
    return (later - first) / first


def report(sets: list[list[dict]]) -> bool:
    known = bounds()
    steady = True
    names = list(sets[0][0]["metrics"])
    for index, runs in enumerate(sets):
        failed = sum(r["failed"] for r in runs)
        print(f"set {index + 1}: {len(runs)} runs, failed {failed}, "
              f"all correct {all(r['correct'] for r in runs)}")
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = quartiles(values)
            share = iqr_share(values)
            span = (max(values) - min(values)) / q2 if q2 else float("inf")
            mark = ""
            metric = known.get(name)
            if metric is not None:
                ok = share < metric["bound"] / 3
                steady &= share <= metric["bound"]
                mark = f"  iqr {'<' if ok else '>='} bound/3 ({metric['bound'] / 3:.3f})"
            print(f"  {name:40s} median {q2:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
                  f"iqr/med {share:6.3f}  range/med {span:6.3f}{mark}")
        steals = [r["host"].get("host.steal_share", 0.0) for r in runs]
        print(f"  host.steal_share max {max(steals):.4f}")
    for index, runs in enumerate(sets[1:], start=2):
        for name in names:
            metric = known.get(name)
            if metric is None:
                continue
            first = quartiles([r["metrics"][name]["value"] for r in sets[0]])[1]
            later = quartiles([r["metrics"][name]["value"] for r in runs])[1]
            drift = worse_by(metric, first, later)
            steady &= drift <= metric["bound"]
            print(f"set {index} vs set 1: {name:24s} worse by {drift:+.3f} "
                  f"(bound {metric['bound']})")
    return steady


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
                        if (ROOT / "BENCHMARK.json").exists() else 6)
    args = parser.parse_args(argv)
    sets = []
    for number in range(args.sets):
        runs = []
        for seed in range(1, args.runs + 1):
            runs.append(one_run(args.workload, seed, args.seconds))
            print(f"set {number + 1} seed {seed}: " + json.dumps(
                {k: round(v["value"], 4) for k, v in runs[-1]["metrics"].items()}),
                file=sys.stderr, flush=True)
        sets.append(runs)
    return 0 if report(sets) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
