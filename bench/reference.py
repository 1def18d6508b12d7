"""Reference figures: run every workload over several seeds and summarize.

    python3 bench/reference.py [--seeds 1 2 3] [--traced 3] [--seconds 30] [--workloads cli ...]

For each workload it runs ``bench/run.py`` untraced on every seed and then
traced on the first ``--traced`` seeds, one run at a time.  It prints, per
workload, the median and the
quartile spread (as a share of the median) of every end-to-end metric, the
median of every per-layer metric, and the tracing overhead: untraced over
traced operations per second, minus one.  The reference figures in
README.md come from this command.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True, timeout=600,
                         check=True)
    out = json.loads(res.stdout.strip().splitlines()[-1])
    if not out["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output\n{res.stderr}")
    return out


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--traced", type=int, default=3, help="traced runs on this many seeds")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--workloads", nargs="+", default=["cli", "large_alphabet", "experiments"])
    args = ap.parse_args()
    for workload in args.workloads:
        plain = [run(workload, s, args.seconds, 0) for s in args.seeds]
        traced = [run(workload, s, args.seconds, 1) for s in args.seeds[:args.traced]]
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in plain})
        print(f"## {workload}  (seeds {args.seeds}; failed/attempted {', '.join(shares)})")
        for name in plain[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in plain]
            unit = plain[0]["metrics"][name]["unit"]
            iqr = ""
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                iqr = f"q1 {q1:.4g} q3 {q3:.4g} spread {spread(vals):.3f}"
            print(f"{name:40s} {statistics.median(vals):14.6g} {unit:9s} {iqr}")
        for name in traced[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in traced]
            print(f"{name:40s} {statistics.median(vals):14.6g} {traced[0]['metrics'][name]['unit']}")
        overhead = [p["metrics"]["ops_per_s"]["value"] / t["metrics"]["trace.ops_per_s"]["value"] - 1.0
                    for p, t in zip(plain, traced)]
        print(f"{'tracing overhead':40s} {statistics.median(overhead):14.3f} share of untraced time\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
