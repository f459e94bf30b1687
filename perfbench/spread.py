"""Run-to-run spread of the end-to-end metrics, over several seeds.

    python3 perfbench/spread.py --workload enum7 --seeds 1-10

Runs ``run.py`` once per seed, one after another, for BENCHMARK.json's
``run_seconds`` each, and prints for each metric
the median and the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to the
metric's bound from BENCHMARK.json; then the same for the latency
percentiles of the details line, which have no bound, and for the times
before ``run.py`` scales them to the reference host speed.  Every run must
report correct answers.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs, details = [], []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=400)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-1000:]}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        runs.append(result)
        details.append(json.loads(lines[-2])["details"])
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} {values}",
              flush=True)

    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        s = spread(values)
        print(f"{name:14s} median {statistics.median(values):10.4f}  spread {s:6.2%}  "
              f"bound {bound:.2f}  {'ok' if s < bound / 3 else 'TOO WIDE'}")
    # latency percentiles of the structured stream, from the details line
    for name in sorted(k for k in details[0] if k.endswith("_ms")):
        values = [d[name] for d in details]
        print(f"{name:14s} median {statistics.median(values):10.4f}  spread {spread(values):6.2%}")
    # the times before they are scaled to the reference host speed
    for name in details[0].get("unscaled", {}):
        values = [d["unscaled"][name] for d in details]
        print(f"unscaled {name:8s} median {statistics.median(values):10.4f}  spread {spread(values):6.2%}")
    all_correct = all(r["correct"] for r in runs)
    print(f"all correct: {all_correct}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
