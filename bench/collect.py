"""Run the benchmark on several seeds and summarise every metric.

    python3 bench/collect.py --seeds 1-10 [--workloads transform,classify] \\
        [--seconds 30] > summary.json

For each workload: every untraced run's summary line and failure figures;
the median, quartiles and quartile spread (as a share of the median, the
way ``statistics.quantiles(values, n=4)`` gives them) of each end-to-end
metric next to its bound; and one traced run on the first seed with the
per-layer metrics.  ``bench/baseline.json`` is this script's output.
Runs one process at a time, from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

EXTRA = ("fail_frac", "bound_miss_frac", "uncertified_frac", "latency_tail", "ops")


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, seconds: float, trace: int):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()
    result = {"run_seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            detail, summary = run(workload, seed, args.seconds, 0)
            result.setdefault("facts", detail["facts"])
            figures = {k: detail["figures"][k] for k in EXTRA if k in detail["figures"]}
            runs.append({"seed": seed, "inputs_sha256": detail["facts"]["inputs_sha256"][workload],
                         **summary, "figures": figures})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in summary["metrics"].items()), file=sys.stderr)
        stats = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            stats[metric["name"]] = {"unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                                     "spread": (q3 - q1) / median, "bound": metric["bound"]}
        _, traced = run(workload, args.seeds[0], args.seconds, 1)
        result["workloads"][workload] = {
            "end_to_end": stats,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "runs": runs,
        }
    json.dump(result, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
