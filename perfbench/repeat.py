"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/repeat.py --workloads pairs-grid,cli-files --seeds 1-10 [--trace 1] [--out FILE]

For every workload and metric it prints the median, the quartiles and the
spread (q3 - q1) / median next to the metric's bound from BENCHMARK.json.
With --out the per-run values and the summary are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=None, help="comma-separated; default all")
    p.add_argument("--seeds", default="1-10", help="range lo-hi or comma-separated list")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in listed}
    report = {}
    for name in names:
        runs = []
        for seed in seed_list(args.seeds):
            cmd = [*spec["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, **result})
            print(f"{name} seed {seed}: correct={result['correct']} failed={result['failed']}", file=sys.stderr)
        summary = {}
        for metric in bounds:
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
            spread = (q3 - q1) / abs(med) if med else 0.0
            summary[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            bound = bounds[metric]
            flag = "" if bound is None else f"bound {bound:<5} {'ok' if spread < bound / 3 else 'WIDE'}"
            print(f"{name:14} {metric:42} median {med:<12.6g} spread {spread:7.4f}  {flag}")
        report[name] = {"runs": runs, "summary": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
