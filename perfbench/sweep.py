"""Run the benchmark over several workloads and seeds; report median and quartiles.

    python3 perfbench/sweep.py --seeds 1-10 --seconds 30
    python3 perfbench/sweep.py --workloads decode_long --seeds 11-15 --trace 1 --out summary.json

Each run is its own process, started only after the previous one ended.
For every workload and metric the table shows the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and their spread
as a share of the median, alongside the bound fixed in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]  # fmt: skip
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def read_manifest(workload: str, seed: int, trace: int) -> dict:
    return json.loads((BENCH_DIR / "results" / f"{workload}-seed{seed}-trace{trace}" / "manifest.json").read_text())


def stats(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / abs(median) if median else 0.0}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write runs and statistics as JSON")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary: dict = {"seconds": args.seconds, "trace": args.trace, "seeds": _seeds(args.seeds), "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in summary["seeds"]:
            result = run_once(workload, seed, args.seconds, args.trace)
            runs.append({"seed": seed, **result})
            summary.setdefault("manifest", read_manifest(workload, seed, args.trace))
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items() if args.trace == 0)
            print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}/"
                  f"{result['attempted']} {values}", flush=True)  # fmt: skip
        names = list(runs[0]["metrics"])
        table = {name: stats([r["metrics"][name]["value"] for r in runs]) for name in names}
        summary["workloads"][workload] = {"runs": runs, "stats": table}
        for name, s in table.items():
            if args.trace == 0 or s["median"]:
                bound = bounds.get(name)
                print(f"  {workload:12s} {name:34s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g}"
                      f" spread {s['spread']:.3f}" + (f" (bound {bound})" if bound is not None else ""))  # fmt: skip
    if args.trace:
        from tracing import PER_LAYER

        summary["per_layer_moves"] = {
            name: {"moves": moves, "on": list(workloads)} for name, (_, moves, workloads) in PER_LAYER.items()
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
