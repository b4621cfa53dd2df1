"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/collect.py --workloads closed_form oracle_float --seeds 1-10 --seconds 10

Runs ``perfbench/run.py`` once per (workload, seed), one after another,
and prints for every metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and their spread as a
share of the median, next to the metric's bound in BENCHMARK.json.
``--out FILE`` also writes the summary, with the failure counts by
category and the share of items whose (n, k) repeats, as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    summary = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            tag = f"{workload}-seed{seed}-trace{args.trace}"
            detail = json.loads((ROOT / ".perfbench_out" / f"{tag}.json").read_text())
            runs.append(detail)
            print(f"{tag}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / median if median else None
            metrics[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": median,
                             "q1": q1, "q3": q3, "spread": spread, "bound": bounds.get(name)}
            shown = "n/a" if spread is None else f"{spread:.4f}"
            print(f"  {workload} {name}: median {median:.6g} [{q1:.6g}, {q3:.6g}] "
                  f"spread {shown} bound {bounds.get(name)}")
        summary[workload] = {
            "seeds": args.seeds,
            "seconds": seconds,
            "trace": args.trace,
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "failures_by_category": [r["failures"] for r in runs],
            "nk_repeat_share": [r["nk_repeat_share"] for r in runs],
            "env": runs[0]["env"],
            "metrics": metrics,
        }
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
