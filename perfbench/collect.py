"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py --seeds 1-10 [--workloads a,b] [--trace 1] [--out FILE]

For every workload and metric it reports the median and the spread, the
distance between the first and third quartile as a share of the median
(statistics.quantiles(values, n=4)), next to the bound in BENCHMARK.json.
With --out it writes the summary together with the machine metadata and
each workload's composition, as in perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

from perfbench import scenarios  # noqa: E402


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace) -> tuple[dict, float]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1]), wall


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(scenarios.WORKLOADS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    summary = {}
    for workload in args.workloads.split(","):
        results, walls = [], []
        for seed in _seeds(args.seeds):
            result, wall = run_once(workload, seed, bench["run_seconds"], args.trace)
            results.append(result)
            walls.append(wall)
        metrics = {}
        for name in results[0]["metrics"]:
            s = summarise([r["metrics"][name]["value"] for r in results])
            s["unit"] = results[0]["metrics"][name]["unit"]
            s["bound"] = bounds.get(name)
            metrics[name] = s
            flag = ""
            if s["bound"] is not None:
                flag = "ok" if s["spread"] < s["bound"] / 3 else "WIDE"
            print(f"{workload:15s} {name:45s} median {s['median']:<12.6g} {s['unit']:6s} "
                  f"spread {s['spread']:.4f} bound {s['bound']} {flag} "
                  f"{[float(f'{x:.4g}') for x in s['values']]}", flush=True)
        summary[workload] = {
            "why": next(w["why"] for w in bench["workloads"] if w["name"] == workload),
            "composition_per_pass": scenarios.describe(workload),
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "correct": all(r["correct"] for r in results),
            "wall_s_per_run": summarise(walls),
            "metrics": metrics,
        }
        print(f"{workload}: wall per run median {statistics.median(walls):.1f} s, "
              f"attempted {[r['attempted'] for r in results]}", flush=True)
    if args.out:
        import numpy

        src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
        payload = {
            "metadata": {
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "src_lines": src_lines,
                "seeds": _seeds(args.seeds),
                "run_seconds": bench["run_seconds"],
                "trace": args.trace,
            },
            "workloads": summary,
        }
        args.out.write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
