"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workload hdfs-unique --runs 5
    python3 perfbench/spread.py --runs 10 --sets 2 --out perfbench/baseline.json

A set is ``--runs`` runs per workload, one seed each; set k uses the seeds
after those of set k-1. Within a set the workloads take turns seed by seed,
so a slow spell of the host reaches every workload alike. For every
end-to-end metric it prints the median of the per-run values and the
distance between their first and third quartiles as a share of that median
(``statistics.quantiles(values, n=4)``), next to the metric's bound from
``BENCHMARK.json``; with two or more sets it also prints how much worse each
set's median is than the first set's. With ``--out`` it also makes one
traced run per workload and set and writes everything, with the machine's
core count and Python version, to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run([sys.executable, str(RUN), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", str(trace)],
                         cwd=ROOT, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: run not correct:\n{out}")
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def worse_share(metric: dict, first: float, other: float) -> float:
    """How much worse ``other`` is than ``first``, as a share of ``first``."""
    change = (other - first) / first
    return change if metric["better"] == "lower" else -change


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names, action="append",
                    help="workload to run (repeatable; default all)")
    ap.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", help="write results and one traced run per workload "
                                  "and set here")
    args = ap.parse_args()
    workloads = args.workload or names

    report = {"nproc": os.cpu_count(), "python": platform.python_version(),
              "run_seconds": args.seconds, "sets": []}
    for k in range(args.sets):
        first = args.first_seed + k * args.runs
        seeds = range(first, first + args.runs)
        runs: dict[str, list[dict]] = {w: [] for w in workloads}
        for seed in seeds:
            for workload in workloads:
                runs[workload].append(run_once(workload, seed, args.seconds, 0))
        entry = {}
        for workload in workloads:
            stats = {"seeds": [seeds[0], seeds[-1]], "end_to_end": {}}
            print(f"set {k + 1}, {workload}: seeds {seeds[0]}-{seeds[-1]}")
            for metric in bench["end_to_end"]:
                name = metric["name"]
                s = summarize([r["metrics"][name]["value"] for r in runs[workload]])
                stats["end_to_end"][name] = {"unit": metric["unit"], **s}
                flag = "" if s["spread"] < metric["bound"] / 3 else "  <-- over bound/3"
                print(f"  {name:<22} median {s['median']:>12.4f} {metric['unit']:<8} "
                      f"spread {s['spread']:.4f} (bound {metric['bound']}){flag}")
                print("    runs: " + " ".join(f"{v:.4g}" for v in s["values"]))
            if args.out:
                stats["per_layer"] = {
                    key: v["value"] for key, v in
                    run_once(workload, first, args.seconds, 1)["metrics"].items()}
            entry[workload] = stats
        report["sets"].append(entry)

    for k in range(1, len(report["sets"])):
        print(f"set {k + 1} against set 1: how much worse the median is")
        for workload in workloads:
            for metric in bench["end_to_end"]:
                name = metric["name"]
                worse = worse_share(
                    metric, report["sets"][0][workload]["end_to_end"][name]["median"],
                    report["sets"][k][workload]["end_to_end"][name]["median"])
                flag = "  <-- over bound" if worse > metric["bound"] else ""
                print(f"  {workload:<12} {name:<22} {worse:+.4f} "
                      f"(bound {metric['bound']}){flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
