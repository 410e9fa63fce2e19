#!/usr/bin/env python3
"""Repeat the benchmark over seeds and record medians and spreads.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline/set-1.json
    python3 perfbench/baseline.py --compare perfbench/baseline/set-1.json perfbench/baseline/set-2.json

The first form runs ``run.py`` once per workload of BENCHMARK.json and
seed (untraced, for ``run_seconds``), then one traced run per workload on
the first seed, and writes every result together with the interpreter
version and core count. For each end-to-end metric it reports the median of
the per-run values and their spread: the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound. It also pools the per-pass samples of
all runs into a median and the highest percentile with at least ten samples
beyond it.

The second form checks that the second set's median of every metric is not
worse than the first's by more than the metric's bound.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in BENCH["end_to_end"]}


def seed_range(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(BENCH["run_seconds"]),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    record = {"seed": seed, "run_s": time.perf_counter() - t0,
              "result": json.loads(lines[-1])}
    for line in lines:
        if line.startswith("samples "):
            record["samples"] = json.loads(line[len("samples "):])
    if trace:
        record["report"] = lines[:-1]
    return record


def tail_percentile(samples: list):
    n = len(samples)
    if n < 11:
        return None
    k = n - 10
    return {"percentile": 100 * k / n, "value": sorted(samples)[k - 1]}


def summarise(runs: list) -> dict:
    out = {}
    for name in BOUNDS:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        pooled = [x for r in runs for x in r["samples"][name]]
        out[name] = {
            "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "bound": BOUNDS[name]["bound"], "values": values,
            "pooled_median": statistics.median(pooled),
            "pooled_tail": tail_percentile(pooled), "pooled_n": len(pooled),
        }
    return out


def record(args) -> int:
    seeds = seed_range(args.seeds)
    doc = {
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "machine": platform.machine(), "run_seconds": BENCH["run_seconds"],
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "note": args.note, "workloads": {},
    }
    for workload in (w["name"] for w in BENCH["workloads"]):
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, 0))
            r = runs[-1]["result"]
            print(f"{workload} seed {seed}: correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
                  flush=True)
        entry = {"runs": runs, "summary": summarise(runs)}
        for name, s in entry["summary"].items():
            flag = "ok" if s["spread"] <= s["bound"] / 3 else \
                ("within bound" if s["spread"] <= s["bound"] else "OVER BOUND")
            print(f"  {name:12} median {s['median']:.6g} spread {s['spread']:.4f} "
                  f"(bound {s['bound']}) {flag}", flush=True)
        entry["traced"] = run_once(workload, seeds[0], 1)
        doc["workloads"][workload] = entry
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


def compare(first: str, second: str) -> int:
    a = json.loads(Path(first).read_text())["workloads"]
    b = json.loads(Path(second).read_text())["workloads"]
    ok = True
    for workload in a:
        for name, spec in BOUNDS.items():
            m1 = a[workload]["summary"][name]["median"]
            m2 = b[workload]["summary"][name]["median"]
            worse = (m2 - m1) / m1 if spec["better"] == "lower" else (m1 - m2) / m1
            good = worse <= spec["bound"]
            ok = ok and good
            print(f"{workload:15} {name:12} {m1:12.6g} {m2:12.6g} "
                  f"worse by {worse:+.4f} (bound {spec['bound']}) "
                  + ("ok" if good else "WORSE"))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--note", default="")
    parser.add_argument("--out", default=None)
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    return record(args)


if __name__ == "__main__":
    sys.exit(main())
