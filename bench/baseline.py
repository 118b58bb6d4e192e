#!/usr/bin/env python3
"""Measure every workload over several seeds and write ``bench/baseline.json``.

    python3 bench/baseline.py --seeds 1-10

For each workload: one untraced run per seed (end-to-end metrics, with
their median, quartiles and spread, the interquartile range over the
median) and one traced run on the first seed (per-layer metrics and the
tracing overhead).  Runs use ``run_seconds`` from ``BENCHMARK.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(spec, workload: str, seed: int, trace: int) -> tuple[dict, list[str]]:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=200)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def info(lines: list[str], key: str):
    for line in lines:
        if line.startswith(key + ": "):
            return json.loads(line[len(key) + 2:])
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    ap.add_argument("--out", default=os.path.join(BENCH_DIR, "baseline.json"))
    args = ap.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    out = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for w in (x["name"] for x in spec["workloads"]):
        runs = []
        for seed in seeds:
            result, lines = run_once(spec, w, seed, 0)
            runs.append({"seed": seed, **result})
            out.setdefault("env", info(lines, "env"))
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        summary = {}
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            summary[m["name"]] = {
                "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else None, "bound": m["bound"],
            }
        traced, lines = run_once(spec, w, seeds[0], 1)
        out["workloads"][w] = {
            "end_to_end": summary,
            "failed_over_attempted": [[r["failed"], r["attempted"]] for r in runs],
            "correct": [r["correct"] for r in runs],
            "per_layer_seed": seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "status_by_kind": info(lines, "status_by_kind"),
            "inputs": info(lines, "inputs"),
            "runs": runs,
        }
        print(f"{w}: trace.overhead_frac={traced['metrics']['trace.overhead_frac']['value']:.3f}", flush=True)
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
