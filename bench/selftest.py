#!/usr/bin/env python3
"""Self-test of the benchmark:  python3 bench/selftest.py

For every workload, runs one case of each kind from the first block of seed
0 and asserts that

* the checker flags the case's real output moved beyond its tolerance, and
  flags it again when a value is made non-finite (the altered output goes to
  the checker, never to fraclab);
* a tiny untraced and traced measurement over those cases yields exactly the
  metric names and units that ``BENCHMARK.json`` declares.

It then runs the full command briefly on one workload, traced and untraced,
and asserts the same of its last output line.  Exits non-zero on failure.
"""

import json
import math
import os
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
        spec,
    )


def one_per_kind(cases):
    seen = {}
    for case in cases:
        seen.setdefault(case.kind, case)
    return list(seen.values())


def check_workload(fl, check, workloads, name, workdir, e2e, layers) -> None:
    ctx = workloads.Context(fl, workdir, count_lagrangian=True)
    cases = one_per_kind(workloads.make_block(ctx, name, 0, 0))
    records, times = [], []
    for case in cases:
        dt, outcome, outputs = check.run_case(case, time.perf_counter)
        records.append((case, outcome))
        times.append(dt)
        if outputs is None or outcome.status != "ok":
            print(f"  {name}/{case.kind}: {outcome.status} (not perturbed) {outcome.detail}")
            continue
        bad = check.check(case, check.perturbed(case, outputs))
        assert bad.status == "miss", f"{name}/{case.kind}: perturbed output passed ({bad})"
        ref = next(r for r in case.refs if r.value is not None)
        nan = dict(outputs)
        nan[ref.name] = math.nan * run_ones(outputs[ref.name])
        assert check.check(case, nan).status == "nonfinite", f"{name}/{case.kind}: NaN passed"
        print(f"  {name}/{case.kind}: ok, perturbed and NaN outputs flagged")

    metrics, _ = run.summarize(cases, times, records, True)
    names = set(metrics) | {"setup_s"}
    assert names == set(e2e), f"end-to-end names {sorted(names)} != declared {sorted(e2e)}"
    for k, unit in run.END_TO_END_UNITS.items():
        assert e2e[k] == unit, f"{k}: unit {unit} != declared {e2e[k]}"

    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        for case in cases:
            check.run_case(case, time.perf_counter)
    finally:
        tracer.uninstall()
    got = tracer.layer_metrics(ctx.lagrangian_evals)
    got.update(run.input_properties(cases)[0])
    got["trace.overhead_frac"] = 0.0
    assert set(got) == set(layers), f"per-layer names differ: {sorted(set(got) ^ set(layers))}"
    for k in got:
        assert run.unit_of(k) == layers[k], f"{k}: unit {run.unit_of(k)} != declared {layers[k]}"


def run_ones(x):
    import numpy as np

    return np.ones_like(np.atleast_1d(np.asarray(x, dtype=float)))


def smoke_command(spec, e2e, layers) -> None:
    for trace, names in ((0, e2e), (1, layers)):
        cmd = spec["command"] + ["--workload", "exact_bvp", "--seed", "3", "--seconds", "0.5", "--trace", str(trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=170)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
        assert result["attempted"] >= 1
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == names, f"--trace {trace}: {sorted(set(got) ^ set(names))}"
        print(f"  command --trace {trace}: {len(got)} metrics, names and units as declared")


def main() -> int:
    e2e, layers, spec = declared()
    fl = run.import_fraclab()
    check, workloads = run.import_bench()
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_work")) as workdir:
        for name in workloads.WORKLOADS:
            check_workload(fl, check, workloads, name, workdir, e2e, layers)
    smoke_command(spec, e2e, layers)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
