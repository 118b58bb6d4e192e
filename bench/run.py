#!/usr/bin/env python3
"""fraclab benchmark: seeded, oracle-checked workloads in a closed loop.

    python3 bench/run.py --workload grid_ops --seed 1 --seconds 15 --trace 0

One caller in one process runs one case at a time: a call into fraclab's
public API or ``fraclab.cli.main(argv)`` in-process.  Every output is checked
against a closed-form reference computed with mpmath from the generated
inputs (see ``oracle.py``).  Workloads are described in ``workloads.py``.

A seed generates a pool of cases (``POOL_BLOCKS`` blocks of the workload's
stream).  ``--trace 0`` runs the pool in rounds, each from cold fraclab
caches, until ``--seconds`` of timed calls have passed and at least
``MIN_ROUNDS`` rounds ran.  Before each case a fixed loop that does not touch
fraclab is timed (``speed.py``); each call's wall time is scaled by
``speed.NOMINAL_S`` over the fastest loop of its round, and a case's time is
its fastest scaled call over the rounds.  Other tenants of a shared host
slow its CPU by up to 2x for minutes at a time; the scaling takes that out,
so the times read as at the reference speed and repeat from run to run.
``cases_per_s`` is the pool size over the sum of the case times, and
``case_ms_p50``/``case_ms_p90`` are their percentiles.  The unscaled values
are printed on the ``unscaled:`` line.  Every call is checked, and
``pass_frac`` and ``oracle_digits_min`` cover every call.

``setup_s`` is the median over ``SETUP_RUNS`` fresh processes of the time
from the first line of this script, through ``import fraclab`` and warm-up,
to the first timed case, scaled in the same way by the speed loop timed
right after set-up; generating inputs and references is not counted.
Warm-up uses sizes and intervals the timed stream never uses, so no weight
key or other cache entry of the stream is built before timing.

``--trace 1`` runs the same pool in rounds that alternate untraced and
traced (``spans.py``), for ``--seconds`` and at least ``2 * MIN_ROUNDS``
rounds, and reports per-layer metrics from the first traced round;
``trace.overhead_frac`` is the traced over the untraced sum of fastest call
times, minus one.  Spans are written to
``.bench_out/spans-<workload>-<seed>.npz``.

Every metric is printed by name with its unit; the last line of stdout is
one JSON object.  ``failed`` counts cases that raised, returned a
non-finite value, exited the CLI non-zero or missed their tolerance;
``correct`` is false when a case returned a finite value outside its
tolerance (a silent wrong answer), or when the checker fails to flag a
deliberately perturbed output.  The exit code is non-zero only when the
benchmark itself breaks, never because fraclab failed a case.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

# One BLAS thread, set before any process of the benchmark loads numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

SETUP_RUNS = 5  # setup_s is the median over this many processes
SPEED_PROBES = 20  # speed loops timed after each set-up
MIN_ROUNDS = 3  # every case is timed at least this often
# Blocks per pool: a round over the pool takes a few seconds, so a run of
# --seconds makes several rounds and every case several timed calls.  Each
# pool holds at least 100 cases, so at least ten lie beyond p90.
POOL_BLOCKS = {"grid_ops": 1, "split_functionals": 3, "exact_bvp": 5}
CHILD_TIMEOUT_S = 160

END_TO_END_UNITS = {
    "setup_s": "s",
    "cases_per_s": "1/s",
    "case_ms_p50": "ms",
    "case_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "pass_frac": "frac",
    "oracle_digits_min": "digits",
}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from the ending of its name."""
    for suffix, unit in (
        (".calls", "count"),
        (".ms", "ms"),
        (".us_per_call", "us"),
        (".bytes", "bytes"),
        ("_frac", "frac"),
        ("_max", "ratio"),
    ):
        if name.endswith(suffix):
            return "count" if name.startswith("input.") and unit == "ratio" else unit
    return "count"


# ---------------------------------------------------------------------------
# child processes


def import_fraclab():
    if not __debug__:
        raise SystemExit("run without -O: fraclab's weight check is an assert")
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401
    import fraclab
    import fraclab.cli  # noqa: F401

    if not os.path.abspath(fraclab.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported fraclab from {fraclab.__file__}, not from {SRC}")
    return fraclab


def import_bench():
    sys.path.insert(0, BENCH_DIR)
    import check
    import workloads

    return check, workloads


def setup_child(args) -> dict:
    fl = import_fraclab()
    t0 = time.perf_counter()
    _, workloads = import_bench()
    excluded = time.perf_counter() - t0
    workloads.warm_up(args.workload, fl, os.path.join(args.workdir, "warm"))
    return scaled_setup(time.perf_counter() - T_START - excluded)


def scaled_setup(raw: float) -> dict:
    import speed

    return {"setup_s": raw * speed.NOMINAL_S / speed.fastest(SPEED_PROBES), "setup_s_raw": raw}


def clear_caches() -> None:
    """Empty fraclab's memo caches (the weight matrices among them)."""
    for m in ("special", "core", "ibp", "varcalc", "bvp", "io", "cli"):
        for val in vars(importlib.import_module(f"fraclab.{m}")).values():
            if hasattr(val, "cache_clear"):
                val.cache_clear()


def percentile_ms(times, which: int) -> float:
    """The which-th decile of the case times, in ms."""
    return 1e3 * statistics.quantiles(times, n=10)[which - 1]


def timing_metrics(best) -> dict:
    return {
        "cases_per_s": len(best) / sum(best),
        "case_ms_p50": 1e3 * statistics.median(best),
        "case_ms_p90": percentile_ms(best, 9),
    }


def summarize(pool, best, records, probe_ok: bool) -> tuple[dict, dict]:
    """End-to-end metrics (without setup_s) and run facts.

    ``best[k]`` is the shortest of the timed calls of ``pool[k]`` over the
    rounds; ``records`` holds (case, outcome) for every call made.
    """
    import resource

    statuses = [o.status for _, o in records]
    finite = [o.digits for _, o in records if o.status in ("ok", "miss") and o.digits != float("inf")]
    metrics = {
        **timing_metrics(best),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_frac": statuses.count("ok") / len(statuses),
        "oracle_digits_min": min(finite) if finite else 0.0,
    }
    by_kind: dict = {}
    details: list = []
    for case, o in records:
        counts = by_kind.setdefault(case.kind, {})
        counts[o.status] = counts.get(o.status, 0) + 1
        if o.status != "ok" and len(details) < 5:
            details.append(f"{case.kind}: {o.status} {o.detail}")
    facts = {
        "attempted": len(statuses),
        "failed": len(statuses) - statuses.count("ok"),
        "silent_wrong": statuses.count("miss"),
        "probe_flagged": probe_ok,
        "status_by_kind": by_kind,
        "failure_examples": details,
        "samples": len(best),
    }
    return metrics, facts


def input_properties(cases) -> tuple[dict, dict]:
    """Per-layer input metrics and full histograms of the sizes the cases used."""
    hist = {"n": {}, "quad_n": {}, "basis_degree": {}}
    points = off = near = 0
    for case in cases:
        for key in hist:
            vals = case.props.get(key)
            for v in vals if isinstance(vals, list) else [] if vals is None else [vals]:
                hist[key][v] = hist[key].get(v, 0) + 1
        points += case.props.get("points", 0)
        off += case.props.get("off_node", 0)
        near += case.props.get("near_node", 0)
    metrics = {}
    for key, h in hist.items():
        expanded = sorted(v for v, c in h.items() for _ in range(c))
        metrics[f"input.{key}_p50"] = float(statistics.median(expanded)) if expanded else 0.0
        metrics[f"input.{key}_max"] = float(max(expanded)) if expanded else 0.0
    metrics["input.off_node_frac"] = off / points if points else 0.0
    metrics["input.near_node_frac"] = near / points if points else 0.0
    hists = {k: {str(v): c for v, c in sorted(h.items())} for k, h in hist.items() if h}
    return metrics, hists


def environment(fl) -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except Exception as exc:  # numpy without the dict form of show_config
        blas = {"error": str(exc)}
    try:
        from threadpoolctl import threadpool_info

        threads = [(p.get("internal_api"), p.get("num_threads")) for p in threadpool_info()]
    except ImportError:
        threads = "threadpoolctl not installed; OPENBLAS_NUM_THREADS=" + os.environ["OPENBLAS_NUM_THREADS"]
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            with open(os.path.join(base, idx, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, idx, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, idx, "size")) as fh:
                caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = fh.read().strip()
        except OSError:
            pass
    import workloads

    n = max(workloads.N_POOL)
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "fraclab": getattr(fl, "__version__", "?"),
        "blas": blas,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "caches": caches,
        "largest_weight_matrix_bytes": (n + 1) ** 2 * 8,
        "assertions": __debug__,
    }


def probe_flagged(check, probe) -> bool:
    """The checker must flag a passing case's output moved beyond its tolerance."""
    return bool(probe) and check.check(probe[0][0], check.perturbed(*probe[0])).status == "miss"


def workload_child(args) -> dict:
    fl = import_fraclab()
    t0 = time.perf_counter()
    check, workloads = import_bench()
    ctx = workloads.Context(fl, args.workdir, count_lagrangian=bool(args.trace))
    n_blocks = POOL_BLOCKS[args.workload]
    pool = [c for b in range(n_blocks) for c in workloads.make_block(ctx, args.workload, args.seed, b)]
    # The harness's inputs and references must not slow fraclab's garbage
    # collections: move them out of the collector's sight.
    gc.collect()
    gc.freeze()
    generation = time.perf_counter() - t0
    workloads.warm_up(args.workload, fl, os.path.join(args.workdir, "warm"))
    setup = scaled_setup(time.perf_counter() - T_START - generation)
    import speed

    records, probe, raw = [], [], [math.inf] * len(pool)

    def one_round(best, keep=True) -> float:
        """Run the pool once from cold caches; returns the round's timed seconds.

        ``best[k]`` keeps case k's fastest call at the reference speed, each
        call scaled by the fastest speed loop of its round; ``raw`` keeps the
        unscaled fastest call.
        """
        clear_caches()
        times, loop_min = [], math.inf
        for k, case in enumerate(pool):
            loop_min = min(loop_min, speed.loop_time())
            dt, outcome, outputs = check.run_case(case, time.perf_counter)
            times.append(dt)
            raw[k] = min(raw[k], dt)
            if keep:
                records.append((case, outcome))
                if not probe and outcome.status == "ok":
                    probe.append((case, outputs))
        scale = speed.NOMINAL_S / loop_min
        for k, dt in enumerate(times):
            best[k] = min(best[k], dt * scale)
        return sum(times)

    if args.trace:
        from spans import Tracer

        # Untraced and traced rounds alternate and each case keeps its
        # fastest call per mode.  Per-layer metrics come from the first
        # traced round.
        plain, traced = [math.inf] * len(pool), [math.inf] * len(pool)
        rounds, timed, metrics = 0, 0.0, {}
        while rounds < 2 * MIN_ROUNDS or timed < args.seconds:
            if rounds % 2 == 0:
                timed += one_round(plain, keep=rounds == 0)
            else:
                tracer = Tracer()
                ctx.lagrangian_evals = 0
                tracer.install()
                try:
                    timed += one_round(traced, keep=False)
                finally:
                    tracer.uninstall()
                if tracer.hook_errors:
                    raise SystemExit("tracing failed: " + "; ".join(tracer.hook_errors[:5]))
                if rounds == 1:
                    metrics = tracer.layer_metrics(ctx.lagrangian_evals)
                    tracer.save(os.path.join(ROOT, ".bench_out", f"spans-{args.workload}-{args.seed}.npz"))
            rounds += 1
            if time.perf_counter() - T_START > CHILD_TIMEOUT_S - 40:
                break
        inputs, hists = input_properties(pool)
        metrics.update(inputs)
        metrics["trace.overhead_frac"] = sum(traced) / sum(plain) - 1.0
        _, facts = summarize(pool, plain, records, probe_flagged(check, probe))
        facts.update(rounds=rounds, inputs=hists)
        return {"metrics": metrics, "facts": facts}

    best = [math.inf] * len(pool)
    rounds, timed = 0, 0.0
    while rounds < MIN_ROUNDS or timed < args.seconds:
        timed += one_round(best)
        rounds += 1
        if time.perf_counter() - T_START > CHILD_TIMEOUT_S - 40:
            break
    metrics, facts = summarize(pool, best, records, probe_flagged(check, probe))
    _, hists = input_properties(pool)
    unscaled = {**timing_metrics(raw), "setup_s": setup["setup_s_raw"]}
    facts.update(rounds=rounds, timed_s=timed, unscaled=unscaled, inputs=hists, env=environment(fl))
    return {**setup, "metrics": metrics, "facts": facts}


# ---------------------------------------------------------------------------
# parent


def spawn(args, role: str, workdir: str) -> dict:
    cmd = [
        sys.executable, os.path.abspath(__file__), "--role", role, "--workdir", workdir,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONOPTIMIZE"}
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, env=env, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark {role} process failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("grid_ops", "split_functionals", "exact_bvp"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("parent", "setup", "workload"), default="parent", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    if args.role != "parent":
        result = setup_child(args) if args.role == "setup" else workload_child(args)
        print(json.dumps(result))
        return 0
    if not os.path.isfile(os.path.join(SRC, "fraclab", "__init__.py")):
        print(f"error: fraclab sources not found under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(ROOT, ".bench_work"))
    try:
        setups = [] if args.trace else [spawn(args, "setup", workdir) for _ in range(SETUP_RUNS - 1)]
        child = spawn(args, "workload", workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    facts = child["facts"]
    if args.trace:
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in child["metrics"].items()}
    else:
        setups.append(child)
        values = {"setup_s": statistics.median(s["setup_s"] for s in setups), **child["metrics"]}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
        facts["unscaled"]["setup_s"] = statistics.median(s["setup_s_raw"] for s in setups)
        facts["env"]["git_sha"] = git_sha()
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'samples':40s} {facts['samples']:>16d} cases")
    for key in ("unscaled", "rounds", "status_by_kind", "failure_examples", "inputs", "env"):
        if key in facts:
            print(f"{key}: {json.dumps(facts[key], sort_keys=True)}")
    correct = facts["silent_wrong"] == 0 and facts["probe_flagged"]
    print(json.dumps({"correct": correct, "attempted": facts["attempted"], "failed": facts["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
