"""Spans around fraclab's public functions, recorded from outside the package.

``Tracer.install`` wraps every public function of the seven modules (and
``WeightOperator.apply``) and rebinds each wrapper under every name that
refers to the original, in the package and in every module that imported
it, such as ``varcalc.eval_split``.  ``io.fmt`` stays unwrapped: it runs
once per number written, and a span per call would swamp the write it
belongs to.  Nothing under ``src/`` is edited.

A span is (name, start, end, parent).  Spans stay in compact arrays in
memory; ``layer_metrics`` turns them into per-layer counts and self times,
where self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import os
from array import array
from time import perf_counter

import numpy as np

MODULES = ("special", "core", "ibp", "varcalc", "bvp", "io", "cli")

# Span names for functions whose metric groups several functions or renames one.
SPAN_NAMES = {
    "core.build_weight_operator": "core.weight_build",
    "core.WeightOperator.apply": "core.weight_apply",
    "core.left_integral": "core.grid_op",
    "core.right_integral": "core.grid_op",
    "core.left_derivative_grid": "core.grid_op",
    "core.right_derivative_grid": "core.grid_op",
    "varcalc.bolza_value": "varcalc.bolza",
    "bvp.assemble_system": "bvp.assemble",
    "bvp.solve_bvp": "bvp.solve",
    "io.read_grid_csv": "io.read",
    "io.read_split_json": "io.read",
    "io.write_grid_csv": "io.write",
    "io.write_split_json": "io.write",
}
UNWRAPPED = {"io.fmt"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        # Facts read from arguments and results at the layer boundaries.
        self.io_bytes = 0
        self.defect_over_tol_max = 0.0
        self.gram_cond_max = 0.0
        self.nonzero_exits = 0
        self.hook_errors: list[str] = []
        self.weight_requests = 0
        self.weight_reused = 0
        self._weight_keys: set = set()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name=None, namer=None, after=None):
        """``fn`` recording one span per call.

        ``namer(arguments)`` picks the span name per call and
        ``after(arguments, result)`` reads facts from the call, both with the
        arguments bound to ``fn``'s parameter names.  A failure in either is
        the benchmark's, not fraclab's: it is kept in ``hook_errors`` and the
        call itself goes ahead.
        """
        fixed = None if name is None else self._id(name)
        sig = inspect.signature(fn)
        stack, name_id, parent, start, end = self._stack, self.name_id, self.parent, self.start, self.end

        def bound(args, kwargs):
            return sig.bind(*args, **kwargs).arguments

        def traced(*args, **kwargs):
            if namer is None:
                sid = fixed
            else:
                try:
                    sid = self._id(namer(bound(args, kwargs)))
                except Exception as exc:
                    self.hook_errors.append(f"{fn.__qualname__}: {exc!r}")
                    sid = self._id(fn.__module__ + "." + fn.__qualname__)
            idx = len(start)
            name_id.append(sid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                start[idx] = t0
                stack.pop()
            if after is not None:
                try:
                    after(bound(args, kwargs), result)
                except Exception as exc:
                    self.hook_errors.append(f"{fn.__qualname__}: {exc!r}")
            return result

        traced.__wrapped__ = fn
        return traced

    # -- boundary facts -------------------------------------------------

    def _weight_request(self, args, result):
        grid = args["grid"]
        key = (float(args["alpha"]), grid.a, grid.b, grid.n)
        self.weight_requests += 1
        self.weight_reused += key in self._weight_keys
        self._weight_keys.add(key)

    def _ibp_result(self, args, report):
        if report.quad_tol > 0:
            self.defect_over_tol_max = max(self.defect_over_tol_max, abs(report.defect) / report.quad_tol)

    def _gram(self, args, result):
        self.gram_cond_max = max(self.gram_cond_max, float(np.linalg.cond(result[0])))

    def _file(self, args, result):
        self.io_bytes += os.path.getsize(args["path"])

    def _exit(self, args, code):
        self.nonzero_exits += code != 0

    # -- installing -----------------------------------------------------

    def install(self) -> None:
        import fraclab

        mods = {m: importlib.import_module(f"fraclab.{m}") for m in MODULES}
        grid_density = mods["core"].GridFunction
        after = {
            "core.build_weight_operator": self._weight_request,
            "ibp.ibp_report": self._ibp_result,
            "bvp.assemble_system": self._gram,
            "io.read_grid_csv": self._file,
            "io.read_split_json": self._file,
            "io.write_grid_csv": self._file,
            "io.write_split_json": self._file,
            "cli.main": self._exit,
        }
        namers = {
            "ibp.ibp_report": lambda a: "ibp.grid"
            if isinstance(a["q1"].phi, grid_density) or isinstance(a["q2"].psi, grid_density)
            else "ibp.closed",
            "cli.main": lambda a: "cli." + a["argv"][0].replace("-", "_"),
        }
        wrappers = {}
        for m, mod in mods.items():
            public = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            for attr in public:
                fn = getattr(mod, attr, None)
                key = f"{m}.{attr}"
                if key in UNWRAPPED or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if m == "cli" and attr != "main":
                    continue  # subcommand spans come from cli.main, named by subcommand
                namer = namers.get(key)
                wrappers[fn] = self.wrap(
                    fn, None if namer else SPAN_NAMES.get(key, key), namer, after.get(key)
                )
        for mod in [fraclab, *mods.values()]:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])
        op = mods["core"].WeightOperator
        self._restore.append((op, "apply", op.apply))
        op.apply = self.wrap(op.apply, "core.weight_apply")

    def uninstall(self) -> None:
        for obj, attr, val in reversed(self._restore):
            setattr(obj, attr, val)
        self._restore.clear()

    # -- results --------------------------------------------------------

    def aggregate(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, self seconds, inclusive seconds)."""
        n = len(self.start)
        if n == 0:
            return {}
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        selfs = np.bincount(names, weights=self_time, minlength=k)
        incl = np.bincount(names, weights=dur, minlength=k)
        return {name: (int(calls[i]), float(selfs[i]), float(incl[i])) for i, name in enumerate(self.names)}

    def save(self, path: str) -> None:
        """Write the spans out, one row per span."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )

    def layer_metrics(self, lagrangian_evals: int) -> dict[str, float]:
        agg = self.aggregate()

        def calls(*names):
            return float(sum(agg.get(n, (0, 0.0, 0.0))[0] for n in names))

        def self_ms(*names):
            return 1e3 * sum(agg.get(n, (0, 0.0, 0.0))[1] for n in names)

        def module_ms(module):
            return 1e3 * sum(v[1] for n, v in agg.items() if n.startswith(module + "."))

        ev_calls, _, ev_incl = agg.get("core.eval_split", (0, 0.0, 0.0))
        out = {
            "core.weight_build.calls": calls("core.weight_build"),
            "core.weight_build.ms": self_ms("core.weight_build"),
            "core.weight_apply.ms": self_ms("core.weight_apply"),
            "core.grid_op.ms": self_ms("core.grid_op"),
            "core.eval_split.calls": float(ev_calls),
            "core.eval_split.us_per_call": 1e6 * ev_incl / ev_calls if ev_calls else 0.0,
            "core.sample_split.ms": self_ms("core.sample_split"),
            "special.gamma.calls": calls("special.gamma"),
            "special.terms_eval.calls": calls("special.terms_eval"),
            "special.terms_product_integral.calls": calls("special.terms_product_integral"),
            "special.terms_product_integral.ms": self_ms("special.terms_product_integral"),
            "ibp.grid.ms": self_ms("ibp.grid"),
            "ibp.closed.ms": self_ms("ibp.closed"),
            "ibp.defect_over_tol_max": self.defect_over_tol_max,
            "varcalc.bolza.ms": self_ms("varcalc.bolza"),
            "varcalc.first_variation.ms": self_ms("varcalc.first_variation"),
            "varcalc.el_report.ms": self_ms("varcalc.el_report"),
            "varcalc.lagrangian_evals": float(lagrangian_evals),
            "bvp.assemble.ms": self_ms("bvp.assemble"),
            "bvp.solve.ms": self_ms("bvp.solve"),
            "bvp.gram_cond_max": self.gram_cond_max,
            "io.read.ms": self_ms("io.read"),
            "io.write.ms": self_ms("io.write"),
            "io.bytes": float(self.io_bytes),
            "cli.apply.ms": self_ms("cli.apply"),
            "cli.convergence.ms": self_ms("cli.convergence"),
            "cli.el_check.ms": self_ms("cli.el_check"),
            "cli.solve_bvp.ms": self_ms("cli.solve_bvp"),
            "cli.verify_ibp.ms": self_ms("cli.verify_ibp"),
            "cli.nonzero_exits": float(self.nonzero_exits),
            "input.weight_key_reuse_frac": self.weight_reused / self.weight_requests
            if self.weight_requests
            else 0.0,
            "input.weight_keys": float(len(self._weight_keys)),
        }
        for m in MODULES:
            out[f"{m}.ms"] = module_ms(m)
        out["trace.spans"] = float(len(self.start))
        return out
