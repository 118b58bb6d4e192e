"""Cases and the oracle check every case goes through.

A case is one call into fraclab (``run``, the only timed part), a reader that
turns the raw result into named arrays (``extract``), and the references those
arrays must match (``refs``).  The references are computed by ``oracle`` from
the generated inputs before the case runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from oracle import digits

# Worst first: a case takes the worst status of its outputs.
STATUSES = ("error", "exit", "nonfinite", "miss", "ok")


class CliExit(Exception):
    """The CLI returned another exit code than the case expected."""


@dataclass
class Ref:
    """One expected output: |got - value| <= tol elementwise on ``where``.

    ``value=None`` means the output must be None.  ``digits=False`` keeps an
    output out of ``oracle_digits_min``, for outputs such as a reported
    discretization error that are bounded but have no closed-form value.
    """

    name: str
    value: Any
    tol: Any = 0.0
    digits: bool = True
    where: Any = None


@dataclass
class Case:
    kind: str
    run: Callable[[], Any]
    extract: Callable[[Any], dict]
    refs: list
    props: dict = field(default_factory=dict)


@dataclass
class Outcome:
    status: str
    digits: float = math.inf
    detail: str = ""


def _worse(a: str, b: str) -> str:
    return a if STATUSES.index(a) <= STATUSES.index(b) else b


def check(case: Case, outputs: dict) -> Outcome:
    """Compare extracted outputs with the case's references."""
    status, worst_digits, detail = "ok", math.inf, ""
    for ref in case.refs:
        got = outputs.get(ref.name)
        if ref.value is None or got is None:
            if (ref.value is None) != (got is None):
                status, detail = _worse(status, "miss"), f"{ref.name}: None mismatch"
            continue
        g = np.atleast_1d(np.asarray(got, dtype=float))
        r = np.atleast_1d(np.asarray(ref.value, dtype=float))
        if g.shape != r.shape:
            status, detail = _worse(status, "miss"), f"{ref.name}: shape {g.shape} != {r.shape}"
            continue
        if not np.all(np.isfinite(g)):
            status, detail = _worse(status, "nonfinite"), f"{ref.name}: non-finite output"
            continue
        sel = slice(None) if ref.where is None else ref.where
        err = np.abs(g - r)[sel]
        tol = np.broadcast_to(np.asarray(ref.tol, dtype=float), r.shape)[sel]
        if err.size and np.any(err > tol):
            k = int(np.argmax(err - tol))
            status = _worse(status, "miss")
            detail = f"{ref.name}: err {float(err.flat[k]):.3e} > tol {float(tol.flat[k]):.3e}"
        if ref.digits and err.size:
            scale = float(np.max(np.abs(r[sel])))
            worst_digits = min(worst_digits, digits(float(np.max(err)), scale))
    return Outcome(status, worst_digits, detail)


def perturbed(case: Case, outputs: dict) -> dict:
    """A copy of ``outputs`` with one checked value moved twice its tolerance away."""
    for ref in case.refs:
        if ref.value is None or outputs.get(ref.name) is None:
            continue
        r = np.atleast_1d(np.asarray(ref.value, dtype=float))
        idx = np.arange(r.size).reshape(r.shape)
        idx = idx[slice(None) if ref.where is None else ref.where].ravel()
        if idx.size == 0:
            continue
        k = int(idx[0])
        tol = float(np.broadcast_to(np.asarray(ref.tol, dtype=float), r.shape).flat[k])
        if not math.isfinite(tol):
            continue
        bad = np.atleast_1d(np.array(outputs[ref.name], dtype=float))
        bad.flat[k] = r.flat[k] + 2.0 * tol + 1e-6 * max(1.0, abs(float(r.flat[k])))
        return {**outputs, ref.name: bad}
    raise ValueError(f"case {case.kind} has no numeric output to perturb")


def run_case(case: Case, clock) -> tuple[float, Outcome, dict | None]:
    """Time ``case.run`` alone; extraction and checking stay outside the timing."""
    t0 = clock()
    try:
        raw = case.run()
    except Exception as exc:  # a fraclab failure is a failed case, not a harness error
        return clock() - t0, Outcome("error", detail=f"{type(exc).__name__}: {exc}"), None
    dt = clock() - t0
    try:
        outputs = case.extract(raw)
    except CliExit as exc:
        return dt, Outcome("exit", detail=str(exc)), None
    except (ValueError, OSError, KeyError, IndexError) as exc:
        return dt, Outcome("error", detail=f"unreadable output: {exc}"), None
    return dt, check(case, outputs), outputs
