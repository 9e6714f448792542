"""Correctness oracle: what every benchmark operation must produce.

* ``lms verify``: every positive spec passes every check, and the de Sitter
  control fails exactly ``minimality`` (exit code 1, all else passing).
* ``lms sweep``: no valid draw fails, and every Ex7_2 chain draw is
  rejected at validation.
* ``lms export --format csv``: nx*ny rows of finite values; for positive
  specs the residual column stays within the spec's minimality tolerance.

Each check returns an ``Outcome`` that counts attempts and failures and
names the first mismatch it saw.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass


@dataclass
class Outcome:
    attempted: int
    failed: int
    nodes: int = 0
    bytes_written: int = 0
    #: largest residual/tolerance over the checks expected to pass
    worst_tol_ratio: float = 0.0
    mismatch: str | None = None


def _fail(op: dict, message: str) -> Outcome:
    return Outcome(1, 1, mismatch=f"{op['name']}: {message}")


def check(op: dict, rc: int | None, error: str | None) -> Outcome:
    """Judge one finished operation from its exit code and output file."""
    if error is not None:
        return _fail(op, f"raised {error}")
    if not os.path.exists(op["output"]):
        return _fail(op, f"exit {rc}, no output written")
    judge = {"verify": _check_verify, "export": _check_export, "sweep": _check_sweep}
    try:
        return judge[op["kind"]](op, rc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return _fail(op, f"exit {rc}, unreadable output: {type(exc).__name__}: {exc}")


def _check_verify(op: dict, rc: int) -> Outcome:
    with open(op["output"]) as fh:
        report = json.load(fh)
    expected = sorted(op["expect_failed"])
    failed = sorted(c["condition_id"] for c in report["checks"] if not c["passed"])
    want_rc = 1 if expected else 0
    out = Outcome(1, 0, op["nodes"], os.path.getsize(op["output"]))
    ratios = [c["max_residual"] / c["tol"] for c in report["checks"]
              if c["condition_id"] not in expected and c["tol"] > 0]
    out.worst_tol_ratio = max(ratios, default=0.0)
    if failed != expected or rc != want_rc or report["overall_pass"] != (not expected):
        out.failed = 1
        out.mismatch = (f"{op['name']}: exit {rc}, failed checks {failed}, "
                        f"expected exit {want_rc} and failed checks {expected}")
    return out


def _check_export(op: dict, rc: int) -> Outcome:
    out = Outcome(1, 0, op["nodes"], os.path.getsize(op["output"]))
    tol = op["max_residual"]
    rows = 0
    problem = None if rc == 0 else f"exit {rc}"
    with open(op["output"], newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if not header or header[-1] != "residual":
            problem = problem or f"bad header {header[:3]}..."
        for row in reader:
            rows += 1
            try:
                values = [float(v) for v in row]
            except ValueError:
                values = [math.nan]
            if len(row) != len(header) or not all(map(math.isfinite, values)):
                problem = problem or f"row {rows} is short or not finite"
                continue
            if tol is not None:
                out.worst_tol_ratio = max(out.worst_tol_ratio, values[-1] / tol)
                if values[-1] > tol:
                    problem = problem or f"row {rows} residual {values[-1]:.3e} > tol {tol:g}"
    if rows != op["nodes"]:
        problem = problem or f"{rows} rows, expected {op['nodes']}"
    if problem:
        out.failed = 1
        out.mismatch = f"{op['name']}: {problem}"
    return out


def _check_sweep(op: dict, rc: int) -> Outcome:
    with open(op["output"]) as fh:
        summary = json.load(fh)
    size = os.path.getsize(op["output"])
    if op["chain"]:
        # each chain draw is one attempt whose expected verdict is "rejected"
        out = Outcome(summary["n"], summary["valid"], 0, size)
        if summary["valid"] or rc != 0:
            out.failed = max(out.failed, 1)
            out.mismatch = (f"{op['name']}: exit {rc}, {summary['valid']} of "
                            f"{summary['n']} chain draws were not rejected")
        return out
    nx, ny = summary["sampler"]["grid"]
    out = Outcome(summary["valid"], summary["failed"], summary["valid"] * nx * ny, size)
    if summary["failed"] or rc != 0:
        out.failed = max(out.failed, 1)
        first = summary["failures"][0] if summary["failures"] else {}
        out.mismatch = (f"{op['name']}: exit {rc}, {summary['failed']} of "
                        f"{summary['valid']} valid draws failed, first {first}")
    return out
