#!/usr/bin/env python3
"""Build one workload's generated inputs in a fresh interpreter.

run.py starts this script several times and times each start from the
outside: that wall time (interpreter start, import of lorentzmin, writing
the inputs) is the benchmark's set-up time.  The import time measured
inside is the per-layer ``cli.import_s``.

    python3 perfbench/prepare.py --workload grid-large --seed 0 --out DIR

The inputs are a manifest of ``lms`` argument lists, each with what the
correctness oracle expects of it, plus the spec files those lists name:
the workload's operations, and the same operations at a small size for
the untimed warm-up.
The last line of standard output is ``{"import_s": ..., "manifest": ...}``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

GRID_LARGE = 81
SWEEP_DRAWS = 50
#: Every Ex7_2 draw that satisfies the family's quoted chain is rejected at
#: validation, so these draws cost validation only and add no nodes.
CHAIN_DRAWS_PER_DRAW = 40
SWEEP_FAMILIES = ("Ex7_1", "Ex8_1", "Ex8_2")
CHAIN_FAMILY = "Ex7_2"
#: The untimed warm-up runs every operation once on a grid this small (or
#: with this many sweep draws), so first calls and lazy imports are paid
#: before the clock starts.
WARM_GRID = 9
WARM_DRAWS = 2


def _spec_ops(kind: str, spec_dir: Path, out: Path, grid: int, tols: dict) -> list[dict]:
    ops = []
    for path in sorted(spec_dir.glob("*.json")):
        spec = json.loads(path.read_text())
        spec["grid"] = [grid, grid]
        spec_path = out / f"{path.stem}.json"
        spec_path.write_text(json.dumps(spec, indent=1) + "\n")
        family = spec["family"]
        negative = family == "de_sitter_control"
        op = {"kind": kind, "name": path.stem, "family": family, "nodes": grid * grid}
        if kind == "verify":
            report = out / f"{path.stem}.report.json"
            op["argv"] = ["verify", "--spec", str(spec_path), "--json-out", str(report)]
            op["output"] = str(report)
            # the negative control is totally umbilical: it fails minimality only
            op["expect_failed"] = ["minimality"] if negative else []
        else:
            csv = out / f"{path.stem}.csv"
            op["argv"] = ["export", "--spec", str(spec_path), "--format", "csv", "--out", str(csv)]
            op["output"] = str(csv)
            key = "minimality-flat" if family == "translation" else "minimality"
            tol = spec.get("tolerances", {}).get(key, tols[key])
            op["max_residual"] = None if negative else tol
        ops.append(op)
    return ops


def _sweep_ops(out: Path, seed: int, draws: int, grid: int | None) -> list[dict]:
    ops = []
    for family in SWEEP_FAMILIES + (CHAIN_FAMILY,):
        chain = family == CHAIN_FAMILY
        n = draws * CHAIN_DRAWS_PER_DRAW if chain else draws
        summary = out / f"sweep-{family}.json"
        argv = ["sweep", "--family", family, "--n", str(n), "--seed", str(seed),
                "--json-out", str(summary)]
        if grid is not None:
            argv += ["--sampler-config", json.dumps({"grid": [grid, grid]})]
        ops.append({"kind": "sweep", "name": family, "argv": argv,
                    "output": str(summary), "chain": chain})
    return ops


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("grid-large", "sweep-small", "export-large"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the generated inputs")
    parser.add_argument("--grid", type=int, help="grid size override (default: per workload)")
    parser.add_argument("--draws", type=int, default=SWEEP_DRAWS)
    parser.add_argument("--specs", default=str(ROOT / "specs"))
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import lorentzmin.cli  # noqa: F401  (the import being timed)
    from lorentzmin.report import DEFAULT_TOLS
    import_s = time.perf_counter() - t0

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    warm = out / "warmup"
    warm.mkdir(exist_ok=True)
    if args.workload == "sweep-small":
        ops = _sweep_ops(out, args.seed, args.draws, args.grid)
        warmup = _sweep_ops(warm, args.seed, min(WARM_DRAWS, args.draws), args.grid)
    else:
        kind = "verify" if args.workload == "grid-large" else "export"
        spec_dir = Path(args.specs)
        grid = args.grid or GRID_LARGE
        ops = _spec_ops(kind, spec_dir, out, grid, DEFAULT_TOLS)
        warmup = _spec_ops(kind, spec_dir, warm, min(WARM_GRID, grid), DEFAULT_TOLS)
        if not ops:
            print(f"no spec files in {spec_dir}", file=sys.stderr)
            return 2
    manifest = out / "manifest.json"
    manifest.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                    "ops": ops, "warmup": warmup}, indent=1) + "\n")
    print(json.dumps({"import_s": import_s, "manifest": str(manifest)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
