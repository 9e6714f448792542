#!/usr/bin/env python3
"""Write every deterministic output of ``lms`` that a change must keep
byte-identical, with a sha256 manifest, so that two versions of lorentzmin
can be compared by diffing their manifests:

    PYTHONPATH=src python3 scripts/deterministic_outputs.py --out DIR
    PYTHONPATH=src python3 scripts/deterministic_outputs.py --out DIR2 --compare DIR/MANIFEST

The outputs (98):

* ``verify --no-timings`` of the six specs at 21x21 and at 81x81;
* csv and obj exports of the six specs, at their own grids;
* ``verify --no-timings`` and a csv export of ``PAIRING_GAP``, a
  translation whose pairing vanishes between the nodes of its 2x2 grid
  (written here, not under ``specs/``, which the benchmark reads);
* ``verify --no-timings`` of ``DEGENERATE_PAIR``, a hyp_iii pair whose
  metric is degenerate, so its joint conditions are reported ahead of
  ``metric-signature``;
* sweeps of Ex7_1, Ex8_1 and Ex8_2 at n=50 on seeds 0 and 1, with
  ``LMS_DEFAULT_TOL`` unset and at seven tolerances from 1e-12 to 1e-15,
  which mix passing and failing draws;
* Ex8_2 at n=160 on seed 0 (53 valid draws, so more than one fold), with
  ``LMS_DEFAULT_TOL`` unset and at 1e-14 (3 of its draws fail there);
* the Ex7_2 sweep at n=300 on seed 5, and at n=2000 on seeds 0 and 1;
* Ex7_2 at n=400 on seed 0 with a box of 10% about the spec's parameters
  (``EX72_BOX``), where 351 draws are valid and all of them pass, the one
  sweep of sphere_c that has valid draws (the chain sampler's have none);
* on seeds 0 and 1, Ex7_1 at n=50 with min_gap 1.2 (about 340 rejected
  tries per draw) and Ex8_1 at n=50 with rel 0.3 (about half the draws
  invalid), which exercise the samplers' rejections;
* Ex7_1 at n=3 on parameters near 1e-150 (``EXTREME_BOX``), whose fold
  mixes two premise-blocked draws, a ``metric-signature`` draw and a
  lightcone-z residual of 2.4e288, and at n=10, where the metric of the
  fold of its five built draws is degenerate, so the fold is rerun one
  draw at a time;
* ``verify --no-timings`` of ``OVERFLOW_SPEC`` and Ex7_1 at n=20 on
  ``OVERFLOW_BOX``: valid curves whose cosh overflows on the domain, so
  their premises read "nan" and "-inf" residuals, which fail;
* ``list-families``;
* ``verify --no-timings`` of ``FACTOR_SPEC`` and Ex7_1 at n=3 on
  ``FACTOR_BOX``: finite coefficients whose factor a*p*p*p overflows, so
  validation rejects them (verify exits 2, the sweep's draws are invalid);
* csv exports of the six specs at 81x81, the benchmark's exports, which
  span several grid blocks and several writes.

Each output runs in this process through ``lorentzmin.cli.main``; its file
is the command's standard output (the exported file for exports).
``DIR/MANIFEST`` holds one line per output: sha256, exit code and name.
``--compare OLD`` then names every output whose sha256 or exit code
differs from the manifest OLD, and exits 1 if one does.  When the old
output sits beside OLD, its line ends in ``verdicts`` if the exit code, a
check id or verdict, or a sweep's valid/invalid/passed/failed counts or
failures moved, and otherwise in ``residuals R``: the largest ratio, either
way round, between an old and a new residual (a check's ``max_residual``,
a sweep's ``worst_residuals``, the largest of an export's ``residual``
column), then each residual that moved, largest ratio first, and which way,
as in ``residuals 164 curvature fell, gauss-equation fell``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import pathlib
import sys
import tempfile

from lorentzmin.cli import main as lms
from lorentzmin.report import ENV_TOL

SPEC_DIR = pathlib.Path(__file__).resolve().parent.parent / "specs"
SPECS = sorted(p.stem for p in SPEC_DIR.glob("*.json"))
GRIDS = (21, 81)
SWEEP_TOLS = (None, "1e-12", "3e-13", "1e-13", "3e-14", "1e-14", "3e-15", "1e-15")
#: <z'(x), w'(y)> = -1 - cos(x - y) vanishes on x - y = pi, which passes
#: between the 2x2 grid's nodes: pairing-nonzero passes on them, and the
#: E-field stencil of the FD subgrid meets the zero (metric-signature fails)
PAIRING_GAP = {
    "family": "translation", "curves": [{"name": "trig4"}, {"name": "trig4_anti"}],
    "domain": {"x": [math.pi / 2 - 0.6, math.pi / 2 + 0.2],
               "y": [-math.pi / 2 - 0.4, -math.pi / 2 + 0.4]},
    "grid": [2, 2]}
#: An Ex7_1 sampler box whose squares of p, q and r are near 1e-300
EXTREME_BOX = {"a_box": [1, 1], "pqr_box": [1e-160, 1e-150], "min_gap": 0}
#: A box_around sampler about sphere_c_ex72's (p, q, r), where most Ex7_2 draws are valid
EX72_BOX = {"mode": "box_around", "center": [3, 1.5, 1], "rel": 0.1}
#: A valid Ex7_1 spec (its radicands are exact ints) whose cosh(p t)
#: overflows on the curve's domain
OVERFLOW_SPEC = {"family": "sphere_b", "curves": [
    {"family_id": "Ex7_1", "params": {"a": 1, "p": 2001, "q": 1000, "r": 2000}}]}
#: An Ex7_1 sampler box whose draws' cosh overflows there too
OVERFLOW_BOX = {"pqr_box": [500, 700], "a_box": [1, 1]}
#: An Ex7_1 spec whose coefficients are finite but whose a*p*p*p is not
FACTOR_SPEC = {"family": "sphere_b", "curves": [
    {"family_id": "Ex7_1", "params": {"a": 1e-100, "p": 1.5e110, "q": 1.2e110, "r": 1.3e110}}]}
#: An Ex7_1 sampler box whose draws' a*p*p*p overflows too
FACTOR_BOX = {"a_box": [1e-100, 1e-100], "pqr_box": [1e110, 1e111], "min_gap": 0}
#: ads_null as both z and w is no admissible pair: iii.1 fails (iii.2 and
#: iii.3 hold), and g_xy > 0 stops the grid pass (metric-signature fails)
DEGENERATE_PAIR = {"family": "hyp_iii", "curves": [{"name": "ads_null"}, {"name": "ads_null"}]}


def outputs() -> dict[str, tuple[list[str], str | None]]:
    """Output name -> (``lms`` arguments, ``LMS_DEFAULT_TOL`` or None).  In the
    arguments ``{tmp}`` is the directory of ``write_grid_specs`` and ``{out}``
    the output's path."""
    table = {}
    for spec in SPECS:
        for n in GRIDS:
            table[f"verify-{spec}-{n}.json"] = (
                ["verify", "--spec", f"{{tmp}}/{spec}-{n}.json", "--no-timings"], None)
        for fmt in ("csv", "obj"):
            table[f"export-{spec}.{fmt}"] = (
                ["export", "--spec", str(SPEC_DIR / f"{spec}.json"), "--format", fmt,
                 "--out", "{out}"], None)
    gap = "{tmp}/translation_pairing_gap.json"
    table["verify-translation_pairing_gap-2.json"] = (
        ["verify", "--spec", gap, "--no-timings"], None)
    table["export-translation_pairing_gap.csv"] = (
        ["export", "--spec", gap, "--format", "csv", "--out", "{out}"], None)
    table["verify-hyp_iii_degenerate_pair-21.json"] = (
        ["verify", "--spec", "{tmp}/hyp_iii_degenerate_pair.json", "--no-timings"], None)
    for family in ("Ex7_1", "Ex8_1", "Ex8_2"):
        for seed in (0, 1):
            for tol in SWEEP_TOLS:
                table[f"sweep-{family}-seed{seed}-tol{tol or 'default'}.json"] = (
                    ["sweep", "--family", family, "--n", "50", "--seed", str(seed)], tol)
    for tol in (None, "1e-14"):
        table[f"sweep-Ex8_2-n160-seed0-tol{tol or 'default'}.json"] = (
            ["sweep", "--family", "Ex8_2", "--n", "160", "--seed", "0"], tol)
    table["sweep-Ex7_2-seed5.json"] = (
        ["sweep", "--family", "Ex7_2", "--n", "300", "--seed", "5"], None)
    for seed in (0, 1):
        table[f"sweep-Ex7_2-n2000-seed{seed}.json"] = (
            ["sweep", "--family", "Ex7_2", "--n", "2000", "--seed", str(seed)], None)
        for family, key, value in (("Ex7_1", "min_gap", 1.2), ("Ex8_1", "rel", 0.3)):
            table[f"sweep-{family}-{key}{value}-seed{seed}.json"] = (
                ["sweep", "--family", family, "--n", "50", "--seed", str(seed),
                 f"--sampler-config={json.dumps({key: value})}"], None)
    table["sweep-Ex7_2-box-seed0.json"] = (
        ["sweep", "--family", "Ex7_2", "--n", "400", "--seed", "0",
         f"--sampler-config={json.dumps(EX72_BOX)}"], None)
    table["sweep-Ex7_1-extreme-seed0.json"] = (
        ["sweep", "--family", "Ex7_1", "--n", "3", f"--sampler-config={json.dumps(EXTREME_BOX)}"],
        None)
    table["sweep-Ex7_1-extreme-n10-seed0.json"] = (
        ["sweep", "--family", "Ex7_1", "--n", "10", f"--sampler-config={json.dumps(EXTREME_BOX)}"],
        None)
    table["verify-sphere_b_overflow-21.json"] = (
        ["verify", "--spec", "{tmp}/sphere_b_overflow.json", "--no-timings"], None)
    table["sweep-Ex7_1-overflow-seed0.json"] = (
        ["sweep", "--family", "Ex7_1", "--n", "20", f"--sampler-config={json.dumps(OVERFLOW_BOX)}"],
        None)
    table["list-families.json"] = (["list-families"], None)
    table["verify-sphere_b_factor_overflow-21.json"] = (
        ["verify", "--spec", "{tmp}/sphere_b_factor_overflow.json", "--no-timings"], None)
    table["sweep-Ex7_1-factor-overflow-seed0.json"] = (
        ["sweep", "--family", "Ex7_1", "--n", "3", f"--sampler-config={json.dumps(FACTOR_BOX)}"],
        None)
    for spec in SPECS:
        table[f"export-{spec}-81.csv"] = (
            ["export", "--spec", f"{{tmp}}/{spec}-81.json", "--format", "csv", "--out", "{out}"],
            None)
    return table


def write_grid_specs(tmp: pathlib.Path) -> None:
    """Each shipped spec at each of ``GRIDS``, as ``{tmp}/{spec}-{n}.json``,
    ``PAIRING_GAP`` as ``{tmp}/translation_pairing_gap.json``,
    ``DEGENERATE_PAIR`` as ``{tmp}/hyp_iii_degenerate_pair.json``,
    ``OVERFLOW_SPEC`` as ``{tmp}/sphere_b_overflow.json`` and
    ``FACTOR_SPEC`` as ``{tmp}/sphere_b_factor_overflow.json``."""
    (tmp / "translation_pairing_gap.json").write_text(json.dumps(PAIRING_GAP))
    (tmp / "hyp_iii_degenerate_pair.json").write_text(json.dumps(DEGENERATE_PAIR))
    (tmp / "sphere_b_overflow.json").write_text(json.dumps(OVERFLOW_SPEC))
    (tmp / "sphere_b_factor_overflow.json").write_text(json.dumps(FACTOR_SPEC))
    for spec in SPECS:
        data = json.loads((SPEC_DIR / f"{spec}.json").read_text())
        for n in GRIDS:
            (tmp / f"{spec}-{n}.json").write_text(json.dumps({**data, "grid": [n, n]}))


def run(name: str, out_dir: pathlib.Path, tmp: pathlib.Path) -> int:
    """Write output ``name`` to ``out_dir / name`` and return its exit code."""
    argv, tol = outputs()[name]
    target = out_dir / name
    argv = [a.replace("{tmp}", str(tmp)).replace("{out}", str(target)) for a in argv]
    saved = os.environ.pop(ENV_TOL, None)
    if tol is not None:
        os.environ[ENV_TOL] = tol
    try:
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            code = lms(argv)
    finally:
        os.environ.pop(ENV_TOL, None)
        if saved is not None:
            os.environ[ENV_TOL] = saved
    if argv[0] != "export":
        target.write_text(stdout.getvalue())
    elif not target.exists():
        target.write_text("")  # a refused export writes no file
    return code


def _summary(path: pathlib.Path, code: str):
    """(verdicts, residuals by place) of an output file with exit code ``code``."""
    text = path.read_text()
    if path.suffix == ".csv":
        column = [float(row["residual"]) for row in csv.DictReader(io.StringIO(text))]
        return (code,), {"residual": max(column, key=lambda v: (math.isnan(v), v), default=0.0)}
    try:
        data = json.loads(text)
    except ValueError:  # an obj export, or the empty file of a refused one
        return (code,), {}
    checks = data.get("checks", [])
    verdicts = (code, data.get("overall_pass"), [(c["condition_id"], c["passed"]) for c in checks],
                [data.get(k) for k in ("valid", "invalid", "passed", "failed", "failures")])
    residuals = {c["condition_id"]: c["max_residual"] for c in checks}
    return verdicts, {**residuals, **data.get("worst_residuals", {})}


def _ratio(old, new) -> float:
    """The larger of |old/new| and |new/old|: 1 for equal values (NaNs too),
    inf if one of them is 0 or NaN."""
    a, b = abs(float(old)), abs(float(new))
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 1.0
    return math.inf if math.isnan(a + b) or min(a, b) == 0 else max(a, b) / min(a, b)


def _moved(old: pathlib.Path, new: pathlib.Path, old_code: str, new_code: str) -> str:
    """``verdicts``, or ``residuals R`` with R the largest residual ratio, then
    each residual that moved and whether it ``fell`` or ``rose`` ("" for an
    output without residuals)."""
    (was, old_res), (now, new_res) = _summary(old, old_code), _summary(new, new_code)
    if was != now:
        return "verdicts"
    ratios = {k: _ratio(old_res[k], new_res[k]) for k in old_res.keys() & new_res.keys()}
    if not ratios:
        return ""

    def size(v):  # a NaN above every number
        return math.isnan(float(v)), abs(float(v))

    moved = sorted((k for k, r in ratios.items() if r != 1.0), key=lambda k: (-ratios[k], k))
    ways = ", ".join(f"{k} {'fell' if size(new_res[k]) < size(old_res[k]) else 'rose'}"
                     for k in moved)
    return f"residuals {max(ratios.values()):.3g} {ways}".rstrip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="directory for the outputs and MANIFEST")
    parser.add_argument("--only", action="append", help="write only this output (repeatable)")
    parser.add_argument("--list", action="store_true", help="print the output names and exit")
    parser.add_argument("--compare", metavar="MANIFEST",
                        help="name the outputs that differ from this manifest; exit 1 if any")
    args = parser.parse_args()
    names = list(outputs())
    if args.list:
        print("\n".join(names))
        return 0
    unknown = set(args.only or ()) - set(names)
    if not args.out:
        parser.error("--out is required")
    if unknown:
        parser.error(f"unknown outputs: {', '.join(sorted(unknown))}")
    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        write_grid_specs(pathlib.Path(tmp))
        for name in args.only or names:
            code = run(name, out_dir, pathlib.Path(tmp))
            digest = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            lines.append(f"{digest} {code} {name}\n")
    (out_dir / "MANIFEST").write_text("".join(lines))
    if not args.compare:
        return 0
    old = {line.split()[-1]: line.split() for line in
           pathlib.Path(args.compare).read_text().splitlines() if line.strip()}
    new = {line.split()[-1]: line.split() for line in lines}
    differ = [name for name in new if old.get(name) != new[name]]
    differ += [] if args.only else sorted(set(old) - set(new))  # outputs this run lacks
    old_dir = pathlib.Path(args.compare).parent
    for name in differ:
        beside = (old_dir / name).exists() and name in new and name in old
        note = _moved(old_dir / name, out_dir / name, old[name][1], new[name][1]) if beside else ""
        print(f"differs: {name} {note}".rstrip())
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
