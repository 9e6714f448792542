#!/usr/bin/env python3
"""Run the verification suite on every shipped spec in specs/ (one per
built-in construction) and print a summary table; optionally archive the
JSON reports."""

import argparse
import json
import pathlib
import sys

from lorentzmin.harness import dumps_json, verify

SPEC_DIR = pathlib.Path(__file__).resolve().parent.parent / "specs"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json-out", help="directory for per-example report JSON")
    args = parser.parse_args()

    out_dir = None
    if args.json_out:
        out_dir = pathlib.Path(args.json_out)
        out_dir.mkdir(parents=True, exist_ok=True)

    any_unexpected = False
    for path in sorted(SPEC_DIR.glob("*.json")):
        name = path.stem
        report = verify(json.loads(path.read_text()))
        expected_fail = report.spec["family"] == "de_sitter_control"
        status = "pass" if report.overall_pass else "FAIL"
        marker = " (expected: negative control)" if expected_fail else ""
        worst = max(report.checks, key=lambda c: c.max_residual / (c.tol or 1.0))
        print(f"{name:20s} {status}{marker:34s} "
              f"worst check {worst.condition_id} = {worst.max_residual:.3e}")
        if report.overall_pass == expected_fail:
            any_unexpected = True
        if out_dir is not None:
            (out_dir / f"{name}.json").write_text(dumps_json(report.to_dict()) + "\n")
    return 1 if any_unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
