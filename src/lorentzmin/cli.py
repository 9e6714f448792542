"""Command-line interface.

Subcommands:

    lms verify --spec FILE [--json-out FILE]
    lms sweep --family NAME --n N --seed S [--json-out FILE]
    lms export --spec FILE --format csv|obj --out FILE
    lms list-families

Exit codes: 0 = all checks passed, 1 = at least one check failed,
2 = invalid input (bad spec, unknown family, violated curve constraints).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import InvalidInputError
from .harness import SurfaceSpec, dumps_json, export_samples, list_families, sweep, verify

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_INVALID_INPUT = 2


def _load_spec(path: str) -> SurfaceSpec:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise InvalidInputError(f"spec file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"spec file {path} is not valid JSON: {exc}") from exc
    return SurfaceSpec.from_dict(data)


def _cmd_verify(args) -> int:
    report = verify(_load_spec(args.spec))
    text = dumps_json(report.to_dict(include_timings=not args.no_timings))
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(text + "\n")
        for check in report.checks:
            status = "pass" if check.passed else "FAIL"
            print(f"[{status}] {check.condition_id}: {check.max_residual:.3e} "
                  f"(tol {check.tol:g})")
        print("overall:", "pass" if report.overall_pass else "FAIL")
    else:
        print(text)
    return EXIT_PASS if report.overall_pass else EXIT_CHECK_FAILURE


def _cmd_sweep(args) -> int:
    config = json.loads(args.sampler_config) if args.sampler_config else None
    summary = sweep(args.family, config, n=args.n, rng_seed=args.seed)
    text = dumps_json(summary)
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(text + "\n")
        print(f"{summary['family']}: n={summary['n']} valid={summary['valid']} "
              f"passed={summary['passed']} failed={summary['failed']}")
    else:
        print(text)
    return EXIT_PASS if summary["failed"] == 0 else EXIT_CHECK_FAILURE


def _cmd_export(args) -> int:
    export_samples(_load_spec(args.spec), args.out, args.format)
    print(f"wrote {args.out}")
    return EXIT_PASS


def _cmd_list_families(args) -> int:
    print(dumps_json(list_families()))
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lms",
        description="Construct and verify minimal Lorentz surfaces in "
        "flat, spherical, and hyperbolic indefinite ambients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the full verification suite on a spec")
    p.add_argument("--spec", required=True, help="path to a surface-spec JSON file")
    p.add_argument("--json-out", help="write the report JSON here (and print a summary)")
    p.add_argument("--no-timings", action="store_true", help="omit timings from the report")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("sweep", help="verify many random parameter draws of a curve family")
    p.add_argument("--family", required=True, help="curve family id (e.g. Ex7_1)")
    p.add_argument("--n", type=int, default=50, help="number of parameter draws")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (recorded in the summary)")
    p.add_argument("--sampler-config", help="JSON object overriding the default sampler")
    p.add_argument("--json-out", help="write the summary JSON here")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("export", help="export the sampled surface for external plotting")
    p.add_argument("--spec", required=True, help="path to a surface-spec JSON file")
    p.add_argument("--format", required=True, choices=("csv", "obj"))
    p.add_argument("--out", required=True, help="output path")
    p.set_defaults(fn=_cmd_export)

    p = sub.add_parser("list-families", help="print the family and curve catalogs")
    p.set_defaults(fn=_cmd_list_families)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:  # built once, on the first call of main
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad usage, matching the invalid-input code
        return EXIT_INVALID_INPUT if exc.code not in (0, None) else EXIT_PASS
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        # InvalidInputError is a ValueError; this also covers a malformed
        # LMS_DEFAULT_TOL and unwritable output paths
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
