#!/usr/bin/env python3
"""Parameter sweeps over the built-in curve families.

Draws random parameters per family, filters by the factory validators
(every radicand and denominator checked numerically), and verifies each
valid draw.  The Ex7_2 sweep samples triples satisfying that family's
quoted inequality chain and demonstrates that none of them survive the
radicand checks.
"""

import argparse
import math
import sys

from lorentzmin.harness import sweep


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--chain-draws", type=int, default=10_000,
                        help="sample count for the Ex7_2 chain sweep")
    args = parser.parse_args()

    failures = 0
    for family, n in (("Ex7_1", 50), ("Ex7_2", args.chain_draws),
                      ("Ex8_1", 50), ("Ex8_2", 50)):
        summary = sweep(family, n=n, rng_seed=args.seed)
        failures += summary["failed"]
        print(f"{family}: n={summary['n']:6d} valid={summary['valid']:5d} "
              f"invalid={summary['invalid']:5d} passed={summary['passed']:5d} "
              f"failed={summary['failed']}")
        if summary["valid"] and summary["worst_residuals"]:
            # a non-finite residual arrives as "nan", "inf" or "-inf" and is the worst
            worst = {k: float(v) for k, v in summary["worst_residuals"].items()}
            worst_id = max(worst, key=lambda k: worst[k] if math.isfinite(worst[k]) else math.inf)
            print(f"    worst residual: {worst_id} = {worst[worst_id]:.3e}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
