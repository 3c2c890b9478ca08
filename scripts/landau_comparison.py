#!/usr/bin/env python3
"""Compare the calibrated closed-form tunneling rate to the resummed rate.

For every dimension in the standard comparison table this sweeps the
resonance model over its log-spaced field window, calibrates the
closed-form curve at the lowest usable point, and prints the ratio of the
two rates at a few sample fields plus a per-dimension summary: the worst
ratio over the low-field half and the ratio at the top of the window.  The
closed form should track within a factor of a few at low field and
overestimate at high field.

Usage:
    python scripts/landau_comparison.py [--points N]
"""

import argparse
import math

from starkdim import (
    LANDAU_COMPARISON_RANGES,
    landau_calibrated_rate,
    standard_model,
    sweep,
)
from starkdim.cli import _log_grid  # the grid of reproduce --figure 3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=101,
                        help="grid points per dimension (default 101)")
    args = parser.parse_args()

    for alpha, lo, hi in LANDAU_COMPARISON_RANGES:
        p = (alpha - 1.0) / 2.0
        model = standard_model(alpha)
        fields = _log_grid(lo, hi, args.points)
        points = sweep(model, fields)
        curve = landau_calibrated_rate(p, [pt.field for pt in points],
                                       points)
        ratios = [rate / pt.gamma for pt, (_, rate) in zip(points, curve)]

        print(f"alpha = {alpha}  (p = {p}), fields {lo} .. {hi}")
        print(f"  {'field':>12} {'resummed':>13} {'closed form':>13} "
              f"{'ratio':>9}")
        for k in [j * (args.points - 1) // 6 for j in range(7)]:
            pt, (_, rate) = points[k], curve[k]
            print(f"  {pt.field:>12.5g} {pt.gamma:>13.5e} {rate:>13.5e} "
                  f"{ratios[k]:>9.4f}")
        half = args.points // 2 + 1
        low_worst = max(ratios[:half], key=lambda r: abs(math.log(r)))
        print(f"  worst low-half ratio {low_worst:.4f}, "
              f"top-of-window ratio {ratios[-1]:.4f}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
