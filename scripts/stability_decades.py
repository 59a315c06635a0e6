#!/usr/bin/env python3
"""Stability constant across source-amplitude decades.

Perturb the source density of the uniform instance by a pair of shapes at
a shared amplitude A, for A spanning three decades, and compare the two
solves. The implied constant sup(u2-u1) / ||(f1-f2)_+||^(1/(n+1)) should
drift by less than a factor of 10 between consecutive decades if the
sup-vs-norm stability estimate really is uniform in the data: the linearized
response makes both sup_diff and the norm scale like A, so the constant
itself scales like A^(n/(n+1)), about 4.6x per decade at n = 2. Comparing
against the flat baseline instead would be degenerate: solutions are
max-normalized, so sup(u - 0) vanishes identically. A front-end over
hessquot.studies.stability_decades (acceptance criterion 12).
"""

import argparse
import csv
import os

from hessquot.errors import InputError
from hessquot.studies import stability_decades


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--grid-N", type=int, default=16)
    ap.add_argument("--t", type=float, default=0.5)
    ap.add_argument("--q", type=float, default=2.0)
    ap.add_argument("--out", help="optional CSV path")
    args = ap.parse_args()

    try:
        decades = stability_decades(args.grid_N, args.t, args.q)
    except InputError as err:
        ap.error(str(err))
    rows = [(amp, rec.sup_diff, rec.positive_part_norm, rec.c_implied) for amp, rec in decades]
    print(f"{'A':>8} {'sup_diff':>12} {'pos_norm_q*':>12} {'C_implied':>12} {'ratio':>8}")
    prev = None
    worst = 0.0
    for amp, sup_diff, norm, c_implied in rows:
        ratio = float("nan") if prev is None else prev / c_implied
        if prev is not None:
            worst = max(worst, ratio, 1.0 / ratio)
        print(f"{amp:8.3g} {sup_diff:12.5e} {norm:12.5e} {c_implied:12.5e} {ratio:8.3f}")
        prev = c_implied
    print(f"worst consecutive-decade ratio {worst:.3f} ({'<' if worst < 10 else '>='} 10)")

    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["amplitude", "sup_diff", "positive_part_norm", "c_implied"])
            w.writerows(rows)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
