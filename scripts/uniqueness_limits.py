#!/usr/bin/env python3
"""Uniqueness of the degenerate limit, probed from two directions.

Run two continuations of the degenerate instance whose source densities
differ along the path (t-proportional perturbations with different shapes),
then solve the common limit equation (flat density, smallest t) warm-started
from each path's endpoint. On the region where the limit background stays
ample the two potentials must agree up to an additive constant; the reported
gap is the sup deviation from constancy of their difference there. A
front-end over hessquot.studies.uniqueness_limits (acceptance criterion 12).
"""

import argparse

import numpy as np

from hessquot.errors import InputError
from hessquot.studies import uniqueness_limits


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--grid-N", type=int, default=16)
    ap.add_argument("--amp", type=float, default=0.3)
    args = ap.parse_args()

    try:
        limits, gap = uniqueness_limits(args.grid_N, args.amp)
    except InputError as err:
        ap.error(str(err))
    for i, st in enumerate(limits, 1):
        print(
            f"limit {i}: b={st.b:.12f} residual={st.residual_sup:.3e} "
            f"sup|phi|={np.abs(st.phi).max():.6f}"
        )
    print(f"uniqueness gap on ample region: {gap:.3e}")


if __name__ == "__main__":
    main()
