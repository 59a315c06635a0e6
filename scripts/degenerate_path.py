#!/usr/bin/env python3
"""Continuation into the degenerate limit with boundary-tuned marginals.

Drives the instance whose chi sits exactly on the cone-condition boundary
and whose chitilde loses positivity on a slab, stepping t down a dyadic
schedule. Reported per step: the usual solver diagnostics plus sup of
w = log S_1(X) restricted to points farther than a fixed distance from the
degeneracy set, which is the quantity expected to stay bounded even when
the global gradient bound degenerates. Ends with the volume-form floor
check min S_n - c^(n/(n-m)) at the smallest t. A front-end over
hessquot.studies.degenerate_path (acceptance criteria 8 and 9).
"""

import argparse

from hessquot.errors import InputError
from hessquot.studies import SCHEDULE, degenerate_path


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--grid-N", type=int, default=16)
    ap.add_argument("--away", type=float, default=0.2, help="distance cutoff from the slab")
    args = ap.parse_args()

    try:
        study = degenerate_path(args.grid_N, args.away)
    except InputError as err:
        ap.error(str(err))
    away, result = study.away, study.path
    print(f"c={study.instance.c:.12f} away region {int(away.sum())}/{away.size} points")
    print(f"{'t':>10} {'b':>12} {'sup_phi':>10} {'sup_w':>10} {'away_w':>10} {'min_eig':>10}")
    for st, away_w in zip(result.states, study.away_w):
        d = st.diagnostics
        print(
            f"{st.t:10.6f} {st.b:12.6f} {d['sup_phi']:10.6f} {d['sup_w']:10.6f} "
            f"{away_w:10.6f} {d['min_eig']:10.3e}"
        )
    if not result.complete:
        print(f"path FAILED at t={result.failed_t}: {result.failure}")
        return

    print(f"sup|phi| ratio {study.sup_phi_ratio:.4f}, away w ratio {study.away_w_ratio:.4f}")
    print(f"volume floor slack at t={SCHEDULE[-1]:g}: {study.volume_slack:.3e}")


if __name__ == "__main__":
    main()
