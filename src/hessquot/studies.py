"""The boundary-case studies behind acceptance criteria 8, 9 and 12.

Each study builds its instance, runs the solves and returns what it
measured, down to the figures a criterion gates (such as the degenerate
path's growth ratios); the acceptance gate checks those figures and the
scripts in scripts/ print the same ones, so no script re-derives a
criterion's number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NonconvergenceError
from .instances import (
    Instance,
    boundary_degenerate_instance,
    degenerate_instance,
    perturbed_source,
    uniform_instance,
)
from .solver import (
    PathResult,
    continuation_path,
    newton_solve,
    stability_compare,
    uniqueness_gap,
    volume_lower_bound_check,
)
from .symfunc import elementary_sym
from .torus import distance_to_set

# dyadic t schedule 1, 1/2, ..., 2^-7; also the `continue` subcommand's default
SCHEDULE = tuple(2.0**-k for k in range(8))
AMPLITUDES = (0.1, 0.01, 0.001)
SHAPE_PAIR = ("cos_x1", "sin_y2")


def _sup_w_on(state, mask):
    """sup of w = log S_1(lambda(X)) over the points marked in mask, on their broadcast shape."""
    w, mask = np.broadcast_arrays(np.log(elementary_sym(1, state.diagnostics.eigenvalues)), mask)
    return float(w[mask].max())


def _growth(values):
    """max(values) over the max of their first half (at least one value); nan for no values.

    How far a path's positive sup outgrows its start: criterion 8 gates it at 1.5.
    """
    half = max(1, len(values) // 2)
    return max(values) / max(values[:half]) if values else float("nan")


@dataclass(frozen=True)
class DegeneratePath:
    instance: Instance
    away: np.ndarray            # points farther than the cutoff from the degenerate slab, broadcastable
    path: PathResult
    away_w: list                # sup of w over the away region, one per state
    volume_slack: float | None  # min S_n - c^(n/(n-m)) at the last t; None if incomplete

    @property
    def sup_phi_ratio(self):
        return _growth([st.diagnostics["sup_phi"] for st in self.path.states])

    @property
    def away_w_ratio(self):
        return _growth(self.away_w)


def degenerate_path(grid_N, away=0.2):
    """Continuation of boundary_degenerate_instance down SCHEDULE.

    Besides the solver diagnostics, records sup w away from the degeneracy
    set (expected to stay bounded even where the global gradient bound
    degenerates) and the volume-form floor slack at the smallest t. Raises
    InputError, before any solve, when no grid point lies farther than away
    from the degeneracy set.
    """
    inst = boundary_degenerate_instance(N=grid_N)
    mask = distance_to_set(inst.grid, inst.extras["degenerate_mask"]) > away
    if not mask.any():
        raise InputError(f"no grid point lies farther than away={away:g} from the degenerate set")
    path = continuation_path(inst.spec, SCHEDULE)
    away_w = [_sup_w_on(st, mask) for st in path.states]
    slack = volume_lower_bound_check(path.states[-1], inst.c) if path.complete else None
    return DegeneratePath(inst, mask, path, away_w, slack)


def stability_decades(grid_N, t=0.5, q=2.0):
    """Paired solves of the uniform instance with sources 1 + A*shape, per amplitude A.

    Returns (A, StabilityRecord) for each A in AMPLITUDES. The implied
    constant scales like A^(n/(n+1)) under the linearized response, so a
    uniform stability estimate shows as a drift below 10x per decade.
    Raises InputError for q <= 1 before any solve.
    """
    if q <= 1.0:
        raise InputError(f"q must exceed 1, got {q}")
    inst = uniform_instance(N=grid_N)
    out = []
    for amp in AMPLITUDES:
        run1, run2 = (
            newton_solve(inst.spec(t, f=perturbed_source(inst, s, amp)), t=t) for s in SHAPE_PAIR
        )
        out.append((amp, stability_compare(run1, run2, q)))
    return out


def uniqueness_limits(grid_N, amp=0.3):
    """Two perturbed continuations of degenerate_instance, then the shared limit.

    Each path's source is normalized 1 + t*amp*shape; the flat-density
    equation at the smallest t is then solved warm-started from each path's
    endpoint. Returns the two limit states and their uniqueness gap on the
    ample region.
    """
    inst = degenerate_instance(N=grid_N)
    limits = []
    for shape in SHAPE_PAIR:
        family = lambda t, s=shape: inst.spec(t, f=perturbed_source(inst, s, t * amp))
        path = continuation_path(family, SCHEDULE)
        if not path.complete:
            raise NonconvergenceError(f"path failed at t={path.failed_t}: {path.failure}")
        limits.append(newton_solve(inst.spec(SCHEDULE[-1]), init=path.states[-1], t=SCHEDULE[-1]))
    return limits, uniqueness_gap(limits[0].phi, limits[1].phi, inst.extras["ample_mask"])
