"""Fake boundary detection and the two-stage solve for touching coefficients.

A coefficient field g >= c whose minimum equals the background's quotient
constant c looks like a boundary instance of the multiplicative equation

    X^n = e^b g X^m wedge omega^(n-m),      X = chi + Hess(phi),

since no margin is left at the touching points. The scalar unknown rescues
it: the compatibility integral forces e^b < 1, so the effective coefficient
e^b g sits strictly below g and the instance is solvable after all. The
module makes that quantitative and constructive:

  * compute_theta0 measures how much mass g carries well above c,
  * solve_b_prime turns theta0 into an analytic upper bound b' < 0 for b,
  * g1_field / g2_field build a strictly solvable stand-in coefficient g2
    sitting just above both e^{b'} g and the background's own quotient
    density,
  * two_stage_solve walks the interpolated family e^{t b'} g^t g2^(1-t)
    in one loop from the g2 equation at t = 0 to the g equation at t = 1,
    with scalar b = b_1 + b', doubling the step after each accepted solve
    and halving it after a failed one. Only that t = 1 solve is held to
    the caller's tol; every solve before it only starts the next one and
    stops at the looser PATH_TOL, or at its aliasing floor where that lies
    above it (Allgower & Georg, Introduction to Numerical Continuation
    Methods, SIAM 2003, ch. 2 and 6).

Coefficients with min g strictly above c are rescaled down to the touching
normalization first; the log of the factor is kept on the instance so the
scalar for the original field can be recovered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import bisect

from .errors import (
    AliasingFloorError,
    ConeViolationError,
    ConstructionError,
    DomainError,
    InputError,
    NonconvergenceError,
)
from .pointwise import cone_margin
from .solver import EquationSpec, SolverConfig, SolverState, _write_csv, newton_solve
from .symfunc import elementary_sym
from .torus import (
    FormField,
    _field,
    _require_metric,
    _require_positive,
    _trusted_replace,
    compute_c,
    integrate_density,
    integrate_mixed,
    relative_eigenvalues,
)


def compute_theta0(g, chi, omega, c, g_max, m):
    """Superlevel constant measuring the coefficient's spread above c.

    theta0 = (g_max - c)/2 * c^(m/(n-m)) * Vol_omega{g >= (g_max + c)/2}
             / (c * integral of chi^m wedge omega^(n-m)),

    the largest constant for which the half-gap superlevel mass bounds the
    compatibility defect from below. Requires g_max > c and the superlevel
    set to meet the grid; a coefficient that never rises above c gives the
    bound nothing to work with and belongs to the plain pipeline.
    """
    grid = chi.grid
    n = grid.n
    g = _field(grid, g, "coefficient")
    if not 0 <= m < n:
        raise InputError(f"need 0 <= m < n, got m={m}, n={n}")
    if g_max <= c:
        raise DomainError(f"need max g > c, got {g_max} <= {c}")
    indicator = (g >= 0.5 * (g_max + c)).astype(np.float64)
    if not indicator.any():
        raise DomainError("superlevel set {g >= (max g + c)/2} misses the grid")
    mass = integrate_density(indicator, omega)
    mixed = integrate_mixed(chi, m, omega)
    return 0.5 * (g_max - c) * c ** (m / (n - m)) * mass / (c * mixed)


def solve_b_prime(theta0, n, m):
    """Unique negative root of 1 = e^x + theta0 e^(n x / (n-m)).

    The right side increases strictly from 0 to infinity and equals
    1 + theta0 > 1 at x = 0, so the root is negative; bisection gets it
    after bracketing by doubling downward.
    """
    if theta0 <= 0.0:
        raise InputError(f"theta0 must be positive, got {theta0}")
    if not 0 <= m < n:
        raise InputError(f"need 0 <= m < n, got m={m}, n={n}")
    p = n / (n - m)

    def h(x):
        return math.exp(x) + theta0 * math.exp(p * x) - 1.0

    lo = -1.0
    while h(lo) >= 0.0:
        lo *= 2.0
    root = float(bisect(h, lo, 0.0, xtol=1e-15))
    resid = abs(h(root))
    if resid > 1e-12:
        raise ConstructionError(f"bisection left residual {resid:.3e} at {root!r}")
    return root


def g1_field(chi, omega, m):
    """Quotient density of the background: chi^n = g1 chi^m wedge omega^(n-m).

    Pointwise g1 = C(n,m) S_n(mu) / S_m(mu) with mu the eigenvalues of chi
    relative to omega, taken on their subtorus, whose shape g1 keeps.
    """
    grid = chi.grid
    n = grid.n
    if not 0 <= m < n:
        raise InputError(f"need 0 <= m < n, got m={m}, n={n}")
    _require_metric(omega)
    mu = relative_eigenvalues(chi, omega)
    _require_positive(mu[..., -1], chi, "background")
    return math.comb(n, m) * elementary_sym(n, mu) / elementary_sym(m, mu)


def g2_field(g, g1, b_prime, delta1):
    """Strictly solvable stand-in coefficient just above the required floor.

    Returns softmax_kappa(e^{b'} g, g1) + delta1/2, doubling the sharpness
    kappa from 1/delta1 until the output lies strictly inside the band
    (max{e^{b'} g, g1}, max{e^{b'} g, g1} + delta1) at every grid point;
    it stops at 64 tries or where kappa overflows, as there the smooth max
    would be inf / inf.
    g and g1 broadcast against each other, and g2 has their broadcast shape.
    """
    g = np.asarray(g, dtype=np.float64)
    g1 = np.asarray(g1, dtype=np.float64)
    if g.ndim != g1.ndim or any(1 not in (a, b) and a != b for a, b in zip(g.shape, g1.shape)):
        raise InputError(f"field shapes do not broadcast: {g.shape} vs {g1.shape}")
    if delta1 <= 0.0:
        raise InputError(f"delta1 must be positive, got {delta1}")
    u = math.exp(b_prime) * g
    floor = np.maximum(u, g1)
    kappa = 1.0 / delta1
    for _ in range(64):
        if not math.isfinite(kappa):
            break
        cand = np.logaddexp(kappa * u, kappa * g1) / kappa + 0.5 * delta1
        if np.all(cand > floor) and np.all(cand < floor + delta1):
            return cand
        kappa *= 2.0
    raise ConstructionError(
        f"no sharpness in [{1.0 / delta1:g}, {kappa:g}] puts the smooth max in its band"
    )


@dataclass(frozen=True)
class FakeBoundaryInstance:
    """Prepared fake-boundary data; the band invariants are checked on build.

    g is stored in the touching normalization min g = c; log_rescale records
    ln(original min / c) when the input had to be scaled down (the scalar of
    the original equation is b - log_rescale).
    """

    g: np.ndarray
    g_max: float
    g_min: float
    theta0: float
    b_prime: float
    delta1: float
    g1: np.ndarray
    g2: np.ndarray
    chi: FormField = field(repr=False)
    omega: FormField = field(repr=False)
    m: int = 1
    c: float = 1.0
    log_rescale: float = 0.0

    def __post_init__(self):
        if float(np.min(self.g)) < self.c * (1.0 - 1e-12):
            raise ConstructionError(
                f"coefficient dips below c: min g = {np.min(self.g)!r}, c = {self.c!r}"
            )
        if self.delta1 <= 0.0:
            raise ConstructionError(f"delta1 must be positive, got {self.delta1}")
        floor = np.maximum(math.exp(self.b_prime) * self.g, self.g1)
        if not (np.all(self.g2 > floor) and np.all(self.g2 < floor + self.delta1)):
            raise ConstructionError("g2 escapes its band around max{e^b' g, g1}")

    @property
    def grid(self):
        return self.chi.grid


def prepare_instance(g, chi, omega, m, delta1=None):
    """Assemble a FakeBoundaryInstance from raw fields.

    Computes c from the background, rescales g down when min g > c (keeping
    the log of the factor), and fills in theta0, b_prime, g1, g2. A constant
    coefficient g == c degenerates cleanly: theta0 = b_prime = 0 and the
    continuation reduces to the classical solvable case. delta1=None picks
    the largest c/2^k whose widened-coefficient cone check passes.
    """
    grid = chi.grid
    if omega.grid != grid:
        raise InputError("background and omega must share a grid")
    g = _field(grid, g, "coefficient")
    c = compute_c(chi, omega, m)
    g_min = float(np.min(g))
    if g_min < c * (1.0 - 1e-12):
        raise DomainError(f"coefficient must stay >= c = {c:g}, got min {g_min:g}")
    log_rescale = 0.0
    if g_min > c * (1.0 + 1e-12):
        log_rescale = math.log(g_min / c)
        g = g * (c / g_min)
        g_min = float(np.min(g))
    g_max = float(np.max(g))
    if g_max <= c * (1.0 + 1e-12):
        theta0, b_prime = 0.0, 0.0
    else:
        theta0 = compute_theta0(g, chi, omega, c, g_max, m)
        b_prime = solve_b_prime(theta0, grid.n, m)

    g1 = g1_field(chi, omega, m)
    mu = relative_eigenvalues(chi, omega)
    candidates = [delta1] if delta1 is not None else [c / 2.0**k for k in range(1, 41)]
    err = None
    for d1 in candidates:
        try:
            g2 = g2_field(g, g1, b_prime, d1)
        except ConstructionError as bad:
            err = bad
            continue
        # the strict cone condition must hold with the widened coefficient g2 + delta1
        margin = float(np.min(cone_margin(mu, g2 + d1, m)))
        if margin <= 0.0:
            err = ConstructionError(
                f"delta1={d1:g} too large: cone margin {margin:.3e} with the widened coefficient"
            )
            continue
        return FakeBoundaryInstance(
            g, g_max, g_min, theta0, b_prime, d1, g1, g2,
            chi, omega, m, c, log_rescale,
        )
    raise ConstructionError(f"no feasible delta1 among {len(candidates)} candidates: {err}")


STAGE_CSV_COLUMNS = ("t", "b_t", "residual_sup", "min_band_slack", "min_cone_margin")


@dataclass(frozen=True)
class TwoStageResult:
    """Final potential and scalar of the g equation, with the path records.

    b already includes the analytic shift: b = b_1 + b_prime, so the bound
    b <= b_prime is equivalent to the recorded b_1 < 0.
    """

    phi: np.ndarray
    b: float
    b_stage1: float
    records: list
    final_state: SolverState = field(repr=False)


# sup residual of every solve before t = 1, which only starts the next one;
# a looser config.tol takes its place
PATH_TOL = 1e-4


def _tagged(err, tag):
    if isinstance(err, NonconvergenceError):
        return type(err)(f"{tag}: {err}", state=err.state)
    return ConeViolationError(f"{tag}: {err}", detail=err.detail)


def two_stage_solve(instance, config=None, steps=16):
    """Bridge from the g2 equation to the g equation along the mixed family.

    One loop takes t from 0 to 1 through coefficient e^{t b'} g^t g2^(1-t);
    the fixed part t b' is folded into the coefficient so the solver's
    scalar is b_t itself. Its t = 0 step, stage 1, solves the equation with
    coefficient g2 (scalar b_tilde < 0 since g2 strictly dominates the
    background density g1); its later steps are stage 2. Only the t = 1
    solve is the answer, so the first step is 1/steps, every accepted step
    doubles the next, and a stall or a start outside the cone halves it,
    down to the floor 1/(64 steps); every t is a multiple of the floor, the
    last is 1. Each solve gets the last two accepted states, so it starts
    from their secant prediction in t (a warm start from the stage-1 state
    on the first step; see newton_solve). Each accepted state must keep b_t
    negative and the effective coefficient e^{b_t} (path field) strictly
    below g2. Failures carry the stage and t in the message and keep the
    error's class. The records are one per accepted t; write_stage_csv
    writes them.

    Only the t = 1 solve runs with config; every solve before it stops at
    the path tolerance max(config.tol, PATH_TOL), with config's max_newton,
    or, where its aliasing floor lies above that, at the floor, whose state
    it hands on; a floor at t = 1 is the g equation's own and raises at
    once. So b_stage1, the records before t = 1 and the invariants checked
    on them (b_t < 0, band slack > 0, the degenerate budget) are read off
    states within the path tolerance or at their floor: they start the
    answer, they are not answers themselves.

    Every coefficient, slack and margin is built on the broadcast shape of
    the instance's fields and each solve runs on their subtorus; omega is
    checked once, where the t = 0 spec is built, and the specs of the other
    t-steps take its checks. Every state keeps the subtorus, the final one
    included, and its spec is on the instance's grid.
    """
    if steps < 1:
        raise InputError(f"need at least one continuation step, got {steps}")
    inst = instance
    # default tolerance sits above the collocation floor of smoothed-corner
    # coefficients at moderate N; tighten only with the resolution to match
    config = config or SolverConfig(tol=1e-8)
    path_config = SolverConfig(tol=max(config.tol, PATH_TOL), max_newton=config.max_newton)
    mu_chi = relative_eigenvalues(inst.chi, inst.omega)
    stage1 = EquationSpec(
        inst.grid.n, inst.m, inst.chi, inst.omega, inst.g2, 0.0, unknown_mode="multiplicative",
    )
    records = []
    path = []  # the last two accepted states, enough for the secant
    # t = (k + h) / ticks on the grid of the step floor, so every t is exact
    # and the last step lands on t = 1; h is the step in ticks: 0 for stage
    # 1, then 64 (1/steps), doubled after each accepted step
    ticks = 64 * steps
    k, h = 0, 0
    while k < ticks or not records:
        t = (k + h) / ticks
        tag = f"stage 2 (t={t:g})" if t > 0.0 else "stage 1"
        # positive and finite, as g and g2 are
        coeff = np.exp(t * inst.b_prime) * inst.g**t * inst.g2 ** (1.0 - t)
        spec = _trusted_replace(stage1, coefficient_field=coeff)
        try:
            state = newton_solve(
                spec, init=path or None, config=config if t == 1.0 else path_config, t=t,
            )
        except AliasingFloorError as err:
            if t == 1.0:
                raise _tagged(err, tag) from err
            state = err.state  # no step lowers what is left; it starts the next solve
        except (NonconvergenceError, ConeViolationError) as err:
            if h <= 1:
                raise _tagged(err, tag) from err
            h //= 2
            continue
        if inst.theta0 > 0.0:
            if state.b >= 0.0:
                raise ConstructionError(f"{tag}: scalar must stay negative, got {state.b!r}")
        elif state.b > 100.0 * config.tol:
            # constant-coefficient degeneration: b_t -> 0 at t = 1 is legitimate
            raise ConstructionError(f"{tag}: scalar {state.b!r} above the degenerate budget")
        effective = math.exp(state.b) * coeff
        slack = float(np.min(inst.g2 - effective))
        if slack <= 0.0:
            raise ConstructionError(
                f"{tag}: path coefficient not strictly below g2 (slack {slack:.3e})"
            )
        records.append({
            "t": t, "b_t": state.b, "residual_sup": state.residual_sup, "min_band_slack": slack,
            "min_cone_margin": float(np.min(cone_margin(mu_chi, effective, inst.m))),
        })
        path = [*path[-1:], state]
        k += h
        h = min(2 * h or 64, ticks - k)
    return TwoStageResult(state.phi, float(state.b + inst.b_prime), records[0]["b_t"], records, state)


def write_stage_csv(path, records):
    _write_csv(path, STAGE_CSV_COLUMNS, ([rec[k] for k in STAGE_CSV_COLUMNS] for rec in records))
