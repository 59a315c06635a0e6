"""Damped Newton continuation for the quotient equation family on torus grids.

The iteration works on the inverse-eigenvalue residual, which is concave in
admissible directions, with the potential (mean-zero) and the scalar constant
solved jointly: each step solves the linear system

    -tr(A(x) Hess(dphi)(x)) + (dR/db)(x) db = -R(x)    at every grid point

by LGMRES, right-preconditioned by the constant-coefficient inverse, which
gives mean(dphi) = 0; A rotates the per-eigendirection coefficients back to
the coordinate frame and Hess is the spectral complex Hessian. Backtracking
keeps every accepted iterate admissible (X > 0 pointwise) and strictly
decreases the sup residual. Potentials live in the Fourier subspace
complementary to the Hessian's kernel (modes with every axis frequency at 0
or Nyquist), where the linearized systems are nonsingular. Above
COARSEST_N points per axis, each solve starts from the solve of the same
problem on the grid with half the points per axis (nested iteration).
"""

from __future__ import annotations

import csv
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.sparse.linalg import LinearOperator, lgmres

from .errors import ConeViolationError, InputError, NonconvergenceError
from .pointwise import (
    EquationParams,
    cone_margin,
    eigensystem_rel,
    linearization_coefficients,
    residual_inverse_form,
    residual_volume_form,
)
from .symfunc import elementary_sym
from .torus import (
    DENSITY_CONVENTION_SCALE,
    FormField,
    complex_hessian,
    divide_by_symbol,
    form_eigenvalues,
    frozen_symbol,
    holomorphic_gradient,
    integrate_density,
    pack_hermitian,
    packed_hessian,
    prolong,
    restrict,
    total_volume,
)

MODES = ("additive", "multiplicative")


@dataclass(frozen=True)
class EquationSpec:
    """One member of the equation family, discretized.

    additive mode: the unknown scalar multiplies source_field (b * f);
    multiplicative mode: exp(b) multiplies coefficient_field (e^b * g).
    """

    n: int
    m: int
    background: FormField
    omega: FormField
    coefficient_field: np.ndarray
    source_field: np.ndarray
    unknown_mode: str = "additive"

    def __post_init__(self):
        grid = self.background.grid
        if self.omega.grid != grid:
            raise InputError("background and omega must share a grid")
        if self.n != grid.n:
            raise InputError(f"n={self.n} does not match grid dimension {grid.n}")
        if not 0 <= self.m < self.n:
            raise InputError(f"need 0 <= m < n, got m={self.m}")
        if self.unknown_mode not in MODES:
            raise InputError(f"unknown_mode must be one of {MODES}")
        for name in ("coefficient_field", "source_field"):
            vals = np.asarray(getattr(self, name), dtype=np.float64)
            if vals.ndim == 0:
                vals = np.full(grid.shape, float(vals))
            elif vals.shape != grid.shape:
                raise InputError(f"{name} shape {vals.shape} does not match grid")
            if np.min(vals) < 0.0:
                raise InputError(f"{name} must be nonnegative")
            object.__setattr__(self, name, vals)
        if self.unknown_mode == "additive":
            vol = total_volume(self.omega)
            total = integrate_density(self.source_field, self.omega)
            if abs(total - vol) > 1e-8 * vol:
                raise InputError(
                    f"additive mode needs a normalized source density: got {total} vs volume {vol}"
                )

    @property
    def grid(self):
        return self.background.grid

    def restricted(self):
        """This spec on the grid with N/2 points per axis, every field restricted.

        In additive mode the restricted source is renormalized to the coarse
        volume, since the coarse spec checks the normalization too.
        """
        omega = self.omega.restricted()
        source = restrict(self.grid, self.source_field)
        if self.unknown_mode == "additive":
            source = source * (total_volume(omega) / integrate_density(source, omega))
        return replace(
            self,
            background=self.background.restricted(),
            omega=omega,
            coefficient_field=restrict(self.grid, self.coefficient_field),
            source_field=source,
        )


# grids above this N start Newton from the solve on the grid with N/2
COARSEST_N = 16
DAMPING_FLOOR = 2.0**-30
KRYLOV_INNER = 20
KRYLOV_MAXITER = 400
FORCING_MAX = 0.1       # loosest inner relative tolerance
B_COMPAT_FACTOR = 10.0


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-10            # sup-norm residual target
    max_newton: int = 50

    def __post_init__(self):
        if not (self.tol > 0.0 and self.max_newton >= 0):
            raise InputError(f"need tol > 0 and max_newton >= 0, got {self}")


@dataclass(frozen=True)
class SolverState:
    """Converged solve; phi is reported with sup phi = 0."""

    phi: np.ndarray
    b: float
    t: float
    residual_sup: float
    diagnostics: dict
    spec: EquationSpec = field(repr=False)


class _Inadmissible(Exception):
    def __init__(self, count, worst, where):
        self.count = count
        self.worst = worst
        self.where = where
        super().__init__(f"{count} points outside the cone, min eigenvalue {worst:.3e} at {where}")


def strip_kernel_modes(grid, values, keep_mean=False):
    """Project out the spectral Hessian's kernel modes.

    The kernel is exactly the modes whose every axis frequency is 0 or
    Nyquist: all holomorphic multipliers vanish there. Potentials are kept
    orthogonal to all of them, the mean included, and the Newton equation
    rows are projected with keep_mean=True: the mean part is matched by the
    scalar unknown, while the remaining kernel modes
    are invisible to the discrete Hessian, so leaving them in the rows makes
    the linear systems inconsistent and the Krylov iteration stagnates.

    Those modes span the functions of period 2 along every axis, so the
    projection subtracts the mean over each parity class of grid points.
    """
    blocks = np.reshape(values, (grid.N // 2, 2) * (2 * grid.n))
    means = blocks
    for axis in range(0, blocks.ndim, 2):  # one axis at a time: contiguous sums
        means = means.mean(axis=axis, keepdims=True)
    if keep_mean:
        means = means - means.mean()
    return (blocks - means).reshape(grid.shape)


def _eigensystem(spec, phi):
    """Eigensystem of background + Hess(phi) relative to omega, flattened to (P, n)."""
    mats = spec.background.matrices() + complex_hessian(spec.grid, phi)
    flat = mats.reshape(-1, spec.n, spec.n)
    return eigensystem_rel(flat, spec.omega.flat_matrices(), check=False)


def state_eigenvalues(state):
    """Descending eigenvalues (P, n) of a state's X = background + Hess(phi)."""
    return _eigensystem(state.spec, state.phi)[0]


def log_trace(lam):
    """w = log S_1(lam) per point, for eigenvalues lam of shape (P, n)."""
    return np.log(elementary_sym(1, lam))


@dataclass
class _Eval:
    lam: np.ndarray       # (P, n) descending
    vecs: np.ndarray      # (P, n, n) omega-orthonormal columns
    resid: np.ndarray     # (P,) inverse-form residual
    rsup: float
    params: EquationParams
    dresid_db: np.ndarray  # (P,)


def _evaluate(spec, phi, b):
    grid = spec.grid
    lam, vecs = _eigensystem(spec, phi)
    bad = lam[:, -1] <= 0.0
    if np.any(bad):
        worst_flat = int(np.argmin(lam[:, -1]))
        raise _Inadmissible(
            int(np.sum(bad)), float(lam[worst_flat, -1]),
            np.unravel_index(worst_flat, grid.shape),
        )
    coeff = spec.coefficient_field.reshape(-1)
    source = spec.source_field.reshape(-1)
    if spec.unknown_mode == "additive":
        params = EquationParams(spec.n, spec.m, coeff, b * source)
        dresid_db = source * elementary_sym(spec.n, 1.0 / lam)
    else:
        params = EquationParams(spec.n, spec.m, math.exp(b) * coeff, source)
        dresid_db = (
            math.exp(b) * coeff / params.binom
            * elementary_sym(spec.n - spec.m, 1.0 / lam)
        )
    resid = residual_inverse_form(lam, params)
    return _Eval(lam, vecs, resid, float(np.max(np.abs(resid))), params, dresid_db)


def quadrature_b(spec):
    """Integral-identity value of the scalar constant (additive mode)."""
    if spec.unknown_mode != "additive":
        raise InputError("quadrature value of b is an additive-mode notion")
    lam = form_eigenvalues(spec.background, spec.omega).reshape(-1, spec.n)
    detw = np.linalg.det(spec.omega.flat_matrices()).real
    coeff = spec.coefficient_field.reshape(-1)
    binom = math.comb(spec.n, spec.m)
    lhs = (elementary_sym(spec.n, lam) - coeff / binom * elementary_sym(spec.m, lam)) * detw
    num = float(np.mean(lhs)) * DENSITY_CONVENTION_SCALE
    return num / integrate_density(spec.source_field, spec.omega)


def _linear_step(spec, ev, config, rsup_prev):
    """One inexact-Newton linear solve; returns (dphi, db, krylov_iters, info).

    LGMRES solves (A M^-1) y = -R, both sides stripped of the kernel modes but
    the mean, and the step is (dphi, db) = M^-1 y: db = mean(y)/mean(dR/db)
    and dphi = S^-1 (y - db dR/db), with S the frozen symbol, which zeroes
    the kernel modes and so the mean of dphi. The residual LGMRES reduces is
    then the Newton residual that the forcing term bounds.

    info is the LGMRES status: 0 on convergence to the forcing tolerance.
    """
    grid = spec.grid
    n = spec.n
    P = grid.npoints
    a = linearization_coefficients(ev.lam, ev.params)
    amat = np.einsum("pij,pj,pkj->pik", ev.vecs, a, np.conj(ev.vecs))
    # A packed once per step, off-diagonals doubled, so that tr(A Hess) =
    # sum_j A_jj H_jj + 2 sum_{j<k} (Re A_jk Re H_jk + Im A_jk Im H_jk)
    # is one real contraction with the packed Hessian
    weights = np.ascontiguousarray(np.moveaxis(pack_hermitian(amat) * (2.0 - np.eye(n)), 0, -1))
    del amat  # the Krylov solve needs only the packed copy
    col = ev.dresid_db.reshape(grid.shape)
    col_mean = float(np.mean(col))
    # constant-coefficient symbol: sum_j abar_j |p_j|^2 diagonalizes the
    # frozen operator in Fourier space; kernel modes share the Hessian's
    abar = [max(float(np.mean(weights[j, j])), 1e-300) for j in range(n)]
    symbol = frozen_symbol(grid, abar)

    def matvec(y):
        y = y.reshape(grid.shape)
        db = float(np.mean(y)) / col_mean
        hess = packed_hessian(grid, y - db * col, symbol).reshape(n, n, P)
        trace = np.einsum("jkp,jkp->p", weights, hess).reshape(grid.shape)
        return strip_kernel_modes(grid, col * db - trace, keep_mean=True).reshape(-1)

    op = LinearOperator((P, P), matvec=matvec, dtype=np.float64)
    rhs = strip_kernel_modes(grid, -ev.resid.reshape(grid.shape), keep_mean=True).reshape(-1)
    # Eisenstat-Walker style forcing, floored so inner error cannot block
    # the outer target
    eta = FORCING_MAX
    if np.isfinite(rsup_prev) and rsup_prev > 0.0:
        eta = min(FORCING_MAX, 0.5 * (ev.rsup / rsup_prev) ** 2)
    eta = max(eta, min(FORCING_MAX, 0.25 * config.tol / ev.rsup))
    nit = 0

    def count(_):
        nonlocal nit
        nit += 1

    y, info = lgmres(
        op, rhs, rtol=eta, atol=0.0,
        inner_m=KRYLOV_INNER, maxiter=KRYLOV_MAXITER, callback=count,
    )
    y = y.reshape(grid.shape)
    db = float(np.mean(y)) / col_mean
    dphi = strip_kernel_modes(grid, divide_by_symbol(grid, symbol, y - db * col))
    return dphi, db, nit, info


def _coarse_solution(spec, path, config, t):
    """The solve on the grid with N/2 points per axis, or None if it left the cone.

    The spec and the path states are restricted by injection (a path state
    is read for phi, b and t only) and solved through the module-level
    newton_solve, which recurses down to COARSEST_N. A coarse solve that
    stops short still hands over its last iterate.
    """
    coarse_path = [replace(s, phi=restrict(spec.grid, s.phi)) for s in path]
    try:
        return newton_solve(spec.restricted(), init=coarse_path, config=config, t=t)
    except NonconvergenceError as err:
        return err.state
    except ConeViolationError:
        return None


def _predictions(spec, path, config, t):
    """Starts (phi, b) to try in order, best first.

    The prolonged coarse solution (N > COARSEST_N), then the secant in t
    through the last two path states, then the warm start from the last
    state, or the cold one (phi = 0, b = 0) on an empty path. Each is
    computed only once the one before it has left the cone.
    """
    grid = spec.grid
    if grid.N > COARSEST_N:
        coarse = _coarse_solution(spec, path, config, t)
        if coarse is not None:
            yield strip_kernel_modes(grid, prolong(coarse.spec.grid, coarse.phi)), coarse.b
    if len(path) > 1 and all(map(math.isfinite, (t, path[-2].t, path[-1].t))):
        s0, s1 = path[-2], path[-1]
        if s0.t != s1.t:
            r = (t - s1.t) / (s1.t - s0.t)
            phi1 = np.asarray(s1.phi, dtype=np.float64)
            phi = strip_kernel_modes(grid, phi1 + r * (phi1 - np.asarray(s0.phi, dtype=np.float64)))
            yield phi, float(s1.b + r * (s1.b - s0.b))
    if path:
        yield strip_kernel_modes(grid, np.asarray(path[-1].phi, dtype=np.float64)), float(path[-1].b)
    else:
        yield np.zeros(grid.shape), 0.0


def newton_solve(spec, init=None, config=None, t=math.nan):
    """Drive the inverse-form residual to zero; returns the converged state.

    init is None (cold start: the zero potential), a prior SolverState (warm
    start), or the path so far as a sequence of SolverStates in t order.

    On a grid with N > COARSEST_N, Newton first solves the same problem on
    the grid with N/2 points per axis (spec and path restricted by
    injection, recursing down to COARSEST_N) and starts from that solution,
    prolonged by spectral interpolation; a coarse solve that stops short
    still hands over its last iterate. Otherwise, or when the coarse solve
    or its prolongation leaves the cone: with two states at finite, distinct
    t and a finite target t, Newton starts from the secant extrapolation in
    t through the last two,

        r = (t - t1)/(t1 - t0),  phi = phi1 + r (phi1 - phi0),  b = b1 + r (b1 - b0),

    and falls back to the warm start from the last state when that
    prediction leaves the cone. A shorter path, or one without that spacing,
    gives the warm start (or the cold start when empty). In additive mode
    every start takes b from quadrature_b, the value the converged b must
    match anyway; in multiplicative mode the cold start takes b = 0.

    The state's newton_iters and krylov_iters count the work on this grid
    only, not the coarse solves'.
    """
    config = config or SolverConfig()
    path = init if isinstance(init, Sequence) else [] if init is None else [init]
    bq = quadrature_b(spec) if spec.unknown_mode == "additive" else None
    for phi, b in _predictions(spec, path, config, t):
        b = b if bq is None else bq
        try:
            ev = _evaluate(spec, phi, b)
            break
        except _Inadmissible as err:
            bad = err  # this start left the cone: try the next one
    else:
        raise ConeViolationError(
            f"initial state leaves the cone: {bad}",
            detail={"count": bad.count, "min_eig": bad.worst, "where": bad.where},
        )

    iters = 0
    krylov_total = 0
    rsup_prev = math.inf
    while ev.rsup > config.tol:
        if iters >= config.max_newton:
            raise NonconvergenceError(
                f"no convergence in {config.max_newton} Newton steps (residual {ev.rsup:.3e})",
                state=_make_state(spec, phi, b, t, ev, iters, krylov_total),
            )
        dphi, db, nit, info = _linear_step(spec, ev, config, rsup_prev)
        krylov_total += nit
        tau = 1.0
        while True:
            cand_phi = phi + tau * dphi
            cand_b = b + tau * db
            try:
                cand = _evaluate(spec, cand_phi, cand_b)
            except (_Inadmissible, InputError):
                cand = None
            if cand is not None and cand.rsup < ev.rsup:
                break
            tau *= 0.5
            if tau < DAMPING_FLOOR:
                # an unconverged inner solve may give no descent direction
                note = f" after an LGMRES solve that stopped short (info {info})" if info else ""
                raise NonconvergenceError(
                    f"damping floor reached at residual {ev.rsup:.3e}{note}",
                    state=_make_state(spec, phi, b, t, ev, iters, krylov_total),
                )
        rsup_prev = ev.rsup
        phi, b, ev = cand_phi, cand_b, cand
        iters += 1

    if bq is not None:
        budget = B_COMPAT_FACTOR * config.tol
        if abs(b - bq) > budget:
            raise NonconvergenceError(
                f"converged b={b!r} disagrees with quadrature value {bq!r} beyond {budget:.1e}",
                state=_make_state(spec, phi, b, t, ev, iters, krylov_total),
            )
    return _make_state(spec, phi, b, t, ev, iters, krylov_total)


def _gradient_sq(spec, phi):
    """Pointwise squared omega-norm of the holomorphic gradient, shape (P,)."""
    grad = holomorphic_gradient(spec.grid, phi).reshape(-1, spec.n)
    ginv = np.linalg.inv(spec.omega.flat_matrices())
    return np.einsum("...kj,...j,...k->...", ginv, grad, np.conj(grad)).real


def _make_state(spec, phi, b, t, ev, iters, krylov_total):
    phi_out = phi - float(np.max(phi))
    lam = ev.lam
    coeff = ev.params.coefficient
    sn = elementary_sym(spec.n, lam)
    vol_resid = residual_volume_form(lam, ev.params)
    diag = {
        "sup_phi": float(np.max(np.abs(phi_out))),
        "sup_grad": math.sqrt(float(np.max(_gradient_sq(spec, phi)))),
        "sup_w": float(np.max(log_trace(lam))),
        "min_eig": float(np.min(lam[:, -1])),
        "min_margin": float(np.min(cone_margin(lam, coeff, spec.m))),
        "newton_iters": iters,
        "krylov_iters": krylov_total,
        "volume_resid_rel": float(np.max(np.abs(vol_resid) / sn)),
    }
    return SolverState(phi_out, float(b), float(t), ev.rsup, diag, spec)


def diagnostics(state):
    """A priori estimate monitors for one converged state.

    Reports the sup norms entering the gradient and second-order bounds and
    the fitted slopes of ln|grad phi|^2 and ln w against (phi - inf phi),
    the exponent shape those bounds predict.
    """
    phi = np.asarray(state.phi)
    grad_sq = _gradient_sq(state.spec, phi)
    w = log_trace(state_eigenvalues(state))
    shifted = (phi - float(np.min(phi))).reshape(-1)

    def slope(y_log_arg, mask):
        if int(np.sum(mask)) < 2 or np.ptp(shifted[mask]) == 0.0:
            return math.nan
        return float(np.polyfit(shifted[mask], np.log(y_log_arg[mask]), 1)[0])

    return {
        "sup_phi": float(np.max(np.abs(phi))),
        "sup_grad_sq": float(np.max(grad_sq)),
        "sup_w": float(np.max(w)),
        "slope_grad_sq": slope(grad_sq, grad_sq > 1e-300),
        "slope_w": slope(w, w > 0.0),
        "residual_sup": state.residual_sup,
        "b": state.b,
    }


@dataclass(frozen=True)
class PathResult:
    states: list
    failed_t: float | None = None
    failure: str = ""

    @property
    def complete(self):
        return self.failed_t is None


def continuation_path(spec_family, schedule, config=None):
    """Solves along a decreasing t schedule, each started from the path so far.

    The first solve starts cold, the second warm from the first state, and
    every later one from the secant prediction through the last two states
    (see newton_solve). A failing solve truncates the path: the states
    reached so far come back with the failing t and reason recorded, since
    partial paths are exactly what degenerate instances produce.
    """
    schedule = [float(t) for t in schedule]
    if not schedule or any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise InputError("schedule must be strictly decreasing")
    if schedule[0] > 1.0 or schedule[-1] <= 0.0:
        raise InputError("schedule must lie in (0, 1]")
    states = []
    for t in schedule:
        spec = spec_family(t)
        try:
            states.append(newton_solve(spec, init=states, config=config, t=t))
        except (NonconvergenceError, ConeViolationError) as err:
            return PathResult(states, failed_t=t, failure=str(err))
    return PathResult(states)


PATH_CSV_COLUMNS = (
    "t", "b", "residual_sup", "sup_phi", "sup_grad", "sup_w",
    "min_eig", "min_margin", "newton_iters",
)


def write_path_csv(path, result):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PATH_CSV_COLUMNS)
        for st in result.states:
            d = st.diagnostics
            row = [st.t, st.b, st.residual_sup] + [
                d[k] for k in PATH_CSV_COLUMNS[3:]
            ]
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else str(v) for v in row])


@dataclass(frozen=True)
class StabilityRecord:
    sup_diff: float
    positive_part_norm: float
    c_implied: float
    q: float
    q_star: float


def stability_compare(run1, run2, q):
    """Empirical form of the L^{q*} stability bound between two solves."""
    if q <= 1.0:
        raise InputError(f"q must exceed 1, got {q}")
    if run1.spec.grid != run2.spec.grid:
        raise InputError("stability comparison needs a shared grid")
    n = run1.spec.n
    q_star = q / (q - 1.0)
    diff = np.asarray(run2.phi) - np.asarray(run1.phi)
    sup_diff = float(np.max(diff))
    pos = np.maximum(diff, 0.0)
    norm = integrate_density(pos**q_star, run1.spec.omega) ** (1.0 / q_star)
    c_implied = 0.0 if norm == 0.0 else sup_diff / norm ** (1.0 / (n + 1.0))
    return StabilityRecord(sup_diff, float(norm), float(c_implied), q, q_star)


def uniqueness_gap(phi1, phi2, ample_mask):
    """Sup deviation of phi1 - phi2 from constancy over the marked region."""
    mask = np.asarray(ample_mask, dtype=bool)
    if not mask.any():
        raise InputError("ample mask is empty")
    diff = (np.asarray(phi1) - np.asarray(phi2))[mask]
    return float(np.max(np.abs(diff - np.mean(diff))))


def volume_lower_bound_check(state, c):
    """min over the grid of S_n(lam(X)) - c^(n/(n-m)) for a converged state."""
    spec = state.spec
    floor = c ** (spec.n / (spec.n - spec.m))
    return float(np.min(elementary_sym(spec.n, state_eigenvalues(state))) - floor)
