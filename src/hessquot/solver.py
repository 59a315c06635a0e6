"""Damped Newton continuation for the quotient equation family on torus grids.

The iteration works on the inverse-eigenvalue residual, which is concave in
admissible directions, with the potential (mean-zero) and the scalar constant
solved jointly: each step solves the linear system

    -tr(A(x) Hess(dphi)(x)) + (dR/db)(x) db = -R(x)    at every grid point

by one GMRES cycle (LGMRES restarts it when the cycle falls short),
right-preconditioned by the constant-coefficient inverse, which gives
mean(dphi) = 0; Hess is the spectral complex Hessian. R, dR/db and A
are polynomials of X's packed fields: S_n = det X, S_1 = tr X and, at n = 3,
S_2 = tr adj X (relative to omega), and A is R's matrix gradient, built from
adj X with no eigenvalue or eigenvector. Backtracking keeps every accepted
iterate admissible (X > 0 pointwise, by Sylvester's minors) and strictly
decreases the sup residual. Starts and steps live in the Fourier subspace
complementary to the Hessian's kernel (modes with every axis frequency at 0
or Nyquist), where the linearized systems are nonsingular; each potential
is shifted by a constant to sup 0 before it is evaluated. Newton can
reduce only the residual's part in the Hessian's range; a solve whose
residual is above tol while that part is within it stops there, at its
aliasing floor, with AliasingFloorError. A continuation solve starts from
the secant in t through the last two path states. Above COARSEST_N points
per axis, a solve without that start, or whose secant start leaves the
cone, starts from the solve of the same problem on the grid with half the
points per axis (nested iteration), which hands over its state even when
it stopped at its floor.
A spec's fields broadcast against its grid in the shape they were built
in, and the spec checks omega once, where it is built; so the invariant
subtorus of the data and the starting potentials is the grid of their
broadcast shape (torus.subtorus), and each solve runs there with no scan:
every Newton iterate is constant where they are. Both grid changes, to the
subtorus and to the coarse grid, inject every field onto a sub-lattice of
its grid at that grid's shape (torus.inject, through the specs' on). A
state's phi keeps the solve's shape, which broadcasts against the spec's
grid.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from types import SimpleNamespace

import numpy as np
from scipy.sparse.linalg import LinearOperator, lgmres

from .errors import AliasingFloorError, ConeViolationError, InputError, NonconvergenceError
from .pointwise import (
    cone_margin,
    packed_adjugate,
    packed_eigenvalues,
    packed_sym_gradient,
    unpack_hermitian,
)
from .symfunc import elementary_sym
from .torus import (
    FormField,
    _field,
    _flat,
    _inverse_metric,
    _mixed,
    _require_metric,
    _trusted_replace,
    divide_by_symbol,
    frozen_symbol,
    hessian_trace,
    holomorphic_gradient,
    integrate_density,
    inject,
    prolong,
    subtorus,
)

MODES = ("additive", "multiplicative")


@dataclass(frozen=True)
class EquationSpec:
    """One member of the equation family, discretized.

    additive mode: the unknown scalar multiplies source_field (b * f);
    multiplicative mode: exp(b) multiplies coefficient_field (e^b * g).
    Both fields broadcast against the grid (a scalar is one point) and keep
    the shape they are given. Building the spec also checks, once per spec,
    that omega is positive definite, that the background's class integrals
    are finite and, in multiplicative mode, that the coefficient is not
    zero at every point. The spec keeps the integrals those checks compute
    for quadrature_b: the background's classes and, in additive mode, the
    volume and the source's total.
    """

    n: int
    m: int
    background: FormField
    omega: FormField
    coefficient_field: np.ndarray
    source_field: np.ndarray
    unknown_mode: str = "additive"
    # [int bg^m wedge omega^(n-m), int bg^n]; then, in additive mode only,
    # int omega^n and int f omega^n (None in multiplicative mode)
    _classes: list = field(init=False, repr=False, compare=False, default=None)
    _volume: float = field(init=False, repr=False, compare=False, default=None)
    _source_total: float = field(init=False, repr=False, compare=False, default=None)

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
            vals = _field(grid, getattr(self, name), name)
            if np.min(vals) < 0.0:
                raise InputError(f"{name} must be nonnegative")
            object.__setattr__(self, name, vals)
        _require_metric(self.omega)
        # an overflow here is the input's, and is reported as such
        with np.errstate(over="ignore", invalid="ignore"):
            classes = [_mixed(self.background, k, self.omega) for k in (self.m, self.n)]
        if not all(map(math.isfinite, classes)):
            raise InputError(f"the background's class integrals are not finite: {classes}")
        object.__setattr__(self, "_classes", classes)
        if self.unknown_mode == "additive":
            vol = _mixed(self.omega, 0, self.omega)
            total = integrate_density(self.source_field, self.omega)
            if abs(total - vol) > 1e-8 * vol:
                raise InputError(
                    f"additive mode needs a normalized source density: got {total} vs volume {vol}"
                )
            object.__setattr__(self, "_volume", vol)
            object.__setattr__(self, "_source_total", total)
        elif not np.any(self.coefficient_field):
            # dR/db = kappa S_m / S_n vanishes with g, so b would drop out of the equation
            raise InputError("multiplicative mode needs a coefficient_field that is nonzero somewhere")

    @property
    def grid(self):
        return self.background.grid

    def on(self, grid):
        """This spec on grid, a sub-lattice of its own grid: every field injected at grid's shape.

        In additive mode the injected source is renormalized to the volume,
        since its mean moves on a coarser grid, and the new spec keeps that
        source's own total. The checks the spec passed where it was built
        carry over, and so do its class integrals and volume, which read
        only the forms' constant parts. This spec itself comes back when
        every field already has grid's shape.
        """
        fields = (
            self.background.potential, self.omega.potential,
            self.coefficient_field, self.source_field,
        )
        if grid == self.grid and all(f is None or f.shape == grid.shape for f in fields):
            return self
        omega = self.omega.on(grid)
        source = inject(grid, self.source_field)
        total = None
        if self.unknown_mode == "additive":
            source = source * (self._volume / integrate_density(source, omega))
            total = integrate_density(source, omega)
        return _trusted_replace(
            self, background=self.background.on(grid), omega=omega,
            coefficient_field=inject(grid, self.coefficient_field), source_field=source,
            _source_total=total,
        )


# grids above this N start Newton from the solve on the grid with N/2,
# unless a secant start inside the cone comes first
COARSEST_N = 8
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
    """Converged solve; phi is the potential Newton last evaluated, sup phi = 0.

    phi's shape broadcasts against spec's grid: one point on each axis along
    which the data and the starting potentials are constant.
    """

    phi: np.ndarray
    b: float
    t: float
    residual_sup: float
    diagnostics: Mapping
    spec: EquationSpec = field(repr=False)


DIAGNOSTIC_KEYS = (
    "sup_phi", "sup_grad", "sup_w", "min_eig", "min_margin",
    "newton_iters", "krylov_iters",
)


class Diagnostics(Mapping):
    """A state's diagnostics, keyed by DIAGNOSTIC_KEYS; read-only.

    sup_phi and the two counts are set at once. The first read of any other
    key computes the four eigenvalue and gradient diagnostics together from
    x, the packed X the solve evaluated at phi on its subtorus, and the
    pointwise coefficient there, and keeps them and the eigenvalues; x is
    then dropped.
    """

    def __init__(self, spec, phi, x, coefficient, newton_iters, krylov_iters):
        self.spec, self.phi, self._x, self._coefficient = spec, phi, x, coefficient
        self._values = {
            "sup_phi": float(np.max(np.abs(phi))),
            "newton_iters": newton_iters,
            "krylov_iters": krylov_iters,
        }

    @cached_property
    def eigenvalues(self):
        """Descending eigenvalues of X relative to omega, shape phi.shape + (n,), on first read."""
        lam = packed_eigenvalues(self._x, _flat(self.spec.omega.packed()))
        lam = lam.reshape(self.phi.shape + (-1,))
        self._x = None
        lam.flags.writeable = False
        return lam

    def __getitem__(self, key):
        if key not in self._values and key in DIAGNOSTIC_KEYS:
            spec = self.spec
            lam = self.eigenvalues
            coefficient = self._coefficient.reshape(spec.grid.shape)
            self._values.update({
                "sup_grad": math.sqrt(float(np.max(_gradient_sq(spec, self.phi)))),
                "sup_w": float(np.max(np.log(elementary_sym(1, lam)))),
                "min_eig": float(np.min(lam[..., -1])),
                "min_margin": float(np.min(cone_margin(lam, coefficient, spec.m))),
            })
        return self._values[key]

    def __contains__(self, key):
        return key in DIAGNOSTIC_KEYS

    def __iter__(self):
        return iter(DIAGNOSTIC_KEYS)

    def __len__(self):
        return len(DIAGNOSTIC_KEYS)


class _Inadmissible(Exception):
    """A trial point outside the cone (or at b < 0 in additive mode); its one argument is its packed X."""


def strip_kernel_modes(grid, values, keep_mean=False):
    """Project out the spectral Hessian's kernel modes.

    The kernel is exactly the modes whose every axis frequency is 0 or
    Nyquist: all holomorphic multipliers vanish there. Starts and steps are
    kept orthogonal to all of them, the mean included (an evaluated
    potential only adds the constant that puts its sup at 0), and the
    Newton equation rows are projected with keep_mean=True: the mean part
    is matched by the scalar unknown, while the remaining kernel modes are
    invisible to the discrete Hessian, so leaving them in the rows makes
    the linear systems inconsistent and the Krylov iteration stagnates.

    Those modes span the functions of period 2 along every axis, so the
    projection subtracts the mean over each parity class of grid points (a
    constant axis of a subtorus grid is one point, its own parity class).
    """
    pairs = [(size // 2, 2) if size > 1 else (1, 1) for size in grid.shape]
    blocks = np.reshape(values, sum(pairs, ()))
    means = blocks
    # one axis at a time (contiguous sums), the bits of .mean per axis; an
    # axis of one block is its own mean. add.reduce / size is np.mean's
    # result without its Python wrapper, which dominates at 16 points
    for axis, size in enumerate(blocks.shape):
        if axis % 2 == 0 and size > 1:
            means = np.add.reduce(means, axis=axis, keepdims=True) / size
    if keep_mean:
        means = means - np.add.reduce(means, axis=None) / means.size
    return (blocks - means).reshape(grid.shape)


@dataclass
class _Eval:
    resid: np.ndarray       # (P,) inverse-form residual
    rsup: float
    dresid_db: np.ndarray   # (P,)
    coefficients: Callable  # () -> packed (n, n, P) coefficient matrix A
    grid: object            # the TorusGrid of the fields
    x: np.ndarray           # packed (n, n, P) X
    coefficient: np.ndarray  # (P,) pointwise coefficient: c, or e^b g

    @cached_property
    def range_resid(self):
        """(P,) residual part in the Hessian's range, all Newton can reduce; on first read."""
        grid = self.grid
        return strip_kernel_modes(grid, self.resid.reshape(grid.shape), keep_mean=True).reshape(-1)


def _evaluate(spec, phi, b, metric):
    """Residual, dR/db and the Newton coefficients at (phi, b), from polynomials of X.

    metric is (omega^-1, det omega) of spec's omega, as _omega_metric builds it.

    With S_k of X's eigenvalues relative to omega (S_n = det X / det omega)
    and kappa = coefficient / C(n, m): R = (kappa S_m + f) / S_n - 1 and
    A = (R + 1) adj X / det X - kappa grad S_m / S_n, so that -dR = tr(A dX).
    X's leading principal minors are checked first (Sylvester): a point
    outside the cone raises _Inadmissible(X) before any division by det X, as
    does b < 0 in additive mode (b f is the source; the spec checked f's sign).
    """
    n = spec.n
    x = spec.background.packed(phi).reshape(n, n, -1)
    adj, det = packed_adjugate(x)
    if not min(np.min(x[0, 0]), np.min(adj[-1, -1]), np.min(det)) > 0.0:
        raise _Inadmissible(x)
    del adj  # coefficients() rebuilds it from x, so the two are not held at once
    inv_metric, det_metric = metric
    s_n = det / det_metric
    s_m, grad = packed_sym_gradient(spec.m, x, inv_metric)
    coeff = spec.coefficient_field.reshape(-1)
    source = spec.source_field.reshape(-1)
    if spec.unknown_mode == "additive":
        if b < 0.0:
            raise _Inadmissible(x)
        coefficient, rhs = coeff, b * source
    else:
        coefficient, rhs = math.exp(b) * coeff, source
    kappa = coefficient / math.comb(n, spec.m)
    ratio = (kappa * s_m + rhs) / s_n
    resid = ratio - 1.0
    dresid_db = source / s_n if spec.unknown_mode == "additive" else kappa * s_m / s_n

    def coefficients():
        return ratio / det * packed_adjugate(x)[0] - kappa / s_n * grad

    rsup = float(np.max(np.abs(resid)))
    return _Eval(resid, rsup, dresid_db, coefficients, spec.grid, x, coefficient)


def _omega_metric(spec):
    """(omega^-1, det omega) of spec's omega, packed on a flat batch axis, for _evaluate."""
    return _inverse_metric(spec.omega.packed().reshape(spec.n, spec.n, -1))


def quadrature_b(spec):
    """The scalar constant of the integral identity (additive mode).

    Integrating S_n(X) = kappa S_m(X) + b f against omega^n over the torus
    gives b. With a constant coefficient both X terms are class integrals,
    the same for X as for the closed background (Stokes), so b is
    (int bg^n - c int bg^m wedge omega^(n-m)) / int f omega^n, read off
    the integrals the spec computed in its own checks (see EquationSpec):
    no transform, no eigenvalue and no grid sum. A varying coefficient
    raises InputError: int kappa S_m(X) omega^n then moves with the
    potential, so no value computed before the solve fixes b. So does a b
    that is not finite, or negative: b f is the source, which must be
    nonnegative.
    """
    if spec.unknown_mode != "additive":
        raise InputError("quadrature value of b is an additive-mode notion")
    coeff = spec.coefficient_field
    c = coeff.flat[0]
    if not np.all(coeff == c):
        raise InputError(
            "additive mode needs a constant coefficient: with a varying one the"
            " integral of its S_m term moves with the potential, so b has no quadrature value"
        )
    mixed_m, mixed_n = spec._classes
    b = (mixed_n - float(c) * mixed_m) / spec._source_total
    if not math.isfinite(b):
        raise InputError(f"the quadrature value of b is not finite: {b!r}")
    if b < 0.0:
        raise InputError(f"the quadrature value of b is negative: {b!r}; the source b f must be >= 0")
    return b


def _gmres_cycle(op, rhs, rtol):
    """One GMRES cycle for op y = rhs from y = 0; returns (y, converged).

    Arnoldi with modified Gram-Schmidt runs for up to KRYLOV_INNER steps.
    Givens rotations keep the small least-squares problem triangular, so its
    residual norm, which is the true residual's in exact arithmetic, is known
    after every step without another product (Saad & Schultz, SIAM J. Sci.
    Stat. Comput. 7, 1986). The cycle stops once that norm is at most
    rtol |rhs|, the test LGMRES's inner loop applies, or when the basis
    breaks down; y is summed in place from the basis.
    """
    beta = float(np.linalg.norm(rhs))
    if beta == 0.0:
        return np.zeros_like(rhs), True
    target = rtol * beta
    eps = float(np.finfo(np.float64).eps)
    basis = [rhs / beta]
    # the Hessenberg columns, the rotations and g as Python floats, the same
    # IEEE doubles as numpy's scalars without their per-operation cost
    columns = []
    rotations = []
    g = [beta]
    for j in range(KRYLOV_INNER):
        w = op.matvec(basis[j])
        w_norm = float(np.linalg.norm(w))
        h = []
        for v in basis:
            h.append(float(v @ w))
            w -= h[-1] * v
        h.append(float(np.linalg.norm(w)))
        breakdown = not h[j + 1] > eps * w_norm
        if not breakdown:
            w /= h[j + 1]
            basis.append(w)
        for i, (c, s) in enumerate(rotations):
            h[i], h[i + 1] = c * h[i] + s * h[i + 1], c * h[i + 1] - s * h[i]
        r = math.hypot(h[j], h[j + 1])
        # a zero pivot reduces nothing: (0, 1) keeps the residual estimate
        c, s = (h[j] / r, h[j + 1] / r) if r > 0.0 else (0.0, 1.0)
        rotations.append((c, s))
        h[j], h[j + 1] = r, 0.0
        columns.append(h)
        g.append(-s * g[j])
        g[j] *= c
        if abs(g[j + 1]) <= target or breakdown:
            break
    k = len(rotations)
    upper = np.zeros((k, k))
    for j, h in enumerate(columns):
        upper[: j + 1, j] = h[: j + 1]
    # triangular; lstsq, as in LGMRES, also copes with a zero pivot
    coef = np.linalg.lstsq(upper, g[:k])[0]
    y = basis[0]
    y *= coef[0]
    for v, a in zip(basis[1:k], coef[1:]):
        y += a * v
    return y, abs(g[k]) <= target


def _linear_step(spec, ev, config, rsup_prev):
    """One inexact-Newton linear solve; returns (dphi, db, krylov_iters, info).

    One GMRES cycle from y = 0 solves (A M^-1) y = -R, both sides stripped of
    the kernel modes but the mean, and the step is (dphi, db) = M^-1 y:
    db = mean(y)/mean(dR/db) and dphi = S^-1 (y - db dR/db), with S the
    frozen symbol, which zeroes the kernel modes and so the mean of dphi. The
    residual the cycle reduces is then the Newton residual that the forcing
    term bounds. Only a cycle that stops short hands its y to LGMRES, whose
    augmented restarts (Baker, Jessup & Manteuffel, SIAM J. Matrix Anal.
    Appl. 26, 2005) go on from there.

    krylov_iters counts operator applications. info is the LGMRES status: 0
    when the cycle or LGMRES met the forcing tolerance.
    """
    grid = spec.grid
    n = spec.n
    P = grid.npoints
    # A packed once per step, off-diagonals doubled, so that tr(A Hess) =
    # sum_j A_jj H_jj + 2 sum_{j<k} (Re A_jk Re H_jk + Im A_jk Im H_jk)
    # is one real contraction with the packed Hessian
    weights = ev.coefficients()
    weights *= (2.0 - np.eye(n))[..., None]
    col = ev.dresid_db.reshape(grid.shape)
    col_mean = float(np.add.reduce(col, axis=None) / col.size)
    # constant-coefficient symbol: sum_j abar_j |p_j|^2 diagonalizes the
    # frozen operator in Fourier space; kernel modes share the Hessian's
    abar = [max(float(np.add.reduce(weights[j, j]) / P), 1e-300) for j in range(n)]
    symbol = frozen_symbol(grid, abar)
    products = 0

    def matvec(y):
        nonlocal products
        products += 1
        y = y.reshape(grid.shape)
        db = float(np.add.reduce(y, axis=None) / y.size) / col_mean
        trace = hessian_trace(grid, weights, y - db * col, symbol)
        return strip_kernel_modes(grid, col * db - trace, keep_mean=True).reshape(-1)

    op = LinearOperator((P, P), matvec=matvec, dtype=np.float64)
    rhs = -ev.range_resid
    # forcing term: the residual-scaled eta = min(eta_max, |R|) of Dembo,
    # Eisenstat & Steihaug (SIAM J. Numer. Anal. 19, 1982) on a solve's first
    # step, where there is no previous residual, so that a warm start near
    # the solution is finished in one step; then Eisenstat & Walker's ratio
    # (SIAM J. Sci. Comput. 17, 1996). Floored so inner error cannot block
    # the outer target.
    eta = min(FORCING_MAX, ev.rsup)
    if np.isfinite(rsup_prev) and rsup_prev > 0.0:
        eta = min(FORCING_MAX, 0.5 * (ev.rsup / rsup_prev) ** 2)
    eta = max(eta, min(FORCING_MAX, 0.25 * config.tol / ev.rsup))
    y, converged = _gmres_cycle(op, rhs, eta)
    info = 0
    if not converged:
        y, info = lgmres(
            op, rhs, x0=y, rtol=eta, atol=0.0, inner_m=KRYLOV_INNER, maxiter=KRYLOV_MAXITER,
        )
    y = y.reshape(grid.shape)
    db = float(np.add.reduce(y, axis=None) / y.size) / col_mean
    dphi = strip_kernel_modes(grid, divide_by_symbol(grid, symbol, y - db * col))
    return dphi, db, products, info


def _coarse_solution(spec, path, config, t):
    """The solve on the grid with N/2 points per axis, or None if it left the cone.

    Asked for only when there is no secant start or it left the cone. The
    spec and the path states are moved there by torus.inject, every other
    point per axis, and solved through the module-level newton_solve, which
    recurses down to COARSEST_N. A coarse solve that stops short, at its
    aliasing floor or otherwise, still hands over its last iterate.
    """
    coarse = spec.on(replace(spec.grid, N=spec.grid.N // 2))
    coarse_path = [SimpleNamespace(phi=inject(coarse.grid, s.phi), b=s.b, t=s.t) for s in path]
    try:
        return newton_solve(coarse, init=coarse_path, config=config, t=t)
    except NonconvergenceError as err:
        return err.state
    except ConeViolationError:
        return None


def _predictions(spec, path, config, t):
    """Starts (phi, b) to try in order, best first.

    The secant in t through the last two path states, then the prolonged
    coarse solution (N > COARSEST_N), then the warm start from the last
    state, or the cold one (phi = 0, b = 0) on an empty path. Each is
    computed only once the one before it has left the cone, so a secant
    start inside the cone runs no coarse solve.
    """
    grid = spec.grid
    if len(path) == 2 and all(map(math.isfinite, (t, path[0].t, path[1].t))):
        s0, s1 = path
        if s0.t != s1.t:
            r = (t - s1.t) / (s1.t - s0.t)
            phi = strip_kernel_modes(grid, s1.phi + r * (s1.phi - s0.phi))
            yield phi, float(s1.b + r * (s1.b - s0.b))
    if grid.N > COARSEST_N:
        coarse = _coarse_solution(spec, path, config, t)
        if coarse is not None:
            yield strip_kernel_modes(grid, prolong(coarse.spec.grid, coarse.phi)), coarse.b
    if path:
        yield strip_kernel_modes(grid, path[-1].phi), float(path[-1].b)
    else:
        yield np.zeros(grid.shape), 0.0


def newton_solve(spec, init=None, config=None, t=math.nan):
    """Drive the inverse-form residual to zero; returns the converged state.

    init is None (cold start: the zero potential), a prior SolverState (warm
    start), or the path so far as a sequence of SolverStates in t order.

    With two states at finite, distinct t and a finite target t, Newton
    starts from the secant extrapolation in t through the last two,

        r = (t - t1)/(t1 - t0),  phi = phi1 + r (phi1 - phi0),  b = b1 + r (b1 - b0).

    Otherwise, or when that prediction leaves the cone, on a grid with
    N > COARSEST_N Newton first solves the same problem on the grid with
    N/2 points per axis (spec and path injected onto it, recursing down to
    COARSEST_N) and starts from that solution, prolonged by spectral
    interpolation; a coarse solve that stops short still hands over its
    last iterate. When there is no coarse solve, or it or its prolongation
    leaves the cone, Newton takes the warm start from the last state (or
    the cold start on an empty path). In additive mode every start takes b
    from quadrature_b, the value the converged b must match anyway: the
    class integral, by Stokes, which the grid sum of the converged state
    meets up to aliasing; quadrature_b runs before any Newton work, so a
    varying coefficient, which it rejects, raises InputError up front. In
    multiplicative mode the cold start takes b = 0. Every start and trial
    is shifted to sup phi = 0 before it is evaluated, so a state's phi is
    the potential whose X its diagnostics read.

    Newton stops with AliasingFloorError, a NonconvergenceError carrying
    the state, at its aliasing floor: the residual is above config.tol while
    its part in the Hessian's range (kernel modes but the mean stripped),
    all a step can lower, is within it. It stops with NonconvergenceError
    after config.max_newton steps, at the damping floor, or when the start's
    residual is not finite.

    The solve, nested iteration included, runs on the subtorus of the data
    and of the last two path states' phi (all a start reads), the grid of
    their broadcast shape. The states keep its shape, and their spec is the
    one passed in; a ConeViolationError's count and point are on spec's
    grid. The state's newton_iters and krylov_iters count the work on this
    grid only, not the coarse solves'.
    """
    config = config or SolverConfig()
    path = (init if isinstance(init, Sequence) else [] if init is None else [init])[-2:]
    bq = quadrature_b(spec) if spec.unknown_mode == "additive" else None
    full = spec
    grid = subtorus(full.grid, [
        full.background.potential, full.omega.potential, full.coefficient_field,
        full.source_field, *(s.phi for s in path),
    ])
    spec = full.on(grid)
    # a path state is read for phi, b and t only; a missing t reads as nan (the warm start)
    path = [
        SimpleNamespace(phi=inject(grid, s.phi), b=s.b, t=getattr(s, "t", math.nan))
        for s in path
    ]
    metric = _omega_metric(spec)
    for phi, b in _predictions(spec, path, config, t):
        phi = phi - np.max(phi)
        b = b if bq is None else bq
        try:
            ev = _evaluate(spec, phi, b, metric)
            break
        except _Inadmissible as err:
            outside = err.args[0]  # this start left the cone: try the next one
    else:
        # eigenvalues only here, of the last start's X, to name its worst point
        lam = packed_eigenvalues(outside, _flat(spec.omega.packed()))[:, -1].reshape(spec.grid.shape)
        where = np.unravel_index(np.argmin(lam), lam.shape)
        count = int(np.sum(lam <= 0.0)) * (full.grid.npoints // lam.size)
        raise ConeViolationError(
            f"initial state leaves the cone: {count} points outside the cone,"
            f" min eigenvalue {lam[where]:.3e} at {where}",
            detail={"count": count, "min_eig": float(lam[where]), "where": where},
        )

    iters = 0
    krylov_total = 0
    rsup_prev = math.inf

    def state():
        """The state of full at (phi, b); phi and the diagnostics keep the subtorus."""
        diagnostics = Diagnostics(spec, phi, ev.x, ev.coefficient, iters, krylov_total)
        return SolverState(phi, float(b), float(t), ev.rsup, diagnostics, full)

    # a step is accepted only where it lowers the residual, so only a start can be non-finite
    if not math.isfinite(ev.rsup):
        raise NonconvergenceError(f"non-finite residual {ev.rsup!r} at the start", state=state())
    while ev.rsup > config.tol:
        range_sup = float(np.max(np.abs(ev.range_resid)))
        if range_sup <= config.tol:
            raise AliasingFloorError(
                f"aliasing floor reached at residual {ev.rsup:.3e}: its part in the"
                f" Hessian's range, all Newton can reduce, is {range_sup:.3e}",
                state=state(),
            )
        if iters >= config.max_newton:
            raise NonconvergenceError(
                f"no convergence in {config.max_newton} Newton steps (residual {ev.rsup:.3e})",
                state=state(),
            )
        dphi, db, nit, info = _linear_step(spec, ev, config, rsup_prev)
        krylov_total += nit
        tau = 1.0
        while True:
            cand_phi = phi + tau * dphi
            cand_phi -= np.max(cand_phi)
            cand_b = b + tau * db
            try:
                cand = _evaluate(spec, cand_phi, cand_b, metric)
            except (_Inadmissible, InputError):
                cand = None
            if cand is not None and cand.rsup < ev.rsup:
                break
            tau *= 0.5
            if tau < DAMPING_FLOOR:
                # an unconverged inner solve may give no descent direction
                note = f" after an LGMRES solve that stopped short (info {info})" if info else ""
                raise NonconvergenceError(
                    f"damping floor reached at residual {ev.rsup:.3e}{note}", state=state()
                )
        rsup_prev = ev.rsup
        phi, b, ev = cand_phi, cand_b, cand
        iters += 1

    if bq is not None:
        budget = B_COMPAT_FACTOR * config.tol
        if abs(b - bq) > budget:
            raise NonconvergenceError(
                f"converged b={b!r} disagrees with quadrature value {bq!r} beyond {budget:.1e}",
                state=state(),
            )
    return state()


def _gradient_sq(spec, phi):
    """Pointwise squared omega-norm of the holomorphic gradient, shape (P,).

    omega^-1 is unpacked at its one point when omega is constant.
    """
    n = spec.n
    grad = holomorphic_gradient(spec.grid, phi).reshape(-1, n)
    ginv = _omega_metric(spec)[0]
    ginv = unpack_hermitian(np.moveaxis(ginv, (0, 1), (-2, -1)))
    return np.einsum("...kj,...j,...k->...", ginv, grad, np.conj(grad)).real


@dataclass(frozen=True)
class PathResult:
    states: list
    failed_t: float | None = None
    failure: str = ""

    @property
    def complete(self):
        return self.failed_t is None


def check_schedule(schedule):
    """The schedule as floats; InputError unless nonempty, strictly decreasing and in (0, 1]."""
    schedule = [float(t) for t in schedule]
    if not schedule or any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise InputError("schedule must be strictly decreasing")
    if not all(0.0 < t <= 1.0 for t in schedule):
        raise InputError("schedule must lie in (0, 1]")
    return schedule


def continuation_path(spec_family, schedule, config=None):
    """Solves along a decreasing t schedule, each started from the path so far.

    The first solve starts cold, the second warm from the first state, and
    every later one from the secant prediction through the last two states
    (see newton_solve). A failing solve truncates the path: the states
    reached so far come back with the failing t and reason recorded, since
    partial paths are exactly what degenerate instances produce.
    """
    states = []
    for t in check_schedule(schedule):
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


def _write_csv(path, columns, rows):
    """A header of columns, then one line per row: floats at .17g, anything else by str."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else str(v) for v in row])


def write_path_csv(path, result):
    _write_csv(path, PATH_CSV_COLUMNS, (
        [st.t, st.b, st.residual_sup] + [st.diagnostics[k] for k in PATH_CSV_COLUMNS[3:]]
        for st in result.states
    ))


@dataclass(frozen=True)
class StabilityRecord:
    sup_diff: float
    positive_part_norm: float
    c_implied: float
    q: float
    q_star: float


def _slabs(*fields):
    """The fields' broadcast values, one slab of its first axis at a time, as views.

    A reduction over the slabs holds one slab's points at a time, N^3 of a
    full n = 2 grid, where one over the broadcast arrays would hold them all.
    """
    shape = np.broadcast_shapes(*(np.shape(f) for f in fields))
    full = [np.broadcast_to(f, shape) for f in fields]
    for i in range(shape[0]):
        yield [f[i] for f in full]


def stability_compare(run1, run2, q):
    """Empirical form of the L^{q*} stability bound between two solves, reduced by _slabs."""
    if q <= 1.0:
        raise InputError(f"q must exceed 1, got {q}")
    if run1.spec.grid != run2.spec.grid:
        raise InputError("stability comparison needs a shared grid")
    n = run1.spec.n
    q_star = q / (q - 1.0)
    slabs = partial(_slabs, run1.phi, run2.phi, _inverse_metric(run1.spec.omega.packed())[1])
    sup_diff = max(float(np.max(p2 - p1)) for p1, p2, _ in slabs())
    # integrate_density's mean over the broadcast shape: the mean of its equal slabs' means
    mean = np.mean([np.mean(np.maximum(p2 - p1, 0.0) ** q_star * det) for p1, p2, det in slabs()])
    norm = float(mean) ** (1.0 / q_star)
    c_implied = 0.0 if norm == 0.0 else sup_diff / norm ** (1.0 / (n + 1.0))
    return StabilityRecord(sup_diff, float(norm), float(c_implied), q, q_star)


def uniqueness_gap(phi1, phi2, ample_mask):
    """Sup deviation of phi1 - phi2 from constancy over the marked region.

    The potentials and the mask broadcast against each other, and the mean
    is taken over the marked points of their broadcast shape, in one pass of
    _slabs: fl(x - mean) is monotone in x, so max |d - mean| is max(hi - mean, mean - lo).
    """
    mask = np.asarray(ample_mask, dtype=bool)
    if not mask.any():
        raise InputError("ample mask is empty")
    total, count, hi, lo = 0.0, 0, -math.inf, math.inf
    for p1, p2, marked in _slabs(phi1, phi2, mask):
        d = (p1 - p2)[marked]
        total, count = total + float(np.sum(d)), count + d.size
        hi, lo = np.max(d, initial=hi), np.min(d, initial=lo)
    mean = total / count
    return float(max(hi - mean, mean - lo))


def volume_lower_bound_check(state, c):
    """min over the grid of S_n(lam(X)) - c^(n/(n-m)) for a converged state, on its subtorus."""
    spec = state.spec
    floor = c ** (spec.n / (spec.n - spec.m))
    return float(np.min(elementary_sym(spec.n, state.diagnostics.eigenvalues)) - floor)
