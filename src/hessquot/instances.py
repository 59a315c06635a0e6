"""Reference problem instances shared by tests, scripts, and the CLI.

Each builder returns an Instance bundling the geometric data (chi, chitilde,
omega), the constants, the normalized source density, and any closed-form
facts (expected b along the family, a manufactured potential) that make the
instance checkable. Every builder states only its own chi, chitilde and
closed forms and assembles them through one recipe, _instance: omega is
the identity, c comes from chi's class and the source is the flat density
unless the builder knows better. Every field is built from grid.coords()
in the shape that broadcasts against the grid, with one point on each real
axis it is constant along, so no builder touches the full grid but the
generic one. The boundary chi and the degenerate chitilde are tuned here:
each is I + a*idd psi for a fixed psi, and a brentq over a finds its a
from the eigenvalues that _eigenvalues_along gives for one Hessian of psi,
taken on psi's subtorus.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .errors import ConstructionError, DomainError, InputError
from .pointwise import cone_margin, packed_eigenvalues
from .solver import EquationSpec
from .torus import (
    FormField,
    TorusGrid,
    _require_positive,
    compute_c,
    identity_form,
    normalize_density,
    packed_hessian,
    subtorus,
)

TWO_PI = 2.0 * np.pi


@dataclass
class Instance:
    name: str
    grid: TorusGrid
    m: int
    chi: FormField
    chitilde: FormField
    omega: FormField
    c: float
    f: np.ndarray
    extras: dict = field(default_factory=dict)

    def spec(self, t, f=None):
        """Additive-mode spec of the t-family member (1+t)chi + chitilde."""
        background = (1.0 + t) * self.chi + self.chitilde
        return EquationSpec(
            n=self.grid.n,
            m=self.m,
            background=background,
            omega=self.omega,
            coefficient_field=self.c,
            source_field=self.f if f is None else f,
            unknown_mode="additive",
        )


# the one-mode source perturbations, by the names `stability` takes
SOURCE_SHAPES = {
    "cos_x1": lambda coords: np.cos(TWO_PI * coords["x1"]),
    "cos_y1": lambda coords: np.cos(TWO_PI * coords["y1"]),
    "sin_x2": lambda coords: np.sin(TWO_PI * coords["x2"]),
    "sin_y2": lambda coords: np.sin(TWO_PI * coords["y2"]),
}


def perturbed_source(inst, shape, amplitude):
    """The source 1 + amplitude * SOURCE_SHAPES[shape], normalized to inst's volume, broadcastable."""
    if shape not in SOURCE_SHAPES:
        raise InputError(f"unknown f shape {shape!r}; have {sorted(SOURCE_SHAPES)}")
    if not -1.0 < amplitude < 1.0:
        raise InputError(f"|f amplitude| must be < 1 to keep f positive, got {amplitude}")
    return normalize_density(1.0 + amplitude * SOURCE_SHAPES[shape](inst.grid.coords()), inst.omega)


def _instance(name, grid, m, chi, chitilde, c=None, f=None, **extras):
    """An Instance on the flat metric omega = I.

    c comes from chi's class unless the builder knows it, and the source is
    the flat density 1, one point on every axis, unless it passes one.
    """
    omega = identity_form(grid)
    return Instance(
        name=name,
        grid=grid,
        m=m,
        chi=chi,
        chitilde=chitilde,
        omega=omega,
        c=compute_c(chi, omega, m) if c is None else c,
        f=np.ones((1,) * len(grid.shape)) if f is None else f,
        extras=extras,
    )


def _eigenvalues_along(grid, psi):
    """a -> the eigenvalues of I + a*idd psi relative to omega = I, shaped psi.shape + (2,).

    The family is linear in a, so psi's packed Hessian is taken once, on
    psi's subtorus, and each call is one eigenvalue pass there. Packed, the
    identity is the identity matrix.
    """
    hess = packed_hessian(subtorus(grid, [psi]), psi).reshape(2, 2, -1)
    eye = np.eye(2)
    return lambda a: packed_eigenvalues(eye[..., None] + a * hess, eye).reshape(psi.shape + (2,))


def _boundary_chi(grid, m):
    """Tune chi = I + a*idd psi, psi = cos(2 pi x1) + cos(2 pi y1), onto the boundary.

    chi stays in the class of omega = I, where every mixed integral is 1, so
    c = 1 at every m. brentq puts the minimum cone margin at zero on
    (0, 0.05); a margin still positive at 0.05, as at m = 0, raises
    DomainError, and so does a tuned chi that is not positive definite.
    Returns a, c, chi and psi.
    """
    coords = grid.coords()
    psi = np.cos(TWO_PI * coords["x1"]) + np.cos(TWO_PI * coords["y1"])
    eigenvalues = _eigenvalues_along(grid, psi)
    c = 1.0

    def margin(a):
        return float(np.min(cone_margin(eigenvalues(a), c, m)))

    top = margin(0.05)
    if top > 0.0:
        raise DomainError(f"cone condition strict at amplitude 0.05 (margin {top:.3e})")
    a = float(brentq(margin, 0.0, 0.05, xtol=1e-14, rtol=8.9e-16))
    chi = FormField(grid, np.eye(2), a * psi)
    mu = eigenvalues(a)
    _require_positive(mu[..., -1], chi, "chi")
    low = float(np.min(cone_margin(mu, c, m)))
    if abs(low) > 1e-8:
        raise ConstructionError(f"margin bisection stalled at {low:.3e}")
    return a, c, chi, psi


def _degenerate_chitilde(grid):
    """chitilde = I + amp*idd cos(2 pi x1), its smallest eigenvalue zero on the slab x1 = 0.

    That eigenvalue is min(1, 1 - amp*pi^2 cos(2 pi x1)) at a point; its
    minimum over the grid is 1 at amp = 0 and 1 - pi^2 < 0 at amp = 1, since
    x1 = 0 is a grid point, so brentq finds amp on [0, 1]. Returns chitilde and its
    extras: the masks where it is degenerate (smallest eigenvalue below
    1e-6) and ample, read off the root's own eigenvalues in psi's shape.
    """
    psi = np.cos(TWO_PI * grid.coords()["x1"])
    eigenvalues = _eigenvalues_along(grid, psi)

    def min_eig(a):
        return float(np.min(eigenvalues(a)[..., -1]))

    amp = brentq(min_eig, 0.0, 1.0, xtol=1e-15, rtol=8.9e-16)
    lam = eigenvalues(amp)[..., -1]
    low = float(np.min(lam))
    if abs(low) > 1e-10:
        raise ConstructionError(f"bisection stalled: min eigenvalue {low:.3e} at amplitude {amp}")
    degenerate = lam < 1e-6
    chitilde = FormField(grid, np.eye(2), amp * psi)
    return chitilde, {"degenerate_mask": degenerate, "ample_mask": ~degenerate}


def uniform_instance(N=16, eps=0.1, m=1):
    """Everything proportional to the flat metric; phi = 0 and b closed-form.

    For chi = omega, chitilde = eps*omega the family background is s*omega
    with s = 1 + t + eps, c = 1, and b(t) = s^2 - s at n = 2, m = 1.
    """
    grid = TorusGrid(2, N)
    return _instance(
        "uniform", grid, m, identity_form(grid), FormField(grid, eps * np.eye(2)),
        expected_b=lambda t: (1.0 + t + eps) ** 2 - (1.0 + t + eps),
    )


def boundary_instance(N=16, m=1):
    """chi tuned so the cone-condition margin vanishes; chitilde = omega.

    The margin of I + a*idd(cos(2 pi x1) + cos(2 pi y1)) is 1/2 - 2 pi^2 a,
    so the boundary amplitude is 1/(4 pi^2) with c = 1. With chitilde = omega
    the t -> 0 limit constant is b0 = 2.
    """
    grid = TorusGrid(2, N)
    _, c, chi, _ = _boundary_chi(grid, m)
    return _instance("boundary", grid, m, chi, identity_form(grid), c=c)


def degenerate_instance(N=16, m=1):
    """chitilde semipositive with eigenvalue hitting zero on the slab x1 = 0.

    chi = omega keeps the cone condition strict; all t-dependence of the
    degeneracy lives in chitilde = I + (1/pi^2) idd cos(2 pi x1).
    """
    grid = TorusGrid(2, N)
    chitilde, masks = _degenerate_chitilde(grid)
    return _instance("degenerate", grid, m, identity_form(grid), chitilde, **masks)


def boundary_degenerate_instance(N=16, m=1):
    """Boundary-tuned chi together with the degenerate chitilde.

    Stacks both marginal features: the cone margin of chi vanishes at the
    minimum points of its potential while chitilde loses an eigenvalue on
    the slab x1 = 0. The family background is still (2+t)*I plus a complex
    Hessian, so the exact potential cancels it:

        phi_t = -[(1+t) * a * (cos(2 pi x1) + cos(2 pi y1)) + amp * cos(2 pi x1)]

    up to an additive constant, with X_t = (2+t)*I and b(t) = (2+t)(2+t-c).
    Useful as the hard continuation target: the t -> 0 limit equation has a
    boundary-case chi and a genuinely degenerate chitilde at once.
    """
    grid = TorusGrid(2, N)
    a, c, chi, psi = _boundary_chi(grid, m)
    chitilde, masks = _degenerate_chitilde(grid)
    return _instance(
        "boundary_degenerate", grid, m, chi, chitilde, c=c, **masks,
        expected_b=lambda t: (2.0 + t) * (2.0 + t - c),
        potential_exact=lambda t: -((1.0 + t) * a * psi + chitilde.potential),
    )


def _manufactured(name, grid, phi_star):
    """The instance whose exact solution is phi_star, with b* = mean of the defect.

    Background 3*I (chi = omega, chitilde = 1.5*omega, t = 0.5); with c = 1
    the pointwise defect S_2 - S_1/2 of X* = 3I + Hess(phi*) must be
    strictly positive, and dividing it by its mean b* gives a normalized
    density. phi* and b* are then exact discrete solutions.
    """
    (x11, re), (im, x22) = FormField(grid, 3.0 * np.eye(2), phi_star).packed()
    # c = 1 for chi = omega; S_2 = det, S_1 = trace relative to the identity
    f_raw = (x11 * x22 - re * re - im * im) - 0.5 * (x11 + x22)
    if np.min(f_raw) <= 0.0:
        raise InputError("manufactured defect lost positivity; background too small")
    return _instance(
        name, grid, 1, identity_form(grid), FormField(grid, 1.5 * np.eye(2)),
        c=1.0, f=normalize_density(f_raw, identity_form(grid)),
        phi_star=phi_star - float(np.max(phi_star)), t_star=0.5,
    )


def manufactured_instance(N=32):
    """Source engineered so phi* = 0.1 sin(2 pi x1) cos(2 pi y2) solves exactly.

    The defect of X* = 3I + Hess(phi*) has minimum about 0.09 and mean
    b* = 6; the data vary along x1 and y2 alone.
    """
    grid = TorusGrid(2, N)
    c = grid.coords()
    return _manufactured("manufactured", grid, 0.1 * np.sin(TWO_PI * c["x1"]) * np.cos(TWO_PI * c["y2"]))


def generic_instance(N=16):
    """Manufactured with phi* varying along all four real axes, no product of one-axis factors.

    phi* = 0.05 cos 2 pi (x1 + y2) + 0.04 sin 2 pi (x2 - y1) + 0.03 cos 2 pi (x1 + x2 + y1),
    so its data have no constant axis and every solve runs at every point
    of the grid. Not in the CLI's instance list.
    """
    grid = TorusGrid(2, N)
    c = grid.coords()
    phi_star = (
        0.05 * np.cos(TWO_PI * (c["x1"] + c["y2"]))
        + 0.04 * np.sin(TWO_PI * (c["x2"] - c["y1"]))
        + 0.03 * np.cos(TWO_PI * (c["x1"] + c["x2"] + c["y1"]))
    )
    return _manufactured("generic", grid, phi_star)


def fake_boundary_sample(N=16):
    """One-mode coefficient touching its cone constant, for the two-stage path.

    g = 1 + (1 - cos(2 pi x1))/8 in [1, 5/4] with chi = omega = identity and
    m = 1, so min g = c = 1: a fake boundary instance. The half-gap superlevel
    set {g >= 9/8} is {cos(2 pi x1) <= 0} and its measure is a plain grid
    count, which makes the spread constant and the analytic scalar bound
    exactly reproducible. The modulation is mild enough that the smoothed
    stand-in coefficient built from g (whose corner sharpness is what limits
    spectral accuracy) stays resolved at N = 16.
    """
    grid = TorusGrid(2, N)
    g = 1.0 + 0.125 * (1.0 - np.cos(TWO_PI * grid.coords()["x1"]))
    return {"grid": grid, "m": 1, "chi": identity_form(grid), "omega": identity_form(grid), "g": g}
