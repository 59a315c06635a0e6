"""Flat-torus discretization: grids, spectral Hessians, mixed-wedge quadrature.

The torus is [0,1)^{2n} with complex coordinates z_j = x_j + i y_j and N
grid points per real axis, axis order (x1, y1, x2, y2, ...). Differentiation
is spectral (exact for band-limited fields, Nyquist dropped from first-order
multipliers) and runs on real FFTs: every operator is a real field times a
real symbol cached per grid in rfftn layout; integration is the periodic
trapezoid rule, i.e. the plain grid mean, which is spectrally accurate here.

Density convention: the top form omega^n corresponds to the density
det(omega_matrix) * dV, with one fixed multiplicative constant shared by
every integral so that all ratios (c, b_t, theta0) are convention-free.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.fft
from scipy.optimize import brentq
from scipy.spatial import cKDTree

from .errors import ConstructionError, DomainError, InputError
from .pointwise import check_hermitian, cone_margin, eigenvalues_rel
from .symfunc import elementary_sym

# shared constant of the omega^n <-> det(omega) dV identification; every
# integral carries it, so ratios must not depend on its value (tested)
DENSITY_CONVENTION_SCALE = 1.0

FIELD_DUMP_VERSION = 1
HERMITIAN_PACKING = (
    "real n x n block per point: diagonal holds Re A[i,i]; for i<j the entry"
    " [i,j] holds Re A[i,j] and [j,i] holds Im A[i,j]"
)


@dataclass(frozen=True)
class TorusGrid:
    """Unit flat torus with n complex dimensions and N points per real axis."""

    n: int
    N: int

    def __post_init__(self):
        if self.n not in (2, 3):
            raise InputError(f"complex dimension must be 2 or 3, got {self.n}")
        if self.N < 4 or self.N & (self.N - 1) != 0:
            raise InputError(f"N must be a power of two >= 4, got {self.N}")

    @property
    def shape(self):
        return (self.N,) * (2 * self.n)

    @property
    def npoints(self):
        return self.N ** (2 * self.n)

    @property
    def spacing(self):
        return 1.0 / self.N

    def axis_coord(self, axis):
        """Coordinate values along one real axis, shaped for broadcasting."""
        vals = np.arange(self.N) / self.N
        shape = [1] * (2 * self.n)
        shape[axis] = self.N
        return vals.reshape(shape)

    def coords(self):
        """Broadcastable coordinate arrays keyed x1, y1, ..., xn, yn."""
        out = {}
        for j in range(self.n):
            out[f"x{j + 1}"] = self.axis_coord(2 * j)
            out[f"y{j + 1}"] = self.axis_coord(2 * j + 1)
        return out

    def wavenumber(self, axis):
        """Angular wavenumbers along one axis, Nyquist zeroed, broadcastable."""
        k = 2.0 * np.pi * np.fft.fftfreq(self.N, d=1.0 / self.N)
        k[self.N // 2] = 0.0
        shape = [1] * (2 * self.n)
        shape[axis] = self.N
        return k.reshape(shape)


@functools.lru_cache(maxsize=4)
def _symbols(grid):
    """Per-grid wavenumbers (kx, ky) and packed Hessian symbols, rfftn layout.

    rfftn keeps the nonnegative half of the last axis, whose Nyquist entry
    wavenumber() zeroes like every other, so that axis is cut to N/2 + 1.
    d/dz_j has symbol (ky_j + i kx_j)/2, so H_jk = d_j dbar_k has the real
    part -(ky_j ky_k + kx_j kx_k)/4 and the imaginary part
    -(kx_j ky_k - ky_j kx_k)/4, both even in k: each packed entry of the
    Hessian of a real field is the inverse real FFT of one real symbol.
    """
    n = grid.n
    k = [grid.wavenumber(axis) for axis in range(2 * n)]
    k[-1] = k[-1][..., : grid.N // 2 + 1]
    kx, ky = k[0::2], k[1::2]
    hess = np.empty((n, n) + grid.shape[:-1] + (grid.N // 2 + 1,))
    for i in range(n):
        hess[i, i] = -0.25 * (kx[i] ** 2 + ky[i] ** 2)
        for j in range(i + 1, n):
            hess[i, j] = -0.25 * (ky[i] * ky[j] + kx[i] * kx[j])
            hess[j, i] = -0.25 * (kx[i] * ky[j] - ky[i] * kx[j])
    for arr in (*kx, *ky, hess):
        arr.flags.writeable = False
    return kx, ky, hess


def _irfftn(grid, spectra):
    """Real fields from a batch of rfftn-layout spectra on the trailing axes."""
    axes = tuple(range(-2 * grid.n, 0))
    return scipy.fft.irfftn(spectra, s=grid.shape, axes=axes, overwrite_x=True)


def _check_scalar(grid, values):
    values = np.asarray(values, dtype=np.float64)
    if values.shape != grid.shape:
        raise InputError(f"field shape {values.shape} does not match grid {grid.shape}")
    if not np.all(np.isfinite(values)):
        raise InputError("field values must be finite")
    return values


def packed_hessian(grid, phi, symbol=None):
    """Spectral complex Hessian as n*n real fields, shape (n, n) + grid.shape.

    The leading axes hold HERMITIAN_PACKING: [i, i] is H_ii and, for i < j,
    [i, j] is Re H_ij and [j, i] is Im H_ij. One rfftn and one batched irfftn.
    Given a frozen_symbol, it is the Hessian of divide_by_symbol(grid,
    symbol, phi), with the division done on the one spectrum.
    """
    phi = _check_scalar(grid, phi)
    spectrum = scipy.fft.rfftn(phi)
    if symbol is not None:
        spectrum /= symbol
    return _irfftn(grid, spectrum * _symbols(grid)[2])


def complex_hessian(grid, phi):
    """Spectral complex Hessian (d_i dbar_j phi), shape grid.shape + (n, n).

    Hermitian by construction; exact for band-limited periodic fields.
    """
    return unpack_hermitian(np.moveaxis(packed_hessian(grid, phi), (0, 1), (-2, -1)))


def holomorphic_gradient(grid, phi):
    """(d phi / d z_j) for each j, shape grid.shape + (n,).

    d/dz_j = (d/dx_j - i d/dy_j)/2, so the real and imaginary parts are the
    real fields with symbols i kx_j / 2 and -i ky_j / 2.
    """
    phi = _check_scalar(grid, phi)
    kx, ky, _ = _symbols(grid)
    fhat = scipy.fft.rfftn(phi)
    spectra = [fhat * (0.5j * k) for k in kx] + [fhat * (-0.5j * k) for k in ky]
    parts = _irfftn(grid, np.stack(spectra))
    return np.moveaxis(parts[: grid.n] + 1j * parts[grid.n :], 0, -1)


def restrict(grid, values):
    """Injection of a field on grid onto the grid with N/2 points per axis.

    Keeps every other point, so it is exact for fields band-limited below
    the coarse Nyquist frequency.
    """
    values = _check_scalar(grid, values)
    return np.ascontiguousarray(values[(slice(None, None, 2),) * (2 * grid.n)])


def prolong(grid, values):
    """Spectral interpolation of a field on grid onto the grid with 2N points per axis.

    Zero-pads the rfftn spectrum, dropping the Nyquist modes of grid, so it
    reproduces a field band-limited below that frequency exactly and
    restrict(prolong(grid, v)) returns any v without Nyquist content.
    """
    values = _check_scalar(grid, values)
    N, ndim = grid.N, 2 * grid.n
    fine = TorusGrid(grid.n, 2 * N)
    src = [np.r_[0 : N // 2, N // 2 + 1 : N]] * (ndim - 1) + [np.arange(N // 2)]
    dst = [np.r_[0 : N // 2, 3 * N // 2 + 1 : 2 * N]] * (ndim - 1) + [np.arange(N // 2)]
    spectrum = np.zeros(fine.shape[:-1] + (N + 1,), dtype=np.complex128)
    # rfftn is unnormalized and irfftn divides by the point count, 2^ndim times larger
    spectrum[np.ix_(*dst)] = scipy.fft.rfftn(values)[np.ix_(*src)] * 2.0**ndim
    return _irfftn(fine, spectrum)


def frozen_symbol(grid, weights):
    """Symbol of -sum_j w_j d_j dbar_j in rfftn layout, inf on the kernel modes.

    With every w_j > 0 it vanishes exactly on the modes whose every axis
    frequency is 0 or Nyquist; inf there makes divide_by_symbol drop them.
    """
    hess = _symbols(grid)[2]
    symbol = -sum(w * hess[j, j] for j, w in enumerate(weights))
    return np.where(symbol > 0.0, symbol, np.inf)


def divide_by_symbol(grid, symbol, values):
    """The real field whose spectrum is values' divided by a frozen_symbol."""
    values = np.asarray(values, dtype=np.float64)
    return _irfftn(grid, scipy.fft.rfftn(values) / symbol)


@dataclass(eq=False)
class FormField:
    """Closed real (1,1) form: constant Hermitian part plus i d dbar of a potential."""

    grid: TorusGrid
    const: np.ndarray
    potential: np.ndarray | None = None
    _matrices: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.const = np.asarray(self.const, dtype=np.complex128)
        if self.const.shape != (self.grid.n, self.grid.n):
            raise InputError(f"constant part must be {self.grid.n} x {self.grid.n}")
        check_hermitian(self.const, rtol=1e-12)
        if self.potential is not None:
            self.potential = _check_scalar(self.grid, self.potential)
            if np.max(np.abs(self.potential)) == 0.0:
                self.potential = None

    @property
    def is_constant(self):
        return self.potential is None

    def matrices(self):
        """Pointwise form coefficients, shape grid.shape + (n, n)."""
        if self.is_constant:
            return np.broadcast_to(self.const, self.grid.shape + self.const.shape)
        if self._matrices is None:
            self._matrices = self.const + complex_hessian(self.grid, self.potential)
        return self._matrices

    def flat_matrices(self):
        """The (n, n) matrix of a constant form, else the (P, n, n) pointwise ones.

        The constant case stays one matrix, which broadcasts over any batch.
        """
        if self.is_constant:
            return self.const
        return self.matrices().reshape(-1, self.grid.n, self.grid.n)

    def restricted(self):
        """This form on the grid with N/2 points per axis, its potential restricted."""
        coarse = TorusGrid(self.grid.n, self.grid.N // 2)
        pot = None if self.potential is None else restrict(self.grid, self.potential)
        return FormField(coarse, self.const, pot)

    def __add__(self, other):
        if not isinstance(other, FormField):
            return NotImplemented
        if other.grid != self.grid:
            raise InputError("cannot add forms on different grids")
        pa = self.potential
        pb = other.potential
        pot = None if pa is None and pb is None else (
            (pa if pa is not None else 0.0) + (pb if pb is not None else 0.0)
        )
        return FormField(self.grid, self.const + other.const, pot)

    def __rmul__(self, s):
        s = float(s)
        pot = None if self.potential is None else s * self.potential
        return FormField(self.grid, s * self.const, pot)

    __mul__ = __rmul__


def constant_form(grid, matrix):
    return FormField(grid, matrix)


def identity_form(grid):
    return FormField(grid, np.eye(grid.n))


def form_eigenvalues(alpha, omega):
    """Eigenvalues of alpha relative to omega at every grid point, shape + (n,)."""
    grid = alpha.grid
    n = grid.n
    mats = alpha.matrices().reshape(-1, n, n)
    lam = eigenvalues_rel(mats, omega.flat_matrices(), check=False)
    return lam.reshape(grid.shape + (n,))


def _require_positive(form, name):
    """Raise DomainError, naming the worst point, unless form is positive definite."""
    mins = np.atleast_2d(np.linalg.eigvalsh(form.flat_matrices()))[:, 0]
    i = int(np.argmin(mins))
    if mins[i] <= 0.0:
        where = "every point" if form.is_constant else np.unravel_index(i, form.grid.shape)
        raise DomainError(f"{name} not positive definite (min eig {mins[i]:.3e} at {where})")


def _omega_density(omega):
    """det(omega matrix), scalar for constant omega, else a grid field."""
    if omega.is_constant:
        return float(np.linalg.det(omega.const).real)
    return np.linalg.det(omega.matrices()).real


def integrate_mixed(alpha, k, omega):
    """Quadrature of alpha^k wedge omega^(n-k) in the fixed density convention.

    Computes the grid mean of S_k(lambda_omega(alpha))/C(n,k) * det(omega),
    times the shared convention constant.
    """
    grid = alpha.grid
    n = grid.n
    if not 0 <= k <= n:
        raise InputError(f"wedge power k={k} outside 0..{n}")
    _require_positive(omega, "metric")
    binom = math.comb(n, k)
    if alpha.is_constant and omega.is_constant:
        lam = eigenvalues_rel(alpha.const, omega.const, check=False)
        val = elementary_sym(k, lam) / binom * _omega_density(omega)
        return float(val) * DENSITY_CONVENTION_SCALE
    lam = form_eigenvalues(alpha, omega)
    integrand = elementary_sym(k, lam) / binom * _omega_density(omega)
    return float(np.mean(integrand)) * DENSITY_CONVENTION_SCALE


def integrate_density(values, omega):
    """Quadrature of a scalar density against omega^n (same convention)."""
    integrand = np.asarray(values, dtype=np.float64) * _omega_density(omega)
    return float(np.mean(integrand)) * DENSITY_CONVENTION_SCALE


def total_volume(omega):
    return integrate_mixed(omega, 0, omega)


def compute_c(chi, omega, m):
    """Ratio of the top self-intersection to the m-fold mixed integral."""
    _require_positive(chi, "chi")
    return integrate_mixed(chi, chi.grid.n, omega) / integrate_mixed(chi, m, omega)


@dataclass
class DegenerateBig:
    """A semipositive form with eigenvalue kissing zero, plus where it happens."""

    form: FormField
    amplitude: float
    min_eig: np.ndarray
    degenerate_mask: np.ndarray
    ample_mask: np.ndarray


def make_degenerate_big(grid, base, psi_shape):
    """Scale a potential until base + a * i d dbar psi has min eigenvalue 0.

    The minimum over the grid of the smallest (plain) eigenvalue of the form
    is concave in a, so bisection on the bracket [0, a_hi] is sound. Returns
    the form, the amplitude, and the degenerate/ample grid masks; a point is
    degenerate where its smallest eigenvalue is below 1e-6.
    """
    base = np.asarray(base, dtype=np.complex128)
    if np.min(np.linalg.eigvalsh(base)) <= 0.0:
        raise InputError("base must be positive definite")
    psi = _check_scalar(grid, psi_shape)
    hess = complex_hessian(grid, psi)
    hscale = float(np.max(np.abs(hess)))
    if hscale < 1e-13 * (1.0 + float(np.max(np.abs(psi)))):
        raise ConstructionError("potential shape has (numerically) zero complex Hessian")
    flat = hess.reshape(-1, grid.n, grid.n)

    def min_eig(a):
        mats = base + a * flat
        return float(np.min(eigenvalues_rel(mats, np.eye(grid.n), check=False)[:, -1]))

    if min_eig(0.0) <= 0.0:
        raise InputError("base must start strictly inside the positive cone")
    hi = 1.0
    while min_eig(hi) > 0.0:
        hi *= 2.0
        if hi > 2.0**40:
            raise ConstructionError("no amplitude degenerates the form on this grid")
    amp = brentq(min_eig, 0.0, hi, xtol=1e-15, rtol=8.9e-16)
    val = min_eig(amp)
    if abs(val) > 1e-10:
        raise ConstructionError(f"bisection stalled: min eigenvalue {val:.3e} at amplitude {amp}")
    form = FormField(grid, base, amp * psi)
    eigs = eigenvalues_rel(form.matrices().reshape(-1, grid.n, grid.n), np.eye(grid.n), check=False)
    min_field = eigs[:, -1].reshape(grid.shape)
    degenerate = min_field < 1e-6
    return DegenerateBig(form, amp, min_field, degenerate, ~degenerate)


def _min_margin(chi, omega, m):
    c = compute_c(chi, omega, m)
    mu = form_eigenvalues(chi, omega).reshape(-1, chi.grid.n)
    return float(np.min(cone_margin(mu, c, m))), c


def tune_to_boundary(chi_family, omega, m, bracket):
    """Find the family amplitude putting the minimum cone margin at zero.

    chi_family maps an amplitude to a Kaehler FormField. Returns
    (amplitude, c, chi); raises DomainError when the margin keeps one sign
    on the bracket, naming the diagnosis (strict or violated) and the margin.
    """
    lo, hi = bracket

    def margin(a):
        return _min_margin(chi_family(a), omega, m)[0]

    mlo = margin(lo)
    if mlo < 0.0:
        raise DomainError(f"cone condition violated at amplitude {lo} (margin {mlo:.3e})")
    mhi = margin(hi)
    if mhi > 0.0:
        raise DomainError(f"cone condition strict at amplitude {hi} (margin {mhi:.3e})")
    amp = brentq(margin, lo, hi, xtol=1e-14, rtol=8.9e-16)
    chi = chi_family(amp)
    mval, c = _min_margin(chi, omega, m)
    if abs(mval) > 1e-8:
        raise ConstructionError(f"margin bisection stalled at {mval:.3e}")
    return float(amp), c, chi


def normalize_density(f_raw, omega):
    """Rescale a positive density so its omega^n integral equals the volume."""
    grid_vals = np.asarray(f_raw, dtype=np.float64)
    if np.min(grid_vals) <= 0.0:
        raise DomainError("density must be strictly positive before normalization")
    integral = integrate_density(grid_vals, omega)
    return grid_vals * (total_volume(omega) / integral)


def distance_to_set(grid, mask):
    """Periodic Euclidean distance from every grid point to a marked set."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != grid.shape:
        raise InputError("mask shape does not match grid")
    if not mask.any():
        return np.full(grid.shape, np.inf)
    if mask.all():
        return np.zeros(grid.shape)
    ndim = 2 * grid.n
    coords = np.stack(
        [idx / grid.N for idx in np.meshgrid(*[np.arange(grid.N)] * ndim, indexing="ij")],
        axis=-1,
    )
    targets = coords[mask]
    shifts = np.array(np.meshgrid(*[[-1.0, 0.0, 1.0]] * ndim, indexing="ij")).reshape(ndim, -1).T
    images = (targets[None, :, :] + shifts[:, None, :]).reshape(-1, ndim)
    tree = cKDTree(images)
    dist, _ = tree.query(coords.reshape(-1, ndim), k=1)
    return dist.reshape(grid.shape)


def pack_hermitian(mats):
    """Real-packed representation of a Hermitian matrix field (see header docs)."""
    mats = np.asarray(mats)
    n = mats.shape[-1]
    out = np.empty(mats.shape, dtype=np.float64)
    for i in range(n):
        out[..., i, i] = mats[..., i, i].real
        for j in range(i + 1, n):
            out[..., i, j] = mats[..., i, j].real
            out[..., j, i] = mats[..., i, j].imag
    return out


def unpack_hermitian(packed):
    packed = np.asarray(packed, dtype=np.float64)
    n = packed.shape[-1]
    out = np.zeros(packed.shape, dtype=np.complex128)
    for i in range(n):
        out[..., i, i] = packed[..., i, i]
        for j in range(i + 1, n):
            val = packed[..., i, j] + 1j * packed[..., j, i]
            out[..., i, j] = val
            out[..., j, i] = np.conj(val)
    return out


def dump_fields(dirpath, grid, fields):
    """Write scalar/hermitian fields as raw little-endian f64 plus a JSON header.

    fields maps name -> grid-shaped real array (scalar) or grid.shape + (n, n)
    complex array / FormField (hermitian).
    """
    os.makedirs(dirpath, exist_ok=True)
    entries = []
    axis_order = ",".join(f"x{j + 1},y{j + 1}" for j in range(grid.n))
    for name, value in fields.items():
        if isinstance(value, FormField):
            value = value.matrices()
        value = np.asarray(value)
        if value.shape == grid.shape:
            kind = "scalar"
            raw = value.astype("<f8")
        elif value.shape == grid.shape + (grid.n, grid.n):
            kind = "hermitian"
            raw = pack_hermitian(value).astype("<f8")
        else:
            raise InputError(f"field {name!r} has unsupported shape {value.shape}")
        fname = f"{name}.bin"
        with open(os.path.join(dirpath, fname), "wb") as fh:
            fh.write(np.ascontiguousarray(raw).tobytes())
        entries.append({"name": name, "kind": kind, "file": fname})
    header = {
        "format_version": FIELD_DUMP_VERSION,
        "complex_dim": grid.n,
        "N": grid.N,
        "dtype": "f64-le",
        "layout": "row-major",
        "axis_order": axis_order,
        "hermitian_packing": HERMITIAN_PACKING,
        "fields": entries,
    }
    with open(os.path.join(dirpath, "header.json"), "w") as fh:
        json.dump(header, fh, indent=2)
        fh.write("\n")
    return header


def load_fields(dirpath):
    """Read a dump written by dump_fields; returns (grid, {name: array})."""
    with open(os.path.join(dirpath, "header.json")) as fh:
        header = json.load(fh)
    grid = TorusGrid(header["complex_dim"], header["N"])
    out = {}
    for entry in header["fields"]:
        raw = np.fromfile(os.path.join(dirpath, entry["file"]), dtype="<f8")
        if entry["kind"] == "scalar":
            out[entry["name"]] = raw.reshape(grid.shape)
        else:
            packed = raw.reshape(grid.shape + (grid.n, grid.n))
            out[entry["name"]] = unpack_hermitian(packed)
    return grid, out
