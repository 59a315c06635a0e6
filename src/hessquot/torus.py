"""Flat-torus discretization: grids, spectral Hessians, mixed-wedge quadrature.

The torus is [0,1)^{2n} with complex coordinates z_j = x_j + i y_j and N
grid points per real axis, axis order (x1, y1, x2, y2, ...). Differentiation
is spectral (exact for band-limited fields, Nyquist dropped from first-order
multipliers): every operator is a real field times a real symbol in rfftn
layout, cached per grid with the grid's transform plan. Along an axis of
one point a transform is the identity, so the plan transforms only the
varying axes: by rfftn, or, with the last axis at one point, by complex
transforms of the field's complex values, whose inverse takes the real
part in place of irfft. One varying leading axis takes the 1-D call. Each
field keeps the bits of rfftn and irfftn. A Hessian row whose symbol is
identically zero on the grid is dead: it is never multiplied, tested or
transformed. That is exact for a finite spectrum; one that overflowed to
inf gets a zero field there, not NaN. The live product spectra of one
field that are not identically zero are inverse transformed together; a
zero one is not transformed (a potential of z1 alone has one).
Every field on a grid has a broadcastable shape: one point on each real
axis along which it is constant, grid's points on the others, as
grid.coords() returns them. A field's shape, as it was built, is its
subtorus, so data live there from the start, and subtorus() of
several fields is the grid of their broadcast shape. The grid it returns
holds one point on each constant axis, so every operator, pointwise
kernel and vector runs on the other axes only. Along a constant axis
every butterfly difference is an exact zero and every sum and
normalization a power-of-two scaling, so each operator gives the full
grid's bits at the subtorus points, but for the sign of an output that is
exactly zero. relative_eigenvalues() takes its inputs' subtorus itself
and returns a shape that broadcasts against any field on the grid.
One injection, inject(), takes a field to any sub-lattice of its grid (the
subtorus, a coarser grid, or both) at that grid's shape, repeating it along
the axes where it has one point; prolong() interpolates it spectrally onto
the grid with 2N points per axis. Only a writer that needs every point,
dump_fields(), broadcasts a field over the full grid, one slab at a time.
Integration of a density is the periodic trapezoid rule, i.e. the plain
grid mean, which is spectrally accurate here and is taken over the
broadcast shape of the density and the metric. Every form is closed, so a
mixed integral of forms is that of their constant parts (Stokes) and takes
no grid point.

Density convention: the top form omega^n corresponds to the density
det(omega_matrix) dV, so omega = I has volume 1.
"""

from __future__ import annotations

import copy
import functools
import json
import math
import os
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
import scipy.fft
from scipy.spatial import cKDTree

from .errors import DomainError, InputError
from .pointwise import (
    HERMITIAN_PACKING,
    check_hermitian,
    pack_hermitian,
    packed_adjugate,
    packed_eigenvalues,
    unpack_hermitian,
)
from .symfunc import elementary_sym

FIELD_DUMP_VERSION = 1


@dataclass(frozen=True)
class TorusGrid:
    """Unit flat torus, n complex dimensions, N points per real axis but 1 on each constant axis."""

    n: int
    N: int
    constant_axes: tuple = ()

    def __post_init__(self):
        if self.n not in (2, 3):
            raise InputError(f"complex dimension must be 2 or 3, got {self.n}")
        if self.N < 4 or self.N & (self.N - 1) != 0:
            raise InputError(f"N must be a power of two >= 4, got {self.N}")
        axes = self.constant_axes
        ints = isinstance(axes, tuple) and all(isinstance(a, int) for a in axes)
        if not (ints and axes == tuple(sorted(set(axes) & set(range(2 * self.n))))):
            raise InputError(f"constant_axes must be sorted distinct axes of range({2 * self.n}): {axes!r}")

    @functools.cached_property
    def shape(self):
        return tuple(1 if axis in self.constant_axes else self.N for axis in range(2 * self.n))

    @functools.cached_property
    def npoints(self):
        return math.prod(self.shape)

    def _along(self, axis, values):
        """The first shape[axis] values, shaped to broadcast along axis."""
        return np.expand_dims(values[: self.shape[axis]], [a for a in range(2 * self.n) if a != axis])

    def coords(self):
        """Broadcastable coordinate arrays keyed x1, y1, ..., xn, yn."""
        x = np.arange(self.N) / self.N
        return {f"{c}{axis // 2 + 1}": self._along(axis, x) for axis, c in enumerate("xy" * self.n)}

    def wavenumber(self, axis):
        """Angular wavenumbers along one axis, Nyquist zeroed, broadcastable."""
        k = 2.0 * np.pi * np.fft.fftfreq(self.N, d=1.0 / self.N)
        k[self.N // 2] = 0.0
        return self._along(axis, k)


def _broadcastable(grid, values, name="field"):
    """values as an array with one point or grid's points on each real axis; a scalar gets one point on each."""
    values = np.asarray(values)
    if values.ndim == 0:
        values = values.reshape((1,) * len(grid.shape))
    if values.ndim != len(grid.shape) or any(v not in (1, g) for v, g in zip(values.shape, grid.shape)):
        raise InputError(f"{name} shape {values.shape} does not broadcast against grid {grid.shape}")
    return values


def _field(grid, values, name="field"):
    """A finite real field broadcasting against grid, as given: how every constructor takes one."""
    values = _broadcastable(grid, np.asarray(values, dtype=np.float64), name)
    if not np.all(np.isfinite(values)):
        raise InputError(f"{name} values must be finite")
    return values


def subtorus(grid, fields):
    """grid with one point on every real axis along which all fields (arrays or None) have one.

    The grid of the fields' broadcast shape; each field must broadcast
    against grid. A field that holds an axis in full keeps it, constant
    along it or not.
    """
    shape = np.broadcast_shapes((1,) * len(grid.shape), *(
        _broadcastable(grid, values).shape for values in fields if values is not None
    ))
    return replace(grid, constant_axes=tuple(a for a, size in enumerate(shape) if size == 1))


def _trusted_replace(obj, **changes):
    """dataclasses.replace without __post_init__, for values that passed obj's checks already."""
    out = copy.copy(obj)
    for name, value in changes.items():
        object.__setattr__(out, name, value)
    return out


class _Plan(NamedTuple):
    """A grid's symbols in rfftn layout and the transforms its fields take; see _symbols."""

    kx: list            # angular wavenumbers along x_j, broadcastable
    ky: list            # and along y_j
    hess: np.ndarray    # packed Hessian symbols, shape (n, n) + spectrum shape
    rows: np.ndarray    # flat (j, k) indices of the hess rows not identically zero
    live: np.ndarray    # those rows, stacked on one leading axis
    axes: tuple         # the grid's varying axes, as negative indices


@functools.lru_cache(maxsize=4)
def _symbols(grid):
    """Per-grid wavenumbers, packed Hessian symbols and transform plan, rfftn layout.

    rfftn keeps the nonnegative half of the last axis, whose Nyquist entry
    wavenumber() zeroes like every other, so that axis is cut to N/2 + 1
    (to its one point on a constant axis). d/dz_j has symbol
    (ky_j + i kx_j)/2, so H_jk = d_j dbar_k has the real part
    -(ky_j ky_k + kx_j kx_k)/4 and the imaginary part
    -(kx_j ky_k - ky_j kx_k)/4, both even in k: each packed entry of the
    Hessian of a real field is the inverse real FFT of one real symbol.
    A packed entry whose symbol has a constant axis' wavenumber in every
    term is identically zero on the grid, and only the other rows are live.
    """
    n = grid.n
    half = grid.shape[-1] // 2 + 1
    k = [grid.wavenumber(axis) for axis in range(2 * n)]
    k[-1] = k[-1][..., :half]
    kx, ky = k[0::2], k[1::2]
    hess = np.empty((n, n) + grid.shape[:-1] + (half,))
    for i in range(n):
        hess[i, i] = -0.25 * (kx[i] ** 2 + ky[i] ** 2)
        for j in range(i + 1, n):
            hess[i, j] = -0.25 * (ky[i] * ky[j] + kx[i] * kx[j])
            hess[j, i] = -0.25 * (kx[i] * ky[j] - ky[i] * kx[j])
    flat = hess.reshape((n * n,) + hess.shape[2:])
    rows = np.flatnonzero(flat.reshape(n * n, -1).any(axis=1))
    live = flat if rows.size == n * n else flat[rows]
    for arr in (*kx, *ky, hess, rows, live):
        arr.flags.writeable = False
    axes = tuple(axis - 2 * n for axis, size in enumerate(grid.shape) if size > 1)
    return _Plan(kx, ky, hess, rows, live, axes)


def _complex_transform(one, many, spectrum, axes):
    """spectrum transformed in place along axes by scipy.fft's one (1-D) or many (n-D); none for no axes."""
    if len(axes) == 1:
        return one(spectrum, axis=axes[0], overwrite_x=True)
    return many(spectrum, axes=axes, overwrite_x=True) if axes else spectrum


def _rfftn(grid, values):
    """The spectrum of a field on grid in rfftn layout, transformed along grid's varying axes only.

    Along an axis of one point a transform is the identity. With the last
    axis varying this is rfftn over the varying axes; with it at one point,
    the complex transform of the field's complex values over the varying
    leading axes, or those values themselves when no axis varies. The field
    is made complex first because scipy's fftn of a real array runs a real
    transform along one axis, which rounds differently from the complex
    transforms rfftn runs along the leading axes.
    """
    axes = _symbols(grid).axes
    if grid.shape[-1] > 1:
        return scipy.fft.rfftn(values, axes=axes)
    spectrum = values.astype(np.complex128)
    return _complex_transform(scipy.fft.fft, scipy.fft.fftn, spectrum, axes)


def _irfftn(grid, spectrum):
    """The real fields of rfftn-layout spectra stacked on any leading axes; spectrum may be overwritten.

    Complex transforms over the grid's varying leading axes, in place, then
    one inverse real transform along the last axis, or its real part when
    that axis has one point: the 1-D transforms scipy's irfftn runs, in the
    same order, but for the identities along one-point axes, so each field
    is bit-identical to its irfftn. irfftn does not use overwrite_x, so it
    would copy the stack.
    """
    axes = _symbols(grid).axes
    last = grid.shape[-1]
    leading = axes[:-1] if last > 1 else axes
    spectrum = _complex_transform(scipy.fft.ifft, scipy.fft.ifftn, spectrum, leading)
    return scipy.fft.irfft(spectrum, n=last, axis=-1) if last > 1 else spectrum.real


def _inverse_products(grid, spectrum, symbols):
    """(rows, fields): the rows of symbols whose product with spectrum is nonzero, and their real fields.

    symbols are stacked on one leading axis, and fields has shape
    (len(rows),) + grid.shape. A product with no nonzero entry (tested
    exactly: NaN and subnormals count, -0.0 does not) is the zero field and
    is not transformed; the others are transformed together by one _irfftn.
    """
    products = spectrum * symbols
    rows = np.flatnonzero(products.reshape(len(products), -1).any(axis=1))
    if rows.size == 0:
        return rows, np.empty((0,) + grid.shape)
    return rows, _irfftn(grid, products if rows.size == len(products) else products[rows])


def _check_scalar(grid, values):
    values = np.asarray(values, dtype=np.float64)
    if values.shape != grid.shape:
        raise InputError(f"field shape {values.shape} does not match grid {grid.shape}")
    if not np.all(np.isfinite(values)):
        raise InputError("field values must be finite")
    return values


def packed_hessian(grid, phi):
    """Spectral complex Hessian as n*n real fields, shape (n, n) + grid.shape.

    The leading axes hold HERMITIAN_PACKING: [i, i] is H_ii and, for i < j,
    [i, j] is Re H_ij and [j, i] is Im H_ij. One forward transform, then
    one inverse transform of every live packed field whose spectrum is not
    identically zero at once; the others are written as exact zeros, with
    no transform at all when no row is live.
    """
    phi = _check_scalar(grid, phi)
    plan = _symbols(grid)
    out = np.zeros((grid.n**2,) + grid.shape)
    if plan.rows.size:
        rows, fields = _inverse_products(grid, _rfftn(grid, phi), plan.live)
        out[plan.rows[rows]] = fields
    return out.reshape((grid.n, grid.n) + grid.shape)


def hessian_trace(grid, weights, values, symbol):
    """sum_jk weights[j, k] H_jk, H the packed Hessian of divide_by_symbol(grid, symbol, values).

    weights holds real fields packed like packed_hessian's, shape (n, n, P),
    and symbol is a frozen_symbol; the trace has grid.shape. The division is
    done on the one spectrum, the live packed fields whose spectrum is not
    identically zero are inverse transformed at once, and each is weighted
    and added into the trace in row-major (j, k) order. A zero field is
    neither transformed nor weighted, and no row live means no transform.
    """
    values = _check_scalar(grid, values)
    plan = _symbols(grid)
    trace = np.zeros(grid.shape)
    if plan.rows.size:
        spectrum = _rfftn(grid, values)
        spectrum /= symbol
        rows, fields = _inverse_products(grid, spectrum, plan.live)
        weights = weights.reshape((-1,) + grid.shape)
        for row, field in zip(plan.rows[rows], fields):
            trace += np.multiply(field, weights[row], out=field)
    return trace


def holomorphic_gradient(grid, phi):
    """(d phi / d z_j) for each j, shape grid.shape + (n,).

    d/dz_j = (d/dx_j - i d/dy_j)/2, so the real and imaginary parts are the
    real fields with symbols i kx_j / 2 and -i ky_j / 2, inverse transformed
    at once but for a part whose spectrum is identically zero.
    """
    plan = _symbols(grid)
    symbols = np.stack(np.broadcast_arrays(*[0.5j * k for k in plan.kx], *[-0.5j * k for k in plan.ky]))
    rows, fields = _inverse_products(grid, _rfftn(grid, _check_scalar(grid, phi)), symbols)
    parts = np.zeros((2 * grid.n,) + grid.shape)
    parts[rows] = fields
    return np.moveaxis(parts[: grid.n] + 1j * parts[grid.n :], 0, -1)


def inject(grid, values):
    """A field's values at the points of grid, a sub-lattice of the field's own grid, at grid's shape.

    grid keeps every 2^k-th point on each axis it varies along and index 0
    on each of its constant axes, so injection is exact for fields
    band-limited below grid's Nyquist frequency; a field with one point on
    an axis is constant along it and is repeated there. values comes back
    uncopied when the shapes match. Any other target, one with more points
    per axis than the field's grid, raises InputError.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape == grid.shape:
        return values
    M = max(values.shape, default=1)
    stride = max(M // grid.N, 1)
    if not (
        values.ndim == 2 * grid.n and set(values.shape) <= {1, M}
        and (M == 1 or stride * grid.N == M) and stride & (stride - 1) == 0
    ):
        raise InputError(f"grid {grid.shape} is not a sub-lattice of field shape {values.shape}")
    picked = values[tuple(
        slice(0, 1) if 1 in (want, have) else slice(None, None, stride)
        for want, have in zip(grid.shape, values.shape)
    )]
    if picked.shape != grid.shape:
        picked = np.broadcast_to(picked, grid.shape)
    return np.ascontiguousarray(picked)


def prolong(grid, values):
    """Spectral interpolation of a field on grid onto the grid with 2N points per axis.

    Zero-pads the rfftn spectrum, dropping the Nyquist modes of grid, so it
    reproduces a field band-limited below that frequency exactly and
    injecting prolong(grid, v) back onto grid returns any v without Nyquist
    content. A constant axis of grid keeps its one point and its one DC mode.
    """
    values = _check_scalar(grid, values)
    N = grid.N
    fine = replace(grid, N=2 * N)
    axes = [(np.r_[0 : N // 2, N // 2 + 1 : N], np.r_[0 : N // 2, 3 * N // 2 + 1 : 2 * N], 2 * N)]
    axes = axes * (2 * grid.n - 1) + [(np.arange(N // 2), np.arange(N // 2), N + 1)]
    src, dst, shape = zip(*[
        ([0], [0], 1) if size == 1 else axis for size, axis in zip(grid.shape, axes)
    ])
    spectrum = np.zeros(shape, dtype=np.complex128)
    # rfftn is unnormalized and irfftn divides by the point count, which is
    # 2 times larger on the fine grid for each transformed axis
    scale = 2.0 ** sum(size > 1 for size in grid.shape)
    spectrum[np.ix_(*dst)] = _rfftn(grid, values)[np.ix_(*src)] * scale
    return _irfftn(fine, spectrum)


def frozen_symbol(grid, weights):
    """Symbol of -sum_j w_j d_j dbar_j in rfftn layout, inf on the kernel modes.

    With every w_j > 0 it vanishes exactly on the modes whose every axis
    frequency is 0 or Nyquist; inf there makes divide_by_symbol drop them.
    """
    hess = _symbols(grid).hess
    symbol = -sum(w * hess[j, j] for j, w in enumerate(weights))
    return np.where(symbol > 0.0, symbol, np.inf)


def divide_by_symbol(grid, symbol, values):
    """The real field whose spectrum is values' divided by a frozen_symbol."""
    return _irfftn(grid, _rfftn(grid, np.asarray(values, dtype=np.float64)) / symbol)


@dataclass(frozen=True, eq=False)
class FormField:
    """Closed real (1,1) form: constant Hermitian part plus i d dbar of a potential.

    The potential broadcasts against grid and keeps the shape it is given,
    so a potential built from grid.coords() holds one point on each axis it
    is constant along.
    """

    grid: TorusGrid
    const: np.ndarray
    potential: np.ndarray | None = None

    def __post_init__(self):
        const = np.asarray(self.const, dtype=np.complex128)
        if const.shape != (self.grid.n, self.grid.n):
            raise InputError(f"constant part must be {self.grid.n} x {self.grid.n}")
        if not np.all(np.isfinite(const)):
            raise InputError("constant part must be finite")
        check_hermitian(const)
        object.__setattr__(self, "const", const)
        if self.potential is not None:
            pot = _field(self.grid, self.potential, "potential")
            object.__setattr__(self, "potential", None if np.max(np.abs(pot)) == 0.0 else pot)

    @property
    def is_constant(self):
        return self.potential is None

    def packed(self, phi=None):
        """This form plus i d dbar phi as real fields packed on the leading (n, n) axes.

        Shape (n, n) + the broadcast shape of the potential and phi, in
        HERMITIAN_PACKING, built on each call from one Hessian, of the
        potential plus phi, on their subtorus (the grid itself when their
        shape is the grid's), with the packed constant added; a constant form
        with phi None gives its packed (n, n) constant.
        """
        pot = self.potential
        if phi is not None:
            pot = phi if pot is None else pot + phi
        const = pack_hermitian(self.const)
        if pot is None:
            return const
        grid = self.grid if pot.shape == self.grid.shape else subtorus(self.grid, [pot])
        fields = packed_hessian(grid, pot)
        fields += const.reshape(const.shape + (1,) * (2 * self.grid.n))
        return fields

    def on(self, grid):
        """This form on grid, a sub-lattice of its own grid: the potential injected at grid's shape."""
        pot = None if self.potential is None else inject(grid, self.potential)
        return _trusted_replace(self, grid=grid, potential=pot)

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
        # an overflow is left to the constructor, which rejects it
        with np.errstate(over="ignore", invalid="ignore"):
            pot = None if self.potential is None else s * self.potential
            return FormField(self.grid, s * self.const, pot)

    __mul__ = __rmul__


def identity_form(grid):
    return FormField(grid, np.eye(grid.n))


def relative_eigenvalues(alpha, omega):
    """Descending eigenvalues of alpha relative to omega, on their subtorus.

    The full grid's bits at the points of sub = subtorus(grid, [both potentials]),
    shape sub.shape + (n,) ((1,)*2n + (n,) for a constant pair): they broadcast
    against any field on the grid.
    """
    sub = subtorus(alpha.grid, [alpha.potential, omega.potential])
    lam = packed_eigenvalues(_flat(alpha.on(sub).packed()), _flat(omega.on(sub).packed()))
    return lam.reshape(sub.shape + (sub.n,))


def _flat(fields):
    """Packed fields on one flat batch axis; a constant (n, n) matrix stays as it is."""
    return fields.reshape(fields.shape[:2] + (-1,)) if fields.ndim > 2 else fields


def _require_positive(mins, form, name):
    """Raise DomainError, naming the worst point, unless every value in mins is > 0.

    mins holds form's smallest eigenvalue on a subtorus of its grid, shaped like it, so the
    point named, the first worst one in C order, has index 0 on each reduced axis.
    """
    i = np.unravel_index(np.argmin(mins), mins.shape)
    if mins[i] <= 0.0:
        where = "every point" if form.is_constant else i
        raise DomainError(f"{name} not positive definite (min eig {mins[i]:.3e} at {where})")


def _inverse_metric(metric):
    """omega^-1 and det omega from omega packed on the leading (n, n) axes, by the adjugate.

    omega^-1 comes back packed the same way, and both keep metric's batch:
    omega.packed()'s broadcastable shape, its flat reshape, or one point when
    omega is constant, so they broadcast over any X and any density.
    """
    adj, det = packed_adjugate(metric)
    return adj / det, det


def _require_metric(omega):
    """Raise DomainError unless omega is positive definite at every point."""
    metric = omega.packed()
    lam = packed_eigenvalues(_flat(metric), np.eye(omega.grid.n))
    _require_positive(lam[..., -1].reshape(metric.shape[2:]), omega, "metric")


def _mixed(alpha, k, omega):
    """integrate_mixed without the metric check."""
    n = alpha.grid.n
    if not 0 <= k <= n:
        raise InputError(f"wedge power k={k} outside 0..{n}")
    # the classes, which fix the integral: the constant parts, packed
    metric = pack_hermitian(omega.const)
    lam = packed_eigenvalues(pack_hermitian(alpha.const), metric)
    mixed = elementary_sym(k, lam) / math.comb(n, k) * _inverse_metric(metric)[1]
    return float(mixed)


def integrate_mixed(alpha, k, omega):
    """Integral of alpha^k wedge omega^(n-k) in the fixed density convention.

    Both forms are closed, so the integral is that of their classes:
    S_k(lambda)/C(n,k) * det(omega0), with lambda the eigenvalues of alpha's
    constant part relative to omega's, omega0. No grid point enters but the
    pointwise metric check.
    """
    _require_metric(omega)
    return _mixed(alpha, k, omega)


def integrate_density(values, omega):
    """Quadrature of a scalar density against omega^n (same convention).

    The mean over the broadcast shape of the density and omega's
    determinant, whose every point stands for the same number of grid points.
    """
    det = _inverse_metric(omega.packed())[1]
    integrand = _broadcastable(omega.grid, np.asarray(values, dtype=np.float64)) * det
    return float(np.mean(integrand))


def compute_c(chi, omega, m):
    """Ratio of the top self-intersection to the m-fold mixed integral.

    Both integrals are class values; chi must still be positive definite at
    every point relative to omega.
    """
    _require_metric(omega)
    _require_positive(relative_eigenvalues(chi, omega)[..., -1], chi, "chi")
    return _mixed(chi, chi.grid.n, omega) / _mixed(chi, m, omega)


def normalize_density(f_raw, omega):
    """Rescale a positive density so its omega^n integral equals the volume."""
    grid_vals = np.asarray(f_raw, dtype=np.float64)
    if np.min(grid_vals) <= 0.0:
        raise DomainError("density must be strictly positive before normalization")
    integral = integrate_density(grid_vals, omega)
    return grid_vals * (integrate_mixed(omega, 0, omega) / integral)


def distance_to_set(grid, mask):
    """Periodic Euclidean distance from every grid point to a marked set, in the mask's shape.

    mask broadcasts against grid, and the distances are taken on its
    subtorus, which is exact: a nearest marked point shares a point's
    coordinates on the mask's one-point axes.
    """
    mask = _broadcastable(grid, np.asarray(mask, dtype=bool), "mask")
    if not mask.any():
        return np.full(mask.shape, np.inf)
    if mask.all():
        return np.zeros(mask.shape)
    sub = subtorus(grid, [mask])
    coords = np.stack([np.broadcast_to(x, sub.shape) for x in sub.coords().values()], axis=-1)
    # the coordinates lie in [0, 1), so a periodic tree measures minimum images
    tree = cKDTree(coords[mask], boxsize=1.0)
    dist, _ = tree.query(coords.reshape(-1, 2 * grid.n), k=1)
    return dist.reshape(sub.shape)


def dump_fields(dirpath, grid, fields):
    """Write scalar/hermitian fields on every grid point as raw little-endian f64 plus a JSON header.

    fields maps name -> real array broadcasting against grid (scalar) or
    FormField on grid (hermitian, written from its packed fields,
    grid.shape + (n, n) per file). Each is broadcast over the full grid at
    write time, one slab of the first axis at a time.
    """
    os.makedirs(dirpath, exist_ok=True)
    entries = []
    axis_order = ",".join(f"x{j + 1},y{j + 1}" for j in range(grid.n))
    for name, value in fields.items():
        if isinstance(value, FormField):
            if value.grid != grid:
                raise InputError(f"field {name!r} is a FormField on another grid")
            kind, tail = "hermitian", (grid.n, grid.n)
            raw = np.moveaxis(value.packed(), (0, 1), (-2, -1))
        else:
            kind, tail = "scalar", ()
            raw = _broadcastable(grid, value, f"field {name!r}")
        fname = f"{name}.bin"
        with open(os.path.join(dirpath, fname), "wb") as fh:
            for slab in np.broadcast_to(raw, grid.shape + tail):
                fh.write(np.ascontiguousarray(slab, dtype="<f8").tobytes())
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
