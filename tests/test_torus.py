"""Torus discretization tests: spectral derivatives, quadrature, and the instances tuned on it."""

import dataclasses
import functools
import math
from itertools import combinations, product

import numpy as np
import pytest
import scipy.fft
from scipy.optimize import brentq

import hessquot.instances as instances
import hessquot.torus as torus
from hessquot.errors import DomainError, InputError
from hessquot.instances import boundary_degenerate_instance, boundary_instance, manufactured_instance
from hessquot.pointwise import cone_margin, packed_eigenvalues
from hessquot.solver import EquationSpec, strip_kernel_modes
from hessquot.symfunc import elementary_sym
from hessquot.torus import (
    FormField,
    TorusGrid,
    compute_c,
    distance_to_set,
    divide_by_symbol,
    dump_fields,
    frozen_symbol,
    hessian_trace,
    holomorphic_gradient,
    identity_form,
    inject,
    integrate_density,
    integrate_mixed,
    load_fields,
    normalize_density,
    pack_hermitian,
    packed_hessian,
    relative_eigenvalues,
    subtorus,
    unpack_hermitian,
)

TWO_PI = 2.0 * np.pi


def grid_field(grid, expr):
    """Evaluate a broadcastable expression of the coords to a full grid array."""
    return np.ascontiguousarray(np.broadcast_to(expr, grid.shape)).astype(np.float64)


def trig_poly(grid, rng, max_mode=3, terms=6, amplitude=0.3):
    """Random real band-limited field, modes bounded by max_mode per axis."""
    c = grid.coords()
    names = sorted(c)
    out = 0.0
    for _ in range(terms):
        modes = rng.integers(-max_mode, max_mode + 1, size=len(names))
        phase = TWO_PI * sum(int(k) * c[nm] for k, nm in zip(modes, names))
        out = out + rng.normal() * amplitude * np.cos(phase + rng.uniform(0, TWO_PI))
    return grid_field(grid, out)


def complex_hessian(grid, phi):
    """Spectral complex Hessian (d_i dbar_j phi), shape grid.shape + (n, n), unpacked.

    A phi with one point on some axes is broadcast over the grid first.
    """
    if np.ndim(phi) == len(grid.shape):
        phi = np.broadcast_to(phi, grid.shape)
    return unpack_hermitian(np.moveaxis(packed_hessian(grid, phi), (0, 1), (-2, -1)))


def full_packed(form, phi=None):
    """form + i d dbar phi packed at every grid point, from one Hessian of the
    potentials broadcast over the full grid; the packed constant when both are None."""
    grid = form.grid
    pot = form.potential
    if phi is not None:
        pot = phi if pot is None else pot + phi
    const = pack_hermitian(form.const)
    if pot is None:
        return const
    return packed_hessian(grid, np.broadcast_to(pot, grid.shape)) + const.reshape(const.shape + (1,) * len(grid.shape))


def metric_det(omega):
    """LAPACK's det of omega's matrix at every point (P,), or one value when omega is constant."""
    mats = omega.const
    if not omega.is_constant:
        mats = (mats + complex_hessian(omega.grid, omega.potential)).reshape(-1, omega.grid.n, omega.grid.n)
    return np.linalg.det(mats).real


def grid_eigenvalues(alpha, omega, phi=None):
    """Eigenvalues of alpha + i d dbar phi relative to omega at every grid point, (P, n).

    packed_eigenvalues on the full grid's flat packed fields, every
    potential broadcast over the grid, with no subtorus; one spectrum (n,)
    when alpha and omega are constant and phi is None.
    """
    n = alpha.grid.n
    fields, metric = full_packed(alpha, phi), full_packed(omega)
    return packed_eigenvalues(
        fields.reshape(n, n, -1) if fields.ndim > 2 else fields,
        metric.reshape(n, n, -1) if metric.ndim > 2 else metric,
    )


def pointwise_mixed(alpha, k, omega, lam=None):
    """Grid quadrature of alpha^k wedge omega^(n-k): the mean of S_k(lambda)/C(n,k) det omega.

    lambda are alpha's eigenvalues relative to omega at every grid point
    (computed unless given); the integrand is the one the class value
    integrates exactly (Stokes).
    """
    n = alpha.grid.n
    lam = grid_eigenvalues(alpha, omega) if lam is None else lam
    integrand = elementary_sym(k, lam) / math.comb(n, k) * metric_det(omega)
    return float(np.mean(np.broadcast_to(integrand, lam.shape[:-1])))


class TestGrid:
    def test_shape_and_size(self):
        g = TorusGrid(2, 8)
        assert g.shape == (8, 8, 8, 8)
        assert g.npoints == 8**4

    def test_validation(self):
        with pytest.raises(InputError):
            TorusGrid(4, 8)
        with pytest.raises(InputError):
            TorusGrid(2, 6)
        with pytest.raises(InputError):
            TorusGrid(2, 2)

    @pytest.mark.parametrize("axes", [(7,), (4,), (-1,), [1], (1, 0), (1, 1), ("x1",), 1])
    def test_constant_axes_validation(self, axes):
        # a sorted tuple of distinct axes in range(2n), or nothing is built
        with pytest.raises(InputError, match="constant_axes"):
            TorusGrid(2, 8, constant_axes=axes)

    def test_constant_axes_accepted(self):
        assert TorusGrid(2, 8, constant_axes=(0, 3)).shape == (1, 8, 8, 1)
        assert TorusGrid(2, 8, constant_axes=(0, 1, 2, 3)).npoints == 1

    def test_coords_broadcast(self):
        g = TorusGrid(2, 8)
        c = g.coords()
        assert set(c) == {"x1", "y1", "x2", "y2"}
        assert c["y2"].shape == (1, 1, 1, 8)
        total = sum(c.values())
        assert np.broadcast_shapes(total.shape) == g.shape

    def test_nyquist_dropped(self):
        g = TorusGrid(2, 8)
        k = g.wavenumber(0).ravel()
        assert k[4] == 0.0
        assert k[1] == pytest.approx(TWO_PI)
        assert k[-1] == pytest.approx(-TWO_PI)


class TestComplexHessian:
    def test_single_cosine(self):
        # d1 dbar1 = (dxx + dyy)/4 so cos(2 pi x1) maps to -pi^2 cos(2 pi x1)
        g = TorusGrid(2, 16)
        x1 = g.coords()["x1"]
        phi = grid_field(g, np.cos(TWO_PI * x1))
        hess = complex_hessian(g, phi)
        want = grid_field(g, -np.pi**2 * np.cos(TWO_PI * x1))
        assert np.max(np.abs(hess[..., 0, 0].real - want)) < 1e-12
        assert np.max(np.abs(hess[..., 0, 1])) < 1e-13
        assert np.max(np.abs(hess[..., 1, 1])) < 1e-13

    def test_mixed_entry_analytic(self):
        g = TorusGrid(2, 16)
        c = g.coords()
        phi = grid_field(g, np.sin(TWO_PI * c["x1"]) * np.sin(TWO_PI * c["y2"]))
        hess = complex_hessian(g, phi)
        want = np.broadcast_to(
            1j * np.pi**2 * np.cos(TWO_PI * c["x1"]) * np.cos(TWO_PI * c["y2"]), g.shape
        )
        assert np.max(np.abs(hess[..., 0, 1] - want)) < 1e-12
        assert np.max(np.abs(hess[..., 1, 0] - np.conj(want))) < 1e-12

    def test_against_finite_differences_fine_grid(self):
        # independent 6th-order centered stencil; agreement budget 1e-6
        g = TorusGrid(2, 64)
        c = g.coords()
        phi = grid_field(g, np.sin(TWO_PI * c["x1"]) * np.sin(TWO_PI * c["y2"]))
        # H_01 from its packed real and imaginary fields, no unpacked complex stack
        hess = packed_hessian(g, phi)
        entry = hess[0, 1] + 1j * hess[1, 0]
        del hess
        h = 1.0 / g.N
        idx = np.arange(g.N)
        stencil = np.zeros((g.N, g.N))
        for k, w in ((1, 45.0), (2, -9.0), (3, 1.0)):
            stencil[idx, (idx + k) % g.N] += w / (60.0 * h)
            stencil[idx, (idx - k) % g.N] -= w / (60.0 * h)

        def diff(f, axis):
            # the periodic stencil along one axis, as one circulant matrix product
            return np.moveaxis(np.moveaxis(f, axis, -1) @ stencil.T, -1, axis)

        dbar2 = 0.5 * (diff(phi, 2) + 1j * diff(phi, 3))
        fd = 0.5 * (diff(dbar2, 0) - 1j * diff(dbar2, 1))
        scale = np.max(np.abs(entry))
        assert np.max(np.abs(entry - fd)) / scale < 1e-6

    def test_hermitian_exactly(self):
        g = TorusGrid(2, 8)
        phi = trig_poly(g, np.random.default_rng(3))
        hess = complex_hessian(g, phi)
        swapped = np.conj(np.swapaxes(hess, -1, -2))
        assert np.array_equal(hess, swapped)
        assert np.all(hess[..., 0, 0].imag == 0.0)

    def test_band_limited_refinement_exact(self):
        # spectral differentiation is exact below the Nyquist band, so the
        # coarse evaluation must match the fine one on shared points
        coarse = TorusGrid(2, 8)
        fine = TorusGrid(2, 16)
        rng = np.random.default_rng(7)
        phi_c = trig_poly(coarse, rng, max_mode=3)
        rng = np.random.default_rng(7)
        phi_f = trig_poly(fine, rng, max_mode=3)
        hc = complex_hessian(coarse, phi_c)
        hf = complex_hessian(fine, phi_f)[::2, ::2, ::2, ::2]
        assert np.max(np.abs(hc - hf)) < 1e-12

    def test_translation_invariance(self):
        g = TorusGrid(2, 8)
        phi = trig_poly(g, np.random.default_rng(11))
        rolled = np.roll(phi, (3, 1, 0, 5), axis=(0, 1, 2, 3))
        ha = np.roll(complex_hessian(g, phi), (3, 1, 0, 5), axis=(0, 1, 2, 3))
        hb = complex_hessian(g, rolled)
        assert np.max(np.abs(ha - hb)) < 1e-12

    def test_linearity_and_homogeneity(self):
        g = TorusGrid(2, 8)
        rng = np.random.default_rng(13)
        pa = trig_poly(g, rng)
        pb = trig_poly(g, rng)
        lhs = complex_hessian(g, 2.5 * pa - pb)
        rhs = 2.5 * complex_hessian(g, pa) - complex_hessian(g, pb)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_rejects_bad_shapes(self):
        g = TorusGrid(2, 8)
        with pytest.raises(InputError):
            complex_hessian(g, np.zeros((8, 8)))
        bad = np.zeros(g.shape)
        bad[0, 0, 0, 0] = np.nan
        with pytest.raises(InputError):
            complex_hessian(g, bad)


class TestGradient:
    def test_analytic(self):
        g = TorusGrid(2, 16)
        c = g.coords()
        phi = grid_field(g, np.sin(TWO_PI * c["x1"]) * np.sin(TWO_PI * c["y2"]))
        grad = holomorphic_gradient(g, phi)
        want1 = np.broadcast_to(
            np.pi * np.cos(TWO_PI * c["x1"]) * np.sin(TWO_PI * c["y2"]), g.shape
        )
        # d/dz2 of sin(2 pi y2) is -i/2 * 2 pi cos = -i pi cos
        want2 = np.broadcast_to(
            -1j * np.pi * np.sin(TWO_PI * c["x1"]) * np.cos(TWO_PI * c["y2"]), g.shape
        )
        assert np.max(np.abs(grad[..., 0] - want1)) < 1e-12
        assert np.max(np.abs(grad[..., 1] - want2)) < 1e-12

    def test_constant_has_zero_gradient(self):
        g = TorusGrid(2, 8)
        grad = holomorphic_gradient(g, np.full(g.shape, 4.2))
        assert np.max(np.abs(grad)) < 1e-14


# Complex-FFT reference definitions of the spectral operators: full complex
# N-D transforms with the symbol of d/dz_j written out directly.
def oracle_multiplier(grid, j):
    return 0.5 * (grid.wavenumber(2 * j + 1) + 1j * grid.wavenumber(2 * j))


def oracle_hessian(grid, phi):
    fhat = np.fft.fftn(phi)
    mults = [oracle_multiplier(grid, j) for j in range(grid.n)]
    hess = np.empty(grid.shape + (grid.n, grid.n), dtype=np.complex128)
    for j in range(grid.n):
        for k in range(j, grid.n):
            entry = np.fft.ifftn(fhat * (-mults[j] * np.conj(mults[k])))
            if j == k:
                entry = entry.real.astype(np.complex128)
            hess[..., j, k] = entry
            hess[..., k, j] = np.conj(entry)
    return hess


def oracle_gradient(grid, phi):
    fhat = np.fft.fftn(phi)
    return np.stack(
        [np.fft.ifftn(fhat * oracle_multiplier(grid, j)) for j in range(grid.n)], axis=-1
    )


def oracle_strip(grid, values, keep_mean=False):
    fhat = np.fft.fftn(values)
    for idx in product((0, grid.N // 2), repeat=2 * grid.n):
        if keep_mean and not any(idx):
            continue
        fhat[idx] = 0.0
    return np.fft.ifftn(fhat).real


def parity_classes(grid):
    """Indicator fields of the 2^(2n) classes of grid points by index parity."""
    idx = np.indices(grid.shape) % 2
    for parity in product((0, 1), repeat=2 * grid.n):
        mask = np.all(idx == np.reshape(parity, (-1,) + (1,) * (2 * grid.n)), axis=0)
        yield mask.astype(np.float64)


def assert_rel(got, want, rtol=1e-12):
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


GRIDS = [pytest.param(2, 8, id="n2-N8"), pytest.param(3, 4, id="n3-N4")]


def z1_potential(grid, rng):
    """A random field of x1 and y1 alone, whose complex Hessian is H_11 alone."""
    vals = rng.normal(size=(grid.N, grid.N) + (1,) * (2 * grid.n - 2))
    return np.broadcast_to(vals, grid.shape).copy()


class TestRealFFTLayer:
    """The real-FFT operators against the complex-FFT oracles above, on random
    fields that are not band-limited and carry Nyquist content."""

    @pytest.mark.parametrize(("n", "N"), GRIDS)
    def test_matches_complex_fft_oracle(self, n, N):
        grid = TorusGrid(n, N)
        rng = np.random.default_rng(N + n)
        phi = rng.normal(size=grid.shape)
        z1 = z1_potential(grid, rng)
        for phi in (phi, z1):
            want = oracle_hessian(grid, phi)
            assert_rel(complex_hessian(grid, phi), want)
            packed = np.moveaxis(packed_hessian(grid, phi), (0, 1), (-2, -1))
            assert_rel(packed, pack_hermitian(want))
            assert_rel(holomorphic_gradient(grid, phi), oracle_gradient(grid, phi))
            for keep_mean in (False, True):
                assert_rel(
                    strip_kernel_modes(grid, phi, keep_mean=keep_mean),
                    oracle_strip(grid, phi, keep_mean=keep_mean),
                )
        # the z1 potential's skipped fields are exact zeros
        packed = packed_hessian(grid, z1).reshape(n * n, -1)
        assert np.any(packed[0]) and np.all(packed[1:] == 0.0)
        grad = holomorphic_gradient(grid, z1)
        assert np.any(grad[..., 0]) and np.all(grad[..., 1:] == 0.0)

    @pytest.mark.parametrize(("n", "N"), GRIDS)
    def test_zero_spectra_are_not_transformed(self, n, N, monkeypatch):
        grid = TorusGrid(n, N)
        rng = np.random.default_rng(3)
        fields = []

        def spy(grid, spectrum):
            fields.append(len(spectrum))
            return irfftn(grid, spectrum)

        irfftn = torus._irfftn
        monkeypatch.setattr(torus, "_irfftn", spy)
        packed_hessian(grid, z1_potential(grid, rng))
        assert fields == [1]
        fields.clear()
        packed_hessian(grid, rng.normal(size=grid.shape))
        assert fields == [n * n]

    def test_skip_is_exact(self):
        # only a product with no nonzero entry is skipped: a NaN or the
        # smallest subnormal still takes its transform, and -0.0 does not
        grid = TorusGrid(2, 4)
        spectrum = np.zeros(grid.shape[:-1] + (grid.N // 2 + 1,), dtype=np.complex128)
        ones = np.ones(spectrum.shape)
        for entry in (np.nan, 5e-324, 1j * 5e-324):
            spectrum[1, 2, 3, 1] = entry
            rows, fields = torus._inverse_products(grid, spectrum, ones[None])
            assert rows.tolist() == [0] and fields.shape == (1,) + grid.shape
        # each product is tested on its own: a zero symbol row is skipped
        rows, fields = torus._inverse_products(grid, spectrum, np.stack([0.0 * ones, ones]))
        assert rows.tolist() == [1] and fields.shape == (1,) + grid.shape
        spectrum[1, 2, 3, 1] = -0.0
        rows, fields = torus._inverse_products(grid, spectrum, np.stack([ones, -ones]))
        assert rows.tolist() == [] and fields.shape == (0,) + grid.shape

    @pytest.mark.parametrize(("n", "N"), GRIDS)
    def test_inverse_transform_matches_numpy(self, n, N):
        # complex transforms over the leading axes, then a real one along the
        # last, on spectra with Nyquist content along every axis, one at a
        # time and stacked on a leading axis
        grid = TorusGrid(n, N)
        rng = np.random.default_rng(n * N)
        spectra = np.fft.rfftn(rng.normal(size=(2,) + grid.shape), axes=range(1, 2 * n + 1))
        for spectrum in spectra:
            assert all(np.max(np.abs(np.take(spectrum, N // 2, axis=a))) > 0.0 for a in range(2 * n))
        want = np.fft.irfftn(spectra, s=grid.shape, axes=range(1, 2 * n + 1))
        assert_rel(torus._irfftn(grid, spectra[0].copy()), want[0], rtol=1e-13)
        assert_rel(torus._irfftn(grid, spectra.copy()), want, rtol=1e-13)
        # stacked, each field keeps the bits of scipy's irfftn of it alone
        alone = [scipy.fft.irfftn(spectrum, s=grid.shape) for spectrum in spectra]
        assert np.array_equal(torus._irfftn(grid, spectra.copy()), np.stack(alone))

    @pytest.mark.parametrize("n", [2, 3])
    def test_one_transform_pair_per_spectrum(self, n, monkeypatch):
        # one forward transform, and one inverse pair for every nonzero
        # field at once or none when all are zero, however many fields; on
        # a grid with one varying axis each is a single 1-D call, and on the
        # grid of one point no Hessian row is live, so no call is made
        grid = TorusGrid(n, 4)
        rng = np.random.default_rng(7)
        calls = []

        def spied(name, fn):
            def spy(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return spy

        for name in ("rfftn", "ifftn", "irfft", "irfftn", "fftn", "fft", "ifft", "rfft"):
            monkeypatch.setattr(scipy.fft, name, spied(name, getattr(scipy.fft, name)))
        symbol = frozen_symbol(grid, np.ones(n))
        weights = rng.normal(size=(n, n, grid.npoints))
        c = grid.coords()
        z1z2 = np.sin(TWO_PI * c["x1"]) * np.cos(TWO_PI * c["y2"])
        for phi, nonzero in [
            (np.full(grid.shape, 2.0), 0),
            (z1_potential(grid, rng), 1),
            (np.broadcast_to(z1z2, grid.shape).copy(), 3),
            (rng.normal(size=grid.shape), n * n),
        ]:
            for op in (
                lambda: packed_hessian(grid, phi),
                lambda: hessian_trace(grid, weights, phi, symbol),
                lambda: holomorphic_gradient(grid, phi),
            ):
                calls.clear()
                op()
                assert calls == ["rfftn"] + (["ifftn", "irfft"] if nonzero else [])
            fields = packed_hessian(grid, phi).reshape(n * n, -1)
            assert np.count_nonzero(np.any(fields, axis=1)) == nonzero
        # one varying axis: a leading one takes fft and ifft, the last one
        # rfftn and irfft, and a nonconstant field has one live Hessian row
        for axis, pair in [(0, ["fft", "ifft"]), (2 * n - 1, ["rfftn", "irfft"])]:
            line = dataclasses.replace(grid, constant_axes=tuple(a for a in range(2 * n) if a != axis))
            symbol = frozen_symbol(line, np.ones(n))
            weights = rng.normal(size=(n, n, line.npoints))
            for phi, nonzero in [(np.full(line.shape, 2.0), False), (rng.normal(size=line.shape), True)]:
                for op in (
                    lambda: packed_hessian(line, phi),
                    lambda: hessian_trace(line, weights, phi, symbol),
                    lambda: holomorphic_gradient(line, phi),
                ):
                    calls.clear()
                    op()
                    assert calls == pair[:1 + nonzero]
                fields = packed_hessian(line, phi).reshape(n * n, -1)
                assert np.count_nonzero(np.any(fields, axis=1)) == nonzero
        # every axis at one point: exact zeros, with no transform
        point = dataclasses.replace(grid, constant_axes=tuple(range(2 * n)))
        phi = np.full(point.shape, 2.0)
        calls.clear()
        hess = packed_hessian(point, phi)
        trace = hessian_trace(point, rng.normal(size=(n, n, 1)), phi, frozen_symbol(point, np.ones(n)))
        assert calls == []
        assert hess.shape == (n, n) + point.shape and not np.any(hess)
        assert trace.shape == point.shape and not np.any(trace)

    @pytest.mark.parametrize(("n", "N"), GRIDS + [pytest.param(2, 4, id="n2-N4")])
    def test_projection_kernel_is_the_parity_classes(self, n, N):
        grid = TorusGrid(n, N)
        rng = np.random.default_rng(5)
        u, v = rng.normal(size=(2,) + grid.shape)
        for keep_mean in (False, True):
            once = strip_kernel_modes(grid, u, keep_mean)
            assert np.max(np.abs(strip_kernel_modes(grid, once, keep_mean) - once)) <= 1e-13
            # symmetric and idempotent, so the null space has dimension P - trace
            pv = strip_kernel_modes(grid, v, keep_mean)
            assert abs(np.vdot(once, v) - np.vdot(u, pv)) <= 1e-10
            unit = np.zeros(grid.npoints)
            trace = 0.0
            for i in range(grid.npoints):
                unit[i] = 1.0
                trace += strip_kernel_modes(grid, unit.reshape(grid.shape), keep_mean).flat[i]
                unit[i] = 0.0
            kernel = 4**n - (1 if keep_mean else 0)
            assert round(trace) == grid.npoints - kernel
            assert abs(trace - round(trace)) <= 1e-9
        # the 2^(2n) disjoint class indicators all lie in it, so they span it
        classes = list(parity_classes(grid))
        assert len(classes) == 4**n
        for ind in classes:
            assert np.max(np.abs(strip_kernel_modes(grid, ind))) <= 1e-14
            kept = strip_kernel_modes(grid, ind, keep_mean=True)
            assert np.max(np.abs(kept - ind.mean())) <= 1e-14

    @pytest.mark.parametrize(("n", "N"), GRIDS)
    def test_divide_by_symbol_inverts_frozen_operator(self, n, N):
        grid = TorusGrid(n, N)
        rng = np.random.default_rng(9)
        u = rng.normal(size=grid.shape)
        weights = rng.uniform(0.5, 2.0, size=n)
        hess = oracle_hessian(grid, u)
        values = -sum(w * hess[..., j, j].real for j, w in enumerate(weights))
        symbol = frozen_symbol(grid, weights)
        got = divide_by_symbol(grid, symbol, values)
        assert_rel(got, strip_kernel_modes(grid, u))
        # fused: the weighted packed trace of the Hessian of S^-1 u from one
        # forward transform, kernel and Nyquist content of u included
        w = rng.normal(size=(n, n, grid.npoints))
        z1 = z1_potential(grid, rng)
        for u in (u, z1):
            hess = pack_hermitian(oracle_hessian(grid, divide_by_symbol(grid, symbol, u)))
            hess = np.moveaxis(hess, (-2, -1), (0, 1)).reshape(n, n, -1)
            want = np.einsum("jkp,jkp->p", w, hess).reshape(grid.shape)
            assert_rel(hessian_trace(grid, w, u, symbol), want)
        # a z1 potential reads no weight but that of H_11
        nan_w = w.copy()
        nan_w.reshape(n * n, -1)[1:] = np.nan
        got = hessian_trace(grid, nan_w, z1, symbol)
        assert np.array_equal(got, hessian_trace(grid, w, z1, symbol))


# Full-array real-FFT references of the five operators: one rfftn of the whole
# field, each product spectrum inverse transformed by irfftn unless it has no
# nonzero entry, in which case the field is written as exact zeros.
def full_fields(grid, spectrum, symbols):
    for symbol in symbols:
        field = spectrum * symbol
        yield scipy.fft.irfftn(field, s=grid.shape) if field.any() else np.zeros(grid.shape)


def hessian_symbols(grid):
    hess = torus._symbols(grid)[2]
    return hess.reshape((-1,) + hess.shape[2:])


def full_hessian(grid, phi):
    fields = full_fields(grid, scipy.fft.rfftn(phi), hessian_symbols(grid))
    return np.stack(list(fields)).reshape((grid.n, grid.n) + grid.shape)


def full_trace(grid, weights, values, symbol):
    fields = full_fields(grid, scipy.fft.rfftn(values) / symbol, hessian_symbols(grid))
    trace = np.zeros(grid.shape)
    for weight, field in zip(weights.reshape((-1,) + grid.shape), fields):
        if field.any():
            trace += field * weight
    return trace


def full_gradient(grid, phi):
    kx, ky = torus._symbols(grid)[:2]
    symbols = [0.5j * k for k in kx] + [-0.5j * k for k in ky]
    parts = np.stack(list(full_fields(grid, scipy.fft.rfftn(phi), symbols)))
    return np.moveaxis(parts[: grid.n] + 1j * parts[grid.n :], 0, -1)


def full_divide(grid, symbol, values):
    return scipy.fft.irfftn(scipy.fft.rfftn(values) / symbol, s=grid.shape)


def full_prolong(grid, values):
    N, ndim = grid.N, 2 * grid.n
    src = [np.r_[0 : N // 2, N // 2 + 1 : N]] * (ndim - 1) + [np.arange(N // 2)]
    dst = [np.r_[0 : N // 2, 3 * N // 2 + 1 : 2 * N]] * (ndim - 1) + [np.arange(N // 2)]
    spectrum = np.zeros((2 * N,) * (ndim - 1) + (N + 1,), dtype=np.complex128)
    spectrum[np.ix_(*dst)] = scipy.fft.rfftn(values)[np.ix_(*src)] * 2.0**ndim
    return scipy.fft.irfftn(spectrum, s=(2 * N,) * ndim)


def assert_bits(got, want):
    """got and want have one dtype, one shape and the same bits, but for the
    sign of an exact zero: a transform along an axis where its input is
    constant sums signed zeros that the slab never forms."""
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert (got + 0.0).tobytes() == (want + 0.0).tobytes()


def at_points(sub, values, lead=0):
    """An operator's output on the full grid at the points of the subtorus grid sub.

    lead axes come before the grid's axes (the packed (n, n) of a Hessian);
    axes after them (a gradient's (n,)) are kept whole.
    """
    index = tuple(slice(0, 1) if size == 1 else slice(None) for size in sub.shape)
    return values[(slice(None),) * lead + index]


def constant_along(grid, rng, axes, lead=()):
    """A random field constant along the given axes and varying along the others."""
    size = [1 if axis in axes else grid.N for axis in range(2 * grid.n)]
    return np.broadcast_to(rng.normal(size=lead + tuple(size)), lead + grid.shape).copy()


def on_slab(values, axes):
    """A full field at index 0 on each of axes: the shape of a field built constant along them."""
    return values[tuple(slice(0, 1) if axis in axes else slice(None) for axis in range(values.ndim))]


def assert_operators_exact(grid, phi, rng, axes):
    """The operators on phi, a full field constant along axes, bit for bit; returns its subtorus grid.

    On the full grid the five spectral operators match the full-array
    references; on the subtorus of phi's values at index 0 on axes they,
    frozen_symbol and inject give the full grid's bits at the subtorus
    points. The Hessian-trace weights there are constant wherever phi is,
    as the solver's are. strip_kernel_modes averages fewer copies of each
    value on the subtorus, so it matches to rounding.
    """
    n = grid.n
    reduced = on_slab(phi, axes)
    assert np.array_equal(np.broadcast_to(reduced, grid.shape), phi)
    sub = subtorus(grid, [reduced])
    on = functools.partial(inject, sub)
    assert np.array_equal(reduced, on(phi))
    weights = rng.normal(size=(n, n, grid.npoints))
    scales = rng.uniform(0.5, 2.0, size=n)
    symbol = frozen_symbol(grid, scales)
    sub_symbol = frozen_symbol(sub, scales)
    assert_bits(packed_hessian(grid, phi), full_hessian(grid, phi))
    assert_bits(hessian_trace(grid, weights, phi, symbol), full_trace(grid, weights, phi, symbol))
    assert_bits(holomorphic_gradient(grid, phi), full_gradient(grid, phi))
    assert_bits(divide_by_symbol(grid, symbol, phi), full_divide(grid, symbol, phi))
    assert_bits(torus.prolong(grid, phi), full_prolong(grid, phi))

    assert_bits(sub_symbol, at_points(sub, symbol))
    weights = constant_along(grid, rng, sub.constant_axes, lead=(n, n))
    sub_weights = np.stack([on(w) for w in weights.reshape((-1,) + grid.shape)]).reshape(n, n, -1)
    weights = weights.reshape(n, n, -1)
    assert_bits(packed_hessian(sub, on(phi)), at_points(sub, packed_hessian(grid, phi), lead=2))
    assert_bits(
        hessian_trace(sub, sub_weights, on(phi), sub_symbol),
        at_points(sub, hessian_trace(grid, weights, phi, symbol)),
    )
    assert_bits(holomorphic_gradient(sub, on(phi)), at_points(sub, holomorphic_gradient(grid, phi)))
    assert_bits(
        divide_by_symbol(sub, sub_symbol, on(phi)),
        at_points(sub, divide_by_symbol(grid, symbol, phi)),
    )
    fine = dataclasses.replace(sub, N=2 * grid.N)
    assert_bits(torus.prolong(sub, on(phi)), at_points(fine, torus.prolong(grid, phi)))
    if grid.N > 4:
        coarse = dataclasses.replace(sub, N=grid.N // 2)
        half = dataclasses.replace(grid, N=grid.N // 2)
        assert_bits(inject(coarse, on(phi)), at_points(coarse, inject(half, phi)))
    for keep_mean in (False, True):
        got = strip_kernel_modes(sub, on(phi), keep_mean)
        assert_rel(got, at_points(sub, strip_kernel_modes(grid, phi, keep_mean)), rtol=1e-15)
    return sub


class TestVaryingSlab:
    """subtorus() of fields built constant along some axes keeps the axes
    they share, and the operators on that grid give the full grid's bits."""

    @pytest.mark.parametrize(("n", "N"), GRIDS)
    def test_every_subset_of_constant_axes_is_exact(self, n, N):
        # the empty subset, the last axis alone and all axes are among them
        grid = TorusGrid(n, N)
        rng = np.random.default_rng(23)
        for count in range(2 * n + 1):
            for axes in combinations(range(2 * n), count):
                phi = constant_along(grid, rng, axes)
                sub = assert_operators_exact(grid, phi, rng, axes)
                assert sub.constant_axes == axes
                assert sub.shape == tuple(1 if axis in axes else N for axis in range(2 * n))
                assert sub.npoints == N ** (2 * n - count)
                # a field that varies along every axis is read uncopied
                assert count or np.shares_memory(inject(sub, phi), phi)
                # a second field keeps the axes both are constant along
                other = on_slab(constant_along(grid, rng, axes[1:]), axes[1:])
                assert subtorus(grid, [on_slab(phi, axes), None, other]).constant_axes == axes[1:]
                assert subtorus(sub, [inject(sub, phi)]) == sub
                # relative_eigenvalues reduces its own inputs to phi's subtorus
                eye = identity_form(grid)
                phi_form = FormField(grid, np.zeros((n, n)), on_slab(phi, axes))
                lam = relative_eigenvalues(eye + phi_form, eye)
                assert lam.shape == sub.shape + (n,)
                full = grid_eigenvalues(eye, eye, phi).reshape(grid.shape + (n,))
                assert np.array_equal(lam, at_points(sub, full))

    def test_signed_zeros_vary(self):
        # 0.0 == -0.0, but a field that mixes them along an axis varies there
        grid = TorusGrid(2, 8)
        phi = np.zeros(grid.shape)
        phi[:, 0] = -0.0
        assert_operators_exact(grid, phi, np.random.default_rng(0), (0, 2, 3))

    def test_one_ulp_makes_an_axis_vary(self):
        grid = TorusGrid(2, 8)
        rng = np.random.default_rng(29)
        z1 = constant_along(grid, rng, (2, 3))
        # a whole slice along x2, which the line through index 0 shows
        phi = z1.copy()
        phi[:, :, 1] = np.nextafter(phi[:, :, 1], np.inf)
        assert_operators_exact(grid, phi, rng, (3,))
        # one point off every line through index 0, which only the full test shows
        phi = z1.copy()
        phi[3, 5, 2, 7] = np.nextafter(phi[3, 5, 2, 7], -np.inf)
        assert_operators_exact(grid, phi, rng, ())

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_field_is_not_reduced(self, bad):
        # a transform of a non-finite field spreads its non-finite value
        # along every axis, as on the full grid
        grid = TorusGrid(2, 8)
        rng = np.random.default_rng(31)
        phi = constant_along(grid, rng, (2, 3))
        phi[1, 2] = bad
        symbol = frozen_symbol(grid, [1.0, 1.5])
        with np.errstate(invalid="ignore"):
            got = divide_by_symbol(grid, symbol, phi)
            assert_bits(got, full_divide(grid, symbol, phi))

    def test_forward_transforms_run_on_the_slab(self, monkeypatch):
        # every forward entry point is spied: a slab whose last axis holds
        # one point takes a complex transform
        grid = TorusGrid(2, 8)
        rng = np.random.default_rng(37)
        shapes = []

        def spied(fn):
            def spy(x, *args, **kwargs):
                shapes.append(np.shape(x))
                return fn(x, *args, **kwargs)
            return spy

        for name in ("rfftn", "rfft", "fftn", "fft"):
            monkeypatch.setattr(scipy.fft, name, spied(getattr(scipy.fft, name)))
        z1, random = on_slab(z1_potential(grid, rng), (2, 3)), rng.normal(size=grid.shape)
        for phi, want in ((z1, (8, 8, 1, 1)), (random, grid.shape)):
            sub = subtorus(grid, [phi])
            phi = inject(sub, phi)
            symbol = frozen_symbol(sub, [1.0, 1.5])
            weights = rng.normal(size=(2, 2, sub.npoints))
            packed_hessian(sub, phi)
            hessian_trace(sub, weights, phi, symbol)
            holomorphic_gradient(sub, phi)
            divide_by_symbol(sub, symbol, phi)
            torus.prolong(sub, phi)
            assert shapes == [want] * 5
            shapes.clear()


def drop_nyquist(grid, values):
    """The field without the modes at the Nyquist frequency of any axis."""
    spectrum = np.fft.fftn(values)
    for axis in range(2 * grid.n):
        index = [slice(None)] * (2 * grid.n)
        index[axis] = grid.N // 2
        spectrum[tuple(index)] = 0.0
    return np.fft.ifftn(spectrum).real


# (n, coarse N): prolongation goes to 2N, restriction comes back
TRANSFERS = [pytest.param(2, 8, id="n2-N16to8"), pytest.param(3, 4, id="n3-N8to4")]


class TestGridTransfer:
    @pytest.mark.parametrize(("n", "N"), TRANSFERS)
    def test_prolongation_is_exact_for_band_limited_fields(self, n, N):
        coarse, fine = TorusGrid(n, N), TorusGrid(n, 2 * N)
        phi_c = trig_poly(coarse, np.random.default_rng(13), max_mode=N // 2 - 1)
        phi_f = trig_poly(fine, np.random.default_rng(13), max_mode=N // 2 - 1)
        assert np.max(np.abs(torus.prolong(coarse, phi_c) - phi_f)) <= 1e-13
        assert np.array_equal(inject(coarse, phi_f), phi_f[(slice(None, None, 2),) * (2 * n)])
        form = FormField(fine, np.eye(n), 0.01 * phi_f).on(coarse)
        assert form.grid == coarse
        want = FormField(coarse, np.eye(n), 0.01 * phi_c).packed()
        assert np.max(np.abs(form.packed() - want)) <= 1e-13

    @pytest.mark.parametrize(("n", "N"), TRANSFERS)
    def test_restriction_inverts_prolongation(self, n, N):
        coarse, fine = TorusGrid(n, N), TorusGrid(n, 2 * N)
        v = drop_nyquist(coarse, np.random.default_rng(17).normal(size=coarse.shape))
        assert np.max(np.abs(inject(coarse, torus.prolong(coarse, v)) - v)) <= 1e-13

    def test_restricted_spec_matches_the_coarse_instance(self):
        got = manufactured_instance(N=32).spec(0.5).on(TorusGrid(2, 16))
        want = manufactured_instance(N=16).spec(0.5)
        assert got.grid == want.grid
        assert (got.n, got.m, got.unknown_mode) == (want.n, want.m, want.unknown_mode)
        for name in ("background", "omega"):
            a, b = getattr(got, name), getattr(want, name)
            assert np.array_equal(a.const, b.const)
            assert a.is_constant == b.is_constant
            assert np.max(np.abs(a.packed() - b.packed())) <= 1e-13
        for name in ("coefficient_field", "source_field"):
            assert np.max(np.abs(getattr(got, name) - getattr(want, name))) <= 1e-13

    def test_restricted_additive_source_is_renormalized(self):
        # 1 + (-1)^j / 2 along x1 has mean 1 on the fine grid but is 3/2 on
        # every coarse point, so injection alone would break the normalization
        grid = TorusGrid(2, 8)
        sign = (-1.0) ** np.arange(8).reshape(8, 1, 1, 1)
        spec = EquationSpec(
            n=2, m=1, background=FormField(grid, 3.0 * np.eye(2)),
            omega=identity_form(grid), coefficient_field=1.0,
            source_field=1.0 + 0.5 * sign,
        )
        mult = dataclasses.replace(spec, unknown_mode="multiplicative")
        # the spec holds the source on its 8 points along x1; on its own grid
        # it is materialized once, and that spec comes back as it is
        assert spec.source_field.shape == (8, 1, 1, 1)
        full = spec.on(grid)
        assert full.source_field.shape == grid.shape and full.on(grid) is full
        assert np.array_equal(full.source_field, np.broadcast_to(spec.source_field, grid.shape))
        for coarse in (TorusGrid(2, 4), TorusGrid(2, 4, (1, 2, 3))):
            got = spec.on(coarse)
            assert got.grid == coarse
            assert got.source_field.shape == coarse.shape
            assert np.max(np.abs(got.source_field - 1.0)) <= 1e-15
            assert np.max(np.abs(mult.on(coarse).source_field - 1.5)) == 0.0
        # the fine subtorus keeps every value, so its source keeps its mean
        sub = spec.on(TorusGrid(2, 8, (1, 2, 3)))
        assert np.array_equal(sub.source_field.ravel(), 1.0 + 0.5 * sign.ravel())


class TestInject:
    """inject() against numpy's strided indexing: every coarse level, every
    subset of constant axes, bit for bit."""

    @pytest.mark.parametrize(("n", "N"), [(2, 16), (3, 8)])
    def test_every_level_and_subset_matches_strided_indexing(self, n, N):
        grid = TorusGrid(n, N)
        values = np.random.default_rng(41).normal(size=grid.shape)
        levels = [N >> k for k in range(N.bit_length()) if N >> k >= 4]
        for coarse_N, count in product(levels, range(2 * n + 1)):
            stride = N // coarse_N
            for axes in combinations(range(2 * n), count):
                target = TorusGrid(n, coarse_N, axes)
                index = tuple(
                    slice(0, 1) if axis in axes else slice(None, None, stride)
                    for axis in range(2 * n)
                )
                got = inject(target, values)
                assert got.shape == target.shape and got.flags.c_contiguous
                assert got.tobytes() == values[index].tobytes()
                # a field already on a subtorus goes on to a coarser one
                sub = TorusGrid(n, N, axes[:1])
                assert inject(target, inject(sub, values)).tobytes() == got.tobytes()

    def test_matching_shape_is_returned_uncopied(self):
        grid = TorusGrid(2, 8)
        values = np.random.default_rng(43).normal(size=grid.shape)
        assert inject(grid, values) is values
        field = np.ascontiguousarray(values[:, :1, :, :1])
        assert np.shares_memory(inject(TorusGrid(2, 8, (1, 3)), field), field)

    @pytest.mark.parametrize(
        ("shape", "target"),
        [
            pytest.param((8,) * 4, TorusGrid(2, 16), id="finer-N"),
            pytest.param((8, 1, 8, 8), TorusGrid(2, 16), id="finer-N-from-a-subtorus"),
            pytest.param((8,) * 4, TorusGrid(3, 4), id="wrong-dimension"),
            pytest.param((8, 8, 4, 4), TorusGrid(2, 4), id="not-a-grid"),
            pytest.param((12,) * 4, TorusGrid(2, 4), id="stride-not-a-power-of-two"),
        ],
    )
    def test_non_sub_lattice_target_is_rejected(self, shape, target):
        with pytest.raises(InputError, match="sub-lattice"):
            inject(target, np.zeros(shape))

    @pytest.mark.parametrize(
        "target",
        [
            pytest.param(TorusGrid(2, 8), id="same-N"),
            pytest.param(TorusGrid(2, 4), id="coarse"),
            pytest.param(TorusGrid(2, 4, (0,)), id="coarse-x1-collapsed"),
        ],
    )
    def test_one_point_axes_are_repeated(self, target):
        # a field with one point along y1 is constant there: it is repeated
        # on every target, writeable and contiguous
        values = np.random.default_rng(47).normal(size=(8, 1, 8, 8))
        got = inject(target, values)
        assert got.shape == target.shape and got.flags.c_contiguous and got.flags.writeable
        full = np.broadcast_to(values, (8,) * 4)
        assert np.array_equal(got, inject(target, np.ascontiguousarray(full)))
        assert np.array_equal(inject(target, np.ones((1,) * 4)), np.ones(target.shape))


class TestFormField:
    def test_constant_flag_and_algebra(self):
        g = TorusGrid(2, 8)
        a = FormField(g, np.diag([2.0, 3.0]))
        assert a.is_constant
        b = FormField(g, np.eye(2), grid_field(g, 0.01 * np.cos(TWO_PI * g.coords()["x1"])))
        assert not b.is_constant
        s = a + 2.0 * b
        assert np.allclose(s.const, np.diag([4.0, 5.0]))
        assert not s.is_constant

    def test_zero_potential_collapses_to_constant(self):
        g = TorusGrid(2, 8)
        f = FormField(g, np.eye(2), np.zeros(g.shape))
        assert f.is_constant
        assert (0.0 * FormField(g, np.eye(2), grid_field(g, np.cos(TWO_PI * g.coords()["x1"])))).potential is None

    def test_matrices_match_hessian(self):
        g = TorusGrid(2, 8)
        pot = trig_poly(g, np.random.default_rng(5), amplitude=0.02)
        f = FormField(g, np.diag([2.0, 1.0]), pot)
        mats = unpack_hermitian(np.moveaxis(f.packed(), (0, 1), (-2, -1)))
        want = np.diag([2.0, 1.0]) + complex_hessian(g, pot)
        assert np.max(np.abs(mats - want)) == 0.0

    def test_rejects_non_hermitian_constant(self):
        g = TorusGrid(2, 8)
        with pytest.raises(InputError):
            FormField(g, np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_is_immutable(self):
        f = FormField(TorusGrid(2, 8), np.eye(2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.potential = np.ones(f.grid.shape)

    def test_matrices_with_phi_take_one_hessian(self):
        # const + Hess(potential + phi) against the background's fields plus Hess(phi)
        spec = boundary_degenerate_instance(N=8).spec(0.5)
        phi = trig_poly(spec.grid, np.random.default_rng(7), amplitude=0.02)
        want = spec.background.packed() + packed_hessian(spec.grid, phi)
        assert np.max(np.abs(spec.background.packed(phi) - want)) <= 1e-13

    def test_rejects_wrong_grid_addition(self):
        a = identity_form(TorusGrid(2, 8))
        b = identity_form(TorusGrid(2, 16))
        with pytest.raises(InputError):
            a + b


class TestIntegration:
    def test_total_volume_identity_metric(self):
        g = TorusGrid(2, 8)
        om = identity_form(g)
        assert integrate_mixed(om, 0, om) == pytest.approx(1.0, abs=1e-15)

    def test_constant_forms_pinned(self):
        g = TorusGrid(2, 8)
        om = identity_form(g)
        alpha = FormField(g, np.diag([3.0, 5.0]))
        # S_k(3, 5)/binom(2, k): k=0: 1, k=1: 4, k=2: 15
        assert integrate_mixed(alpha, 0, om) == pytest.approx(1.0, rel=1e-14)
        assert integrate_mixed(alpha, 1, om) == pytest.approx(4.0, rel=1e-14)
        assert integrate_mixed(alpha, 2, om) == pytest.approx(15.0, rel=1e-14)

    def test_nonidentity_metric(self):
        g = TorusGrid(2, 8)
        om = FormField(g, 2.0 * np.eye(2))
        alpha = FormField(g, np.diag([3.0, 5.0]))
        # eigenvalues rel 2I are (1.5, 2.5); det(omega) = 4
        assert integrate_mixed(alpha, 1, om) == pytest.approx(2.0 * 4.0, rel=1e-14)
        assert integrate_mixed(alpha, 2, om) == pytest.approx(3.75 * 4.0, rel=1e-14)
        assert integrate_mixed(om, 0, om) == pytest.approx(4.0, rel=1e-14)

    @staticmethod
    def check_hessian_part_integrates_away(g, om, rng):
        # the grid quadrature of the bumped forms matches the class value of
        # the constant ones
        pot = trig_poly(g, rng, max_mode=3, amplitude=0.002)
        base = FormField(g, np.diag([2.0, 1.0]))
        bumped = FormField(g, np.diag([2.0, 1.0]), pot)
        for k in (0, 1, 2):
            a = integrate_mixed(base, k, identity_form(g))
            assert integrate_mixed(bumped, k, om) == a
            b = pointwise_mixed(bumped, k, om)
            assert abs(a - b) < 1e-12 * abs(a)

    def test_hessian_part_integrates_away(self):
        # adding i d dbar of a potential must not change any mixed integral
        g = TorusGrid(2, 16)
        self.check_hessian_part_integrates_away(g, identity_form(g), np.random.default_rng(17))

    def test_hessian_part_of_the_metric_integrates_away(self):
        g = TorusGrid(2, 16)
        rng = np.random.default_rng(17)
        om = FormField(g, np.eye(2), trig_poly(g, rng, max_mode=3, amplitude=0.001))
        assert not om.is_constant
        self.check_hessian_part_integrates_away(g, om, rng)

    def test_refinement_agreement_smooth_field(self):
        # exp(0.2 cos) is not band-limited: the grid quadrature converges
        # spectrally to the class value
        vals = []
        for N in (16, 32):
            g = TorusGrid(2, N)
            x1 = g.coords()["x1"]
            pot = grid_field(g, 0.002 * np.exp(0.2 * np.cos(TWO_PI * x1)))
            alpha = FormField(g, np.eye(2), pot)
            vals.append(pointwise_mixed(alpha, 2, identity_form(g)))
            assert integrate_mixed(alpha, 2, identity_form(g)) == 1.0
        assert abs(vals[0] - vals[1]) < 1e-8 * abs(vals[1])
        assert abs(vals[1] - 1.0) < 1e-8

    def test_rejects_bad_k_and_bad_metric(self):
        g = TorusGrid(2, 8)
        om = identity_form(g)
        with pytest.raises(InputError):
            integrate_mixed(om, 3, om)
        bad = FormField(g, np.diag([1.0, -0.5]))
        with pytest.raises(DomainError, match="positive definite"):
            integrate_mixed(om, 1, bad)

    def test_nonconstant_metric_not_pd_reports_location(self):
        g = TorusGrid(2, 8)
        x1 = g.coords()["x1"]
        pot = grid_field(g, 0.2 * np.cos(TWO_PI * x1))
        bad = FormField(g, 0.5 * np.eye(2), pot)  # min eig dips negative
        with pytest.raises(DomainError, match=r"at \("):
            integrate_mixed(identity_form(g), 1, bad)


class TestComputeCB:
    def test_uniform_instance_pinned(self):
        # chi = omega gives c = 1; b of the uniform family is pinned in test_solver
        g = TorusGrid(2, 8)
        om = identity_form(g)
        assert compute_c(om, om, 1) == pytest.approx(1.0, rel=1e-14)

    def test_constant_anisotropic(self):
        g = TorusGrid(2, 8)
        om = identity_form(g)
        chi = FormField(g, np.diag([2.0, 1.0]))
        # c = S_2(2,1) / (S_1(2,1)/2) = 2 / 1.5
        assert compute_c(chi, om, 1) == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_compute_c_rejects_degenerate_chi(self):
        g = TorusGrid(2, 8)
        with pytest.raises(DomainError):
            compute_c(FormField(g, np.diag([1.0, 0.0])), identity_form(g), 1)

    def test_ma_case_m_zero(self):
        # m = 0 turns the denominator into the plain volume
        g = TorusGrid(2, 8)
        om = identity_form(g)
        chi = FormField(g, np.diag([2.0, 3.0]))
        assert compute_c(chi, om, 0) == pytest.approx(6.0, rel=1e-14)


def counted_hessians(monkeypatch):
    """The Hessians instances.py takes, one entry each; any relative_eigenvalues call fails."""
    hessians = []
    hessian = instances.packed_hessian
    monkeypatch.setattr(instances, "packed_hessian", lambda *args: hessians.append(1) or hessian(*args))
    monkeypatch.setattr(torus, "relative_eigenvalues", lambda *a: pytest.fail("second eigenvalue pass"))
    return hessians


class TestDegenerate:
    """The degenerate chitilde = I + amp*idd cos(2 pi x1) that instances.py tunes."""

    def test_cosine_slab_pinned(self):
        # min eig 1 - amp pi^2 hits 0 at amp = 1/pi^2, degeneracy exactly on the slab {x1 = 0}
        g = TorusGrid(2, 16)
        chitilde, masks = instances._degenerate_chitilde(g)
        # cos(2 pi x1) is 1 at x1 = 0, so the potential there is amp itself
        assert chitilde.potential.flat[0] == pytest.approx(1.0 / np.pi**2, rel=1e-12)
        min_eig = np.broadcast_to(relative_eigenvalues(chitilde, identity_form(g))[..., -1], g.shape)
        assert abs(np.min(min_eig)) <= 1e-10
        # the masks hold the 16 points along x1 and broadcast over the grid
        want_mask = np.abs(g.coords()["x1"]) < 0.5 / g.N
        assert np.array_equal(masks["degenerate_mask"], want_mask)
        assert np.array_equal(masks["ample_mask"], ~want_mask)
        assert np.min(min_eig[np.broadcast_to(masks["ample_mask"], g.shape)]) > 1e-6

    def test_slab_bisection_matches_the_full_grid(self):
        # cos(2 pi x1) is constant along three axes; bisecting on its slab
        # gives the amplitude that bisecting on every point gives
        g = TorusGrid(2, 16)
        shape = grid_field(g, np.cos(TWO_PI * g.coords()["x1"]))
        hess = packed_hessian(g, shape).reshape(2, 2, -1)
        base = pack_hermitian(np.eye(2))[..., None]

        def min_eig(a):
            return float(np.min(packed_eigenvalues(base + a * hess, np.eye(2))[:, -1]))

        want = brentq(min_eig, 0.0, 1.0, xtol=1e-15, rtol=8.9e-16)
        assert instances._degenerate_chitilde(g)[0].potential.flat[0] == want

    def test_masks_come_from_the_root_eigenvalues(self, monkeypatch):
        # one Hessian of psi serves the bisection and the masks: no second pass over the form
        g = TorusGrid(2, 16)
        hessians = counted_hessians(monkeypatch)
        _, masks = instances._degenerate_chitilde(g)
        assert len(hessians) == 1
        assert masks["degenerate_mask"].shape == (16, 1, 1, 1)
        assert masks["degenerate_mask"].sum() == 1


class TestTuneToBoundary:
    """The boundary chi = I + a*idd psi, psi = cos(2 pi x1) + cos(2 pi y1), that instances.py tunes."""

    def test_boundary_amplitude_pinned(self):
        # margin(a) = 1/2 - 2 pi^2 a for I + a idd psi, root at 1/(4 pi^2)
        g = TorusGrid(2, 16)
        om = identity_form(g)
        amplitude, c, chi, psi = instances._boundary_chi(g, 1)
        assert amplitude == pytest.approx(1.0 / (4.0 * np.pi**2), rel=1e-10)
        assert c == 1.0
        assert np.array_equal(chi.const, np.eye(2))
        assert chi.potential.shape == psi.shape == (16, 16, 1, 1)
        assert np.array_equal(chi.potential, amplitude * psi)
        margin = cone_margin(relative_eigenvalues(chi, om), c, 1)
        assert abs(float(np.min(margin))) <= 1e-8

    def test_slab_tuning_matches_the_full_grid(self):
        # psi is constant along x2 and y2, so the bisection runs on its slab
        # and finds the amplitude bisecting on every point finds
        g = TorusGrid(2, 8)
        amplitude, c, _, psi = instances._boundary_chi(g, 1)
        hess = packed_hessian(g, grid_field(g, psi)).reshape(2, 2, -1)
        base = pack_hermitian(np.eye(2))[..., None]

        def margin(a):
            lam = packed_eigenvalues(base + a * hess, np.eye(2))
            return float(np.min(cone_margin(lam, c, 1)))

        assert amplitude == brentq(margin, 0.0, 0.05, xtol=1e-14, rtol=8.9e-16)

    def test_one_hessian_and_no_eigenvalue_pass(self, monkeypatch):
        counted = counted_hessians(monkeypatch)
        instances._boundary_chi(TorusGrid(2, 16), 1)
        assert len(counted) == 1

    def test_strict_diagnosis(self):
        # at m = 0 the margin is the smallest eigenvalue, 1 - 2 pi^2 a, still positive at a = 0.05
        with pytest.raises(DomainError) as err:
            boundary_instance(N=16, m=0)
        assert str(err.value) == "cone condition strict at amplitude 0.05 (margin 1.304e-02)"


class TestNormalizeDensity:
    def test_normalizes_to_volume(self):
        g = TorusGrid(2, 8)
        om = identity_form(g)
        f = grid_field(g, 2.0 + np.sin(TWO_PI * g.coords()["x1"]))
        fn = normalize_density(f, om)
        assert integrate_density(fn, om) == pytest.approx(integrate_mixed(om, 0, om), rel=1e-14)
        assert np.min(fn) > 0.0

    def test_rejects_nonpositive(self):
        g = TorusGrid(2, 8)
        f = grid_field(g, np.sin(TWO_PI * g.coords()["x1"]))
        with pytest.raises(DomainError):
            normalize_density(f, identity_form(g))


class TestDistance:
    def test_slab_distances(self):
        g = TorusGrid(2, 16)
        x1 = g.coords()["x1"]
        mask = np.broadcast_to(np.abs(x1) < 1e-12, g.shape)
        d = distance_to_set(g, mask)
        assert d[8, 0, 0, 0] == pytest.approx(0.5)
        assert d[1, 3, 5, 7] == pytest.approx(1.0 / 16.0)
        # periodic wrap: index 15 is 1/16 away through the seam
        assert d[15, 0, 0, 0] == pytest.approx(1.0 / 16.0)
        assert np.all(d[mask] == 0.0)

    def test_empty_and_full(self):
        g = TorusGrid(2, 8)
        assert np.all(np.isinf(distance_to_set(g, np.zeros(g.shape, bool))))
        assert np.all(distance_to_set(g, np.ones(g.shape, bool)) == 0.0)

    @staticmethod
    def oracle(g, mask):
        """Minimum-image distance from every point of g to the marked ones, flat."""
        pts = np.argwhere(np.ones(g.shape, bool)) / g.N
        best = np.full(len(pts), np.inf)
        for q in np.argwhere(mask) / g.N:
            delta = np.abs(pts - q)
            np.minimum(best, np.sqrt(np.sum(np.minimum(delta, 1.0 - delta) ** 2, axis=-1)), out=best)
        return best

    @pytest.mark.parametrize(("n", "N"), [(2, 8), (3, 4)])
    def test_matches_minimum_image_oracle(self, n, N):
        g = TorusGrid(n, N)
        mask = np.random.default_rng(37).random(g.shape) < 0.02
        assert 0 < mask.sum() < g.npoints
        np.testing.assert_allclose(
            distance_to_set(g, mask).reshape(-1), self.oracle(g, mask), rtol=1e-15, atol=0
        )

    @pytest.mark.parametrize(("n", "N"), [(2, 8), (3, 4)])
    def test_product_masks_match_the_oracle_bit_for_bit(self, n, N):
        # a mask constant along some axes is measured on its subtorus; the
        # nearest marked point shares those coordinates, so nothing rounds
        g = TorusGrid(n, N)
        rng = np.random.default_rng(41)
        for count in range(2 * n + 1):
            for axes in combinations(range(2 * n), count):
                small = np.zeros([1 if a in axes else N for a in range(2 * n)], bool)
                small.flat[rng.choice(small.size, max(1, small.size // 32), replace=False)] = True
                mask = np.broadcast_to(small, g.shape)
                got = distance_to_set(g, mask)
                assert np.array_equal(got.reshape(-1), self.oracle(g, mask)), axes
                assert got.flags.writeable

    def test_on_a_reduced_grid(self):
        # a grid that is itself a subtorus takes masks of its own shape
        g = TorusGrid(2, 8)
        sub = TorusGrid(2, 8, constant_axes=(2, 3))
        mask = np.random.default_rng(43).random(sub.shape) < 0.1
        assert 0 < mask.sum() < mask.size
        got = distance_to_set(sub, mask)
        assert got.shape == sub.shape
        want = distance_to_set(g, np.broadcast_to(mask, g.shape))[:, :, :1, :1]
        assert np.array_equal(got, want)


class TestFieldDump:
    def test_pack_unpack_roundtrip(self):
        rng = np.random.default_rng(29)
        a = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
        herm = 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))
        assert np.max(np.abs(unpack_hermitian(pack_hermitian(herm)) - herm)) == 0.0

    def test_dump_roundtrip(self, tmp_path):
        g = TorusGrid(2, 8)
        rng = np.random.default_rng(31)
        scalar = trig_poly(g, rng)
        form = FormField(g, np.diag([2.0, 1.0]), trig_poly(g, rng, amplitude=0.01))
        metric = FormField(g, np.array([[2.0, 0.5j], [-0.5j, 1.0]]))
        header = dump_fields(tmp_path / "dump", g, {"phi": scalar, "chi": form, "omega": metric})
        assert header["dtype"] == "f64-le"
        assert header["axis_order"] == "x1,y1,x2,y2"
        assert {e["name"] for e in header["fields"]} == {"phi", "chi", "omega"}
        g2, fields = load_fields(tmp_path / "dump")
        assert g2 == g
        assert np.array_equal(fields["phi"], scalar)
        want = form.const + complex_hessian(g, form.potential)
        assert np.max(np.abs(fields["chi"] - want)) == 0.0
        assert np.array_equal(fields["omega"], np.broadcast_to(metric.const, g.shape + (2, 2)))

    def test_rejects_odd_shapes(self, tmp_path):
        g = TorusGrid(2, 8)
        with pytest.raises(InputError):
            dump_fields(tmp_path / "d", g, {"v": np.zeros(g.shape + (3,))})
        with pytest.raises(InputError):
            dump_fields(tmp_path / "d", g, {"v": identity_form(TorusGrid(2, 4))})
