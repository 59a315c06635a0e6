"""Torus discretization tests: spectral derivatives, quadrature, instance tuning."""

import dataclasses
from itertools import product

import numpy as np
import pytest

import hessquot.torus as torus
from hessquot.errors import ConstructionError, DomainError, InputError
from hessquot.instances import manufactured_instance
from hessquot.pointwise import cone_margin
from hessquot.solver import EquationSpec, strip_kernel_modes
from hessquot.symfunc import elementary_sym
from hessquot.torus import (
    FormField,
    TorusGrid,
    complex_hessian,
    compute_c,
    constant_form,
    distance_to_set,
    divide_by_symbol,
    dump_fields,
    form_eigenvalues,
    frozen_symbol,
    holomorphic_gradient,
    identity_form,
    integrate_density,
    integrate_mixed,
    load_fields,
    make_degenerate_big,
    normalize_density,
    pack_hermitian,
    packed_hessian,
    total_volume,
    tune_to_boundary,
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


class TestGrid:
    def test_shape_and_size(self):
        g = TorusGrid(2, 8)
        assert g.shape == (8, 8, 8, 8)
        assert g.npoints == 8**4
        assert g.spacing == 0.125

    def test_validation(self):
        with pytest.raises(InputError):
            TorusGrid(4, 8)
        with pytest.raises(InputError):
            TorusGrid(2, 6)
        with pytest.raises(InputError):
            TorusGrid(2, 2)

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
        entry = complex_hessian(g, phi)[..., 0, 1].copy()
        h = g.spacing

        def diff(f, axis):
            return (
                45.0 * (np.roll(f, -1, axis) - np.roll(f, 1, axis))
                - 9.0 * (np.roll(f, -2, axis) - np.roll(f, 2, axis))
                + (np.roll(f, -3, axis) - np.roll(f, 3, axis))
            ) / (60.0 * h)

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


class TestRealFFTLayer:
    """The real-FFT operators against the complex-FFT oracles above, on random
    fields that are not band-limited and carry Nyquist content."""

    @pytest.mark.parametrize(("n", "N"), GRIDS)
    def test_matches_complex_fft_oracle(self, n, N):
        grid = TorusGrid(n, N)
        phi = np.random.default_rng(N + n).normal(size=grid.shape)
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
        # fused: the Hessian of S^-1 u from one transform pair, kernel and
        # Nyquist content of u included
        want = packed_hessian(grid, divide_by_symbol(grid, symbol, u))
        assert_rel(packed_hessian(grid, u, symbol), want)


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
        assert np.array_equal(torus.restrict(fine, phi_f), phi_f[(slice(None, None, 2),) * (2 * n)])
        form = FormField(fine, np.eye(n), 0.01 * phi_f).restricted()
        assert form.grid == coarse
        want = FormField(coarse, np.eye(n), 0.01 * phi_c).matrices()
        assert np.max(np.abs(form.matrices() - want)) <= 1e-13

    @pytest.mark.parametrize(("n", "N"), TRANSFERS)
    def test_restriction_inverts_prolongation(self, n, N):
        coarse, fine = TorusGrid(n, N), TorusGrid(n, 2 * N)
        v = drop_nyquist(coarse, np.random.default_rng(17).normal(size=coarse.shape))
        assert np.max(np.abs(torus.restrict(fine, torus.prolong(coarse, v)) - v)) <= 1e-13

    def test_restricted_spec_matches_the_coarse_instance(self):
        got = manufactured_instance(N=32).spec(0.5).restricted()
        want = manufactured_instance(N=16).spec(0.5)
        assert got.grid == want.grid
        assert (got.n, got.m, got.unknown_mode) == (want.n, want.m, want.unknown_mode)
        for name in ("background", "omega"):
            a, b = getattr(got, name), getattr(want, name)
            assert np.array_equal(a.const, b.const)
            assert a.is_constant == b.is_constant
            assert np.max(np.abs(a.matrices() - b.matrices())) <= 1e-13
        for name in ("coefficient_field", "source_field"):
            assert np.max(np.abs(getattr(got, name) - getattr(want, name))) <= 1e-13

    def test_restricted_additive_source_is_renormalized(self):
        # 1 + (-1)^j along x1 has mean 1 on the fine grid but is 2 on every
        # coarse point, so injection alone would break the normalization
        grid = TorusGrid(2, 8)
        sign = (-1.0) ** np.arange(8).reshape(8, 1, 1, 1)
        spec = EquationSpec(
            n=2, m=1, background=constant_form(grid, 3.0 * np.eye(2)),
            omega=identity_form(grid), coefficient_field=1.0,
            source_field=grid_field(grid, 1.0 + 0.5 * sign),
        )
        coarse = spec.restricted()
        assert coarse.grid == TorusGrid(2, 4)
        assert np.max(np.abs(coarse.source_field - 1.0)) <= 1e-15
        mult = dataclasses.replace(spec, unknown_mode="multiplicative").restricted()
        assert np.max(np.abs(mult.source_field - 1.5)) == 0.0


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
        mats = f.matrices()
        want = np.diag([2.0, 1.0]) + complex_hessian(g, pot)
        assert np.max(np.abs(mats - want)) == 0.0

    def test_rejects_non_hermitian_constant(self):
        g = TorusGrid(2, 8)
        with pytest.raises(InputError):
            FormField(g, np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rejects_wrong_grid_addition(self):
        a = identity_form(TorusGrid(2, 8))
        b = identity_form(TorusGrid(2, 16))
        with pytest.raises(InputError):
            a + b


class TestIntegration:
    def test_total_volume_identity_metric(self):
        g = TorusGrid(2, 8)
        assert total_volume(identity_form(g)) == pytest.approx(1.0, abs=1e-15)

    def test_constant_forms_pinned(self):
        g = TorusGrid(2, 8)
        om = identity_form(g)
        alpha = constant_form(g, np.diag([3.0, 5.0]))
        # S_k(3, 5)/binom(2, k): k=0: 1, k=1: 4, k=2: 15
        assert integrate_mixed(alpha, 0, om) == pytest.approx(1.0, rel=1e-14)
        assert integrate_mixed(alpha, 1, om) == pytest.approx(4.0, rel=1e-14)
        assert integrate_mixed(alpha, 2, om) == pytest.approx(15.0, rel=1e-14)

    def test_nonidentity_metric(self):
        g = TorusGrid(2, 8)
        om = constant_form(g, 2.0 * np.eye(2))
        alpha = constant_form(g, np.diag([3.0, 5.0]))
        # eigenvalues rel 2I are (1.5, 2.5); det(omega) = 4
        assert integrate_mixed(alpha, 1, om) == pytest.approx(2.0 * 4.0, rel=1e-14)
        assert integrate_mixed(alpha, 2, om) == pytest.approx(3.75 * 4.0, rel=1e-14)
        assert total_volume(om) == pytest.approx(4.0, rel=1e-14)

    def test_hessian_part_integrates_away(self):
        # adding i d dbar of a potential must not change any mixed integral
        g = TorusGrid(2, 16)
        om = identity_form(g)
        pot = trig_poly(g, np.random.default_rng(17), max_mode=3, amplitude=0.002)
        base = constant_form(g, np.diag([2.0, 1.0]))
        bumped = FormField(g, np.diag([2.0, 1.0]), pot)
        for k in (1, 2):
            a = integrate_mixed(base, k, om)
            b = integrate_mixed(bumped, k, om)
            assert abs(a - b) < 1e-12 * abs(a)

    def test_refinement_agreement_smooth_field(self):
        vals = []
        for N in (16, 32):
            g = TorusGrid(2, N)
            x1 = g.coords()["x1"]
            pot = grid_field(g, 0.002 * np.exp(0.2 * np.cos(TWO_PI * x1)))
            alpha = FormField(g, np.eye(2), pot)
            vals.append(integrate_mixed(alpha, 2, identity_form(g)))
        assert abs(vals[0] - vals[1]) < 1e-8 * abs(vals[1])

    def test_convention_scale_cancels_in_ratios(self, monkeypatch):
        # the density convention constant must scale raw integrals linearly
        # and drop out of every ratio-type quantity
        g = TorusGrid(2, 8)
        om = identity_form(g)
        pot = trig_poly(g, np.random.default_rng(23), max_mode=2, amplitude=0.001)
        chi = FormField(g, 2.0 * np.eye(2), pot)
        raw = integrate_mixed(chi, 2, om)
        c0 = compute_c(chi, om, 1)
        f = grid_field(g, 1.5 + np.sin(TWO_PI * g.coords()["x1"]))
        fn0 = normalize_density(f, om)
        monkeypatch.setattr(torus, "DENSITY_CONVENTION_SCALE", 2.7)
        assert integrate_mixed(chi, 2, om) == pytest.approx(2.7 * raw, rel=1e-14)
        assert compute_c(chi, om, 1) == pytest.approx(c0, rel=1e-14)
        assert np.allclose(normalize_density(f, om), fn0, rtol=1e-14)

    def test_rejects_bad_k_and_bad_metric(self):
        g = TorusGrid(2, 8)
        om = identity_form(g)
        with pytest.raises(InputError):
            integrate_mixed(om, 3, om)
        bad = constant_form(g, np.diag([1.0, -0.5]))
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
        chi = constant_form(g, np.diag([2.0, 1.0]))
        # c = S_2(2,1) / (S_1(2,1)/2) = 2 / 1.5
        assert compute_c(chi, om, 1) == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_compute_c_rejects_degenerate_chi(self):
        g = TorusGrid(2, 8)
        with pytest.raises(DomainError):
            compute_c(constant_form(g, np.diag([1.0, 0.0])), identity_form(g), 1)

    def test_ma_case_m_zero(self):
        # m = 0 turns the denominator into the plain volume
        g = TorusGrid(2, 8)
        om = identity_form(g)
        chi = constant_form(g, np.diag([2.0, 3.0]))
        assert compute_c(chi, om, 0) == pytest.approx(6.0, rel=1e-14)


class TestDegenerate:
    def test_cosine_slab_pinned(self):
        # base I, shape cos(2 pi x1): min eig 1 - a pi^2 hits 0 at a = 1/pi^2,
        # degeneracy exactly on the slab {x1 = 0}
        g = TorusGrid(2, 16)
        shape = grid_field(g, np.cos(TWO_PI * g.coords()["x1"]))
        res = make_degenerate_big(g, np.eye(2), shape)
        assert res.amplitude == pytest.approx(1.0 / np.pi**2, rel=1e-12)
        assert abs(np.min(res.min_eig)) <= 1e-10
        want_mask = np.broadcast_to(
            np.abs(g.coords()["x1"]) < 0.5 / g.N, g.shape
        )
        assert np.array_equal(res.degenerate_mask, want_mask)
        assert np.array_equal(res.ample_mask, ~want_mask)
        assert np.min(res.min_eig[res.ample_mask]) > 1e-6

    def test_rejects_indefinite_base(self):
        g = TorusGrid(2, 8)
        shape = grid_field(g, np.cos(TWO_PI * g.coords()["x1"]))
        with pytest.raises(InputError):
            make_degenerate_big(g, np.diag([1.0, -1.0]), shape)

    def test_rejects_flat_shape(self):
        g = TorusGrid(2, 8)
        with pytest.raises(ConstructionError):
            make_degenerate_big(g, np.eye(2), np.full(g.shape, 3.0))


class TestTuneToBoundary:
    def family(self, g):
        c = g.coords()
        psi = grid_field(g, np.cos(TWO_PI * c["x1"]) + np.cos(TWO_PI * c["y1"]))
        return lambda a: FormField(g, np.eye(2), a * psi)

    def test_boundary_amplitude_pinned(self):
        # margin(a) = 1/2 - 2 pi^2 a for this family, root at 1/(4 pi^2)
        g = TorusGrid(2, 16)
        om = identity_form(g)
        amplitude, c, chi = tune_to_boundary(self.family(g), om, 1, (0.0, 0.05))
        assert amplitude == pytest.approx(1.0 / (4.0 * np.pi**2), rel=1e-10)
        assert c == pytest.approx(1.0, rel=1e-12)
        margin = cone_margin(form_eigenvalues(chi, om).reshape(-1, 2), c, 1)
        assert abs(float(np.min(margin))) <= 1e-8

    def test_strict_diagnosis(self):
        g = TorusGrid(2, 16)
        with pytest.raises(DomainError, match=r"strict .*margin [0-9]"):
            tune_to_boundary(self.family(g), identity_form(g), 1, (0.0, 0.01))

    def test_violated_diagnosis(self):
        g = TorusGrid(2, 16)
        base = self.family(g)
        with pytest.raises(DomainError, match=r"violated .*margin -[0-9]"):
            tune_to_boundary(lambda a: base(a + 0.04), identity_form(g), 1, (0.0, 0.05))


class TestNormalizeDensity:
    def test_normalizes_to_volume(self):
        g = TorusGrid(2, 8)
        om = identity_form(g)
        f = grid_field(g, 2.0 + np.sin(TWO_PI * g.coords()["x1"]))
        fn = normalize_density(f, om)
        assert integrate_density(fn, om) == pytest.approx(total_volume(om), rel=1e-14)
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
        header = dump_fields(tmp_path / "dump", g, {"phi": scalar, "chi": form})
        assert header["dtype"] == "f64-le"
        assert header["axis_order"] == "x1,y1,x2,y2"
        assert {e["name"] for e in header["fields"]} == {"phi", "chi"}
        g2, fields = load_fields(tmp_path / "dump")
        assert g2 == g
        assert np.array_equal(fields["phi"], scalar)
        assert np.max(np.abs(fields["chi"] - form.matrices())) == 0.0

    def test_rejects_odd_shapes(self, tmp_path):
        g = TorusGrid(2, 8)
        with pytest.raises(InputError):
            dump_fields(tmp_path / "d", g, {"v": np.zeros(g.shape + (3,))})
