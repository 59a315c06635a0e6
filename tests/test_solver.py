"""Newton solver tests: exactness oracles, continuation, monitors.

The pinned instance families all use a uniform source with a constant leading
coefficient, so the solution potential exactly cancels the background's
potential part and X = (2+t) * identity solves each family member with
b = (2+t)(1+t). Those closed forms, plus manufactured problems where the
source is defined pointwise from a known potential, give independent oracles
for every solver branch (m = 1, m = 0, additive and multiplicative unknowns).
"""

import csv
import dataclasses
import functools
import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.fft

import hessquot.fakeboundary as fakeboundary
import hessquot.solver as solver
import hessquot.torus as torus
from hessquot.errors import ConeViolationError, InputError, NonconvergenceError
from hessquot.fakeboundary import prepare_instance, two_stage_solve
from hessquot.instances import (
    boundary_degenerate_instance,
    boundary_instance,
    degenerate_instance,
    fake_boundary_sample,
    generic_instance,
    manufactured_instance,
    uniform_instance,
)
from hessquot.pointwise import (
    EquationParams,
    cone_margin,
    linearization_coefficients,
    pack_hermitian,
    packed_adjugate,
    residual_inverse_form,
    unpack_hermitian,
)
from hessquot.solver import (
    DIAGNOSTIC_KEYS,
    MODES,
    PATH_CSV_COLUMNS,
    EquationSpec,
    SolverConfig,
    continuation_path,
    newton_solve,
    quadrature_b,
    stability_compare,
    strip_kernel_modes,
    uniqueness_gap,
    volume_lower_bound_check,
    write_path_csv,
)
from hessquot.studies import SCHEDULE
from hessquot.symfunc import elementary_sym
from hessquot.torus import (
    FormField,
    TorusGrid,
    holomorphic_gradient,
    identity_form,
    integrate_mixed,
    normalize_density,
    packed_hessian,
    prolong,
    relative_eigenvalues,
)
from test_pointwise import random_metric
from test_torus import complex_hessian, grid_eigenvalues, metric_det, pointwise_mixed

TWO_PI = 2.0 * np.pi


def grid_field(grid, expr):
    return np.ascontiguousarray(np.broadcast_to(expr, grid.shape)).astype(np.float64)


def checkerboard(grid):
    """The pure-Nyquist kernel mode along the first axis, exactly +-1."""
    idx = np.arange(grid.N).reshape((grid.N,) + (1,) * (2 * grid.n - 1))
    return grid_field(grid, (-1.0) ** idx)


def evaluate_at(spec, phi, b):
    """solver._evaluate with the omega metric newton_solve builds once per solve."""
    return solver._evaluate(spec, phi, b, solver._omega_metric(spec))


@pytest.fixture(scope="module")
def uniform16():
    return uniform_instance(N=16)


@pytest.fixture(scope="module")
def uniform16_state(uniform16):
    return newton_solve(uniform16.spec(0.5), t=0.5)


@pytest.fixture(scope="module")
def manufactured16():
    return manufactured_instance(N=16)


@pytest.fixture(scope="module")
def manufactured8():
    # N = COARSEST_N: its solves run on their own grid and take Newton steps
    return manufactured_instance(N=8)


@pytest.fixture(scope="module")
def manufactured16_state(manufactured16):
    return newton_solve(manufactured16.spec(manufactured16.extras["t_star"]))


@pytest.fixture(scope="module")
def degenerate8():
    return degenerate_instance(N=8)


class TestEquationSpec:
    def test_scalar_fields_broadcast(self):
        grid = TorusGrid(2, 8)
        spec = EquationSpec(
            n=2, m=1, background=FormField(grid, 2.0 * np.eye(2)),
            omega=identity_form(grid), coefficient_field=1.0, source_field=1.0,
        )
        # a scalar is one point on every axis, broadcasting against the grid
        assert spec.coefficient_field.shape == (1, 1, 1, 1)
        assert spec.source_field.shape == (1, 1, 1, 1)
        assert spec.grid == grid

    def test_negative_coefficient_rejected(self):
        grid = TorusGrid(2, 8)
        with pytest.raises(InputError, match="nonnegative"):
            EquationSpec(
                n=2, m=1, background=identity_form(grid), omega=identity_form(grid),
                coefficient_field=-1.0, source_field=1.0,
            )

    def test_additive_source_must_be_normalized(self):
        grid = TorusGrid(2, 8)
        with pytest.raises(InputError, match="normalized"):
            EquationSpec(
                n=2, m=1, background=identity_form(grid), omega=identity_form(grid),
                coefficient_field=1.0, source_field=2.0,
            )

    def test_multiplicative_source_not_normalized(self):
        grid = TorusGrid(2, 8)
        spec = EquationSpec(
            n=2, m=1, background=identity_form(grid), omega=identity_form(grid),
            coefficient_field=1.0, source_field=2.0, unknown_mode="multiplicative",
        )
        assert spec.source_field[0, 0, 0, 0] == 2.0

    @pytest.mark.parametrize("source", [1.0, 3.0])
    def test_multiplicative_zero_coefficient_rejected(self, source):
        # dR/db vanishes everywhere, so b would drop out of the Newton system
        grid = TorusGrid(2, 8)
        with pytest.raises(InputError, match="coefficient_field that is nonzero"):
            EquationSpec(
                n=2, m=1, background=FormField(grid, 2.0 * np.eye(2)), omega=identity_form(grid),
                coefficient_field=0.0, source_field=source, unknown_mode="multiplicative",
            )

    def test_mode_checked(self):
        grid = TorusGrid(2, 8)
        with pytest.raises(InputError, match="unknown_mode"):
            EquationSpec(
                n=2, m=1, background=identity_form(grid), omega=identity_form(grid),
                coefficient_field=1.0, source_field=1.0, unknown_mode="frobnicate",
            )

    def test_m_range_checked(self):
        grid = TorusGrid(2, 8)
        with pytest.raises(InputError, match="m"):
            EquationSpec(
                n=2, m=2, background=identity_form(grid), omega=identity_form(grid),
                coefficient_field=1.0, source_field=1.0,
            )

    def test_multiplicative_non_finite_coefficient_rejected(self):
        # with a NaN residual every comparison is False, so Newton would stop
        # at once and report convergence
        spec = uniform_instance(N=8).spec(0.5)
        coeff = np.ones(spec.grid.shape)
        coeff[1, 2, 3, 4] = np.nan
        with pytest.raises(InputError, match="coefficient_field values must be finite"):
            dataclasses.replace(spec, unknown_mode="multiplicative", coefficient_field=coeff)

    def test_additive_non_finite_source_rejected(self):
        # abs(nan - vol) > tol is False, so the normalization check alone
        # lets a NaN source through
        spec = uniform_instance(N=8).spec(0.5)
        for bad in (np.nan, np.inf):
            source = np.ones(spec.grid.shape)
            source[1, 2, 3, 4] = bad
            with pytest.raises(InputError, match="source_field values must be finite"):
                dataclasses.replace(spec, source_field=source)

    def test_grid_mismatch_rejected(self):
        with pytest.raises(InputError, match="grid"):
            EquationSpec(
                n=2, m=1,
                background=identity_form(TorusGrid(2, 8)),
                omega=identity_form(TorusGrid(2, 16)),
                coefficient_field=1.0, source_field=1.0,
            )


SHIPPED_INSTANCES = (
    uniform_instance, boundary_instance, degenerate_instance,
    boundary_degenerate_instance, manufactured_instance,
)


def pointwise_b(spec, lam=None):
    """The integral identity as a grid sum, from the background's eigenvalues at every point.

    mean((S_n - kappa S_m / C(n, m)) det omega) / mean(f det omega), kappa the
    coefficient at each point; lam is computed unless given.
    """
    lam = grid_eigenvalues(spec.background, spec.omega) if lam is None else lam
    det = metric_det(spec.omega)
    kappa = spec.coefficient_field.reshape(-1) / math.comb(spec.n, spec.m)
    lhs = (elementary_sym(spec.n, lam) - kappa * elementary_sym(spec.m, lam)) * det
    return float(np.mean(lhs)) / float(np.mean(spec.source_field.reshape(-1) * det))


class TestQuadratureB:
    def test_uniform_instance_value(self, uniform16):
        # background (1+t+eps) * identity: b = s^2 - s with s = 1.6 at t = 0.5
        assert quadrature_b(uniform16.spec(0.5)) == pytest.approx(0.96, rel=1e-13)

    @pytest.mark.parametrize("N", [8, 16, 32])
    def test_class_value_matches_grid_quadrature(self, N):
        # the shipped backgrounds are trigonometric polynomials the grids
        # resolve, so their grid sums are the class integrals up to rounding
        for build in SHIPPED_INSTANCES:
            inst = build(N=N)
            for t in (1.0, 2.0**-7):
                spec = inst.spec(t)
                lam = grid_eigenvalues(spec.background, spec.omega)
                want = pointwise_b(spec, lam)
                assert abs(quadrature_b(spec) - want) <= 4 * np.spacing(want), (inst.name, t)
                for k in range(spec.n + 1):
                    want = pointwise_mixed(spec.background, k, spec.omega, lam)
                    got = integrate_mixed(spec.background, k, spec.omega)
                    assert abs(got - want) <= 4 * np.spacing(want), (inst.name, t, k)

    def test_varying_coefficient_is_rejected(self, bd8, monkeypatch):
        # int kappa S_m(X) omega^n moves with phi when kappa varies, so no
        # b computed before the solve can pass the solver's quadrature check
        spec = bd8.spec(0.5)
        x1 = spec.grid.coords()["x1"]
        coeff = grid_field(spec.grid, bd8.c * (1.0 + 0.5 * np.cos(TWO_PI * x1) ** 2))
        varying = dataclasses.replace(spec, coefficient_field=coeff)
        with pytest.raises(InputError, match="constant coefficient"):
            quadrature_b(varying)

        def evaluate(*args):
            raise AssertionError("Newton work before the coefficient check")

        monkeypatch.setattr(solver, "_evaluate", evaluate)
        with pytest.raises(InputError, match="constant coefficient"):
            newton_solve(varying)

    def test_varying_metric_solve_meets_the_class_value(self, bd8):
        # with a varying omega the class value and the grid sum of the solved
        # state part by aliasing; the solver's own check needs them within
        # B_COMPAT_FACTOR * tol, and they stay well inside it
        grid = bd8.grid
        c = grid.coords()
        pot = grid_field(grid, 0.01 * np.cos(TWO_PI * c["x1"]) * np.cos(TWO_PI * c["y2"])
                         + 0.005 * np.sin(TWO_PI * (c["x2"] + c["y1"])))
        omega = FormField(grid, np.eye(2), pot)
        f = normalize_density(np.ones(grid.shape), omega)
        spec = EquationSpec(2, 1, bd8.spec(0.5).background, omega, 1.0, f)
        assert quadrature_b(spec) == 3.75
        st = newton_solve(spec)
        assert st.diagnostics["newton_iters"] > 0
        budget = solver.B_COMPAT_FACTOR * SolverConfig().tol
        assert abs(st.b - quadrature_b(spec)) <= 0.01 * budget

    def test_constant_coefficient_takes_no_grid_transform(self, monkeypatch):
        # quadrature_b reads the integrals the spec's own checks computed, so
        # the spec is built inside the spy window: building it and reading b
        # together take one-point eigenvalues only and no transform
        inst = boundary_degenerate_instance(N=16)
        calls = Counter()

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(torus, "packed_hessian", spy("packed_hessian", torus.packed_hessian))
        for name in ("rfftn", "irfftn", "ifftn", "irfft", "fftn", "fft", "ifft", "rfft"):
            monkeypatch.setattr(scipy.fft, name, spy(name, getattr(scipy.fft, name)))
        points = []
        packed_eigenvalues = torus.packed_eigenvalues

        def eigenvalues(fields, metric):
            points.append(fields[0, 0].size)
            return packed_eigenvalues(fields, metric)

        monkeypatch.setattr(torus, "packed_eigenvalues", eigenvalues)
        spec = inst.spec(2.0**-7)
        assert not spec.background.is_constant
        assert quadrature_b(spec) == pytest.approx(inst.extras["expected_b"](2.0**-7), rel=1e-15)
        assert not calls
        assert points and set(points) == {1}

    def test_multiplicative_rejected(self):
        grid = TorusGrid(2, 8)
        spec = EquationSpec(
            n=2, m=1, background=identity_form(grid), omega=identity_form(grid),
            coefficient_field=1.0, source_field=1.0, unknown_mode="multiplicative",
        )
        with pytest.raises(InputError):
            quadrature_b(spec)


class TestUniformSolve:
    def test_zero_init_is_already_exact(self, uniform16_state):
        st = uniform16_state
        assert st.diagnostics["newton_iters"] == 0
        assert st.diagnostics["krylov_iters"] == 0
        assert st.b == pytest.approx(0.96, abs=1e-12)
        assert np.abs(st.phi).max() <= 1e-12
        assert st.residual_sup <= 1e-10

    def test_output_is_sup_normalized(self, uniform16_state):
        assert float(np.max(uniform16_state.phi)) == 0.0

    def test_t_recorded(self, uniform16, uniform16_state):
        assert uniform16_state.t == 0.5
        assert math.isnan(newton_solve(uniform16.spec(0.5)).t)

    def test_state_diagnostics(self, uniform16_state):
        d = uniform16_state.diagnostics
        assert d["min_eig"] == pytest.approx(1.6, rel=1e-12)
        assert d["sup_w"] == pytest.approx(math.log(3.2), rel=1e-12)
        # margin at lam = (1.6, 1.6), c = 1, m = 1: 1.6 - 1/2
        assert d["min_margin"] == pytest.approx(1.1, rel=1e-12)
        assert d["sup_grad"] <= 1e-12

    def test_volume_lower_bound(self, uniform16_state):
        # min S_2 - c^(n/(n-m)) = 1.6^2 - 1
        got = volume_lower_bound_check(uniform16_state, 1.0)
        assert got == pytest.approx(1.56, rel=1e-12)


class TestBackgroundCancellation:
    """Closed-form oracles: the solve must cancel the background potential."""

    def test_degenerate_instance_closed_form(self):
        inst = degenerate_instance(N=16)
        st = newton_solve(inst.spec(0.25))
        # chitilde's potential is amp cos(2 pi x1)
        want = grid_field(inst.grid, -inst.chitilde.potential)
        want -= want.max()
        assert np.abs(st.phi - want).max() <= 1e-9
        assert st.b == pytest.approx(2.25 * 1.25, abs=1e-9)
        # X = 2.25 * identity everywhere, so w = ln S_1(X) = ln 4.5
        assert st.diagnostics["sup_w"] == pytest.approx(math.log(4.5), abs=1e-8)

    def test_boundary_instance_closed_form(self):
        inst = boundary_instance(N=16)
        st = newton_solve(inst.spec(1.0))
        # chi's potential is amp (cos(2 pi x1) + cos(2 pi y1))
        want = grid_field(inst.grid, -2.0 * inst.chi.potential)
        want -= want.max()
        assert np.abs(st.phi - want).max() <= 1e-10
        assert st.b == pytest.approx(6.0, abs=1e-12)
        # sup of the normalized solution is 8 * amplitude = 2 / pi^2
        assert st.diagnostics["sup_phi"] == pytest.approx(2.0 / np.pi**2, rel=1e-9)

    def test_boundary_degenerate_instance_closed_form(self):
        inst = boundary_degenerate_instance(N=16)
        # chi's potential is amp (cos(2 pi x1) + cos(2 pi y1)), 2 amp at the origin
        assert inst.chi.potential.flat[0] / 2.0 == pytest.approx(1.0 / (4.0 * np.pi**2), rel=1e-12)
        for t in (1.0, 2.0**-7):
            st = newton_solve(inst.spec(t))
            want = inst.extras["potential_exact"](t)
            want = want - want.max()
            assert np.abs(st.phi - want).max() <= 1e-9
            assert st.b == pytest.approx(inst.extras["expected_b"](t), abs=1e-9)
        # solution w = ln S_1(X) is spatially constant: sup_w both on and off
        # the degenerate slab equals ln(2 * (2 + t))
        assert st.diagnostics["sup_w"] == pytest.approx(np.log(2.0 * (2.0 + 2.0**-7)), abs=1e-8)


class TestManufactured:
    def test_recovers_pinned_solution(self, manufactured16, manufactured16_state):
        st = manufactured16_state
        want = manufactured16.extras["phi_star"]
        assert np.abs(st.phi - want).max() <= 1e-9
        b_star = quadrature_b(st.spec)
        assert st.b == pytest.approx(b_star, abs=1e-9)
        assert b_star == pytest.approx(6.0, abs=1e-12)
        assert st.residual_sup <= 1e-10

    def test_warm_start_is_noop(self, manufactured16, manufactured16_state):
        again = newton_solve(
            manufactured16.spec(0.5), init=manufactured16_state,
        )
        assert again.diagnostics["newton_iters"] == 0
        # init passes through a kernel-projection FFT roundtrip, so bit
        # equality is not available, only roundoff-level agreement
        assert np.abs(again.phi - manufactured16_state.phi).max() <= 1e-13

    def test_kernel_junk_in_init_is_stripped(self, manufactured16, manufactured16_state):
        junk = manufactured16_state.phi + 0.01 * checkerboard(manufactured16.grid)
        st = newton_solve(
            manufactured16.spec(0.5),
            init=SimpleNamespace(phi=junk, b=manufactured16_state.b),
        )
        assert st.diagnostics["newton_iters"] == 0
        assert np.abs(st.phi - manufactured16_state.phi).max() <= 1e-12


@pytest.fixture(scope="module")
def m0_problem():
    grid = TorusGrid(2, 16)
    c = grid.coords()
    psi = grid_field(
        grid, 0.03 * (np.cos(TWO_PI * c["x1"]) + np.sin(TWO_PI * c["y2"]))
    )
    background = FormField(grid, 2.0 * np.eye(2))
    X = background.const + complex_hessian(grid, psi)
    det = (X[..., 0, 0] * X[..., 1, 1] - np.abs(X[..., 0, 1]) ** 2).real
    f_raw = det - 1.0
    assert f_raw.min() > 0
    spec = EquationSpec(
        n=2, m=0, background=background, omega=identity_form(grid),
        coefficient_field=1.0, source_field=f_raw / f_raw.mean(),
    )
    return spec, psi, float(f_raw.mean())


class TestDeterminantOracle:
    """m = 0 solves checked against plain 2x2 determinants, bypassing the
    symmetric-function code entirely."""

    def test_recovers_potential_and_b(self, m0_problem):
        spec, psi, b_star = m0_problem
        st = newton_solve(spec)
        want = psi - psi.max()
        assert np.abs(st.phi - want).max() <= 1e-9
        assert st.b == pytest.approx(b_star, abs=1e-9)

    def test_independent_pointwise_residual(self, m0_problem):
        spec, _, _ = m0_problem
        st = newton_solve(spec)
        X = spec.background.const + complex_hessian(spec.grid, st.phi)
        det = (X[..., 0, 0] * X[..., 1, 1] - np.abs(X[..., 0, 1]) ** 2).real
        resid = det - 1.0 - st.b * spec.source_field
        assert np.abs(resid).max() <= 1e-9


class TestThreeDimensional:
    """n = 3 on TorusGrid(3, 4): background 1.5 I, c = 1, m = 1, f varying in x1.

    The quadrature identity fixes b = s^3 - s = 1.875 at s = 1.5, and the
    residual is checked with plain 3x3 determinants and traces.
    """

    def test_closed_form_b_and_determinant_residual(self):
        grid = TorusGrid(3, 4)
        omega = identity_form(grid)
        f_raw = grid_field(grid, 1.0 + 0.3 * np.cos(TWO_PI * grid.coords()["x1"]))
        f = normalize_density(f_raw, omega)
        spec = EquationSpec(
            n=3, m=1, background=FormField(grid, 1.5 * np.eye(3)), omega=omega,
            coefficient_field=1.0, source_field=f,
        )
        st = newton_solve(spec)
        assert st.diagnostics["newton_iters"] > 0
        assert abs(st.b - 1.875) <= 1e-12
        X = spec.background.const + complex_hessian(grid, st.phi)
        resid = np.linalg.det(X).real - np.trace(X, axis1=-2, axis2=-1).real / 3.0 - st.b * f
        assert np.abs(resid).max() <= 1e-9


    def test_m2_closed_form_b_and_determinant_residual(self):
        # m = 2 is the S_2 = tr adj X branch, gradient S_1 I - X: the
        # quadrature identity fixes b = s^3 - s^2 = 1.125 at s = 1.5
        grid = TorusGrid(3, 4)
        omega = identity_form(grid)
        f_raw = grid_field(grid, 1.0 + 0.3 * np.cos(TWO_PI * grid.coords()["x1"]))
        f = normalize_density(f_raw, omega)
        spec = EquationSpec(
            n=3, m=2, background=FormField(grid, 1.5 * np.eye(3)), omega=omega,
            coefficient_field=1.0, source_field=f,
        )
        st = newton_solve(spec)
        assert st.diagnostics["newton_iters"] > 0
        assert abs(st.b - 1.125) <= 1e-12
        X = spec.background.const + complex_hessian(grid, st.phi)
        trace = np.trace(X, axis1=-2, axis2=-1).real
        s2 = 0.5 * (trace**2 - np.trace(X @ X, axis1=-2, axis2=-1).real)
        resid = np.linalg.det(X).real - s2 / 3.0 - st.b * f
        assert np.abs(resid).max() <= 1e-9

    @staticmethod
    def manufactured_at(m, N=8, full=False):
        """The solve of the n = 3 manufactured problem at TorusGrid(3, N), checked.

        phi* = 0.1 sin(2 pi x1) cos(2 pi y2) and b* solve the equation
        exactly when f is the defect det X* - S_m(X*)/3 of X* = 3I +
        Hess(phi*) divided by its mean b*, with S_1 = tr and S_2 = tr adj.
        The data hold N^2 points, or every point of the grid when full.
        """
        grid = TorusGrid(3, N)
        coords = grid.coords()
        phi_star = 0.1 * np.sin(TWO_PI * coords["x1"]) * np.cos(TWO_PI * coords["y2"])
        if full:
            phi_star = grid_field(grid, phi_star)
        background = FormField(grid, 3.0 * np.eye(3))
        x = background.packed(phi_star)
        adj, det = packed_adjugate(x)
        f_raw = det - np.trace(x if m == 1 else adj) / 3.0
        assert f_raw.min() > 0.0
        b_star = float(np.mean(f_raw))
        spec = EquationSpec(
            n=3, m=m, background=background, omega=identity_form(grid),
            coefficient_field=1.0, source_field=f_raw / b_star,
        )
        st = newton_solve(spec)
        # above N = 8 the prolonged N = 8 solution is already exact
        assert (st.diagnostics["newton_iters"] > 0) == (N == solver.COARSEST_N)
        assert np.max(np.abs(st.phi - (phi_star - phi_star.max()))) <= 1e-10
        assert abs(st.b - b_star) <= 1e-11 * b_star
        return st

    @pytest.mark.parametrize("m", [1, 2])
    def test_manufactured_at_n8(self, m):
        # phi* varies along x1 and y2 alone: the solve runs on 64 points
        st = self.manufactured_at(m)
        assert st.diagnostics.spec.grid.shape == (8, 1, 1, 8, 1, 1)
        assert st.phi.shape == (8, 1, 1, 8, 1, 1)

    def test_manufactured_at_n8_on_the_full_grid(self):
        # the same m = 2 solve on all 8^6 points, as a problem varying along
        # every axis takes it
        st = self.manufactured_at(2, full=True)
        assert st.diagnostics.spec.grid == TorusGrid(3, 8)
        assert st.phi.shape == TorusGrid(3, 8).shape

    @pytest.mark.parametrize("m", [1, 2])
    def test_manufactured_at_n16(self, m):
        # 16^6 points on the grid, 256 held: the data are built and solved
        # on the subtorus, nested iteration through N = 8 included
        st = self.manufactured_at(m, N=16)
        assert st.diagnostics.spec.grid.shape == (16, 1, 1, 16, 1, 1)
        assert st.spec.source_field.shape == (16, 1, 1, 16, 1, 1)


class TestPolynomialKernel:
    """_evaluate's polynomial R, dR/db and packed A against the eigenvalue side.

    The oracle takes X's eigenvalues and omega-orthonormal eigenvectors from
    LAPACK, whitening point by point for a varying omega, then R from
    residual_inverse_form, dR/db from S_k(1/lam) and A = sum_i a_i v_i v_i^H
    with a from linearization_coefficients.
    """

    @staticmethod
    def small_potential(rng, grid, size):
        raw = rng.normal(size=grid.shape)
        return raw * (size / np.max(np.abs(packed_hessian(grid, raw))))

    @pytest.mark.parametrize("metric", ["identity", "constant", "varying"])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_eigenvalue_side(self, n, mode, metric):
        rng = np.random.default_rng(41)
        grid = TorusGrid(n, 8 if n == 2 else 4)
        omega_mat = np.eye(n) if metric == "identity" else random_metric(rng, n)
        if metric == "varying":
            omega = FormField(grid, omega_mat, self.small_potential(rng, grid, 0.2))
            assert not omega.is_constant
        else:
            omega = FormField(grid, omega_mat)
        phi = self.small_potential(rng, grid, 0.3)
        background = FormField(grid, 3.0 * omega_mat)
        g = 1.0 + 0.5 * rng.uniform(size=grid.shape)
        f = 0.5 + rng.uniform(size=grid.shape)
        b = 0.7 if mode == "additive" else -0.2
        if mode == "additive":
            f = normalize_density(f, omega)

        x = (background.const + complex_hessian(grid, phi)).reshape(-1, n, n)
        omega_mats = unpack_hermitian(np.moveaxis(omega.packed().reshape(n, n, -1), (0, 1), (-2, -1)))
        white = np.linalg.inv(np.linalg.cholesky(omega_mats))
        white_h = np.conj(np.swapaxes(white, -1, -2))
        lam, u = np.linalg.eigh(white @ x @ white_h)
        vecs = white_h @ u
        for m in range(n):
            spec = EquationSpec(n, m, background, omega, g, f, unknown_mode=mode)
            ev = evaluate_at(spec, phi, b)
            if mode == "additive":
                params = EquationParams(n, m, g.reshape(-1), b * f.reshape(-1))
                dresid_db = f.reshape(-1) * elementary_sym(n, 1.0 / lam)
            else:
                params = EquationParams(n, m, math.exp(b) * g.reshape(-1), f.reshape(-1))
                dresid_db = params.coefficient / params.binom * elementary_sym(n - m, 1.0 / lam)
            resid = residual_inverse_form(lam, params)
            a = linearization_coefficients(lam, params)
            want = pack_hermitian(np.einsum("pij,pj,pkj->pik", vecs, a, np.conj(vecs)))
            got = np.moveaxis(ev.coefficients(), -1, 0)
            assert np.max(np.abs(ev.resid - resid) / (1.0 + resid)) <= 1e-13
            assert np.max(np.abs(ev.dresid_db - dresid_db) / dresid_db) <= 1e-13
            scale = np.max(np.abs(want), axis=(-2, -1), keepdims=True)
            assert np.max(np.abs(got - want) / scale) <= 1e-13


class TestMultiplicative:
    def test_constant_coefficient_closed_form(self):
        # S_2 = (e^b/2) S_1 + 1 at X = 2I forces e^b = 3/2
        grid = TorusGrid(2, 16)
        spec = EquationSpec(
            n=2, m=1, background=FormField(grid, 2.0 * np.eye(2)),
            omega=identity_form(grid), coefficient_field=1.0, source_field=1.0,
            unknown_mode="multiplicative",
        )
        st = newton_solve(spec)
        assert st.b == pytest.approx(math.log(1.5), abs=1e-9)
        assert np.abs(st.phi).max() <= 1e-12

    def test_varying_coefficient(self):
        # no exact discrete solution here: the sup residual bottoms out at
        # the kernel-mode aliasing level (~9e-9 at N=16), so the target is
        # 1e-8; the eigvalsh-based residual check is solver-independent
        grid = TorusGrid(2, 16)
        c = grid.coords()
        g = grid_field(grid, 1.0 + 0.3 * np.cos(TWO_PI * c["x1"]))
        spec = EquationSpec(
            n=2, m=1, background=FormField(grid, 2.0 * np.eye(2)),
            omega=identity_form(grid), coefficient_field=g, source_field=1.0,
            unknown_mode="multiplicative",
        )
        st = newton_solve(spec, config=SolverConfig(tol=1e-8))
        assert st.residual_sup <= 1e-8
        # stagnation guard: pre-projection linear solves ground to maxiter
        assert st.diagnostics["krylov_iters"] <= 100
        X = spec.background.const + complex_hessian(grid, st.phi)
        lam = np.linalg.eigvalsh(X)
        resid = lam.prod(axis=-1) - np.exp(st.b) * g / 2.0 * lam.sum(axis=-1) - 1.0
        assert np.abs(resid).max() <= 1e-7
        # collocation value, stable under refinement (matches N=32 to 8 digits)
        assert st.b == pytest.approx(0.37968673, abs=5e-7)


class TestFailureModes:
    def test_inadmissible_init_raises_cone_error(self, uniform16):
        grid = uniform16.grid
        bad = grid_field(grid, 4.0 * np.cos(TWO_PI * grid.coords()["x1"]))
        with pytest.raises(ConeViolationError) as err:
            newton_solve(uniform16.spec(0.5), init=SimpleNamespace(phi=bad, b=0.96))
        detail = err.value.detail
        assert detail["count"] >= 1
        assert detail["min_eig"] < 0
        assert len(detail["where"]) == 4

    def test_cold_start_outside_cone_names_worst_point(self, uniform16, monkeypatch):
        # pinned: the same count, worst eigenvalue and point as the
        # eigenvalue-based admissibility test gave
        grid = uniform16.grid
        c = grid.coords()
        bad = grid_field(
            grid,
            0.3 * np.cos(TWO_PI * c["x1"]) * np.sin(TWO_PI * c["y2"])
            + 0.2 * np.sin(TWO_PI * (c["y1"] + c["x2"])),
        )
        spec = uniform16.spec(0.5)
        spec = dataclasses.replace(spec, background=FormField(grid, spec.background.const, bad))
        hessians = []

        def spy(sub, phi):
            hessians.append(sub.N)
            return packed_hessian(sub, phi)

        monkeypatch.setattr(torus, "packed_hessian", spy)
        with pytest.raises(ConeViolationError) as err:
            newton_solve(spec)
        # one Hessian per start tried, the N = 8 solve's cold start and then
        # this one's: the report reads the rejected start's X
        assert hessians == [8, 16]
        detail = err.value.detail
        assert detail["count"] == 34784
        assert detail["min_eig"] == pytest.approx(-5.308723080762606, rel=1e-14)
        assert detail["where"] == (1, 15, 5, 5)
        assert "34784 points outside the cone, min eigenvalue -5.309e+00" in str(err.value)

    def test_max_newton_carries_last_state(self):
        inst = manufactured_instance(N=8)
        with pytest.raises(NonconvergenceError) as err:
            newton_solve(inst.spec(0.5), config=SolverConfig(max_newton=1))
        st = err.value.state
        assert st is not None
        assert st.diagnostics["newton_iters"] == 1
        assert st.residual_sup > 1e-10

    def test_non_finite_residual_is_not_converged(self):
        # a start whose multiplicative scalar is nan gives a nan residual;
        # every comparison with it is False, so it must not read as converged
        grid = TorusGrid(2, 8)
        spec = EquationSpec(
            n=2, m=1, background=FormField(grid, 2.0 * np.eye(2)), omega=identity_form(grid),
            coefficient_field=1.0, source_field=1.0, unknown_mode="multiplicative",
        )
        start = SimpleNamespace(phi=np.zeros((1, 1, 1, 1)), b=math.nan)
        with pytest.raises(NonconvergenceError, match="^non-finite residual nan") as err:
            newton_solve(spec, init=start)
        st = err.value.state
        assert math.isnan(st.residual_sup) and math.isnan(st.b)
        assert st.diagnostics["newton_iters"] == 0

    def test_non_finite_data_are_rejected_before_any_solve(self, monkeypatch):
        # the uniform background at t = 1e200 is finite, but its top class
        # integral, and so b, overflows: the spec is refused where it is built
        uniform = uniform_instance(N=8)
        with pytest.raises(InputError, match="class integrals are not finite"):
            uniform.spec(1e200)
        with pytest.raises(InputError, match="constant part must be finite"):
            FormField(uniform.grid, np.diag([np.inf, 1.0]))
        big = FormField(uniform.grid, np.eye(2), 1e10 * np.cos(TWO_PI * uniform.grid.coords()["x1"]))
        with pytest.raises(InputError, match="potential values must be finite"):
            1e300 * big
        # a coefficient of 1.5e308 leaves the class integrals finite and b not
        spec = dataclasses.replace(uniform.spec(0.5), coefficient_field=1.5e308)

        def evaluate(*args):
            raise AssertionError("Newton work before the check of b")

        monkeypatch.setattr(solver, "_evaluate", evaluate)
        with pytest.raises(InputError, match="quadrature value of b is not finite: -inf"):
            newton_solve(spec)

    def test_negative_b_is_rejected_before_any_solve(self, monkeypatch):
        # uniform at eps = -0.5, t = 0.1: s = 0.6 and b = s^2 - s = -0.24 < 0,
        # so the source b f would be negative
        spec = uniform_instance(N=8, eps=-0.5).spec(0.1)

        def evaluate(*args):
            raise AssertionError("Newton work before the check of b")

        monkeypatch.setattr(solver, "_evaluate", evaluate)
        with pytest.raises(InputError, match=r"quadrature value of b is negative: -0\.24"):
            newton_solve(spec)

    def test_aliasing_floor_stops_newton(self, manufactured8):
        # away from t_star the N = 8 solution is not band-limited: the sup
        # residual stays at 6.3e-5, in the kernel modes Newton cannot reach,
        # once its part in the Hessian's range is below tol. Newton stops
        # there, before the 11 steps that reach the damping floor
        spec = manufactured8.spec(1.0)
        with pytest.raises(NonconvergenceError, match="aliasing floor reached at residual 6.33") as err:
            newton_solve(spec)
        assert "Hessian's range, all Newton can reduce, is" in str(err.value)
        st = err.value.state
        assert 0 < st.diagnostics["newton_iters"] < 11
        assert st.residual_sup > 1e-5
        # the solve's own spec, on the subtorus where phi lives
        sub = st.diagnostics.spec
        ev = evaluate_at(sub, st.phi, st.b)
        assert ev.rsup == pytest.approx(st.residual_sup, rel=1e-12)
        assert np.max(np.abs(ev.range_resid)) <= 1e-10
        # the range part is the Krylov rhs, up to its sign
        rhs = strip_kernel_modes(sub.grid, -ev.resid.reshape(sub.grid.shape), keep_mean=True)
        assert np.array_equal(-ev.range_resid, rhs.reshape(-1))

    def test_damping_floor_names_unconverged_lgmres(self, manufactured8, monkeypatch):
        # a one-product cycle stops short and hands its y to LGMRES; one that
        # gives back no descent direction leaves the line search at the
        # damping floor, and the message names the LGMRES status only when
        # LGMRES too stopped short of its forcing tolerance
        monkeypatch.setattr(solver, "KRYLOV_INNER", 1)
        for info in (0, 1):
            calls = []

            def no_descent(*args, _info=info, **kwargs):
                calls.append(kwargs["x0"])
                return np.zeros_like(kwargs["x0"]), _info

            monkeypatch.setattr(solver, "lgmres", no_descent)
            with pytest.raises(NonconvergenceError, match="^damping floor reached") as err:
                newton_solve(manufactured8.spec(1.0))
            if info:
                assert str(err.value).endswith("after an LGMRES solve that stopped short (info 1)")
            else:
                assert "LGMRES" not in str(err.value)
            assert len(calls) == 1
            assert err.value.state.diagnostics["newton_iters"] == 0
            assert err.value.state.residual_sup > 1e-10


class TestSolverConfig:
    @pytest.mark.parametrize(
        "kwargs", [{"tol": 0.0}, {"tol": -1.0}, {"tol": math.nan}, {"max_newton": -3}], ids=str
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(InputError):
            SolverConfig(**kwargs)


class TestNewtonStep:
    """The step (dphi, db) against finite differences of the residual R.

    With P the kernel projection keeping the mean, the Newton equation is
    P J d = -P R(x); the directional derivative J d is taken by a forward
    difference, so the check holds to the forcing tolerance plus O(eps).
    """

    @staticmethod
    def check_step(spec, phi, b, ratio, bound):
        grid = spec.grid
        ev = evaluate_at(spec, phi, b)
        dphi, db, _, info = solver._linear_step(spec, ev, SolverConfig(), ratio * ev.rsup)
        assert info == 0

        def proj(r):
            return strip_kernel_modes(grid, r.reshape(grid.shape), keep_mean=True)

        eps = 1e-6
        moved = evaluate_at(spec, phi + eps * dphi, b + eps * db).resid
        lin = proj((moved - ev.resid) / eps) + proj(ev.resid)
        assert np.linalg.norm(lin) <= bound * np.linalg.norm(proj(ev.resid))
        assert abs(np.mean(dphi)) <= 1e-14
        assert np.max(np.abs(dphi - strip_kernel_modes(grid, dphi))) <= 1e-14

    @pytest.mark.parametrize(
        ("ratio", "bound", "inner"),
        [(1e3, 1e-5, solver.KRYLOV_INNER), (math.inf, 0.1, solver.KRYLOV_INNER), (1e3, 1e-5, 4)],
        ids=["1000.0-1e-05", "inf-0.1", "1000.0-1e-05-inner4"],
    )
    def test_step_solves_linearization(self, manufactured16, monkeypatch, ratio, bound, inner):
        # the ratio-1e3 step takes 13 products, so a 4-step cycle stops short
        # and LGMRES finishes the solve from the cycle's y
        starts = []
        lgmres = solver.lgmres

        def spy(*args, **kwargs):
            starts.append(kwargs["x0"])
            return lgmres(*args, **kwargs)

        monkeypatch.setattr(solver, "lgmres", spy)
        monkeypatch.setattr(solver, "KRYLOV_INNER", inner)
        # the kernels take a spec whose fields have its grid's shape
        spec = manufactured16.spec(0.5)
        full = spec.on(spec.grid)
        self.check_step(full, np.zeros(spec.grid.shape), quadrature_b(spec), ratio, bound)
        assert len(starts) == (inner == 4)
        assert all(np.any(x0) for x0 in starts)

    def test_step_at_diagonal_fake_boundary_state(self):
        # stage 1 of the fake-boundary sample after one Newton step: g2 and
        # so phi vary in x1 alone, X = diag(1 + phi_x1x1/4, 1) exactly, and
        # X11 > X22 on part of the grid, where the top eigenvector is e1
        sample = fake_boundary_sample(N=16)
        inst = prepare_instance(sample["g"], sample["chi"], sample["omega"], sample["m"])
        spec = EquationSpec(
            n=2, m=inst.m, background=inst.chi, omega=inst.omega,
            coefficient_field=inst.g2, source_field=0.0, unknown_mode="multiplicative",
        ).on(inst.grid)
        ev = evaluate_at(spec, np.zeros(spec.grid.shape), 0.0)
        phi, b, _, _ = solver._linear_step(spec, ev, SolverConfig(), math.inf)
        # the full step is newton_solve's first iterate: it lowers the residual
        assert evaluate_at(spec, phi, b).rsup < ev.rsup
        x = spec.background.packed(phi)
        assert np.all(x[0, 1] == 0.0) and np.all(x[1, 0] == 0.0)
        assert np.any(x[0, 0] > x[1, 1])
        self.check_step(spec, phi, b, 1e3, 1e-5)

    def test_warm_start_near_solution_takes_one_step(self):
        # a first step has no previous residual for the Eisenstat-Walker
        # ratio; its forcing term is the residual itself, 6e-5 here, so one
        # step meets tol (with the loose FORCING_MAX it took three)
        inst = manufactured_instance(N=8)
        spec = inst.spec(0.5)
        c = spec.grid.coords()
        bump = grid_field(spec.grid, np.cos(TWO_PI * c["x1"]) * np.cos(TWO_PI * c["y1"]))
        phi = inst.extras["phi_star"] + 1e-5 * bump
        b = quadrature_b(spec)
        assert 5e-5 < evaluate_at(spec.on(spec.grid), phi, b).rsup < 7e-5
        start = solver.SolverState(phi, b, 0.5, math.nan, {}, spec)
        state = newton_solve(spec, init=start, config=SolverConfig(tol=1e-8))
        assert state.diagnostics["newton_iters"] == 1
        assert state.residual_sup <= 1e-8

    def test_every_product_is_an_arnoldi_step(self, manufactured8, monkeypatch):
        # the cycle starts from y = 0 and reads its residual off the Arnoldi
        # relation, so no product takes a zero start or confirms convergence
        nonzero_inputs, restarts = [], []
        operator, lgmres = solver.LinearOperator, solver.lgmres

        def spy_operator(*args, matvec, **kwargs):
            def spied(y):
                nonzero_inputs.append(bool(np.any(y)))
                return matvec(y)
            return operator(*args, matvec=spied, **kwargs)

        def spy_lgmres(*args, **kwargs):
            restarts.append(kwargs)
            return lgmres(*args, **kwargs)

        monkeypatch.setattr(solver, "LinearOperator", spy_operator)
        monkeypatch.setattr(solver, "lgmres", spy_lgmres)
        state = newton_solve(manufactured8.spec(manufactured8.extras["t_star"]))
        assert state.diagnostics["newton_iters"] > 0
        assert all(nonzero_inputs)
        assert len(nonzero_inputs) == state.diagnostics["krylov_iters"]
        assert not restarts

    @pytest.mark.parametrize("spectrum", ["distinct", "three-valued", "singular"])
    def test_gmres_cycle_on_small_systems(self, spectrum):
        if spectrum == "singular":
            # a zero Givens pivot reduces nothing: the cycle reports the full
            # residual as unconverged and leaves the system to LGMRES
            mat = np.diag([0.0, 1.0, 2.0])
            op = solver.LinearOperator((3, 3), matvec=lambda y: mat @ y, dtype=np.float64)
            for rhs in ([1.0, 0.0, 0.0], [1.0, 1.0, 0.0]):
                y, converged = solver._gmres_cycle(op, np.array(rhs), 1e-8)
                assert not converged
                assert np.linalg.norm(mat @ y - rhs) == pytest.approx(1.0, rel=1e-12)
            return
        # a three-valued spectrum makes the Krylov space invariant after three
        # steps: the cycle stops at that breakdown with the exact solution
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
        eig = np.linspace(1.0, 4.0, 40) if spectrum == "distinct" else np.repeat([1.0, 2.0, 3.0], [10, 10, 20])
        mat = q @ np.diag(eig) @ q.T
        rhs = rng.standard_normal(40)
        products = []

        def matvec(y):
            products.append(y)
            return mat @ y

        op = solver.LinearOperator((40, 40), matvec=matvec, dtype=np.float64)
        y, converged = solver._gmres_cycle(op, rhs, 1e-8)
        assert converged
        assert np.linalg.norm(mat @ y - rhs) <= 1e-8 * np.linalg.norm(rhs)
        if spectrum == "three-valued":
            assert len(products) == 3
            assert np.linalg.norm(mat @ y - rhs) <= 1e-12 * np.linalg.norm(rhs)
        y, converged = solver._gmres_cycle(op, np.zeros(40), 1e-8)
        assert converged and not np.any(y)


class TestContinuation:
    def test_schedule_validation(self, degenerate8):
        for bad in ([], [0.5, 0.6], [1.5, 0.5], [0.5, 0.0], [np.nan], [1.0, np.nan]):
            with pytest.raises(InputError, match="schedule must"):
                continuation_path(degenerate8.spec, bad)

    def test_complete_path_and_warm_start(self, degenerate8):
        res = continuation_path(degenerate8.spec, [1.0, 0.5, 0.25])
        assert res.complete
        assert res.failed_t is None
        assert [st.t for st in res.states] == [1.0, 0.5, 0.25]
        # warm starts should make later solves much cheaper than the first
        assert res.states[1].diagnostics["newton_iters"] <= 2
        assert all(st.residual_sup <= 1e-10 for st in res.states)

    def test_deterministic_rerun(self, degenerate8):
        first = continuation_path(degenerate8.spec, [1.0, 0.5, 0.25])
        second = continuation_path(degenerate8.spec, [1.0, 0.5, 0.25])
        for a, b in zip(first.states, second.states):
            assert np.array_equal(a.phi, b.phi)
            assert a.b == b.b
            assert a.residual_sup == b.residual_sup

    def test_partial_path_on_nonconvergence(self):
        uni = uniform_instance(N=8)
        manu = manufactured_instance(N=8)

        def family(t):
            return uni.spec(t) if t > 0.7 else manu.spec(t)

        res = continuation_path(family, [1.0, 0.5], config=SolverConfig(max_newton=1))
        assert not res.complete
        assert res.failed_t == 0.5
        assert len(res.states) == 1
        assert "Newton" in res.failure

    def test_partial_path_on_cone_violation(self):
        grid = TorusGrid(2, 8)

        def family(t):
            return EquationSpec(
                n=2, m=1,
                background=FormField(grid, (2.0 * t - 0.5) * np.eye(2)),
                omega=identity_form(grid), coefficient_field=1.0, source_field=1.0,
            )

        res = continuation_path(family, [1.0, 0.25])
        assert not res.complete
        assert res.failed_t == 0.25
        assert "cone" in res.failure

    def test_csv_roundtrip(self, degenerate8, tmp_path):
        res = continuation_path(degenerate8.spec, [1.0, 0.5])
        out = tmp_path / "path.csv"
        write_path_csv(out, res)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(PATH_CSV_COLUMNS)
        assert len(rows) == 1 + len(res.states)
        for row, st in zip(rows[1:], res.states):
            assert float(row[0]) == st.t
            assert float(row[1]) == st.b
            assert int(row[8]) == st.diagnostics["newton_iters"]


@pytest.fixture(scope="module")
def bd8():
    return boundary_degenerate_instance(N=8)


@pytest.fixture(scope="module")
def bd8_path(bd8):
    return continuation_path(bd8.spec, SCHEDULE)


@pytest.fixture(scope="module")
def bd16():
    return boundary_degenerate_instance(N=16)


@pytest.fixture(scope="module")
def bd16_path(bd16):
    return continuation_path(bd16.spec, SCHEDULE[:2])


def counts(state):
    return state.diagnostics["newton_iters"], state.diagnostics["krylov_iters"]


class TestSecantPredictor:
    """Starts from the path so far: secant through the last two states, else warm or cold."""

    def test_linear_potential_is_predicted_exactly(self, bd8, bd8_path):
        # the exact potential is linear in t and additive b comes from
        # quadrature, so every secant start is already converged
        states = bd8_path.states
        assert bd8_path.complete and len(states) == len(SCHEDULE)
        assert counts(states[1])[0] > 0
        for st in states[2:]:
            assert counts(st) == (0, 0)
            want = bd8.extras["potential_exact"](st.t)
            assert np.abs(st.phi - (want - want.max())).max() <= 1e-8
            assert abs(st.b - bd8.extras["expected_b"](st.t)) <= 1e-8

    def test_prediction_outside_cone_falls_back_to_warm_start(self, bd8, bd8_path):
        s1 = bd8_path.states[1]
        bump = 8.0 * grid_field(bd8.grid, np.cos(TWO_PI * bd8.grid.coords()["x1"]))
        s0 = dataclasses.replace(s1, phi=s1.phi - bump, t=1.0)
        spec = bd8.spec(0.25)
        # r = (0.25 - 0.5) / (0.5 - 1) = 1/2, so the secant adds half the bump
        with pytest.raises(ConeViolationError):
            newton_solve(spec, init=SimpleNamespace(phi=s1.phi + 0.5 * bump, b=s1.b), t=0.25)
        got = newton_solve(spec, init=[s0, s1], t=0.25)
        warm = newton_solve(spec, init=s1, t=0.25)
        assert counts(got) == counts(warm)
        assert counts(warm)[0] > 0
        assert np.abs(got.phi - warm.phi).max() <= 1e-10
        assert abs(got.b - warm.b) <= 1e-10

    def test_short_paths_match_cold_and_warm_starts(self, bd8, bd8_path):
        spec = bd8.spec(1.0)
        cold = newton_solve(spec, t=1.0)
        assert counts(newton_solve(spec, init=[], t=1.0)) == counts(cold)
        s = bd8_path.states[0]
        spec = bd8.spec(0.5)
        warm = newton_solve(spec, init=s, t=0.5)
        assert counts(warm)[0] > 0
        assert counts(newton_solve(spec, init=[s], t=0.5)) == counts(warm)

    def test_no_secant_without_finite_distinct_t(self, bd8, bd8_path):
        s0, s1 = bd8_path.states[:2]
        spec = bd8.spec(0.25)
        warm = newton_solve(spec, init=s1)
        assert counts(warm)[0] > 0
        assert counts(newton_solve(spec, init=[s0, s1])) == counts(warm)
        same_t = dataclasses.replace(s0, t=s1.t)
        assert counts(newton_solve(spec, init=[same_t, s1], t=0.25)) == counts(warm)


@pytest.fixture
def newton_calls(monkeypatch):
    """The grid N of every newton_solve call made through the module-level name."""
    calls = []
    original = solver.newton_solve

    def counted(spec, *args, **kwargs):
        calls.append(spec.grid.N)
        return original(spec, *args, **kwargs)

    monkeypatch.setattr(solver, "newton_solve", counted)
    return calls


@pytest.fixture(scope="module")
def manufactured32():
    return manufactured_instance(N=32)


def mean_free_sup(values):
    return float(np.abs(values - values.mean()).max())


def fine_start(spec, coarse_solve, monkeypatch, init=None):
    """The state a zero-step N = 32 solve starts from, with its N = 16 solve replaced.

    The N = 16 solve's own N = 8 solve runs unreplaced.
    """
    original = solver.newton_solve

    def replaced(sub, *args, **kwargs):
        if sub.grid.N != spec.grid.N // 2:
            return original(sub, *args, **kwargs)
        return coarse_solve(original, sub, *args, **kwargs)

    monkeypatch.setattr(solver, "newton_solve", replaced)
    with pytest.raises(NonconvergenceError) as err:
        solver.newton_solve(spec, init=init, config=SolverConfig(max_newton=0))
    assert err.value.state.diagnostics["newton_iters"] == 0
    return err.value.state


class TestNestedIteration:
    """Above N = 8 a solve without a secant start in the cone starts from the solve at N/2."""

    def test_manufactured_n32_takes_no_fine_steps(self, manufactured32, newton_calls):
        spec = manufactured32.spec(manufactured32.extras["t_star"])
        st = solver.newton_solve(spec)
        assert newton_calls == [32, 16, 8]
        assert st.diagnostics["newton_iters"] == 0
        assert st.residual_sup <= 1e-10
        assert mean_free_sup(st.phi - manufactured32.extras["phi_star"]) <= 1e-10
        assert abs(st.b - quadrature_b(spec)) <= 1e-9

    def test_fine_newton_work_at_n32(self, newton_calls):
        # phi* = 0.03 e^{sin 2 pi x1} cos 2 pi y2 is not band-limited, so the
        # prolonged N = 16 solution misses it and the N = 32 solve takes its
        # own Newton step, with Krylov vectors of 2^20 points
        grid = TorusGrid(2, 32)
        c = grid.coords()
        phi_star = grid_field(grid, 0.03 * np.exp(np.sin(TWO_PI * c["x1"])) * np.cos(TWO_PI * c["y2"]))
        (x11, re), (im, x22) = FormField(grid, 3.0 * np.eye(2), phi_star).packed()
        # S_2 - S_1/2 of X* = 3I + Hess(phi*), as manufactured_instance builds it
        f_raw = (x11 * x22 - re * re - im * im) - 0.5 * (x11 + x22)
        omega = identity_form(grid)
        spec = EquationSpec(
            n=2, m=1, background=FormField(grid, 3.0 * np.eye(2)), omega=omega,
            coefficient_field=1.0, source_field=normalize_density(f_raw, omega),
        )
        st = solver.newton_solve(spec)
        assert newton_calls == [32, 16, 8]
        assert st.diagnostics["newton_iters"] == 1
        assert st.diagnostics["krylov_iters"] > 0
        assert mean_free_sup(st.phi - phi_star) <= 1e-10
        assert abs(st.b - float(np.mean(f_raw))) <= 1e-9

    def test_path_n32_meets_closed_forms(self, newton_calls):
        inst = boundary_degenerate_instance(N=32)
        res = solver.continuation_path(inst.spec, SCHEDULE)
        assert res.complete and len(res.states) == len(SCHEDULE)
        # the cold and warm starts solve at N/2 first; every later one starts from its secant
        assert newton_calls == [32, 16, 8] * 2 + [32] * (len(SCHEDULE) - 2)
        for st in res.states:
            want = inst.extras["potential_exact"](st.t)
            assert mean_free_sup(st.phi - want) <= 1e-8
            assert abs(st.b - inst.extras["expected_b"](st.t)) <= 1e-8

    def test_one_call_per_n8_solve(self, newton_calls, bd8):
        res = solver.continuation_path(bd8.spec, SCHEDULE)
        assert res.complete
        assert newton_calls == [8] * len(SCHEDULE)

    def test_n16_solve_starts_from_n8(self, newton_calls, manufactured16):
        st = solver.newton_solve(manufactured16.spec(manufactured16.extras["t_star"]))
        assert newton_calls == [16, 8]
        assert st.diagnostics["newton_iters"] == 0
        assert st.residual_sup <= 1e-10

    def test_path_n16_takes_no_fine_steps(self, newton_calls):
        # the exact potential is band-limited and linear in t, so the
        # prolonged N = 8 solves of the cold and warm starts, and every
        # secant start after them, already solve the N = 16 problem
        inst = boundary_degenerate_instance(N=16)
        res = solver.continuation_path(inst.spec, SCHEDULE)
        assert res.complete and len(res.states) == len(SCHEDULE)
        assert newton_calls == [16, 8] * 2 + [16] * (len(SCHEDULE) - 2)
        for st in res.states:
            assert st.diagnostics["newton_iters"] == 0
            want = inst.extras["potential_exact"](st.t)
            assert mean_free_sup(st.phi - want) <= 1e-8
            assert abs(st.b - inst.extras["expected_b"](st.t)) <= 1e-8

    def test_secant_start_in_the_cone_skips_the_coarse_solve(self, newton_calls, bd16, bd16_path):
        s0, s1 = bd16_path.states
        st = solver.newton_solve(bd16.spec(0.25), init=[s0, s1], t=0.25)
        assert newton_calls == [16]
        assert counts(st) == (0, 0)
        want = bd16.extras["potential_exact"](0.25)
        assert mean_free_sup(st.phi - want) <= 1e-8

    def test_secant_start_outside_cone_falls_back_to_coarse(self, newton_calls, bd16, bd16_path):
        # the bump of TestSecantPredictor's fallback test: the secant adds half of it
        s1 = bd16_path.states[1]
        bump = 8.0 * grid_field(bd16.grid, np.cos(TWO_PI * bd16.grid.coords()["x1"]))
        s0 = dataclasses.replace(s1, phi=s1.phi - bump, t=1.0)
        spec = bd16.spec(0.25)
        got = solver.newton_solve(spec, init=[s0, s1], t=0.25)
        assert newton_calls == [16, 8]
        warm = solver.newton_solve(spec, init=s1, t=0.25)
        assert newton_calls == [16, 8] * 2
        assert counts(got) == counts(warm)
        assert np.abs(got.phi - warm.phi).max() <= 1e-10
        assert abs(got.b - warm.b) <= 1e-10

    def test_duck_typed_start_above_n16(self, manufactured32):
        # a start is read for phi and b alone, on every grid level
        spec = manufactured32.spec(manufactured32.extras["t_star"])
        start = SimpleNamespace(phi=manufactured32.extras["phi_star"], b=quadrature_b(spec))
        st = solver.newton_solve(spec, init=start)
        assert st.diagnostics["newton_iters"] == 0
        assert mean_free_sup(st.phi - manufactured32.extras["phi_star"]) <= 1e-10

    def test_coarse_nonconvergence_hands_over_its_state(self, manufactured32, monkeypatch):
        stopped = []

        def one_step(original, sub, *args, **kwargs):
            try:
                return original(sub, *args, **dict(kwargs, config=SolverConfig(max_newton=1)))
            except NonconvergenceError as err:
                stopped.append(err.state)
                raise

        start = fine_start(manufactured32.spec(0.5), one_step, monkeypatch)
        (coarse,) = stopped
        assert coarse.diagnostics["newton_iters"] == 1
        assert mean_free_sup(coarse.phi) > 1e-3
        assert mean_free_sup(start.phi - prolong(coarse.spec.grid, coarse.phi)) <= 1e-12

    @pytest.mark.parametrize("how", ["coarse-raises", "prolongation-leaves"])
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_coarse_outside_cone_falls_back(self, manufactured32, monkeypatch, how, warm):
        spec = manufactured32.spec(0.5)
        grid = spec.grid

        def outside(original, sub, *args, **kwargs):
            if how == "coarse-raises":
                raise ConeViolationError("initial state leaves the cone")
            # a converged coarse solve, not the zero-step one the fine solve
            # asks for, on the coarse grid of the fine solve's subtorus
            st = original(sub, *args, **dict(kwargs, config=None))
            bump = 4.0 * grid_field(sub.grid, np.cos(TWO_PI * sub.grid.coords()["x1"]))
            return dataclasses.replace(st, phi=st.phi + bump)

        prior = None
        if warm:
            phi = 0.5 * manufactured32.extras["phi_star"]
            prior = solver.SolverState(phi, quadrature_b(spec), 0.5, math.nan, {}, spec)
        start = fine_start(spec, outside, monkeypatch, init=prior)
        want = np.zeros(grid.shape) if prior is None else prior.phi
        assert mean_free_sup(start.phi - want) <= 1e-12
        assert start.b == quadrature_b(spec)


def broadcast_full(grid, values):
    """values broadcast over the full grid, as a writeable array."""
    return None if values is None else np.broadcast_to(values, grid.shape).copy()


def full_form(form):
    return FormField(form.grid, form.const, broadcast_full(form.grid, form.potential))


def full_spec(spec):
    """spec with every field broadcast over its full grid."""
    grid = spec.grid
    return EquationSpec(
        spec.n, spec.m, full_form(spec.background), full_form(spec.omega),
        broadcast_full(grid, spec.coefficient_field), broadcast_full(grid, spec.source_field),
        spec.unknown_mode,
    )


def full_grid_volume_check(state, c):
    """volume_lower_bound_check's value from the state's own grid and phi."""
    spec = state.spec
    lam = grid_eigenvalues(spec.background, spec.omega, state.phi)
    return float(np.min(elementary_sym(spec.n, lam)) - c ** (spec.n / (spec.n - spec.m)))


def fake_boundary_instance(N, chi=None):
    sample = fake_boundary_sample(N=N)
    chi = sample["chi"] if chi is None else chi
    return prepare_instance(sample["g"], chi, sample["omega"], sample["m"])


def full_fake_boundary_instance(N, chi=None):
    """fake_boundary_instance with g and chi's potential broadcast over the full grid."""
    sample = fake_boundary_sample(N=N)
    chi = full_form(sample["chi"] if chi is None else chi)
    return prepare_instance(broadcast_full(sample["grid"], sample["g"]), chi, sample["omega"], sample["m"])


class TestSubtorusSolve:
    """Each solve runs on its data's invariant subtorus and keeps phi there;
    the same solve of the data broadcast over the full grid, which then have
    no constant axis, runs at every point and gives the same state to rounding."""

    @pytest.mark.parametrize("N", [8, 16])
    @pytest.mark.parametrize("build", SHIPPED_INSTANCES, ids=lambda b: b.__name__)
    def test_shipped_instances_match_the_full_grid(self, build, N):
        inst = build(N=N)
        spec = inst.spec(0.5)
        reduced = newton_solve(spec, t=0.5)
        sub = reduced.diagnostics.spec.grid
        assert sub.constant_axes and sub.n == spec.n and sub.N == N
        assert reduced.spec is spec and reduced.phi.shape == sub.shape
        full = newton_solve(full_spec(spec), t=0.5)
        assert full.diagnostics.spec.grid == spec.grid and full.phi.shape == spec.grid.shape
        assert counts(reduced) == counts(full)
        assert np.max(np.abs(reduced.phi - full.phi)) <= 1e-12
        assert abs(reduced.b - full.b) <= 1e-12
        for key in DIAGNOSTIC_KEYS:
            assert reduced.diagnostics[key] == pytest.approx(full.diagnostics[key], rel=1e-9, abs=1e-12), key

    @pytest.mark.parametrize("N", [8, 16])
    def test_fake_boundary_matches_the_full_grid(self, N):
        # N = 8 resolves the smoothed coefficient to 1e-4 only
        inst = fake_boundary_instance(N)
        config = SolverConfig(tol=1e-4) if N == 8 else None
        reduced = two_stage_solve(inst, config)
        assert reduced.final_state.diagnostics.spec.grid.shape == (N, 1, 1, 1)
        full = two_stage_solve(full_fake_boundary_instance(N), config)
        assert full.final_state.diagnostics.spec.grid == inst.grid
        assert [r["t"] for r in reduced.records] == [r["t"] for r in full.records]
        assert np.max(np.abs(reduced.phi - full.phi)) <= 1e-10
        assert abs(reduced.b - full.b) <= 1e-10
        assert abs(reduced.b_stage1 - full.b_stage1) <= 1e-10

    def test_fake_boundary_path_runs_on_the_subtorus(self, monkeypatch):
        # g varies along x1 only: every solve gets N-point data and path
        # states, and the result keeps that shape
        inst = fake_boundary_instance(16)
        seen = []
        solve = fakeboundary.newton_solve

        def spy(spec, init=None, config=None, t=math.nan):
            assert spec.grid == inst.grid
            seen.append(spec.coefficient_field.shape)
            seen.extend(s.phi.shape for s in init or [])
            state = solve(spec, init=init, config=config, t=t)
            seen.append(state.diagnostics.spec.grid.shape)
            return state

        monkeypatch.setattr(fakeboundary, "newton_solve", spy)
        result = two_stage_solve(inst)
        assert len(seen) >= len(result.records) and set(seen) == {(16, 1, 1, 1)}
        assert result.phi.shape == (16, 1, 1, 1)
        assert result.final_state.phi.shape == (16, 1, 1, 1)
        assert result.final_state.spec.grid == inst.grid

    def test_fake_boundary_with_varying_background_matches_the_full_grid(self):
        # a chi potential along x1 keeps the subtorus at N points and makes
        # each t-step's cone margin a min over per-point spectra
        grid = TorusGrid(2, 16)
        chi = FormField(grid, np.eye(2), 0.002 * np.cos(TWO_PI * grid.coords()["x1"]))
        inst = fake_boundary_instance(16, chi)
        reduced = two_stage_solve(inst)
        assert reduced.final_state.diagnostics.spec.grid.shape == (16, 1, 1, 1)
        full = two_stage_solve(full_fake_boundary_instance(16, chi))
        assert full.final_state.diagnostics.spec.grid == inst.grid
        assert [r["t"] for r in reduced.records] == [r["t"] for r in full.records]
        for got, want in zip(reduced.records, full.records):
            for key in ("b_t", "residual_sup", "min_band_slack", "min_cone_margin"):
                assert abs(got[key] - want[key]) <= 1e-10, (got["t"], key)
        assert np.max(np.abs(reduced.phi - full.phi)) <= 1e-10

    @pytest.mark.parametrize("build", SHIPPED_INSTANCES, ids=lambda b: b.__name__)
    def test_volume_check_matches_the_full_grid(self, build):
        state = newton_solve(build(N=16).spec(0.5), t=0.5)
        assert state.diagnostics.spec.grid != state.spec.grid
        assert volume_lower_bound_check(state, 1.0) == full_grid_volume_check(state, 1.0)

    def test_fake_boundary_volume_check_matches_the_full_grid(self):
        state = two_stage_solve(fake_boundary_instance(16)).final_state
        assert state.diagnostics.spec.grid != state.spec.grid
        assert volume_lower_bound_check(state, 1.0) == full_grid_volume_check(state, 1.0)

    def test_no_constant_axis_solves_on_the_full_grid(self, monkeypatch):
        # a random background potential varies along every axis
        grid = TorusGrid(2, 8)
        pot = 0.002 * np.random.default_rng(43).normal(size=grid.shape)
        spec = EquationSpec(
            n=2, m=1, background=FormField(grid, 3.0 * np.eye(2), pot),
            omega=identity_form(grid), coefficient_field=1.0, source_field=1.0,
        )
        grids = []
        evaluate = solver._evaluate

        def spy(sub, *args):
            grids.append(sub.grid)
            return evaluate(sub, *args)

        monkeypatch.setattr(solver, "_evaluate", spy)
        st = newton_solve(spec)
        assert st.diagnostics["newton_iters"] > 0 and st.residual_sup <= 1e-10
        assert set(grids) == {grid}
        assert st.diagnostics.spec.grid == grid

    def test_errors_report_the_full_grid(self, uniform16):
        # the uniform data are constant along every axis and cos 2 pi x1
        # along three: the start is checked on N points
        grid = uniform16.grid
        bad = 4.0 * np.cos(TWO_PI * grid.coords()["x1"])
        spec = uniform16.spec(0.5)
        with pytest.raises(ConeViolationError) as reduced:
            newton_solve(spec, init=SimpleNamespace(phi=bad, b=0.96))
        manu = manufactured_instance(N=8).spec(0.5)
        with pytest.raises(NonconvergenceError) as stopped:
            newton_solve(manu, config=SolverConfig(max_newton=1))
        with pytest.raises(ConeViolationError) as full:
            newton_solve(full_spec(spec), init=SimpleNamespace(phi=broadcast_full(grid, bad), b=0.96))
        assert reduced.value.detail == full.value.detail
        assert str(reduced.value) == str(full.value)
        assert reduced.value.detail["count"] % grid.N**3 == 0
        st = stopped.value.state
        assert st.spec is manu and st.phi.shape == (8, 1, 1, 8)
        assert st.diagnostics.spec.grid.shape == (8, 1, 1, 8)


class TestGenericInstance:
    """Data that vary along every real axis: the full-grid path, under test."""

    @pytest.mark.parametrize("N", [8, 16])
    def test_recovers_the_manufactured_solution_at_every_point(self, N):
        inst = generic_instance(N=N)
        grid = inst.grid
        spec = inst.spec(inst.extras["t_star"])
        assert inst.f.shape == grid.shape
        fields = [spec.background.potential, spec.omega.potential, spec.coefficient_field, spec.source_field]
        assert torus.subtorus(grid, fields) == grid
        st = newton_solve(spec)
        assert st.diagnostics.spec.grid == grid and st.phi.shape == grid.shape
        # criterion 7's bounds
        assert mean_free_sup(st.phi - inst.extras["phi_star"]) <= 1e-6
        assert abs(st.b - quadrature_b(spec)) <= 1e-9


class TestMetricCheck:
    """omega is checked where a spec is built, never per solve."""

    @staticmethod
    def counted(monkeypatch):
        calls = []
        check = torus._require_metric

        def spy(omega):
            calls.append(omega.grid)
            return check(omega)

        for module in (torus, solver, fakeboundary):
            monkeypatch.setattr(module, "_require_metric", spy)
        return calls

    def test_once_per_spec_and_never_per_solve(self, monkeypatch):
        inst = boundary_degenerate_instance(N=16)
        calls = self.counted(monkeypatch)
        specs = {t: inst.spec(t) for t in SCHEDULE}
        assert calls == [inst.grid] * len(SCHEDULE)
        calls.clear()
        res = continuation_path(specs.__getitem__, SCHEDULE)
        assert res.complete and len(res.states) == len(SCHEDULE)
        assert not calls

    def test_once_per_two_stage_path(self, monkeypatch):
        inst = fake_boundary_instance(16)
        calls = self.counted(monkeypatch)
        result = two_stage_solve(inst)
        assert len(result.records) == 6
        assert calls == [inst.grid]


class TestStability:
    def test_identical_runs_give_zero(self, uniform16_state):
        rec = stability_compare(uniform16_state, uniform16_state, q=2.0)
        assert rec.sup_diff == 0.0
        assert rec.positive_part_norm == 0.0
        assert rec.c_implied == 0.0
        assert rec.q_star == 2.0

    def test_constant_shift_scaling(self, uniform16_state):
        delta = 0.125
        shifted = dataclasses.replace(uniform16_state, phi=uniform16_state.phi + delta)
        rec = stability_compare(uniform16_state, shifted, q=2.0)
        # unit volume: norm = delta, c = delta / delta^(1/(n+1)) = delta^(2/3)
        assert rec.sup_diff == pytest.approx(delta, rel=1e-14)
        assert rec.positive_part_norm == pytest.approx(delta, rel=1e-12)
        assert rec.c_implied == pytest.approx(delta ** (2.0 / 3.0), rel=1e-12)

    def test_negative_shift_has_no_positive_part(self, uniform16_state):
        shifted = dataclasses.replace(uniform16_state, phi=uniform16_state.phi - 0.5)
        rec = stability_compare(uniform16_state, shifted, q=2.0)
        assert rec.positive_part_norm == 0.0
        assert rec.c_implied == 0.0
        assert rec.sup_diff == pytest.approx(-0.5)

    def test_input_validation(self, uniform16_state, degenerate8):
        with pytest.raises(InputError, match="q"):
            stability_compare(uniform16_state, uniform16_state, q=1.0)
        other = newton_solve(degenerate8.spec(1.0))
        with pytest.raises(InputError, match="grid"):
            stability_compare(uniform16_state, other, q=2.0)


class TestUniquenessGap:
    def test_constant_offset_is_invisible(self):
        rng = np.random.default_rng(7)
        phi = rng.normal(size=(4, 4, 4, 4))
        mask = np.ones(phi.shape, dtype=bool)
        assert uniqueness_gap(phi, phi + 5.0, mask) == 0.0

    def test_off_mask_differences_are_invisible(self):
        phi = np.zeros((4, 4, 4, 4))
        mask = np.zeros(phi.shape, dtype=bool)
        mask[:2] = True
        other = phi.copy()
        other[3] = 1.0
        assert uniqueness_gap(phi, other, mask) == 0.0

    def test_on_mask_variation_is_measured(self):
        phi = np.zeros((4, 4, 4, 4))
        mask = np.zeros(phi.shape, dtype=bool)
        mask[0] = mask[1] = True
        other = phi.copy()
        other[1] = 1.0  # half the masked points move by 1
        assert uniqueness_gap(phi, other, mask) == pytest.approx(0.5)

    def test_empty_mask_rejected(self):
        phi = np.zeros((4, 4, 4, 4))
        with pytest.raises(InputError, match="mask"):
            uniqueness_gap(phi, phi, np.zeros(phi.shape, dtype=bool))

    @staticmethod
    def two_pass_gap(phi1, phi2, mask):
        """max |d - mean| over the marked d, the mean summed slab by slab, in a second pass."""
        shape = np.broadcast_shapes(np.shape(phi1), np.shape(phi2), np.shape(mask))
        slabs = zip(*(np.broadcast_to(a, shape) for a in (phi1, phi2, mask)))
        diffs = [(p1 - p2)[marked] for p1, p2, marked in slabs]
        mean = sum(float(np.sum(d)) for d in diffs) / sum(d.size for d in diffs)
        return max(float(np.max(np.abs(d - mean), initial=0.0)) for d in diffs)

    @pytest.mark.parametrize(
        ("shape1", "shape2", "mask_shape"),
        [
            ((8, 8, 8, 1), (8, 8, 1, 8), (8, 1, 1, 1)),
            ((8, 1, 8, 8), (1, 8, 8, 8), (8, 8, 8, 8)),
            ((1, 8, 1, 8), (8, 1, 1, 1), (1, 8, 8, 1)),
            ((8, 8, 1, 1), (8, 8, 1, 1), ()),
        ],
    )
    def test_one_pass_matches_two_passes_bit_for_bit(self, shape1, shape2, mask_shape):
        rng = np.random.default_rng(29)
        for _ in range(5):
            phi1 = rng.normal(3.0, 1.0, size=shape1)
            phi2 = rng.normal(size=shape2)
            mask = rng.random(mask_shape) < 0.3
            if mask.ndim:
                mask[0] = False  # a slab with no marked point
                mask[(-1,) * mask.ndim] = True
            else:
                mask = np.asarray(True)
            got = uniqueness_gap(phi1, phi2, mask)
            assert got.hex() == self.two_pass_gap(phi1, phi2, mask).hex()


class TestDiagnosticsReport:
    def test_constant_w_has_zero_slope(self, degenerate8):
        # the closed-form solution makes X constant, so w is constant while
        # phi varies: sup_w is ln 4.5 and w has no spread over the grid
        st = newton_solve(degenerate8.spec(0.25))
        assert st.diagnostics["sup_w"] == pytest.approx(math.log(4.5), abs=1e-8)
        assert np.ptp(st.phi) > 0.0
        w = np.log(elementary_sym(1, st.diagnostics.eigenvalues))
        assert float(w.max() - w.min()) <= 1e-10


class TestLazyDiagnostics:
    """sup_phi and the counts are set with the state; the rest on first read."""

    @staticmethod
    def counted(monkeypatch):
        # every Hessian, and every eigenvalue pass and gradient the solver module takes
        calls = Counter()
        for module, name in (
            (torus, "packed_hessian"), (solver, "packed_eigenvalues"), (solver, "holomorphic_gradient"),
        ):
            def spy(*args, _name=name, _fn=getattr(module, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, spy)
        return calls

    def test_counts_take_no_eigenvalues_then_one_pass(self, manufactured8, monkeypatch):
        calls = self.counted(monkeypatch)
        st = newton_solve(manufactured8.spec(manufactured8.extras["t_star"]))
        d = st.diagnostics
        assert d["newton_iters"] > 0 and d["krylov_iters"] > 0 and d["sup_phi"] > 0.0
        # the solve's own evaluations take Hessians, and nothing else
        assert set(calls) == {"packed_hessian"}
        calls.clear()
        assert list(d) == list(DIAGNOSTIC_KEYS) and "min_eig" in d
        assert not calls
        values = dict(d)
        values.update((k, d[k]) for k in DIAGNOSTIC_KEYS)
        # the read takes its eigenvalues from the X Newton evaluated: no Hessian
        assert calls == {"packed_eigenvalues": 1, "holomorphic_gradient": 1}
        assert calls["packed_hessian"] == 0
        assert all(math.isfinite(v) for v in values.values())

    def test_eigenvalues_are_those_of_the_reported_phi(self, manufactured8, bd16, bd16_path):
        # phi is the potential Newton evaluated, shifted to sup 0 before the
        # evaluation, so the kept X is bit for bit the one phi gives: on a
        # converged state, a 0-step secant continuation state and a stopped one
        t = SCHEDULE[2]
        with pytest.raises(NonconvergenceError) as err:
            newton_solve(manufactured8.spec(0.5), config=SolverConfig(max_newton=1))
        states = {
            "converged": newton_solve(manufactured8.spec(manufactured8.extras["t_star"])),
            "secant": newton_solve(bd16.spec(t), init=bd16_path.states, t=t),
            "stopped": err.value.state,
        }
        assert states["converged"].diagnostics["newton_iters"] > 0
        assert states["secant"].diagnostics["newton_iters"] == 0
        assert states["stopped"].diagnostics["newton_iters"] == 1
        for name, st in states.items():
            d = st.diagnostics
            form = d.spec.background + FormField(d.spec.grid, np.zeros((d.spec.n, d.spec.n)), st.phi)
            want = relative_eigenvalues(form, d.spec.omega)
            assert d.eigenvalues.shape == want.shape, name
            assert np.array_equal(d.eigenvalues.view(np.uint64), want.view(np.uint64)), name
            assert np.max(st.phi) == 0.0, name

    def test_values_match_eager_computation(self, manufactured16):
        st = newton_solve(manufactured16.spec(manufactured16.extras["t_star"]))
        spec = st.spec
        lam = grid_eigenvalues(spec.background, spec.omega, st.phi)
        on_grid = functools.partial(broadcast_full, spec.grid)
        params = EquationParams(
            spec.n, spec.m, on_grid(spec.coefficient_field).reshape(-1),
            st.b * on_grid(spec.source_field).reshape(-1),
        )
        grad = holomorphic_gradient(spec.grid, on_grid(st.phi))
        want = {
            "sup_grad": math.sqrt(float(np.max(np.sum(np.abs(grad) ** 2, axis=-1)))),
            "sup_w": float(np.max(np.log(elementary_sym(1, lam)))),
            "min_eig": float(np.min(lam[:, -1])),
            "min_margin": float(np.min(cone_margin(lam, params.coefficient, spec.m))),
        }
        for key, value in want.items():
            assert st.diagnostics[key] == pytest.approx(value, rel=1e-14, abs=1e-300), key

    def test_nonconvergence_state_is_readable(self):
        with pytest.raises(NonconvergenceError) as err:
            newton_solve(manufactured_instance(N=8).spec(0.5), config=SolverConfig(max_newton=1))
        d = err.value.state.diagnostics
        assert len(d) == len(DIAGNOSTIC_KEYS)
        assert d["newton_iters"] == 1
        assert d["min_eig"] > 0.0 and d["min_margin"] > 0.0
        assert all(math.isfinite(d[k]) for k in DIAGNOSTIC_KEYS)

    def test_read_only(self, uniform16_state):
        with pytest.raises(TypeError):
            uniform16_state.diagnostics["sup_phi"] = 1.0
        with pytest.raises(KeyError):
            uniform16_state.diagnostics["sup_psi"]


class TestStripKernelModes:
    def test_removes_mean_and_checkerboard(self):
        grid = TorusGrid(2, 8)
        vals = 3.0 + checkerboard(grid)
        out = strip_kernel_modes(grid, vals)
        assert np.abs(out).max() <= 1e-13

    def test_keep_mean_keeps_constants(self):
        grid = TorusGrid(2, 8)
        vals = 3.0 + checkerboard(grid)
        out = strip_kernel_modes(grid, vals, keep_mean=True)
        assert np.abs(out - 3.0).max() <= 1e-13

    def test_preserves_plain_modes(self):
        grid = TorusGrid(2, 8)
        vals = grid_field(grid, np.cos(TWO_PI * grid.coords()["x1"]))
        out = strip_kernel_modes(grid, vals)
        assert np.abs(out - vals).max() <= 1e-14

    def test_idempotent_on_random_fields(self):
        grid = TorusGrid(2, 8)
        rng = np.random.default_rng(11)
        vals = rng.normal(size=grid.shape)
        once = strip_kernel_modes(grid, vals)
        assert np.abs(strip_kernel_modes(grid, once) - once).max() <= 1e-13
        assert abs(once.mean()) <= 1e-14

    @pytest.mark.parametrize("N, constant_axes", [
        (16, (1, 2, 3)), (8, (2, 3)), (32, (1, 2)), (8, ()),
    ])
    @pytest.mark.parametrize("keep_mean", [False, True])
    def test_bits_of_the_per_axis_mean(self, N, constant_axes, keep_mean):
        # the projection as a mean over every block axis in turn, one block ones included
        grid = TorusGrid(2, N, constant_axes)
        rng = np.random.default_rng(5)
        for scale in (1e-6, 1.0, 1e6):
            vals = scale * rng.normal(size=grid.shape)
            blocks = vals.reshape(sum(((k // 2, 2) if k > 1 else (1, 1) for k in grid.shape), ()))
            means = blocks
            for axis in range(0, blocks.ndim, 2):
                means = means.mean(axis=axis, keepdims=True)
            if keep_mean:
                means = means - means.mean()
            want = (blocks - means).reshape(grid.shape)
            got = strip_kernel_modes(grid, vals, keep_mean=keep_mean)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
