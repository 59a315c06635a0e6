"""Fake-boundary pipeline tests: superlevel constant, scalar bound, band, path.

The sample coefficient is a single cosine mode over an identity background,
so every derived constant has a closed form in the measured superlevel mass
M: theta0 = (max g - c)/2 * M for c = 1, and the scalar bound solves the
quadratic 1 = y + theta0 y^2 in y = e^x. Wedge-type densities are
cross-checked with determinant/trace expansions that avoid the eigenvalue
route. The full 16-step path runs once at N = 16 (the resolution where the
smoothed stand-in coefficient is spectrally converged); step mechanics such
as stall halving use N = 8 with a floor-respecting tolerance.
"""

import csv
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessquot import fakeboundary, solver
from hessquot.errors import (
    AliasingFloorError,
    ConeViolationError,
    ConstructionError,
    DomainError,
    InputError,
    NonconvergenceError,
)
from hessquot.fakeboundary import (
    STAGE_CSV_COLUMNS,
    FakeBoundaryInstance,
    compute_theta0,
    g1_field,
    g2_field,
    prepare_instance,
    solve_b_prime,
    two_stage_solve,
    write_stage_csv,
)
from hessquot.instances import fake_boundary_sample
from hessquot.solver import SolverConfig, volume_lower_bound_check
from hessquot.symfunc import elementary_sym
from hessquot.torus import (
    FormField,
    TorusGrid,
    compute_c,
    identity_form,
    relative_eigenvalues,
)
from test_solver import mean_free_sup
from test_torus import complex_hessian

TWO_PI = 2.0 * np.pi


def gap_ends(sample):
    """The sample's cone constant c and max g, from its own fields."""
    return compute_c(sample["chi"], sample["omega"], sample["m"]), float(np.max(sample["g"]))


def superlevel_mass(sample):
    """Independent grid count of the half-gap superlevel set."""
    c, g_max = gap_ends(sample)
    return float(np.mean(np.asarray(sample["g"]) >= 0.5 * (g_max + c)))


def closed_form_scalar_bound(theta0):
    """Root of 1 = y + theta0 y^2 for n=2, m=1, via the quadratic formula."""
    y = (math.sqrt(1.0 + 4.0 * theta0) - 1.0) / (2.0 * theta0)
    return math.log(y)


@pytest.fixture(scope="module")
def sample8():
    return fake_boundary_sample(8)


@pytest.fixture(scope="module")
def inst8(sample8):
    return prepare_instance(sample8["g"], sample8["chi"], sample8["omega"], sample8["m"])


@pytest.fixture(scope="module")
def sample16():
    return fake_boundary_sample(16)


@pytest.fixture(scope="module")
def inst16(sample16):
    return prepare_instance(sample16["g"], sample16["chi"], sample16["omega"], sample16["m"])


@pytest.fixture(scope="module")
def path16(inst16):
    return two_stage_solve(inst16)


@pytest.fixture(scope="module")
def const_inst8(sample8):
    g = np.ones_like(np.asarray(sample8["g"]))
    return prepare_instance(g, sample8["chi"], sample8["omega"], sample8["m"])


class TestComputeTheta0:
    def test_sample_matches_independent_count(self, sample8):
        c, g_max = gap_ends(sample8)
        theta = compute_theta0(sample8["g"], sample8["chi"], sample8["omega"], c, g_max, sample8["m"])
        # c = 1 and unit mixed integral leave only the gap times the mass
        assert (c, g_max) == (1.0, 1.25)
        assert theta == 0.5 * (g_max - c) * superlevel_mass(sample8)

    def test_constant_coefficient_closed_form(self):
        grid = TorusGrid(2, 8)
        chi = FormField(grid, 2.0 * np.eye(2))
        omega = identity_form(grid)
        g = np.full(grid.shape, 3.0)
        # gap/2 * c^{m/(n-m)} * vol / (c * mixed) = 0.5 * 2 * 1 / (2 * 2)
        assert compute_theta0(g, chi, omega, 2.0, 3.0, 1) == pytest.approx(0.25, rel=1e-14)

    def test_degenerating_gap_drives_theta_to_zero(self):
        grid = TorusGrid(2, 4)
        chi = identity_form(grid)
        omega = identity_form(grid)
        values = []
        for eps in (1e-2, 1e-4, 1e-6):
            g = np.full(grid.shape, 1.0 + eps)
            values.append(compute_theta0(g, chi, omega, 1.0, 1.0 + eps, 1))
        assert values == [pytest.approx(eps / 2.0, rel=1e-12) for eps in (1e-2, 1e-4, 1e-6)]
        assert values[0] > values[1] > values[2] > 0.0

    def test_indicator_quadrature_matches_grid_sum(self):
        grid = TorusGrid(2, 8)
        chi = identity_form(grid)
        omega = FormField(grid, np.diag([1.0, 2.0]))
        x1 = grid.coords()["x1"]
        g = np.ascontiguousarray(
            np.broadcast_to(1.0 + 0.125 * (1.0 - np.cos(TWO_PI * x1)), grid.shape)
        )
        g_max = float(np.max(g))
        theta = compute_theta0(g, chi, omega, 1.0, g_max, 1)
        indicator = g >= 0.5 * (g_max + 1.0)
        detw = 2.0
        mass = detw * np.count_nonzero(indicator) / grid.npoints
        mu = relative_eigenvalues(chi, omega)
        mixed = float(np.mean(elementary_sym(1, mu) / 2.0 * detw))
        assert theta == 0.5 * (g_max - 1.0) * mass / mixed

    def test_empty_superlevel_rejected(self, sample8):
        with pytest.raises(DomainError, match="superlevel"):
            compute_theta0(
                sample8["g"], sample8["chi"], sample8["omega"], 1.0, 5.0, 1
            )

    def test_flat_coefficient_rejected(self, sample8):
        with pytest.raises(DomainError, match="max g > c"):
            compute_theta0(
                sample8["g"], sample8["chi"], sample8["omega"], 1.0, 1.0, 1
            )

    def test_shape_mismatch_rejected(self, sample8):
        with pytest.raises(InputError, match="shape"):
            compute_theta0(
                np.ones(4), sample8["chi"], sample8["omega"], 1.0, 1.25, 1
            )


class TestSolveBPrime:
    def test_unit_theta_quadratic_root(self):
        # 1 = e^x + e^{2x} makes y = e^x the positive root of y^2 + y - 1
        root = solve_b_prime(1.0, 2, 1)
        assert abs(root - math.log((math.sqrt(5.0) - 1.0) / 2.0)) <= 1e-10

    @pytest.mark.parametrize("theta0", [0.5, 1.0, 3.0, 10.0])
    @pytest.mark.parametrize("n", [1, 3])
    def test_m_zero_closed_form(self, theta0, n):
        assert solve_b_prime(theta0, n, 0) == pytest.approx(-math.log1p(theta0), abs=1e-12)

    def test_vanishing_theta_limit(self):
        root = solve_b_prime(1e-10, 2, 1)
        assert -1e-9 < root < 0.0

    @given(
        theta0=st.floats(min_value=1e-6, max_value=1e6),
        n=st.integers(min_value=1, max_value=6),
        frac=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=200, deadline=None)
    def test_root_negative_with_tiny_residual(self, theta0, n, frac):
        m = frac % n
        root = solve_b_prime(theta0, n, m)
        p = n / (n - m)
        resid = abs(math.exp(root) + theta0 * math.exp(p * root) - 1.0)
        assert root < 0.0
        assert resid <= 1e-12

    def test_invalid_inputs_rejected(self):
        with pytest.raises(InputError):
            solve_b_prime(0.0, 2, 1)
        with pytest.raises(InputError):
            solve_b_prime(-1.0, 2, 1)
        with pytest.raises(InputError):
            solve_b_prime(1.0, 2, 2)


class TestG1Field:
    def test_multiple_of_metric(self):
        grid = TorusGrid(2, 4)
        omega = identity_form(grid)
        chi = FormField(grid, 0.7 * np.eye(2))
        np.testing.assert_allclose(g1_field(chi, omega, 1), 0.7, rtol=1e-14)
        np.testing.assert_allclose(g1_field(chi, omega, 0), 0.49, rtol=1e-14)

    def test_diagonal_pair(self):
        grid = TorusGrid(2, 4)
        chi = FormField(grid, np.diag([2.0, 3.0]))
        # 2 S_2 / S_1 = 2 * 6 / 5
        np.testing.assert_allclose(g1_field(chi, identity_form(grid), 1), 2.4, rtol=1e-14)

    def test_wedge_oracle_two_dim(self):
        grid = TorusGrid(2, 8)
        coords = grid.coords()
        psi = 0.01 * (np.cos(TWO_PI * coords["x1"]) + np.sin(TWO_PI * coords["y2"]))
        psi = np.ascontiguousarray(np.broadcast_to(psi, grid.shape))
        const = np.array([[1.2, 0.1 + 0.05j], [0.1 - 0.05j, 0.9]])
        chi = FormField(grid, const, psi)
        omega = FormField(grid, np.diag([1.0, 1.3]))
        value = np.broadcast_to(g1_field(chi, omega, 1), grid.shape)

        mats = const + complex_hessian(grid, psi)
        rel = np.einsum("ij,...jk->...ik", np.linalg.inv(np.diag([1.0, 1.3])), mats)
        det = np.linalg.det(rel).real
        tr = np.einsum("...ii->...", rel).real
        np.testing.assert_allclose(value, 2.0 * det / tr, rtol=1e-11)

    def test_wedge_oracle_three_dim(self):
        grid = TorusGrid(3, 4)
        coords = grid.coords()
        psi = 0.003 * (
            np.cos(TWO_PI * coords["x1"])
            + np.sin(TWO_PI * coords["y2"])
            + np.cos(TWO_PI * (coords["x3"] + coords["y1"]))
        )
        psi = np.ascontiguousarray(np.broadcast_to(psi, grid.shape))
        const = np.array(
            [
                [1.1, 0.05 + 0.02j, 0.0],
                [0.05 - 0.02j, 1.3, 0.04j],
                [0.0, -0.04j, 0.9],
            ]
        )
        chi = FormField(grid, const, psi)
        wmat = np.diag([1.0, 1.2, 0.8])
        omega = FormField(grid, wmat)
        rel = np.einsum("ij,...jk->...ik", np.linalg.inv(wmat), const + complex_hessian(grid, psi))
        p1 = np.einsum("...ii->...", rel).real
        p2 = np.einsum("...ij,...ji->...", rel, rel).real
        s1 = p1
        s2 = 0.5 * (p1 * p1 - p2)
        s3 = np.linalg.det(rel).real
        for m, s_m in ((1, s1), (2, s2)):
            value = np.broadcast_to(g1_field(chi, omega, m), grid.shape)
            np.testing.assert_allclose(value, 3.0 * s3 / s_m, rtol=1e-10)

    def test_indefinite_background_rejected(self):
        grid = TorusGrid(2, 4)
        chi = FormField(grid, np.diag([1.0, -0.5]))
        with pytest.raises(DomainError, match="positive definite"):
            g1_field(chi, identity_form(grid), 1)


class TestG2Field:
    def test_strictly_inside_band(self, inst8):
        floor = np.maximum(math.exp(inst8.b_prime) * inst8.g, inst8.g1)
        assert np.all(inst8.g2 > floor)
        assert np.all(inst8.g2 < floor + inst8.delta1)

    def test_equal_arguments_offset(self):
        grid_shape = (4, 4, 4, 4)
        g = np.full(grid_shape, 1.3)
        out = g2_field(g, g.copy(), 0.0, 0.25)
        # ties force the sharpness up one rung: kappa = 8, offset ln2/8
        np.testing.assert_allclose(out, 1.3 + math.log(2.0) / 8.0 + 0.125, rtol=1e-14)

    def test_disjoint_dominance(self):
        grid = TorusGrid(2, 8)
        x1 = np.broadcast_to(grid.coords()["x1"], grid.shape)
        u = np.where(np.cos(TWO_PI * x1) > 0.0, 2.0, 1.0)
        v = np.where(np.cos(TWO_PI * x1) > 0.0, 1.0, 2.0)
        delta1 = 0.25
        out = g2_field(u, v, 0.0, delta1)
        floor = np.maximum(u, v)
        assert np.all(out > floor) and np.all(out < floor + delta1)
        # the coarse sharpness 64/delta1 already fits with the unit gap
        kappa = 64.0 / delta1
        direct = np.logaddexp(kappa * u, kappa * v) / kappa + 0.5 * delta1
        assert np.all(direct > floor) and np.all(direct < floor + delta1)

    def test_output_dominates_background_density(self):
        grid = TorusGrid(2, 8)
        chi = FormField(grid, np.diag([2.0, 3.0]))
        omega = identity_form(grid)
        g1 = g1_field(chi, omega, 1)
        x1 = np.broadcast_to(grid.coords()["x1"], grid.shape)
        g = np.ascontiguousarray(2.5 + 0.3 * np.cos(TWO_PI * x1))
        g2 = g2_field(g, g1, -0.1, 0.3)
        mu = relative_eigenvalues(chi, omega)
        lhs = elementary_sym(2, mu)
        rhs = g2 * elementary_sym(1, mu) / 2.0
        assert np.all(lhs < rhs)

    def test_cone_check_rejects_large_delta(self, sample8):
        with pytest.raises(ConstructionError, match="too large"):
            prepare_instance(sample8["g"], sample8["chi"], sample8["omega"], 1, delta1=5.0)

    def test_unrepresentable_band_rejected(self):
        g = np.full((4, 4, 4, 4), 1.3)
        with pytest.raises(ConstructionError, match="band"):
            g2_field(g, g.copy(), 0.0, 1e-17)

    def test_bad_inputs_rejected(self):
        g = np.ones((4, 4, 4, 4))
        with pytest.raises(InputError, match="positive"):
            g2_field(g, g, 0.0, 0.0)
        with pytest.raises(InputError, match="shapes"):
            g2_field(g, np.ones(3), 0.0, 0.25)


class TestPrepareInstance:
    def test_sample_fields(self, sample8, inst8):
        assert inst8.c == pytest.approx(1.0, abs=1e-15)
        assert inst8.g_min == 1.0
        assert inst8.g_max == 1.25
        assert inst8.log_rescale == 0.0
        assert inst8.delta1 == 0.25
        np.testing.assert_allclose(inst8.g1, 1.0, atol=1e-14)
        theta = 0.5 * (1.25 - 1.0) * superlevel_mass(sample8)
        assert inst8.theta0 == theta
        assert abs(inst8.b_prime - closed_form_scalar_bound(theta)) <= 1e-12

    def test_rescaled_branch(self, sample8):
        inst = prepare_instance(
            1.2 * np.asarray(sample8["g"]), sample8["chi"], sample8["omega"], sample8["m"]
        )
        assert inst.log_rescale == pytest.approx(math.log(1.2), abs=1e-15)
        assert float(np.min(inst.g)) == pytest.approx(1.0, abs=1e-14)
        assert inst.theta0 > 0.0 and inst.b_prime < 0.0

    def test_constant_coefficient_degenerates(self, const_inst8):
        assert const_inst8.theta0 == 0.0
        assert const_inst8.b_prime == 0.0
        assert const_inst8.delta1 == 0.5
        spread = float(np.ptp(const_inst8.g2))
        assert spread == 0.0

    @pytest.mark.parametrize("name", ["inst8", "inst16", "const_inst8", "varying_chi"])
    def test_g2_matches_the_full_grid(self, name, request, sample8):
        # g2 is built on the subtorus of g and g1 and broadcast back
        if name == "varying_chi":
            grid = sample8["grid"]
            y1 = np.broadcast_to(grid.coords()["y1"], grid.shape)
            chi = FormField(grid, np.eye(2), 0.002 * np.cos(TWO_PI * y1))
            inst = prepare_instance(sample8["g"], chi, sample8["omega"], sample8["m"])
        else:
            inst = request.getfixturevalue(name)
        want = g2_field(inst.g, inst.g1, inst.b_prime, inst.delta1)
        assert np.array_equal(inst.g2.view(np.uint64), want.view(np.uint64))
        assert inst.g2.flags.writeable

    def test_varying_chi_takes_its_eigenvalues_on_the_subtorus(self, sample16, batch_sizes):
        grid = sample16["grid"]
        chi = FormField(grid, np.eye(2), 0.002 * np.cos(TWO_PI * grid.coords()["x1"]))
        prepare_instance(sample16["g"], chi, sample16["omega"], sample16["m"])
        assert batch_sizes and max(batch_sizes) <= grid.N**2

    def test_indefinite_chi_names_the_first_worst_point(self):
        # chi varies along x1 and y2; the worst point on the full grid, first
        # in C order, has index 0 on the two axes the check reduces
        grid = TorusGrid(2, 8)
        c = grid.coords()
        pot = np.broadcast_to(
            0.2 * np.cos(TWO_PI * c["x1"]) + 0.1 * np.sin(TWO_PI * c["y2"]), grid.shape
        )
        chi, omega = FormField(grid, 0.5 * np.eye(2), pot), identity_form(grid)
        where = tuple(np.int64(k) for k in (0, 0, 0, 3))
        with pytest.raises(DomainError, match="chi not positive definite") as err:
            compute_c(chi, omega, 1)
        assert str(err.value).endswith(f" at {where})")
        with pytest.raises(DomainError, match="background not positive definite") as err:
            g1_field(chi, omega, 1)
        assert str(err.value).endswith(f" at {where})")

    def test_below_c_rejected(self, sample8):
        with pytest.raises(DomainError, match=">= c"):
            prepare_instance(
                0.9 * np.asarray(sample8["g"]), sample8["chi"], sample8["omega"], 1
            )

    def test_grid_mismatch_rejected(self, sample8):
        other = identity_form(TorusGrid(2, 4))
        with pytest.raises(InputError, match="grid"):
            prepare_instance(sample8["g"], sample8["chi"], other, 1)

    def test_explicit_delta1(self, sample8):
        inst = prepare_instance(
            sample8["g"], sample8["chi"], sample8["omega"], 1, delta1=0.125
        )
        assert inst.delta1 == 0.125
        with pytest.raises(ConstructionError, match="delta1"):
            prepare_instance(sample8["g"], sample8["chi"], sample8["omega"], 1, delta1=5.0)

    @pytest.mark.parametrize("delta1", [None, 1.0, 10.0])
    def test_one_point_cone_check_matches_the_per_point_margin(self, sample16, delta1, monkeypatch):
        # chi and omega are constant, so the check reads one spectrum,
        # broadcast against the widened coefficient; spreading that spectrum
        # over the grid makes it take one spectrum per point instead
        def prepare():
            try:
                return prepare_instance(
                    sample16["g"], sample16["chi"], sample16["omega"], 1, delta1=delta1
                )
            except ConstructionError as err:
                return str(err)

        one_point = prepare()
        eigenvalues = fakeboundary.relative_eigenvalues

        def per_point(chi, omega):
            mu = eigenvalues(chi, omega)
            return np.broadcast_to(mu, chi.grid.shape + mu.shape[-1:])

        monkeypatch.setattr(fakeboundary, "relative_eigenvalues", per_point)
        every_point = prepare()
        if delta1 is None:
            assert one_point.delta1 == every_point.delta1 == 0.25
            # the per-point spectra give g1, and so g2, at every point
            assert one_point.g2.shape == (16, 1, 1, 1) and every_point.g2.shape == (16,) * 4
            assert np.array_equal(np.broadcast_to(one_point.g2, every_point.g2.shape), every_point.g2)
        else:
            assert one_point == every_point
            assert f"delta1={delta1:g} too large: cone margin -" in one_point


class TestInstanceInvariants:
    def test_band_violation_rejected(self, inst8):
        with pytest.raises(ConstructionError, match="band"):
            dataclasses.replace(inst8, g2=inst8.g2 + 1.0)

    def test_dip_below_c_rejected(self, inst8):
        with pytest.raises(ConstructionError, match="dips below"):
            dataclasses.replace(inst8, g=inst8.g - 0.5)

    def test_nonpositive_delta_rejected(self, inst8):
        with pytest.raises(ConstructionError, match="delta1"):
            dataclasses.replace(inst8, delta1=-0.25)


class TestTwoStagePath:
    def test_path_completes_with_doubling_steps(self, path16):
        # each accepted t-step doubles the one before it, from 1/16 until
        # the last lands on t = 1
        assert [r["t"] for r in path16.records] == [0.0, 1 / 16, 3 / 16, 7 / 16, 15 / 16, 1.0]

    def test_scalar_bound_holds(self, inst16, path16):
        assert path16.b_stage1 < 0.0
        assert all(r["b_t"] < 0.0 for r in path16.records)
        assert path16.b < 0.0
        assert path16.b <= inst16.b_prime
        assert path16.b == path16.records[-1]["b_t"] + inst16.b_prime

    def test_band_inequality_every_step(self, inst16, path16):
        assert all(r["min_band_slack"] > 0.0 for r in path16.records)
        # recompute at the endpoint from the fields themselves
        effective = math.exp(path16.b) * inst16.g
        assert np.all(effective < inst16.g2)

    def test_cone_margins_positive(self, path16):
        assert all(r["min_cone_margin"] > 0.0 for r in path16.records)

    def test_final_residual_meets_target(self, path16):
        assert path16.final_state.residual_sup <= 1e-8

    def test_final_equation_recomputed_independently(self, inst16, path16):
        assert inst16.chi.is_constant
        mats = inst16.chi.const + complex_hessian(inst16.grid, path16.final_state.phi)
        lam = np.linalg.eigvalsh(mats)
        sn = lam[..., 0] * lam[..., 1]
        sm = lam[..., 0] + lam[..., 1]
        resid = sn - math.exp(path16.b) * inst16.g * sm / 2.0
        assert float(np.max(np.abs(resid))) <= 5e-8

    def test_pointwise_volume_floor(self, inst16, path16):
        level = math.exp(path16.b) * float(np.min(inst16.g))
        slack = volume_lower_bound_check(path16.final_state, level)
        assert slack >= -1e-6 * level**2

    def test_each_solve_takes_at_most_two_n16_steps(self, inst16, monkeypatch):
        # the solves at t = 0 and 1/16 start from their N = 8 solve, which
        # stops at its aliasing floor, far above tol, and hands that state
        # over; every later one starts from the secant through the last two,
        # which over a doubled step leaves at most two Newton steps (a
        # measured property of this path, not a rule the step control reads)
        fine = []
        solve = fakeboundary.newton_solve

        def counted(spec, *args, **kwargs):
            state = solve(spec, *args, **kwargs)
            fine.append(state.diagnostics["newton_iters"])
            return state

        monkeypatch.setattr(fakeboundary, "newton_solve", counted)
        res = two_stage_solve(inst16)
        assert len(fine) == len(res.records) == 6
        assert max(fine) <= 2

    def test_only_cold_and_warm_starts_solve_at_n8(self, inst16, monkeypatch):
        # stage 1 starts cold and t = 1/16 warm; every later step has a secant
        calls = []
        for module in (solver, fakeboundary):
            original = module.newton_solve

            def counted(spec, *args, original=original, **kwargs):
                calls.append((spec.grid.N, kwargs["t"]))
                return original(spec, *args, **kwargs)

            monkeypatch.setattr(module, "newton_solve", counted)
        res = two_stage_solve(inst16)
        assert len(res.records) == 6
        assert len(calls) == 8
        assert [(N, t) for N, t in calls if N == 8] == [(8, 0.0), (8, 1 / 16)]
        assert [t for N, t in calls if N == 16] == [r["t"] for r in res.records]


class TestTheAnswerIsTheGEquations:
    """Only the t = 1 solve is the answer: the path that starts it does not move it.

    Each comparison holds to the solver's tolerance, in b and in the
    mean-free potential.
    """

    CONFIG = SolverConfig(tol=1e-8)

    @staticmethod
    def instance(N, delta1=None):
        sample = fake_boundary_sample(N)
        return prepare_instance(sample["g"], sample["chi"], sample["omega"], sample["m"], delta1)

    def assert_same_answer(self, b1, phi1, b2, phi2):
        assert abs(b1 - b2) <= self.CONFIG.tol
        assert mean_free_sup(phi1 - phi2) <= self.CONFIG.tol

    @staticmethod
    def wide_instance(N, a=0.5):
        # g = 1 + a (1 - cos 2 pi x1) in [1, 1 + 2a]: stage 1's g2 corner sits
        # above tol at N = 32, the g equation does not; at a = 0.73 and 0.82
        # it sits above PATH_TOL too, so stage 1 hands on its floor state
        sample = fake_boundary_sample(N)
        g = 1.0 + a * (1.0 - np.cos(TWO_PI * sample["grid"].coords()["x1"]))
        return prepare_instance(g, sample["chi"], sample["omega"], sample["m"])

    def assert_matches_a_cold_solve(self, inst):
        # coefficient e^{b'} g, so b' is added back to the direct scalar
        res = two_stage_solve(inst, self.CONFIG)
        spec = solver.EquationSpec(
            inst.grid.n, inst.m, inst.chi, inst.omega, math.exp(inst.b_prime) * inst.g, 0.0,
            unknown_mode="multiplicative",
        )
        direct = solver.newton_solve(spec, config=self.CONFIG)
        self.assert_same_answer(res.b, res.phi, direct.b + inst.b_prime, direct.phi)

    # at delta1 = 2^-6 and N = 16, stage 1 stops at its floor on g2's corner,
    # above PATH_TOL, and hands that state on
    @pytest.mark.parametrize("N, delta1", [(16, None), (32, None), (64, None), (16, 2**-6)],
                             ids=["16", "32", "64", "16-delta1=2^-6"])
    def test_matches_a_cold_solve_of_the_g_equation(self, N, delta1):
        self.assert_matches_a_cold_solve(self.instance(N, delta1))

    @pytest.mark.parametrize("a", [0.5, 0.73, 0.82])
    def test_wide_coefficient_matches_a_cold_solve_at_n32(self, a):
        self.assert_matches_a_cold_solve(self.wide_instance(32, a))

    @pytest.mark.parametrize("m", [1, 2])
    def test_matches_a_cold_solve_at_n3(self, m):
        # the sample's g in x1 with chi = omega = I; every solve runs on the x1 circle
        grid = TorusGrid(3, 32)
        g = 1.0 + 0.125 * (1.0 - np.cos(TWO_PI * grid.coords()["x1"]))
        identity = identity_form(grid)
        self.assert_matches_a_cold_solve(prepare_instance(g, identity, identity, m))

    def test_wide_coefficient_stops_at_the_g_equations_floor_at_n16(self):
        # the path gets through; the t = 1 solve stops at the floor where a
        # direct solve of the g equation stops too
        with pytest.raises(AliasingFloorError, match=r"^stage 2 \(t=1\): aliasing floor"):
            two_stage_solve(self.wide_instance(16), self.CONFIG)

    def test_first_step_does_not_move_it(self, inst16):
        one, sixteen = (two_stage_solve(inst16, self.CONFIG, steps=s) for s in (1, 16))
        assert [r["t"] for r in one.records] == [0.0, 1.0]
        self.assert_same_answer(one.b, one.phi, sixteen.b, sixteen.phi)

    def test_band_width_does_not_move_it(self):
        wide, narrow = (two_stage_solve(self.instance(64, d1), self.CONFIG) for d1 in (2**-2, 2**-4))
        self.assert_same_answer(wide.b, wide.phi, narrow.b, narrow.phi)


class TestPathTolerance:
    """Only the t = 1 solve meets config.tol; every earlier one stops at the path tolerance."""

    CONFIG = SolverConfig(tol=1e-8)

    def test_records_meet_their_tolerances(self, path16):
        *path, last = path16.records
        assert last["t"] == 1.0
        assert last["residual_sup"] <= self.CONFIG.tol
        assert all(r["residual_sup"] <= fakeboundary.PATH_TOL for r in path)

    @pytest.mark.parametrize("tol, path_tol", [
        (1e-8, fakeboundary.PATH_TOL),
        (1e-3, 1e-3),  # a config.tol looser than PATH_TOL governs every solve
    ])
    def test_only_the_last_solve_gets_the_callers_config(self, inst16, tol, path_tol, monkeypatch):
        seen = []
        real = fakeboundary.newton_solve

        def recording(spec, init=None, config=None, t=math.nan):
            seen.append((t, config))
            return real(spec, init=init, config=config, t=t)

        monkeypatch.setattr(fakeboundary, "newton_solve", recording)
        config = SolverConfig(tol=tol, max_newton=30)
        res = two_stage_solve(inst16, config)
        assert [t for t, _ in seen] == [r["t"] for r in res.records]
        path = SolverConfig(tol=path_tol, max_newton=30)
        assert len(seen) > 2
        assert [cfg for _, cfg in seen] == [path] * (len(seen) - 1) + [config]


class TestTwoStageMechanics:
    def test_csv_roundtrip(self, inst8, tmp_path):
        out = tmp_path / "stage.csv"
        res = two_stage_solve(inst8, config=SolverConfig(tol=1e-4))
        write_stage_csv(out, res.records)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == STAGE_CSV_COLUMNS
        assert len(rows) == 1 + len(res.records)
        got = [float(row[1]) for row in rows[1:]]
        assert got == [r["b_t"] for r in res.records]

    def test_deterministic_rerun(self, inst8):
        cfg = SolverConfig(tol=1e-4)
        first = two_stage_solve(inst8, config=cfg)
        second = two_stage_solve(inst8, config=cfg)
        assert first.b == second.b
        assert np.array_equal(first.phi, second.phi)

    def test_constant_coefficient_limit(self, const_inst8):
        # stage 1 solves e^b g2 = 1 (phi = 0) to the path tolerance r, so
        # e^(b - b*) lies in [1 - r, 1 + r] and |b - b*| <= -log(1 - r)
        res = two_stage_solve(const_inst8)
        assert abs(res.b) <= 1e-6
        expected = -math.log(float(const_inst8.g2[0, 0, 0, 0]))
        assert abs(res.b_stage1 - expected) <= -math.log1p(-fakeboundary.PATH_TOL)

    def test_stage1_failure_tagged(self, inst8):
        with pytest.raises(NonconvergenceError, match="stage 1:"):
            two_stage_solve(inst8, config=SolverConfig(tol=1e-4, max_newton=0))

    def test_newton_stall_halves_step(self, inst8, monkeypatch):
        real = fakeboundary.newton_solve
        tripped = []

        def flaky(spec, init=None, config=None, t=math.nan):
            if t == 1.0 / 16.0 and not tripped:
                tripped.append(t)
                raise NonconvergenceError("synthetic stall", state=None)
            return real(spec, init=init, config=config, t=t)

        monkeypatch.setattr(fakeboundary, "newton_solve", flaky)
        res = two_stage_solve(inst8, config=SolverConfig(tol=1e-4))
        # the stalled 1/16 is retried at 1/32, and that accepted step doubles again
        assert [r["t"] for r in res.records][:3] == [0.0, 1.0 / 32.0, 3.0 / 32.0]
        assert res.records[-1]["t"] == 1.0

    def test_a_floor_is_handed_on_before_t1_and_raised_at_it(self, inst8, monkeypatch):
        real = fakeboundary.newton_solve
        floors, tried = {1.0 / 16.0}, []

        def floored(spec, init=None, config=None, t=math.nan):
            tried.append(t)
            state = real(spec, init=init, config=config, t=t)
            if t in floors:
                raise AliasingFloorError("synthetic floor", state=state)
            return state

        monkeypatch.setattr(fakeboundary, "newton_solve", floored)
        config = SolverConfig(tol=1e-4)
        res = two_stage_solve(inst8, config=config)
        # the floor state at 1/16 is recorded, and the step doubles past it
        assert [r["t"] for r in res.records][:3] == [0.0, 1.0 / 16.0, 3.0 / 16.0]
        assert tried == [r["t"] for r in res.records]
        # the floor at t = 1 is the g equation's own: no shorter step moves it
        floors.add(1.0)
        tried.clear()
        with pytest.raises(AliasingFloorError, match=r"^stage 2 \(t=1\): synthetic floor"):
            two_stage_solve(inst8, config=config)
        assert tried.count(1.0) == 1

    def test_each_solve_starts_from_the_last_two_accepted_states(self, inst8, monkeypatch):
        real = fakeboundary.newton_solve
        calls, solved = [], []

        def recording(spec, init=None, config=None, t=math.nan):
            got = None if init is None else [(s.t, s.b) for s in init]
            calls.append((t, got, solved[-2:]))
            if t == 1.0 / 16.0 and len(calls) == 2:
                raise NonconvergenceError("synthetic stall", state=None)
            state = real(spec, init=init, config=config, t=t)
            solved.append((state.t, state.b))
            return state

        monkeypatch.setattr(fakeboundary, "newton_solve", recording)
        res = two_stage_solve(inst8, config=SolverConfig(tol=1e-4))
        assert solved == [(r["t"], r["b_t"]) for r in res.records]  # every solve accepted
        assert calls[0][:2] == (0.0, None)
        for _, got, last_two in calls[1:]:
            assert got == last_two
        # the stall at 1/16 halves the step, so the solve at 3/32 extrapolates
        # from 0 and 1/32 over the doubled step
        after = [got for t, got, _ in calls if t == 3.0 / 32.0]
        assert [[t for t, _ in got] for got in after] == [[0.0, 1.0 / 32.0]]

    def test_persistent_stall_propagates_with_tag(self, inst8, monkeypatch):
        real = fakeboundary.newton_solve

        def stuck(spec, init=None, config=None, t=math.nan):
            if 0.0 < t <= 1.0 / 16.0:
                raise NonconvergenceError("synthetic stall", state=None)
            return real(spec, init=init, config=config, t=t)

        monkeypatch.setattr(fakeboundary, "newton_solve", stuck)
        with pytest.raises(NonconvergenceError, match=r"stage 2 \(t="):
            two_stage_solve(inst8, config=SolverConfig(tol=1e-4))

    def test_cone_violation_halves_a_long_step(self, inst8, monkeypatch):
        # a start that leaves the cone on a step longer than 1/8 is retried
        # at half the step, so the path goes on in steps of 1/8; the last
        # step, cut to the 3/16 left, is halved to 3/32
        real = fakeboundary.newton_solve

        def long_step_leaves(spec, init=None, config=None, t=math.nan):
            if init is not None and t - init[-1].t > 1.0 / 8.0:
                raise ConeViolationError("synthetic violation", detail={})
            return real(spec, init=init, config=config, t=t)

        monkeypatch.setattr(fakeboundary, "newton_solve", long_step_leaves)
        res = two_stage_solve(inst8, config=SolverConfig(tol=1e-4))
        ts = [r["t"] for r in res.records]
        assert ts == [0.0, 1.0 / 16.0] + [k / 16.0 for k in range(3, 14, 2)] + [29.0 / 32.0, 1.0]

    def test_persistent_cone_violation_propagates_with_tag(self, inst8, monkeypatch):
        # only at the floor of 1/(64 steps) does a violation end the path
        real = fakeboundary.newton_solve
        tried = []

        def leaves(spec, init=None, config=None, t=math.nan):
            if t > 0.0:
                tried.append(t)
                raise ConeViolationError("synthetic violation", detail={})
            return real(spec, init=init, config=config, t=t)

        monkeypatch.setattr(fakeboundary, "newton_solve", leaves)
        with pytest.raises(ConeViolationError, match=r"stage 2 \(t=0.000976562\): synthetic"):
            two_stage_solve(inst8, config=SolverConfig(tol=1e-4))
        assert tried == [2.0**-k for k in range(4, 11)]

    def test_positive_scalar_rejected(self, inst8, monkeypatch):
        real = fakeboundary.newton_solve

        def lifted(spec, init=None, config=None, t=math.nan):
            state = real(spec, init=init, config=config, t=t)
            return dataclasses.replace(state, b=0.5) if t == 7.0 / 16.0 else state

        monkeypatch.setattr(fakeboundary, "newton_solve", lifted)
        with pytest.raises(ConstructionError, match=r"stage 2 \(t=0.4375\): .*stay negative"):
            two_stage_solve(inst8, config=SolverConfig(tol=1e-4))

    def test_band_slack_violation_rejected(self, const_inst8, monkeypatch):
        # theta0 = 0 admits slightly positive scalars, so the band check has
        # to catch a coefficient pushed above g2 on its own
        real = fakeboundary.newton_solve

        def lifted(spec, init=None, config=None, t=math.nan):
            state = real(spec, init=init, config=config, t=t)
            return dataclasses.replace(state, b=5e-7) if t == 0.0 else state

        monkeypatch.setattr(fakeboundary, "newton_solve", lifted)
        with pytest.raises(ConstructionError, match="strictly below"):
            two_stage_solve(const_inst8)

    def test_invalid_step_count_rejected(self, inst8):
        with pytest.raises(InputError, match="step"):
            two_stage_solve(inst8, steps=0)


class TestWriteStageCsv:
    def test_writes_header_and_formats(self, tmp_path):
        records = [
            {"t": 0.0, "b_t": -0.25, "residual_sup": 1e-9,
             "min_band_slack": 0.125, "min_cone_margin": 0.5},
        ]
        out = tmp_path / "one.csv"
        write_stage_csv(out, records)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(STAGE_CSV_COLUMNS)
        assert [float(v) for v in rows[1]] == [0.0, -0.25, 1e-9, 0.125, 0.5]
