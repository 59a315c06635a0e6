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
import math
from types import SimpleNamespace

import numpy as np
import pytest

import hessquot.solver as solver
from hessquot.errors import ConeViolationError, InputError, NonconvergenceError
from hessquot.instances import (
    boundary_degenerate_instance,
    boundary_instance,
    degenerate_instance,
    manufactured_instance,
    uniform_instance,
)
from hessquot.solver import (
    PATH_CSV_COLUMNS,
    EquationSpec,
    SolverConfig,
    continuation_path,
    diagnostics,
    newton_solve,
    quadrature_b,
    stability_compare,
    strip_kernel_modes,
    uniqueness_gap,
    volume_lower_bound_check,
    write_path_csv,
)
from hessquot.studies import SCHEDULE
from hessquot.torus import (
    TorusGrid,
    complex_hessian,
    constant_form,
    identity_form,
    normalize_density,
    prolong,
)

TWO_PI = 2.0 * np.pi


def grid_field(grid, expr):
    return np.ascontiguousarray(np.broadcast_to(expr, grid.shape)).astype(np.float64)


def checkerboard(grid):
    """The pure-Nyquist kernel mode along the first axis, exactly +-1."""
    idx = np.arange(grid.N).reshape((grid.N,) + (1,) * (2 * grid.n - 1))
    return grid_field(grid, (-1.0) ** idx)


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
def manufactured16_state(manufactured16):
    return newton_solve(manufactured16.spec(manufactured16.extras["t_star"]))


@pytest.fixture(scope="module")
def degenerate8():
    return degenerate_instance(N=8)


class TestEquationSpec:
    def test_scalar_fields_broadcast(self):
        grid = TorusGrid(2, 8)
        spec = EquationSpec(
            n=2, m=1, background=constant_form(grid, 2.0 * np.eye(2)),
            omega=identity_form(grid), coefficient_field=1.0, source_field=1.0,
        )
        assert spec.coefficient_field.shape == grid.shape
        assert spec.source_field.shape == grid.shape
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

    def test_grid_mismatch_rejected(self):
        with pytest.raises(InputError, match="grid"):
            EquationSpec(
                n=2, m=1,
                background=identity_form(TorusGrid(2, 8)),
                omega=identity_form(TorusGrid(2, 16)),
                coefficient_field=1.0, source_field=1.0,
            )


class TestQuadratureB:
    def test_uniform_instance_value(self, uniform16):
        # background (1+t+eps) * identity: b = s^2 - s with s = 1.6 at t = 0.5
        assert quadrature_b(uniform16.spec(0.5)) == pytest.approx(0.96, rel=1e-13)

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
        assert d["volume_resid_rel"] <= 1e-10

    def test_volume_lower_bound(self, uniform16_state):
        # min S_2 - c^(n/(n-m)) = 1.6^2 - 1
        got = volume_lower_bound_check(uniform16_state, 1.0)
        assert got == pytest.approx(1.56, rel=1e-12)


class TestBackgroundCancellation:
    """Closed-form oracles: the solve must cancel the background potential."""

    def test_degenerate_instance_closed_form(self):
        inst = degenerate_instance(N=16)
        st = newton_solve(inst.spec(0.25))
        x1 = inst.grid.coords()["x1"]
        want = grid_field(inst.grid, -inst.extras["amplitude"] * np.cos(TWO_PI * x1))
        want -= want.max()
        assert np.abs(st.phi - want).max() <= 1e-9
        assert st.b == pytest.approx(2.25 * 1.25, abs=1e-9)

    def test_boundary_instance_closed_form(self):
        inst = boundary_instance(N=16)
        st = newton_solve(inst.spec(1.0))
        c = inst.grid.coords()
        amp = inst.extras["amplitude"]
        want = grid_field(
            inst.grid,
            -2.0 * amp * (np.cos(TWO_PI * c["x1"]) + np.cos(TWO_PI * c["y1"])),
        )
        want -= want.max()
        assert np.abs(st.phi - want).max() <= 1e-10
        assert st.b == pytest.approx(6.0, abs=1e-12)
        # sup of the normalized solution is 8 * amplitude = 2 / pi^2
        assert st.diagnostics["sup_phi"] == pytest.approx(2.0 / np.pi**2, rel=1e-9)

    def test_boundary_degenerate_instance_closed_form(self):
        inst = boundary_degenerate_instance(N=16)
        assert inst.extras["amplitude"] == pytest.approx(1.0 / (4.0 * np.pi**2), rel=1e-12)
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
        assert st.b == pytest.approx(manufactured16.extras["b_star"], abs=1e-9)
        assert manufactured16.extras["b_star"] == pytest.approx(6.0, abs=1e-12)
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
    background = constant_form(grid, 2.0 * np.eye(2))
    X = background.matrices() + complex_hessian(grid, psi)
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
        X = spec.background.matrices() + complex_hessian(spec.grid, st.phi)
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
            n=3, m=1, background=constant_form(grid, 1.5 * np.eye(3)), omega=omega,
            coefficient_field=1.0, source_field=f,
        )
        st = newton_solve(spec)
        assert st.diagnostics["newton_iters"] > 0
        assert abs(st.b - 1.875) <= 1e-12
        X = spec.background.matrices() + complex_hessian(grid, st.phi)
        resid = np.linalg.det(X).real - np.trace(X, axis1=-2, axis2=-1).real / 3.0 - st.b * f
        assert np.abs(resid).max() <= 1e-9


class TestMultiplicative:
    def test_constant_coefficient_closed_form(self):
        # S_2 = (e^b/2) S_1 + 1 at X = 2I forces e^b = 3/2
        grid = TorusGrid(2, 16)
        spec = EquationSpec(
            n=2, m=1, background=constant_form(grid, 2.0 * np.eye(2)),
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
            n=2, m=1, background=constant_form(grid, 2.0 * np.eye(2)),
            omega=identity_form(grid), coefficient_field=g, source_field=1.0,
            unknown_mode="multiplicative",
        )
        st = newton_solve(spec, config=SolverConfig(tol=1e-8))
        assert st.residual_sup <= 1e-8
        # stagnation guard: pre-projection linear solves ground to maxiter
        assert st.diagnostics["krylov_iters"] <= 100
        X = spec.background.matrices() + complex_hessian(grid, st.phi)
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

    def test_max_newton_carries_last_state(self):
        inst = manufactured_instance(N=8)
        with pytest.raises(NonconvergenceError) as err:
            newton_solve(inst.spec(0.5), config=SolverConfig(max_newton=1))
        st = err.value.state
        assert st is not None
        assert st.diagnostics["newton_iters"] == 1
        assert st.residual_sup > 1e-10

    def test_damping_floor_names_unconverged_lgmres(self, monkeypatch):
        # away from t_star the N = 8 solution is not band-limited, so Newton
        # stalls at the aliasing floor (6e-5) whatever the inner solves do;
        # the message names the LGMRES status only when the last one stopped
        # short of its forcing tolerance
        spec = manufactured_instance(N=8).spec(1.0)
        with pytest.raises(NonconvergenceError, match="damping floor") as err:
            newton_solve(spec)
        assert "LGMRES" not in str(err.value)
        monkeypatch.setattr(solver, "KRYLOV_MAXITER", 1)
        monkeypatch.setattr(solver, "KRYLOV_INNER", 1)
        with pytest.raises(NonconvergenceError, match=r"stopped short \(info 1\)") as err:
            newton_solve(spec)
        assert str(err.value).startswith("damping floor reached")
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

    @pytest.mark.parametrize(("ratio", "bound"), [(1e3, 1e-5), (math.inf, 0.1)])
    def test_step_solves_linearization(self, manufactured16, ratio, bound):
        spec = manufactured16.spec(0.5)
        grid = spec.grid
        phi, b = np.zeros(grid.shape), quadrature_b(spec)
        ev = solver._evaluate(spec, phi, b)
        dphi, db, _, info = solver._linear_step(spec, ev, SolverConfig(), ratio * ev.rsup)
        assert info == 0

        def proj(r):
            return strip_kernel_modes(grid, r.reshape(grid.shape), keep_mean=True)

        eps = 1e-6
        moved = solver._evaluate(spec, phi + eps * dphi, b + eps * db).resid
        lin = proj((moved - ev.resid) / eps) + proj(ev.resid)
        assert np.linalg.norm(lin) <= bound * np.linalg.norm(proj(ev.resid))
        assert abs(np.mean(dphi)) <= 1e-14
        assert np.max(np.abs(dphi - strip_kernel_modes(grid, dphi))) <= 1e-14


class TestContinuation:
    def test_schedule_validation(self, degenerate8):
        for bad in ([], [0.5, 0.6], [1.5, 0.5], [0.5, 0.0]):
            with pytest.raises(InputError):
                continuation_path(degenerate8.family(), bad)

    def test_complete_path_and_warm_start(self, degenerate8):
        res = continuation_path(degenerate8.family(), [1.0, 0.5, 0.25])
        assert res.complete
        assert res.failed_t is None
        assert [st.t for st in res.states] == [1.0, 0.5, 0.25]
        # warm starts should make later solves much cheaper than the first
        assert res.states[1].diagnostics["newton_iters"] <= 2
        assert all(st.residual_sup <= 1e-10 for st in res.states)

    def test_deterministic_rerun(self, degenerate8):
        first = continuation_path(degenerate8.family(), [1.0, 0.5, 0.25])
        second = continuation_path(degenerate8.family(), [1.0, 0.5, 0.25])
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
                background=constant_form(grid, (2.0 * t - 0.5) * np.eye(2)),
                omega=identity_form(grid), coefficient_field=1.0, source_field=1.0,
            )

        res = continuation_path(family, [1.0, 0.25])
        assert not res.complete
        assert res.failed_t == 0.25
        assert "cone" in res.failure

    def test_csv_roundtrip(self, degenerate8, tmp_path):
        res = continuation_path(degenerate8.family(), [1.0, 0.5])
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
    return continuation_path(bd8.family(), SCHEDULE)


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
    """The state a zero-step N = 32 solve starts from, with its N = 16 solve replaced."""
    original = solver.newton_solve

    def replaced(sub, *args, **kwargs):
        if sub.grid.N == spec.grid.N:
            return original(sub, *args, **kwargs)
        return coarse_solve(original, sub, *args, **kwargs)

    monkeypatch.setattr(solver, "newton_solve", replaced)
    with pytest.raises(NonconvergenceError) as err:
        solver.newton_solve(spec, init=init, config=SolverConfig(max_newton=0))
    assert err.value.state.diagnostics["newton_iters"] == 0
    return err.value.state


class TestNestedIteration:
    """Above N = 16 every solve starts from the solve on the grid with N/2."""

    def test_manufactured_n32_takes_no_fine_steps(self, manufactured32, newton_calls):
        spec = manufactured32.spec(manufactured32.extras["t_star"])
        st = solver.newton_solve(spec)
        assert newton_calls == [32, 16]
        assert st.diagnostics["newton_iters"] == 0
        assert st.residual_sup <= 1e-10
        assert mean_free_sup(st.phi - manufactured32.extras["phi_star"]) <= 1e-10
        assert abs(st.b - quadrature_b(spec)) <= 1e-9

    def test_path_n32_meets_closed_forms(self, newton_calls):
        inst = boundary_degenerate_instance(N=32)
        res = solver.continuation_path(inst.family(), SCHEDULE)
        assert res.complete and len(res.states) == len(SCHEDULE)
        assert newton_calls == [32, 16] * len(SCHEDULE)
        for st in res.states:
            want = inst.extras["potential_exact"](st.t)
            assert mean_free_sup(st.phi - want) <= 1e-8
            assert abs(st.b - inst.extras["expected_b"](st.t)) <= 1e-8

    def test_one_call_per_solve_up_to_n16(self, newton_calls, bd8, manufactured16):
        res = solver.continuation_path(bd8.family(), SCHEDULE)
        assert res.complete
        solver.newton_solve(manufactured16.spec(0.5))
        assert newton_calls == [8] * len(SCHEDULE) + [16]

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
        bump = 4.0 * grid_field(grid, np.cos(TWO_PI * grid.coords()["x1"]))

        def outside(original, sub, *args, **kwargs):
            if how == "coarse-raises":
                raise ConeViolationError("initial state leaves the cone")
            # a converged coarse solve, not the zero-step one the fine solve asks for
            st = original(sub, *args, **dict(kwargs, config=None))
            return dataclasses.replace(st, phi=st.phi + bump[::2, ::2, ::2, ::2])

        prior = None
        if warm:
            phi = 0.5 * manufactured32.extras["phi_star"]
            prior = solver.SolverState(phi, quadrature_b(spec), 0.5, math.nan, {}, spec)
        start = fine_start(spec, outside, monkeypatch, init=prior)
        want = np.zeros(grid.shape) if prior is None else prior.phi
        assert mean_free_sup(start.phi - want) <= 1e-12
        assert start.b == quadrature_b(spec)


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


class TestDiagnosticsReport:
    def test_flat_state(self, uniform16_state):
        d = diagnostics(uniform16_state)
        assert d["sup_grad_sq"] == 0.0
        assert math.isnan(d["slope_grad_sq"])
        assert math.isnan(d["slope_w"])
        assert d["sup_w"] == pytest.approx(math.log(3.2), rel=1e-12)
        assert d["b"] == pytest.approx(0.96, abs=1e-12)

    def test_consistency_with_state_diagnostics(self, manufactured16_state):
        d = diagnostics(manufactured16_state)
        st = manufactured16_state.diagnostics
        assert math.sqrt(d["sup_grad_sq"]) == pytest.approx(st["sup_grad"], rel=1e-10)
        assert d["sup_phi"] == pytest.approx(st["sup_phi"], rel=1e-12)
        assert np.isfinite(d["slope_grad_sq"])

    def test_constant_w_has_zero_slope(self, degenerate8):
        # the closed-form solution makes X constant, so w is constant while
        # phi varies: the fitted slope must vanish
        st = newton_solve(degenerate8.spec(0.25))
        d = diagnostics(st)
        assert d["sup_w"] == pytest.approx(math.log(4.5), abs=1e-8)
        assert abs(d["slope_w"]) <= 1e-6


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
