"""Pointwise operator algebra: eigen oracle, residual identities, cone margin."""

import itertools
import math

import numpy as np
import pytest
import scipy.linalg

from hessquot import pointwise as pw
from hessquot.errors import DomainError, InputError
from hessquot.symfunc import elementary_sym, elementary_sym_excluding_each
from test_symfunc import oracle_excluding


def random_hermitian(rng, n, scale=1.0):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * 0.5 * (m + np.conj(m.T))


def random_metric(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return m @ np.conj(m.T) + n * np.eye(n)


class TestEigen:
    """packed_eigenvalues, on packed X and a packed metric, against LAPACK oracles."""

    def test_identity_relative(self):
        omega = pw.pack_hermitian(np.array([[2.0, 0.3 + 0.1j], [0.3 - 0.1j, 1.5]]))
        lam = pw.packed_eigenvalues(omega, omega)
        assert np.allclose(lam, [1.0, 1.0], atol=1e-14)

    def test_diagonal(self):
        lam = pw.packed_eigenvalues(np.diag([2.0, 3.0]), np.eye(2))
        assert lam.tolist() == [3.0, 2.0]

    def test_against_generalized_eigh(self):
        rng = np.random.default_rng(101)
        for n in (2, 3, 4):
            for _ in range(40):
                x = random_hermitian(rng, n, scale=3.0)
                omega = random_metric(rng, n)
                lam = pw.packed_eigenvalues(pw.pack_hermitian(x), pw.pack_hermitian(omega))
                want = scipy.linalg.eigh(x, omega, eigvals_only=True)[::-1]
                assert np.allclose(lam, want, rtol=1e-10, atol=1e-10)

    def test_similarity_transform_oracle(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 4):
            for _ in range(20):
                x = random_hermitian(rng, n)
                omega = random_metric(rng, n)
                root = scipy.linalg.fractional_matrix_power(omega, -0.5)
                want = np.sort(np.linalg.eigvalsh(root @ x @ np.conj(root.T)).real)[::-1]
                got = pw.packed_eigenvalues(pw.pack_hermitian(x), pw.pack_hermitian(omega))
                assert np.allclose(got, want, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("n", [2, 3])
    def test_per_point_metric(self, n):
        # one omega per point: each point whitened by its own W, against
        # generalized eigh point by point, and against the constant-metric
        # path wherever all the metrics are the same
        rng = np.random.default_rng(17 + n)
        xs = np.array([random_hermitian(rng, n, scale=3.0) for _ in range(60)])
        omegas = np.array([random_metric(rng, n) for _ in range(60)])
        lam = pw.packed_eigenvalues(packed_fields(xs), packed_fields(omegas))
        want = [scipy.linalg.eigh(x, om, eigvals_only=True)[::-1] for x, om in zip(xs, omegas)]
        np.testing.assert_allclose(lam, want, rtol=1e-10, atol=1e-10)
        same = np.broadcast_to(packed_fields(omegas[:1]), (n, n, len(xs)))
        want = pw.packed_eigenvalues(packed_fields(xs), pw.pack_hermitian(omegas[0]))
        np.testing.assert_allclose(pw.packed_eigenvalues(packed_fields(xs), same), want, rtol=1e-13)

    def test_scaling(self):
        rng = np.random.default_rng(11)
        x = pw.pack_hermitian(random_hermitian(rng, 3))
        omega = pw.pack_hermitian(random_metric(rng, 3))
        lam = pw.packed_eigenvalues(x, omega)
        assert np.allclose(pw.packed_eigenvalues(2.5 * x, omega), 2.5 * lam, atol=1e-12)

    def test_batched_2x2_matches_lapack(self):
        rng = np.random.default_rng(13)
        xs = rng.normal(size=(500, 2, 2)) + 1j * rng.normal(size=(500, 2, 2))
        xs = 0.5 * (xs + np.conj(np.swapaxes(xs, -1, -2)))
        # exactly diagonal rows with X11 > X22, where lam1 - X11 rounds to
        # +-1 ulp, and one with b = 0 and X11 < X22
        diag = np.zeros((200, 2, 2), dtype=complex)
        diag[:, 1, 1] = rng.uniform(0.5, 2.0, size=200)
        diag[:, 0, 0] = diag[:, 1, 1] + rng.uniform(0.01, 1.0, size=200)
        xs = np.concatenate([xs, diag, np.diag([0.7, 1.9])[None].astype(complex)])
        lam = pw.packed_eigenvalues(packed_fields(xs), np.eye(2))
        want = np.linalg.eigvalsh(xs)[..., ::-1]
        assert np.allclose(lam, want, atol=1e-12)

    def test_repeated_eigenvalue_safe(self):
        x = np.eye(2, dtype=complex) * 3.0
        assert pw.packed_eigenvalues(pw.pack_hermitian(x), np.eye(2)).tolist() == [3.0, 3.0]
        adj, det = pw.packed_adjugate(pw.pack_hermitian(x))
        assert det == 9.0 and np.array_equal(adj, 3.0 * np.eye(2))


def packed_fields(mats):
    """(P, n, n) Hermitian matrices as packed (n, n, P) fields."""
    return np.moveaxis(pw.pack_hermitian(mats), 0, -1)


def kernel_inputs(rng, metric):
    """Positive definite n x n batches, n from metric: exactly diagonal, and
    L Y L^H (L the Cholesky factor of metric) for random Y and for Y with
    repeated or near-degenerate (lam1 - lam2 ~ 1e-12) eigenvalues."""
    n = metric.shape[0]
    diag = np.zeros((40, n, n), dtype=complex)
    for i in range(n):
        diag[:, i, i] = rng.uniform(1.0, 5.0, size=40)
    rand = np.array([random_hermitian(rng, n) + 4.0 * np.eye(n) for _ in range(100)])
    repeated = rng.uniform(1.0, 5.0, size=(20, 1, 1)) * np.eye(n)
    unitary = np.linalg.qr(rng.normal(size=(20, n, n)) + 1j * rng.normal(size=(20, n, n)))[0]
    lam = rng.uniform(1.0, 5.0, size=(20, 1)) + np.array([1e-12] + [0.0] * (n - 1))
    near = np.einsum("pij,pj,pkj->pik", unitary, lam, np.conj(unitary))
    lo = np.linalg.cholesky(metric)
    ys = lo @ np.concatenate([rand, repeated, near]) @ np.conj(lo.T)
    return np.concatenate([diag, 0.5 * (ys + np.conj(np.swapaxes(ys, -1, -2)))])


class TestPackedKernel:
    """The adjugate and S_m gradients against the eigenvector algebra they replace.

    The gradient of a symmetric function of the eigenvalues relative to omega
    is sum_i dS/dlam_i v_i v_i^H over omega-orthonormal eigenvectors v_i
    (Lewis), with dS_k/dlam_i = S_{k-1;i}: adj X / det omega for S_n.
    """

    @pytest.mark.parametrize("which", ["identity", "metric"])
    def test_coefficients_match_eigh(self, which):
        rng = np.random.default_rng(29)
        metric = np.eye(2, dtype=complex) if which == "identity" else random_metric(rng, 2)
        xs = kernel_inputs(rng, metric)
        fields = packed_fields(xs)
        inv_metric = pw.pack_hermitian(np.linalg.inv(metric))[..., None]
        det_metric = np.linalg.det(metric).real

        # reference: V omega-orthonormal from eigh of the whitened matrices
        white = np.linalg.inv(np.linalg.cholesky(metric))
        lam, u = np.linalg.eigh(white @ xs @ np.conj(white.T))
        vecs = np.conj(white.T) @ u

        def spectral(k):
            a = elementary_sym_excluding_each(k - 1, lam)
            amat = np.einsum("pij,pj,pkj->pik", vecs, a, np.conj(vecs))
            return pw.pack_hermitian(amat) * (2.0 - np.eye(2)), elementary_sym(k, lam)

        np.testing.assert_allclose(
            pw.packed_eigenvalues(fields, pw.pack_hermitian(metric)), lam[:, ::-1], rtol=1e-13
        )
        adj, det = pw.packed_adjugate(fields)
        got = [(np.moveaxis(adj, -1, 0) / det_metric * (2.0 - np.eye(2)), det / det_metric)]
        want = [spectral(2)]
        for m in (0, 1):
            s_m, grad = pw.packed_sym_gradient(m, fields, inv_metric)
            grad = np.broadcast_to(grad, fields.shape)
            got.append((np.moveaxis(grad, -1, 0) * (2.0 - np.eye(2)), s_m))
            want.append(spectral(m))
        for (g_grad, g_val), (w_grad, w_val) in zip(got, want):
            np.testing.assert_allclose(g_val, w_val, rtol=1e-13)
            scale = np.max(np.abs(w_grad), axis=(-2, -1), keepdims=True)
            if np.any(scale):
                assert np.max(np.abs(g_grad - w_grad) / scale) <= 1e-12
            else:
                assert not np.any(g_grad)


    @pytest.mark.parametrize("which", ["identity", "metric"])
    def test_n3_adjugate_matches_cross_products(self, which):
        # the packed real 2x2 minors against the complex cross products of
        # X's rows, each column of adj X, that they replace
        rng = np.random.default_rng(29)
        metric = np.eye(3, dtype=complex) if which == "identity" else random_metric(rng, 3)
        xs = kernel_inputs(rng, metric)
        adj, det = pw.packed_adjugate(packed_fields(xs))
        rows = np.moveaxis(xs, -2, 0)
        want = np.stack([np.cross(rows[(j + 1) % 3], rows[(j + 2) % 3]) for j in range(3)], axis=-1)
        got = pw.unpack_hermitian(np.moveaxis(adj, (0, 1), (-2, -1)))
        scale = np.max(np.abs(want), axis=(-2, -1), keepdims=True)
        assert np.max(np.abs(got - want) / scale) <= 1e-13
        np.testing.assert_allclose(det, np.linalg.det(xs).real, rtol=1e-13)

    def test_m2_gradient_keeps_x_packed(self, monkeypatch):
        # with one omega^-1 for every point, omega^-1 X omega^-1 is formed on
        # the packed fields: unpack_hermitian sees the one-point omega^-1 and
        # the n^2 basis matrices of the congruence, never X's P points
        rng = np.random.default_rng(31)
        n, points = 3, 200
        xs = np.array([random_hermitian(rng, n) + 4.0 * np.eye(n) for _ in range(points)])
        inv = np.linalg.inv(random_metric(rng, n))
        seen = []
        unpack = pw.unpack_hermitian

        def spy(packed):
            seen.append(int(np.prod(np.shape(packed)[:-2])))
            return unpack(packed)

        monkeypatch.setattr(pw, "unpack_hermitian", spy)
        s_2, grad = pw.packed_sym_gradient(2, packed_fields(xs), pw.pack_hermitian(inv)[..., None])
        monkeypatch.undo()
        assert sorted(set(seen)) == [1, n * n]
        s_1 = np.trace(inv @ xs, axis1=-2, axis2=-1).real
        want = pw.pack_hermitian(s_1[:, None, None] * inv - inv @ xs @ inv)
        np.testing.assert_allclose(np.moveaxis(grad, -1, 0), want, rtol=1e-12, atol=1e-12)
        s_2_want = 0.5 * (s_1**2 - np.trace(inv @ xs @ inv @ xs, axis1=-2, axis2=-1).real)
        np.testing.assert_allclose(s_2, s_2_want, rtol=1e-12)

class TestParams:
    def test_validation(self):
        with pytest.raises(InputError):
            pw.EquationParams(n=2, m=2, coefficient=1.0, source=0.0)
        with pytest.raises(InputError):
            pw.EquationParams(n=2, m=1, coefficient=-1.0, source=0.0)
        with pytest.raises(InputError):
            pw.EquationParams(n=2, m=1, coefficient=1.0, source=-0.1)


class TestResiduals:
    def test_uniform_solution(self):
        for s in (1.1, 1.6, 2.5):
            params = pw.EquationParams(n=2, m=1, coefficient=1.0, source=s * s - s)
            assert pw.residual_volume_form([s, s], params) == pytest.approx(0.0, abs=1e-14)
            assert pw.residual_inverse_form([s, s], params) == pytest.approx(0.0, abs=1e-14)

    def test_pinned(self):
        params = pw.EquationParams(n=2, m=1, coefficient=2.0, source=0.0)
        assert pw.residual_volume_form([1.0, 1.0], params) == pytest.approx(-1.0)
        empty = pw.EquationParams(n=2, m=1, coefficient=0.0, source=0.0)
        assert pw.residual_inverse_form([0.5, 3.0], empty) == pytest.approx(-1.0)

    def test_ma_reduction(self):
        # m = 0 collapses to S_n = c + source
        params = pw.EquationParams(n=3, m=0, coefficient=4.0, source=0.0)
        lam = np.array([2.0, 2.0, 1.0])  # S_3 = 4
        assert pw.residual_volume_form(lam, params) == pytest.approx(0.0, abs=1e-14)
        assert pw.residual_inverse_form(lam, params) == pytest.approx(0.0, abs=1e-14)

    def test_identity_between_forms(self):
        # multiplying the inverse form by S_n recovers the volume form with the
        # orientation fixed by the two "-> -1" pinned examples: inv * S_n = -vol
        rng = np.random.default_rng(17)
        for n in (2, 3, 4):
            for m in range(n):
                lam = rng.uniform(0.1, 10.0, size=(2000, n))
                params = pw.EquationParams(
                    n=n, m=m, coefficient=rng.uniform(0, 3), source=rng.uniform(0, 3)
                )
                vol = pw.residual_volume_form(lam, params)
                inv = pw.residual_inverse_form(lam, params)
                sn = elementary_sym(n, lam)
                scale = np.abs(vol) + np.abs(inv * sn) + 1.0
                assert np.max(np.abs(inv * sn + vol) / scale) < 1e-12

    def test_domain(self):
        params = pw.EquationParams(n=2, m=1, coefficient=1.0, source=0.0)
        with pytest.raises(DomainError):
            pw.residual_inverse_form([1.0, -1.0], params)


class TestLinearization:
    def test_pinned(self):
        params = pw.EquationParams(n=2, m=1, coefficient=1.0, source=0.0)
        np.testing.assert_allclose(
            pw.linearization_coefficients([1.0, 1.0], params), [0.5, 0.5]
        )

    def test_nonnegative(self):
        rng = np.random.default_rng(19)
        for n in (2, 3, 5):
            for m in range(n):
                lam = rng.uniform(0.05, 20.0, size=(500, n))
                params = pw.EquationParams(
                    n=n, m=m, coefficient=rng.uniform(0, 5), source=rng.uniform(0, 5)
                )
                a = pw.linearization_coefficients(lam, params)
                assert np.all(a >= 0.0)

    def test_matches_forward_differences_first_order(self):
        rng = np.random.default_rng(23)
        lam = rng.uniform(0.5, 3.0, size=4)
        params = pw.EquationParams(n=4, m=2, coefficient=1.3, source=0.7)
        a = pw.linearization_coefficients(lam, params)
        errs = []
        for eps in (1e-3, 1e-4, 1e-5):
            fd = np.empty(4)
            for i in range(4):
                bumped = lam.copy()
                bumped[i] += eps
                fd[i] = -(
                    pw.residual_inverse_form(bumped, params)
                    - pw.residual_inverse_form(lam, params)
                ) / eps
            errs.append(np.max(np.abs(fd - a)))
        # forward differences converge at first order in eps
        assert errs[1] < 0.2 * errs[0]
        assert errs[2] < 0.2 * errs[1]

    def test_sum_bounds_at_zero_residual(self):
        # pick (coefficient, source) >= 0 putting lam exactly on the solution set,
        # then (n-m)/n S_1(mu) <= sum a_i <= S_1(mu)
        rng = np.random.default_rng(29)
        for n in (2, 3, 4):
            for m in range(n):
                for _ in range(200):
                    lam = rng.uniform(0.1, 10.0, size=n)
                    mu = 1.0 / lam
                    rho = rng.uniform(0.0, 1.0)
                    coeff = rho / elementary_sym(n - m, mu) * math.comb(n, m)
                    src = (1.0 - rho) / elementary_sym(n, mu)
                    params = pw.EquationParams(n=n, m=m, coefficient=coeff, source=src)
                    assert pw.residual_inverse_form(lam, params) == pytest.approx(0.0, abs=1e-12)
                    total = float(np.sum(pw.linearization_coefficients(lam, params)))
                    s1mu = float(np.sum(mu))
                    assert total <= s1mu * (1 + 1e-12)
                    assert total >= (n - m) / n * s1mu * (1 - 1e-12)


def wedge_permanent(rows, subset):
    """Coefficient of the exterior monomial over subset in a wedge of diagonal forms.

    rows is a list of coefficient vectors, one per wedge factor; expanding the
    product over ordered assignments of factors to the slots in subset gives
    the permanent below. Exact for dyadic inputs.
    """
    total = 0.0
    for perm in itertools.permutations(subset):
        prod = 1.0
        for r, t in zip(rows, perm):
            prod *= r[t]
        total += prod
    return total


class TestConeMargin:
    def test_boundary_surface_case(self):
        for c in (0.5, 1.0, 2.0):
            assert pw.cone_margin([c / 2, c / 2], c, 1) == 0.0

    def test_strict_case(self):
        assert pw.cone_margin([1.0, 1.0], 1.0, 1) == pytest.approx(0.5)

    def test_computed_c_from_diagonal_form(self):
        # chi = diag(a, b), omega = I, n=2, m=1, c = 2ab/(a+b): margin = min(a,b)^2/(a+b)
        rng = np.random.default_rng(31)
        for _ in range(50):
            a, b = rng.uniform(0.2, 5.0, size=2)
            c = 2 * a * b / (a + b)
            got = pw.cone_margin([a, b], c, 1)
            assert got == pytest.approx(min(a, b) ** 2 / (a + b), rel=1e-12)

    def test_wedge_oracle_exact(self):
        rng = np.random.default_rng(37)
        trials = 0
        while trials < 1000:
            n = int(rng.integers(2, 5))
            m = int(rng.integers(0, n))
            mu = rng.integers(0, 65, size=n) / 8.0  # dyadic rationals
            coeff = rng.integers(0, 17) / 4.0
            got = pw.cone_margin(mu, coeff, m)
            margins = []
            for k in range(n):
                slots = [j for j in range(n) if j != k]
                lead_wedge = wedge_permanent([mu] * (n - 1), slots)
                lead = lead_wedge / math.factorial(n - 1)
                assert lead == oracle_excluding(n - 1, mu, [k])
                if m == 0:
                    trail = 0.0
                else:
                    rows = [mu] * (m - 1) + [np.ones(n)] * (n - m)
                    trail_wedge = wedge_permanent(rows, slots)
                    trail = trail_wedge / (math.factorial(m - 1) * math.factorial(n - m))
                    assert trail == oracle_excluding(m - 1, mu, [k])
                margins.append(lead - coeff / math.comb(n, m) * trail)
            assert got == min(margins)
            trials += 1

