"""Per-point Hermitian algebra for the quotient operator.

Hermitian form fields and the metric omega are packed (HERMITIAN_PACKING):
real arrays that carry the matrix on their leading (n, n) axes over any
batch; pack_hermitian and unpack_hermitian convert from and to complex
(..., n, n) matrices. omega is one (n, n) matrix (constant over the batch,
the common case) or one per point. Eigenvalues relative to omega solve
det(X - lam*omega) = 0 and come back descending, so index 0 is the
largest; eigenvalue arrays carry them on the last axis. The solver's
kernel takes none: it works on packed fields through the adjugate and the
S_m gradients, and the eigenvalue-side forms below
(residual_inverse_form, linearization_coefficients) are its oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError
from .symfunc import elementary_sym, elementary_sym_excluding_each

HERMITIAN_RTOL = 1e-12
HERMITIAN_PACKING = (
    "real n x n block per point: diagonal holds Re A[i,i]; for i<j the entry"
    " [i,j] holds Re A[i,j] and [j,i] holds Im A[i,j]"
)


@dataclass(frozen=True)
class EquationParams:
    """Pointwise parameters of S_n = (coefficient/C(n,m)) S_m + source.

    coefficient is c, or e^b g(x) in multiplicative mode; source is b_t f(x),
    or 0 in multiplicative mode. Scalars or arrays of the batch's shape both work.
    """

    n: int
    m: int
    coefficient: object
    source: object

    def __post_init__(self):
        if not 0 <= self.m < self.n:
            raise InputError(f"need 0 <= m < n, got m={self.m}, n={self.n}")
        if np.any(np.asarray(self.coefficient) < 0):
            raise InputError("coefficient must be >= 0")
        if np.any(np.asarray(self.source) < 0):
            raise InputError("source must be >= 0")

    @property
    def binom(self):
        return math.comb(self.n, self.m)


def check_hermitian(mat):
    """Raise unless the square mat equals its conjugate transpose to HERMITIAN_RTOL (relative)."""
    defect = np.max(np.abs(mat - np.conj(np.swapaxes(mat, -1, -2))))
    scale = max(1.0, float(np.max(np.abs(mat))))
    if defect > HERMITIAN_RTOL * scale:
        raise InputError(f"matrix not Hermitian: defect {defect:.3e} > {HERMITIAN_RTOL:.1e} * {scale:.3e}")


def _whiten(metric):
    """W with W omega W^H = I, i.e. W = inv(cholesky(omega)), from omega packed.

    metric is packed on its leading (n, n) axes, one matrix or one per
    point; W comes back (n, n) or (P, n, n).
    """
    lo = np.linalg.cholesky(unpack_hermitian(np.moveaxis(metric, (0, 1), (-2, -1))))
    return np.linalg.solve(lo, np.broadcast_to(np.eye(lo.shape[-1]), lo.shape))


def pack_hermitian(mats):
    """Real-packed representation (HERMITIAN_PACKING) of a Hermitian matrix field."""
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


def _congruence(w, fields):
    """Packed fields of w X w^H from packed fields of X, on the leading (n, n) axes.

    w is one (n, n) matrix or one per point of fields' flat batch, (P, n, n)
    or (1, n, n).
    pack(w X w^H) is real-linear in pack(X): one real (n*n, n*n) matrix per
    w, built from the images of the n*n packed basis matrices.
    """
    n = w.shape[-1]
    basis = unpack_hermitian(np.eye(n * n).reshape(n * n, n, n))
    wh = np.conj(np.swapaxes(w, -1, -2))
    images = pack_hermitian(w[..., None, :, :] @ basis @ wh[..., None, :, :])
    mat = images.reshape(w.shape[:-2] + (n * n, n * n))
    out = np.einsum("...ij,i...->j...", mat, fields.reshape(n * n, -1))
    return out.reshape((n, n) + np.broadcast_shapes(fields.shape[2:], w.shape[:-2]))


def packed_eigenvalues(fields, metric):
    """Descending eigenvalues of packed Hermitian fields relative to a packed metric.

    fields holds X packed (HERMITIAN_PACKING) on its leading (n, n) axes,
    over any batch; metric holds omega packed the same way, one (n, n)
    matrix or one per point of fields' flat batch. Returns shape batch +
    (n,). X is whitened on the packed fields, Y = W X W^H with W =
    inv(cholesky(omega)) (skipped for the identity). At n = 2 Y's
    eigenvalues come in closed form, half +- sqrt(((a - d)/2)^2 + re^2 +
    im^2); otherwise Y is unpacked once for LAPACK's eigvalsh.
    """
    n = fields.shape[0]
    y = fields if np.array_equal(metric, np.eye(n)) else _congruence(_whiten(metric), fields)
    if n != 2:
        return np.linalg.eigvalsh(unpack_hermitian(np.moveaxis(y, (0, 1), (-2, -1))))[..., ::-1]
    a, d = y[0, 0], y[1, 1]
    half = 0.5 * (a + d)
    disc = np.sqrt((0.5 * (a - d)) ** 2 + (y[0, 1] * y[0, 1] + y[1, 0] * y[1, 0]))
    return np.stack([half + disc, half - disc], axis=-1)


def packed_adjugate(x):
    """Adjugate and determinant of packed Hermitian fields, n = 2 or 3.

    x holds X packed (HERMITIAN_PACKING) on its leading (n, n) axes over any
    batch; adj X comes back packed the same way. At n = 3 each entry is a
    2x2 minor, from the packed fields: with u, v, w = X_01, X_02, X_12,
    adj_01 = v conj(w) - X_22 u, adj_02 = u w - X_11 v, adj_12 = v conj(u) - X_00 w.
    The leading principal minors of X are x[0, 0], adj[-1, -1] (n = 3) and det.
    """
    n = x.shape[0]
    if n == 2:
        (a, re), (im, d) = x
        adj = np.array([[d, -re], [-im, a]])
    else:
        (a, ur, vr), (ui, d, wr), (vi, wi, e) = x
        adj = np.array([
            [d * e - wr * wr - wi * wi, vr * wr + vi * wi - e * ur, ur * wr - ui * wi - d * vr],
            [vi * wr - vr * wi - e * ui, a * e - vr * vr - vi * vi, vr * ur + vi * ui - a * wr],
            [ur * wi + ui * wr - d * vi, vi * ur - vr * ui - a * wi, a * d - ur * ur - ui * ui],
        ])
    # det = sum_j X_0j adj_j0, whose real part pairs the packed entries
    det = x[0, 0] * adj[0, 0]
    for j in range(1, n):
        det = det + x[0, j] * adj[0, j] + x[j, 0] * adj[j, 0]
    return adj, det


def _packed_trace(a, x):
    """tr(A X) of packed Hermitian fields, contracted over the leading (n, n) axes."""
    return np.einsum("ij,ij...,ij...->...", 2.0 - np.eye(x.shape[0]), a, x)


def packed_sym_gradient(m, x, inv_metric):
    """S_m of X's eigenvalues relative to omega and its matrix gradient, m <= 2.

    x and inv_metric hold X and omega^-1 packed on their leading (n, n)
    axes (inv_metric broadcasts over x's batch). The gradient G satisfies
    dS_m = tr(G dX): 0 for m = 0, omega^-1 for m = 1 and
    S_1 omega^-1 - omega^-1 X omega^-1 for m = 2; S_m = tr(G X)/m by
    homogeneity (S_0 = 1). Returns (S_m, G).
    """
    if m == 0:
        return 1.0, 0.0
    grad = inv_metric
    if m == 2:
        # omega^-1 X omega^-1 on the packed fields: only omega^-1 is unpacked
        g = unpack_hermitian(np.moveaxis(inv_metric, (0, 1), (-2, -1)))
        sandwich = _congruence(g, x)
        grad = _packed_trace(inv_metric, x) * inv_metric - sandwich
    elif m != 1:
        raise InputError(f"packed_sym_gradient needs m <= 2, got {m}")
    return _packed_trace(grad, x) / m, grad


def residual_volume_form(lam, params):
    """S_n(lam) - (coefficient/C(n,m)) S_m(lam) - source."""
    lam = np.asarray(lam, dtype=np.float64)
    return (
        elementary_sym(params.n, lam)
        - params.coefficient / params.binom * elementary_sym(params.m, lam)
        - params.source
    )


def residual_inverse_form(lam, params):
    """(coefficient/C(n,m)) S_{n-m}(1/lam) + source S_n(1/lam) - 1.

    Vanishes exactly where the volume form does; this is the concave form the
    solver iterates on (as (coefficient/C(n,m)) S_m / S_n + source / S_n - 1,
    from polynomials of X), and it needs the full positive cone.
    """
    lam = np.asarray(lam, dtype=np.float64)
    if np.any(lam <= 0.0):
        raise DomainError("residual_inverse_form requires all eigenvalues > 0")
    mu = 1.0 / lam
    return (
        params.coefficient / params.binom * elementary_sym(params.n - params.m, mu)
        + params.source * elementary_sym(params.n, mu)
        - 1.0
    )


def linearization_coefficients(lam, params):
    """Per-eigendirection coefficients a_i of the linearized inverse form.

    a_i = (coefficient/C(n,m)) S_{n-m-1;i}(mu) mu_i^2 + source S_{n-1;i}(mu) mu_i^2
    with mu = 1/lam; equals -d(residual_inverse_form)/d(lam_i), and is
    nonnegative for admissible lam (ellipticity of the concave form).
    """
    lam = np.asarray(lam, dtype=np.float64)
    if np.any(lam <= 0.0):
        raise DomainError("linearization_coefficients requires all eigenvalues > 0")
    mu = 1.0 / lam
    mu2 = mu * mu
    coeff = np.asarray(params.coefficient)[..., None] if np.ndim(params.coefficient) else params.coefficient
    source = np.asarray(params.source)[..., None] if np.ndim(params.source) else params.source
    out = coeff / params.binom * elementary_sym_excluding_each(params.n - params.m - 1, mu) * mu2
    out = out + source * elementary_sym_excluding_each(params.n - 1, mu) * mu2
    return out


def cone_margin(mu, coeff, m):
    """min_i [S_{n-1;i}(mu) - (coeff/C(n,m)) S_{m-1;i}(mu)] per batch point.

    mu are eigenvalues of the background form relative to omega; the sign
    classifies the cone condition (strict / boundary / violated).
    """
    mu = np.asarray(mu, dtype=np.float64)
    n = mu.shape[-1]
    if not 0 <= m < n:
        raise InputError(f"need 0 <= m < n, got m={m}, n={n}")
    lead = elementary_sym_excluding_each(n - 1, mu)
    trail = elementary_sym_excluding_each(m - 1, mu)
    coeff = np.asarray(coeff, dtype=np.float64)
    margins = lead - (coeff[..., None] if coeff.ndim else coeff) / math.comb(n, m) * trail
    return np.min(margins, axis=-1)

