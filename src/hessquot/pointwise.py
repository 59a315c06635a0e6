"""Per-point Hermitian algebra for the quotient operator.

Matrices are numpy arrays of shape (..., n, n); every function maps over
leading batch axes. Packed fields (HERMITIAN_PACKING) are real and carry
the matrix on their leading (n, n) axes instead. The metric omega is either a single (n, n) matrix
(constant over the batch, the common case) or batched alongside.
Eigenvalues relative to omega solve det(X - lam*omega) = 0 and come back
descending, so index 0 is the largest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError
from .symfunc import elementary_sym, elementary_sym_excluding_each

HERMITIAN_RTOL = 1e-14
HERMITIAN_PACKING = (
    "real n x n block per point: diagonal holds Re A[i,i]; for i<j the entry"
    " [i,j] holds Re A[i,j] and [j,i] holds Im A[i,j]"
)


@dataclass(frozen=True)
class EquationParams:
    """Pointwise parameters of S_n = (coefficient/C(n,m)) S_m + source.

    coefficient is c, or e^b g(x) in multiplicative mode; source is b_t f(x),
    or 0 in multiplicative mode. Scalars or grid-shaped arrays both work.
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


def check_hermitian(mat, rtol=HERMITIAN_RTOL):
    """Raise unless mat equals its conjugate transpose to rtol (relative)."""
    mat = np.asarray(mat)
    if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
        raise InputError(f"expected square matrices, got shape {mat.shape}")
    defect = np.max(np.abs(mat - np.conj(np.swapaxes(mat, -1, -2))))
    scale = max(1.0, float(np.max(np.abs(mat))))
    if defect > rtol * scale:
        raise InputError(f"matrix not Hermitian: defect {defect:.3e} > {rtol:.1e} * {scale:.3e}")
    return mat


def _whiten(metric):
    """Factor W with W omega W^H = I, i.e. W = inv(cholesky(omega))."""
    metric = np.asarray(metric, dtype=np.complex128)
    lo = np.linalg.cholesky(metric)
    eye = np.broadcast_to(np.eye(metric.shape[-1]), metric.shape)
    return np.linalg.solve(lo, eye)


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
    """Packed fields of w X w^H from packed fields of X, both (n, n) + batch.

    pack(w X w^H) is real-linear in pack(X): one real (n*n, n*n) matrix,
    built from the images of the n*n packed basis matrices.
    """
    n = w.shape[-1]
    basis = unpack_hermitian(np.eye(n * n).reshape(n * n, n, n))
    mat = pack_hermitian(w @ basis @ np.conj(w.T)).reshape(n * n, n * n).T
    return (mat @ fields.reshape(n * n, -1)).reshape(fields.shape)


def packed_eigensystem2(fields, metric):
    """Closed-form eigensystem of 2x2 Hermitian fields relative to a constant metric.

    fields holds X packed (HERMITIAN_PACKING) on its leading (2, 2) axes,
    over any batch. Returns (lam, coefficients): lam, shape batch + (2,), is
    descending, half +- sqrt(((a - d)/2)^2 + re^2 + im^2) of the whitened
    Y = W X W^H (W = inv(cholesky(metric)), skipped for the identity), and
    coefficients(a), for weights a shaped like lam, packs
    A = sum_i a_i v_i v_i^H over the metric-orthonormal eigenvectors v_i as
    (2, 2) + batch fields. A = W^H (a_2 I + s (Y - lam_2 I)) W with the
    divided difference s = (a_1 - a_2)/(lam_1 - lam_2), and s = 0 where
    lam_1 = lam_2 (a_1 = a_2 there), so no eigenvector is formed.
    """
    metric = np.asarray(metric, dtype=np.complex128)
    w = None if np.array_equal(metric, np.eye(2)) else _whiten(metric)
    y = fields if w is None else _congruence(w, fields)
    a, d = y[0, 0], y[1, 1]
    half = 0.5 * (a + d)
    disc = np.sqrt((0.5 * (a - d)) ** 2 + (y[0, 1] * y[0, 1] + y[1, 0] * y[1, 0]))
    lam = np.stack([half + disc, half - disc], axis=-1)

    def coefficients(weights):
        gap = lam[..., 0] - lam[..., 1]
        s = np.divide(
            weights[..., 0] - weights[..., 1], gap, out=np.zeros_like(gap), where=gap > 0.0
        )
        out = s * y
        for j in range(2):
            out[j, j] = weights[..., 1] + s * (y[j, j] - lam[..., 1])
        return out if w is None else _congruence(np.conj(w.T), out)

    return lam, coefficients


def _eig2x2(ymat):
    """Closed-form descending eigensystem of batched 2x2 Hermitian matrices."""
    a = ymat[..., 0, 0].real
    d = ymat[..., 1, 1].real
    b = ymat[..., 0, 1]
    half = 0.5 * (a + d)
    disc = np.sqrt((0.5 * (a - d)) ** 2 + (b * np.conj(b)).real)
    lam = np.stack([half + disc, half - disc], axis=-1)
    # eigenvector for the larger eigenvalue: (lam1 - d, conj b) where a >= d,
    # else (b, lam1 - a), so its free entry never cancels (at b = 0 and a > d,
    # lam1 - a rounds to +-1 ulp and would pick e2); orthocomplement for the other
    top = (a >= d)[..., None]
    u1 = np.where(
        top,
        np.stack([(lam[..., 0] - d).astype(np.complex128), np.conj(b)], axis=-1),
        np.stack([b, (lam[..., 0] - a).astype(np.complex128)], axis=-1),
    )
    norm = np.linalg.norm(u1, axis=-1)
    scale = np.abs(a) + np.abs(d) + np.abs(b) + 1.0
    degenerate = norm <= 1e-150 + 1e-18 * scale
    u1 = np.where(degenerate[..., None], np.array([1.0 + 0j, 0.0]), u1 / np.where(degenerate, 1.0, norm)[..., None])
    u2 = np.stack([-np.conj(u1[..., 1]), np.conj(u1[..., 0])], axis=-1)
    vecs = np.stack([u1, u2], axis=-1)  # columns are eigenvectors
    return lam, vecs


def eigensystem_rel(matrix, metric, check=True):
    """Eigenvalues (descending) and omega-orthonormal eigenvectors of X rel omega.

    Returns (lam, vecs) with matrix @ v_i = lam_i * metric @ v_i and
    v_i^H metric v_j = delta_ij; vecs has the v_i as columns.
    """
    matrix = np.asarray(matrix, dtype=np.complex128)
    if check:
        check_hermitian(matrix)
    metric = np.asarray(metric, dtype=np.complex128)
    n = matrix.shape[-1]
    is_identity = metric.ndim == 2 and np.array_equal(metric, np.eye(n))
    if is_identity:
        ymat = matrix
    else:
        w = _whiten(metric)
        ymat = w @ matrix @ np.conj(np.swapaxes(w, -1, -2))
        ymat = 0.5 * (ymat + np.conj(np.swapaxes(ymat, -1, -2)))
    if n == 2:
        lam, u = _eig2x2(ymat)
    else:
        lam, u = np.linalg.eigh(ymat)
        lam = lam[..., ::-1]
        u = u[..., ::-1]
    if is_identity:
        vecs = u
    else:
        vecs = np.conj(np.swapaxes(w, -1, -2)) @ u
    return lam, vecs


def eigenvalues_rel(matrix, metric, check=True):
    """Descending solutions of det(X - lam*omega) = 0; all real."""
    return eigensystem_rel(matrix, metric, check=check)[0]


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
    solver iterates on, and it needs the full positive cone.
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

