"""Elementary symmetric polynomial calculus on eigenvalue vectors.

All functions operate on the trailing axis of float arrays, so a "spectrum"
is any array of shape (..., n) with n >= 2. Evaluation uses the stable
coefficient recurrence (multiply out prod_i (1 + lam_i x) term by term),
which is O(n k) per point and vectorizes over leading axes. Subset
enumeration lives in the test suite as the independent oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, InputError


def _as_spectrum(vals):
    vals = np.asarray(vals, dtype=np.float64)
    if vals.ndim < 1 or vals.shape[-1] < 2:
        raise InputError(f"spectrum needs a trailing axis of length >= 2, got shape {vals.shape}")
    if not np.all(np.isfinite(vals)):
        raise InputError("spectrum entries must be finite")
    return vals


def elementary_sym(k, vals):
    """S_k(vals) along the trailing axis. S_0 = 1; out-of-range k gives 0."""
    vals = _as_spectrum(vals)
    n = vals.shape[-1]
    if k < 0 or k > n:
        return np.zeros(vals.shape[:-1], dtype=np.float64)
    e = np.zeros(vals.shape[:-1] + (k + 1,), dtype=np.float64)
    e[..., 0] = 1.0
    for i in range(n):
        v = vals[..., i]
        top = min(i + 1, k)
        for j in range(top, 0, -1):
            e[..., j] += v * e[..., j - 1]
    return e[..., k]


def elementary_sym_excluding_each(k, vals):
    """S_{k;i} for every single index i, shape (..., n). Negative k gives 0."""
    vals = _as_spectrum(vals)
    n = vals.shape[-1]
    if k < 0:
        return np.zeros(vals.shape, dtype=np.float64)
    if k == 0:
        return np.ones(vals.shape)
    # elementary_sym's recurrence over the other entries, one contiguous
    # column at a time; a zeroed entry i would add only zeros to it
    cols = np.moveaxis(vals, -1, 0)
    out = np.empty(vals.shape)
    for i in range(n):
        e = [np.ones(vals.shape[:-1])] + [np.zeros(vals.shape[:-1]) for _ in range(k)]
        for count, v in enumerate(c for idx, c in enumerate(cols) if idx != i):
            for j in range(min(count + 1, k), 0, -1):
                e[j] += v * e[j - 1]
        out[..., i] = e[k]
    return out


def elementary_sym_excluding_pairs(k, vals):
    """S_{k;ij} for every ordered pair, shape (..., n, n); diagonal is S_{k;i}."""
    vals = _as_spectrum(vals)
    n = vals.shape[-1]
    if k < 0:
        return np.zeros(vals.shape[:-1] + (n, n), dtype=np.float64)
    block = np.broadcast_to(vals[..., None, None, :], vals.shape[:-1] + (n, n, n)).copy()
    ii = np.arange(n)
    block[..., ii, :, ii] = 0.0
    block[..., :, ii, ii] = 0.0
    return elementary_sym(k, block)


def maclaurin_normalized(k, vals):
    """m_k = S_k / C(n, k), the average of the k-fold products."""
    vals = _as_spectrum(vals)
    n = vals.shape[-1]
    if not 0 <= k <= n:
        raise InputError(f"maclaurin order k={k} outside 0..{n}")
    return elementary_sym(k, vals) / math.comb(n, k)


def newton_maclaurin_gap(k, vals):
    """m_k^2 - m_{k-1} m_{k+1}; nonnegative for every real spectrum."""
    vals = _as_spectrum(vals)
    n = vals.shape[-1]
    if not 1 <= k <= n - 1:
        raise InputError(f"newton gap order k={k} outside 1..{n - 1}")
    mk = maclaurin_normalized(k, vals)
    return mk * mk - maclaurin_normalized(k - 1, vals) * maclaurin_normalized(k + 1, vals)


def quotient_log(vals, m, shift=0.0):
    """ln(S_n / (S_m + shift)) for spectra in the full positive cone.

    shift >= 0 regularizes the denominator; the map stays concave in the
    spectrum, which is what the solver's damping relies on.
    """
    vals = _as_spectrum(vals)
    n = vals.shape[-1]
    if not 0 <= m < n:
        raise InputError(f"quotient order m={m} outside 0..{n - 1}")
    if shift < 0:
        raise InputError(f"shift must be >= 0, got {shift}")
    if np.any(vals <= 0.0):
        raise DomainError("quotient_log requires the full positive cone")
    return np.log(elementary_sym(n, vals)) - np.log(elementary_sym(m, vals) + shift)


def strong_concavity_gap(vals, xi, m):
    """Slack of the strong concavity inequality at spectrum vals, direction xi.

    Computes
        sum_i (S_{m-1;i}/lam_i) |xi_i|^2 + sum_{i != j} S_{m-2;ij} xi_i conj(xi_j)
        - |sum_i S_{m-1;i} xi_i|^2 / S_m,
    which is nonnegative on the full positive cone. xi may be complex; the
    result is real. Batched over leading axes of vals/xi jointly.
    """
    vals = _as_spectrum(vals)
    n = vals.shape[-1]
    if not 1 <= m <= n:
        raise InputError(f"order m={m} outside 1..{n}")
    if np.any(vals <= 0.0):
        raise DomainError("strong_concavity_gap requires the full positive cone")
    xi = np.asarray(xi, dtype=np.complex128)
    s_m = elementary_sym(m, vals)
    s_m1_i = elementary_sym_excluding_each(m - 1, vals)
    absxi2 = (xi * np.conj(xi)).real
    term_diag = np.sum(s_m1_i / vals * absxi2, axis=-1)
    pair = elementary_sym_excluding_pairs(m - 2, vals)
    off = np.einsum("...ij,...i,...j->...", pair, xi, np.conj(xi)).real
    off -= np.einsum("...ii,...i,...i->...", pair, xi, np.conj(xi)).real
    lin = np.einsum("...i,...i->...", s_m1_i, xi)
    return term_diag + off - (lin * np.conj(lin)).real / s_m
