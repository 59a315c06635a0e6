"""Level-set iteration lemma utilities.

The lemma: if a nonnegative nonincreasing function phi on [s0, inf) obeys
    (s' )^alpha * phi(s + s') <= C * phi(s)^beta        (all s >= s0, s' > 0)
with alpha > 0, beta > 1, then phi vanishes at or before
    s0 + C^(1/alpha) * phi(s0)^((beta-1)/alpha) * 2^(beta/(beta-1)).
Here that threshold is a formula, and sublevel-set masses of solver fields
supply the phi samples.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .torus import integrate_density


def degiorgi_threshold(alpha, beta, C, phi0, s0=0.0):
    """The s value by which the hypothesis forces phi to vanish."""
    if alpha <= 0.0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    if beta <= 1.0:
        raise DomainError(f"beta must exceed 1, got {beta}")
    if C <= 0.0:
        raise DomainError(f"C must be positive, got {C}")
    if phi0 < 0.0:
        raise DomainError(f"phi0 must be nonnegative, got {phi0}")
    d = C ** (1.0 / alpha) * phi0 ** ((beta - 1.0) / alpha) * 2.0 ** (beta / (beta - 1.0))
    return s0 + d


def level_set_mass(phi, density, omega, s):
    """Quadrature of density over the sublevel set {phi <= -s}.

    Plain indicator quadrature: the lemma checks need only O(1/N) accuracy.
    """
    phi = np.asarray(phi, dtype=np.float64)
    density = np.asarray(density, dtype=np.float64)
    if np.min(density) < 0.0:
        raise DomainError("density must be nonnegative")
    return integrate_density(density * (phi <= -s), omega)
