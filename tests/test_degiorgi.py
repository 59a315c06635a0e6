"""Iteration-lemma threshold and sublevel-set masses."""

import numpy as np
import pytest

from hessquot.degiorgi import degiorgi_threshold, level_set_mass
from hessquot.errors import DomainError
from hessquot.torus import TorusGrid, identity_form

TWO_PI = 2.0 * np.pi


class TestThreshold:
    def test_pinned_values(self):
        assert degiorgi_threshold(1, 2, 1, 1, 0) == 4.0
        # 8^(1/2) * 2 * 2^(3/2) = 16, exact up to correctly rounded powers
        assert degiorgi_threshold(2, 3, 8, 2, 0) == pytest.approx(16.0, rel=4e-16)
        assert degiorgi_threshold(1, 2, 1, 0, 0) == 0.0
        assert degiorgi_threshold(1, 2, 1, 1, 3.5) == 7.5

    def test_sharp_synthetic_constants(self):
        # (1-s)+^10 satisfies the hypothesis with alpha=10, beta=2, C=2^-20
        # (AM-GM, tight), and the lemma is sharp: threshold exactly 1
        assert degiorgi_threshold(10, 2, 2.0**-20, 1, 0) == pytest.approx(1.0, rel=1e-15)

    def test_monotonicity(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            alpha = rng.uniform(0.2, 5.0)
            beta = rng.uniform(1.1, 4.0)
            C = rng.uniform(0.1, 10.0)
            phi0 = rng.uniform(1.0, 10.0)
            base = degiorgi_threshold(alpha, beta, C, phi0)
            assert degiorgi_threshold(alpha, beta, 1.5 * C, phi0) >= base
            assert degiorgi_threshold(alpha, beta, C, 1.5 * phi0) >= base
            # decrease in alpha needs C * phi0^(beta-1) >= 1; C >= 1 with
            # phi0 >= 1 guarantees that
            C1 = rng.uniform(1.0, 10.0)
            base1 = degiorgi_threshold(alpha, beta, C1, phi0)
            assert degiorgi_threshold(1.5 * alpha, beta, C1, phi0) <= base1

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            degiorgi_threshold(0.0, 2, 1, 1)
        with pytest.raises(DomainError):
            degiorgi_threshold(1, 1.0, 1, 1)
        with pytest.raises(DomainError):
            degiorgi_threshold(1, 2, 0.0, 1)
        with pytest.raises(DomainError):
            degiorgi_threshold(1, 2, 1, -0.5)


class TestLevelSetMass:
    def grid_phi(self):
        g = TorusGrid(2, 8)
        x1 = g.coords()["x1"]
        phi = np.ascontiguousarray(
            np.broadcast_to(-0.5 - 0.3 * np.cos(TWO_PI * x1), g.shape)
        )
        return g, phi

    def test_empty_and_full(self):
        g, phi = self.grid_phi()
        om = identity_form(g)
        one = np.ones(g.shape)
        assert level_set_mass(phi, one, om, 0.9) == 0.0
        assert level_set_mass(np.zeros(g.shape), one, om, 0.0) == pytest.approx(1.0)

    def test_count_oracle(self):
        g, phi = self.grid_phi()
        om = identity_form(g)
        one = np.ones(g.shape)
        for s in (0.1, 0.4, 0.6, 0.799):
            count = int(np.sum(phi <= -s))
            assert level_set_mass(phi, one, om, s) == pytest.approx(count / g.npoints)

    def test_monotone_in_s(self):
        g, phi = self.grid_phi()
        om = identity_form(g)
        dens = np.ascontiguousarray(
            np.broadcast_to(1.0 + 0.5 * np.sin(TWO_PI * g.coords()["y1"]), g.shape)
        )
        vals = [level_set_mass(phi, dens, om, s) for s in np.linspace(0, 1, 21)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_rejects_negative_density(self):
        g, phi = self.grid_phi()
        with pytest.raises(DomainError):
            level_set_mass(phi, np.full(g.shape, -1.0), identity_form(g), 0.1)

