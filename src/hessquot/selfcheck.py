"""Seeded bulk property suites shared by the CLI self-test and the test gate.

Each suite draws everything it needs from one Generator, folds 10^4-scale
random checks of a single family of identities into a SuiteReport, and never
raises on a mathematical failure: the report carries the worst violation as
a fraction of the suite's budget so a runner can collect every outcome in
one pass. worst_ratio <= 1 is a pass; exact-equality checks count as ratio 0
when clean and inf when broken.

The hypothesis-based tests cover the same ground adaptively; these suites
exist so the stated bulk-trial budgets (counts, tolerances, wall time) are
measured by one deterministic code path that the CLI can also run.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .degiorgi import degiorgi_threshold, level_set_mass
from .pointwise import (
    EquationParams,
    cone_margin,
    linearization_coefficients,
    residual_inverse_form,
    residual_volume_form,
)
from .symfunc import (
    elementary_sym,
    elementary_sym_excluding_each,
    maclaurin_normalized,
    newton_maclaurin_gap,
    quotient_log,
    strong_concavity_gap,
)
from .torus import TorusGrid, identity_form

DEFAULT_SEED = 101
DEFAULT_TRIALS = 10_000
QUICK_TRIALS = 100
DIMENSIONS = (2, 3, 4, 5)


@dataclass(frozen=True)
class SuiteReport:
    name: str
    trials: int
    seed: int
    checks: int
    worst_ratio: float
    worst_check: str
    elapsed: float

    @property
    def passed(self):
        return self.worst_ratio <= 1.0

    def line(self):
        mark = "pass" if self.passed else "FAIL"
        return (
            f"{mark}  {self.name:24s} trials={self.trials:<6d} checks={self.checks:<9d} "
            f"worst={self.worst_ratio:.3e} ({self.worst_check})  {self.elapsed:.2f}s"
        )


class _Tally:
    """Folds named checks into the worst violation/budget ratio seen."""

    def __init__(self):
        self.checks = 0
        self.worst_ratio = -1.0
        self.worst_check = "none"

    def add(self, label, violation, budget, count=1):
        # violation <= 0 means slack; budget 0 demands exact equality
        if budget > 0.0:
            ratio = violation / budget
        else:
            ratio = 0.0 if violation <= 0.0 else math.inf
        ratio = max(ratio, -1.0)
        self.checks += count
        if ratio > self.worst_ratio:
            self.worst_ratio = ratio
            self.worst_check = label

    def report(self, name, trials, seed, start):
        return SuiteReport(
            name=name,
            trials=trials,
            seed=seed,
            checks=self.checks,
            worst_ratio=self.worst_ratio,
            worst_check=self.worst_check,
            elapsed=time.perf_counter() - start,
        )


def _positive_spectra(rng, trials, n):
    # lognormal entries cover several scales; relative gaps are scale-free
    return np.exp(rng.normal(0.0, 1.0, size=(trials, n)))


def suite_symmetric_functions(seed=DEFAULT_SEED, trials=DEFAULT_TRIALS):
    """Newton-Maclaurin gaps, Maclaurin monotonicity, permutation symmetry,
    the single-index recursion, and the subset-enumeration oracle (n <= 8)."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    tally = _Tally()
    for n in DIMENSIONS:
        lam = _positive_spectra(rng, trials, n)
        mac = np.stack([maclaurin_normalized(k, lam) for k in range(n + 1)], axis=-1)
        for k in range(1, n):
            gap = newton_maclaurin_gap(k, lam)
            rel = -gap / (mac[:, k] ** 2)
            tally.add(f"newton_maclaurin n={n} k={k}", float(rel.max()), 1e-12, trials)
        ratios = mac[:, 1:] ** (1.0 / np.arange(1, n + 1))
        mono = (ratios[:, 1:] - ratios[:, :-1]) / ratios[:, :-1]
        tally.add(f"maclaurin_monotone n={n}", float(mono.max()), 1e-12, trials * (n - 1))
        sym = np.stack([elementary_sym(k, lam) for k in range(1, n + 1)], axis=-1)
        if not (np.all(sym > 0.0) and np.all(elementary_sym(n + 1, lam) == 0.0)):
            tally.add(f"positivity n={n}", 1.0, 0.0, trials)
        else:
            tally.add(f"positivity n={n}", 0.0, 0.0, trials)
        perm = rng.permuted(lam, axis=-1)
        perm_sym = np.stack([elementary_sym(k, perm) for k in range(1, n + 1)], axis=-1)
        rel = np.abs(perm_sym - sym) / sym
        tally.add(f"perm_symmetry n={n}", float(rel.max()), 1e-12, trials * n)
        for k in range(1, n + 1):
            lhs = elementary_sym(k, lam)[:, None]
            rhs = elementary_sym_excluding_each(k, lam) + lam * elementary_sym_excluding_each(k - 1, lam)
            rel = np.abs(rhs - lhs) / lhs
            tally.add(f"recursion n={n} k={k}", float(rel.max()), 1e-12, trials * n)
    oracle_trials = max(8, trials // 50)
    for n in range(2, 9):
        lam = _positive_spectra(rng, oracle_trials, n)
        for k in range(0, n + 1):
            brute = np.zeros(oracle_trials)
            for sub in itertools.combinations(range(n), k):
                brute += lam[:, sub].prod(axis=-1) if sub else 1.0
            rel = np.abs(elementary_sym(k, lam) - brute) / brute
            tally.add(f"subset_oracle n={n} k={k}", float(rel.max()), 1e-12, oracle_trials)
    return tally.report("symmetric_functions", trials, seed, start)


def suite_strong_concavity(seed=DEFAULT_SEED, trials=DEFAULT_TRIALS):
    """Quadratic-form concavity slack is nonnegative (relative budget 1e-12)."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    tally = _Tally()
    for n in DIMENSIONS:
        lam = rng.uniform(0.1, 10.0, size=(trials, n))
        radius = np.sqrt(rng.uniform(0.0, 1.0, size=(trials, n)))
        angle = rng.uniform(0.0, 2.0 * np.pi, size=(trials, n))
        xi = radius * np.exp(1j * angle)
        absxi2 = radius * radius
        for m in range(1, n + 1):
            gap = strong_concavity_gap(lam, xi, m)
            s_m1 = elementary_sym_excluding_each(m - 1, lam)
            lin = np.einsum("ti,ti->t", s_m1, xi)
            scale = np.sum(s_m1 / lam * absxi2, axis=-1)
            scale += (lin * np.conj(lin)).real / elementary_sym(m, lam) + 1e-300
            tally.add(f"concavity n={n} m={m}", float((-gap / scale).max()), 1e-12, trials)
    return tally.report("strong_concavity", trials, seed, start)


def suite_quotient_concavity(seed=DEFAULT_SEED, trials=DEFAULT_TRIALS):
    """Midpoint concavity of ln(S_n/(S_m + shift)), absolute budget 1e-12."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    tally = _Tally()
    for n in DIMENSIONS:
        lam1 = rng.uniform(0.1, 10.0, size=(trials, n))
        lam2 = rng.uniform(0.1, 10.0, size=(trials, n))
        mid = 0.5 * (lam1 + lam2)
        for m in range(0, n):
            for shift in (0.0, 0.5, 5.0):
                q_mid = quotient_log(mid, m, shift)
                q_avg = 0.5 * (quotient_log(lam1, m, shift) + quotient_log(lam2, m, shift))
                tally.add(
                    f"midpoint n={n} m={m} a={shift}", float((q_avg - q_mid).max()), 1e-12, trials
                )
    return tally.report("quotient_concavity", trials, seed, start)


def _wedge_permanent(rows, subset):
    # coefficient of the exterior monomial over subset in a wedge of diagonal
    # (1,1)-forms: permanent over ordered assignments of factors to slots
    total = 0.0
    for perm in itertools.permutations(subset):
        prod = 1.0
        for row, slot in zip(rows, perm):
            prod *= row[slot]
        total += prod
    return total


def suite_cone_margin_oracle(seed=DEFAULT_SEED, trials=DEFAULT_TRIALS):
    """Eigenvalue margin == brute exterior-algebra expansion, bit for bit.

    Dyadic rational inputs keep both arithmetic paths exact, so the budget
    is literal equality; the surface boundary case margin 0 rides along.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    tally = _Tally()
    oracle_trials = max(8, trials // 10)
    ones = np.ones(4)
    for _ in range(oracle_trials):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(0, n))
        mu = rng.integers(0, 65, size=n) / 8.0
        coeff = rng.integers(0, 17) / 4.0
        margins = []
        for i in range(n):
            slots = [j for j in range(n) if j != i]
            lead = _wedge_permanent([mu] * (n - 1), slots) / math.factorial(n - 1)
            if m == 0:
                trail = 0.0
            else:
                rows = [mu] * (m - 1) + [ones] * (n - m)
                trail = _wedge_permanent(rows, slots) / (
                    math.factorial(m - 1) * math.factorial(n - m)
                )
            margins.append(lead - coeff / math.comb(n, m) * trail)
        got = float(cone_margin(mu, coeff, m))
        tally.add(f"wedge n={n} m={m}", abs(got - min(margins)), 0.0)
    for c in (0.5, 1.0, 2.0):
        boundary = float(cone_margin([c / 2.0, c / 2.0], c, 1))
        tally.add(f"surface_boundary c={c}", abs(boundary), 0.0)
    return tally.report("cone_margin_oracle", trials, seed, start)


def suite_operator_identities(seed=DEFAULT_SEED, trials=DEFAULT_TRIALS):
    """Residual-form identity, ellipticity, FD linearization, sum bounds."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    tally = _Tally()
    for n in DIMENSIONS:
        lam = rng.uniform(0.1, 10.0, size=(trials, n))
        m = int(rng.integers(0, n))
        params = EquationParams(
            n, m, rng.uniform(0.0, 5.0, size=trials), rng.uniform(0.0, 5.0, size=trials)
        )
        s_n = elementary_sym(n, lam)
        vol = residual_volume_form(lam, params)
        inv = residual_inverse_form(lam, params)
        scale = s_n + params.coefficient / params.binom * elementary_sym(m, lam) + params.source
        # the two forms are stated with opposite orientations: inv*S_n = -vol
        tally.add(f"form_identity n={n} m={m}", float((np.abs(inv * s_n + vol) / scale).max()), 1e-12, trials)
        coeffs = linearization_coefficients(lam, params)
        tally.add(f"ellipticity n={n} m={m}", float(-coeffs.min()), 0.0, trials * n)
        # zero-residual samples: split the inverse form's two terms by u
        mu = 1.0 / lam
        u = rng.uniform(0.0, 1.0, size=trials)
        zero_params = EquationParams(
            n,
            m,
            u * params.binom / elementary_sym(n - m, mu),
            (1.0 - u) / elementary_sym(n, mu),
        )
        total = linearization_coefficients(lam, zero_params).sum(axis=-1)
        s1 = elementary_sym(1, mu)
        tally.add(f"sum_upper n={n} m={m}", float(((total - s1) / s1).max()), 1e-12, trials)
        tally.add(
            f"sum_lower n={n} m={m}",
            float((((n - m) / n * s1 - total) / s1).max()),
            1e-12,
            trials,
        )
    # central-difference sweep: error must fall at least first order in eps
    sweeps = max(8, trials // 500)
    eps_grid = (1e-3, 1e-4, 1e-5)
    errors = np.zeros(len(eps_grid))
    for _ in range(sweeps):
        n = int(rng.integers(2, 6))
        lam = rng.uniform(0.3, 5.0, size=n)
        params = EquationParams(
            n, int(rng.integers(0, n)), float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.0, 3.0))
        )
        coeffs = linearization_coefficients(lam, params)
        scale = np.abs(coeffs).sum() + 1.0
        for j, eps in enumerate(eps_grid):
            for i in range(n):
                plus = lam.copy()
                plus[i] += eps
                minus = lam.copy()
                minus[i] -= eps
                fd = (residual_inverse_form(plus, params) - residual_inverse_form(minus, params)) / (2.0 * eps)
                errors[j] = max(errors[j], abs(fd + coeffs[i]) / scale)
    tally.add("fd_smallest_eps", float(errors[-1]), 1e-8, sweeps)
    slope = np.polyfit(np.log(eps_grid), np.log(errors + 1e-300), 1)[0]
    tally.add("fd_order", 1.0 - float(slope), 0.05, len(eps_grid))
    return tally.report("operator_identities", trials, seed, start)


def suite_degiorgi(seed=DEFAULT_SEED, trials=DEFAULT_TRIALS):
    """Threshold pinned values, monotonicity, and the equality-case iteration.

    The equality recursion phi_{k+1} = C phi_k^beta / r_{k+1}^alpha on the
    geometric schedule r_k = d 2^{-k} decays exactly as phi_0 2^{-k a/(b-1)}
    when d is the predicted threshold gap, so vanishing at the threshold is
    checkable to fp accuracy.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    tally = _Tally()
    tally.add("pinned_d4", abs(degiorgi_threshold(1, 2, 1, 1, 0) - 4.0), 0.0)
    tally.add("pinned_d16", abs(degiorgi_threshold(2, 3, 8, 2, 0) - 16.0) / 16.0, 4e-16)
    tally.add(
        "sharp_power_case", abs(degiorgi_threshold(10, 2, 2.0**-20, 1, 0) - 1.0), 1e-15
    )
    mono_trials = max(8, trials // 50)
    for _ in range(mono_trials):
        alpha = rng.uniform(0.2, 5.0)
        beta = rng.uniform(1.1, 4.0)
        big_c = rng.uniform(1.0, 10.0)
        phi0 = rng.uniform(1.0, 10.0)
        base = degiorgi_threshold(alpha, beta, big_c, phi0)
        tally.add(
            "monotone_C", (base - degiorgi_threshold(alpha, beta, 1.5 * big_c, phi0)) / base, 1e-14
        )
        tally.add(
            "monotone_phi0", (base - degiorgi_threshold(alpha, beta, big_c, 1.5 * phi0)) / base, 1e-14
        )
        tally.add(
            "antitone_alpha",
            (degiorgi_threshold(1.5 * alpha, beta, big_c, phi0) - base) / base,
            1e-14,
        )
    iter_trials = max(8, trials // 100)
    for _ in range(iter_trials):
        alpha = rng.uniform(0.5, 3.0)
        beta = rng.uniform(1.5, 3.0)
        big_c = rng.uniform(0.1, 10.0)
        phi0 = rng.uniform(0.5, 5.0)
        gap = degiorgi_threshold(alpha, beta, big_c, phi0) - 0.0
        # the equality iterate is phi_k = phi0 2^{-k alpha/(beta-1)} on the
        # schedule s_k = s0 + gap (1 - 2^{-k}); running the recursion forward
        # is unstable (errors amplify by beta per step), so check instead, in
        # log space, that this closed form satisfies the hypothesis with
        # equality at every step and decays below any tolerance before the
        # threshold is reached
        rate = alpha / (beta - 1.0)
        log2 = math.log(2.0)
        steps = 240
        for k in range(0, steps):
            log_phi_k = math.log(phi0) - k * rate * log2
            log_phi_k1 = math.log(phi0) - (k + 1) * rate * log2
            log_r_k1 = math.log(gap) - (k + 1) * log2
            defect = (log_phi_k1 + alpha * log_r_k1) - (math.log(big_c) + beta * log_phi_k)
            tally.add("iteration_hypothesis", abs(defect), 1e-9)
        tally.add("iteration_vanish", -steps * rate + 40.0, 0.0)
    # level-set masses are nonincreasing in s, exactly
    grid = TorusGrid(2, 8)
    omega = identity_form(grid)
    coords = grid.coords()
    mass_trials = max(4, trials // 1000)
    for _ in range(mass_trials):
        a, b, c3 = rng.normal(0.0, 1.0, size=3)
        phi_field = (
            a * np.cos(2.0 * np.pi * coords["x1"])
            + b * np.sin(2.0 * np.pi * coords["y2"])
            + c3 * np.cos(2.0 * np.pi * (coords["x2"] + coords["y1"]))
        )
        masses = [
            level_set_mass(phi_field, 1.0, omega, s)
            for s in np.linspace(-3.0, 3.0, 13)
        ]
        tally.add("mass_nonincreasing", float(np.diff(masses).max()), 0.0, len(masses) - 1)
    return tally.report("degiorgi", trials, seed, start)


ALL_SUITES = (
    ("symmetric_functions", suite_symmetric_functions),
    ("strong_concavity", suite_strong_concavity),
    ("quotient_concavity", suite_quotient_concavity),
    ("cone_margin_oracle", suite_cone_margin_oracle),
    ("operator_identities", suite_operator_identities),
    ("degiorgi", suite_degiorgi),
)


def run_suites(seed=DEFAULT_SEED, trials=DEFAULT_TRIALS, names=None):
    """Run the named suites (all by default) and return their reports."""
    table = dict(ALL_SUITES)
    if names is None:
        names = [name for name, _ in ALL_SUITES]
    reports = []
    for name in names:
        if name not in table:
            raise KeyError(f"unknown suite {name!r}; have {sorted(table)}")
        reports.append(table[name](seed=seed, trials=trials))
    return reports
