"""Acceptance gate: one test and one printed scoreboard line per criterion.

Every test measures its own facts at the shipped tolerances, records them
through the `criterion` fixture (which prints PASS/FAIL lines in the
terminal summary, see conftest), and fails loudly if any sub-check is off.
Property suites run at their full trial counts here, not the quick ones.
"""

import math
import time

import numpy as np
import pytest

from hessquot.fakeboundary import prepare_instance, solve_b_prime, two_stage_solve
from hessquot.instances import fake_boundary_sample, manufactured_instance, uniform_instance
from hessquot.selfcheck import (
    suite_cone_margin_oracle,
    suite_degiorgi,
    suite_operator_identities,
    suite_quotient_concavity,
    suite_strong_concavity,
    suite_symmetric_functions,
)
from hessquot.solver import newton_solve, quadrature_b
from hessquot.studies import SCHEDULE, degenerate_path, stability_decades, uniqueness_limits

FULL_TRIALS = 10_000


def _suite_checks(report, limit=None):
    checks = {"suite_passed": report.passed}
    if limit is not None:
        checks["runtime"] = report.elapsed < limit
    detail = f"worst {report.worst_ratio:.2e} ({report.worst_check}), {report.elapsed:.2f}s"
    return checks, detail


@pytest.fixture(scope="module")
def degenerate_run():
    start = time.perf_counter()
    study = degenerate_path(16)
    return study, time.perf_counter() - start


def test_01_symmetric_function_suite(criterion):
    report = suite_symmetric_functions(trials=FULL_TRIALS)
    checks, detail = _suite_checks(report, limit=10.0)
    criterion(1, "symmetric function inequalities and oracles", checks, detail)


def test_02_strong_concavity(criterion):
    report = suite_strong_concavity(trials=FULL_TRIALS)
    checks, detail = _suite_checks(report, limit=10.0)
    criterion(2, "quotient strong concavity along directions", checks, detail)


def test_03_log_quotient_midpoint_concavity(criterion):
    report = suite_quotient_concavity(trials=FULL_TRIALS)
    checks, detail = _suite_checks(report)
    criterion(3, "shifted log-quotient midpoint concavity", checks, detail)


def test_04_cone_margin_oracle(criterion):
    report = suite_cone_margin_oracle(trials=FULL_TRIALS)
    checks, detail = _suite_checks(report)
    criterion(4, "cone margin against wedge oracle", checks, detail)


def test_05_operator_identities(criterion):
    report = suite_operator_identities(trials=FULL_TRIALS)
    checks, detail = _suite_checks(report)
    criterion(5, "residual forms, linearization, coefficient bounds", checks, detail)


def test_06_uniform_exactness(criterion):
    start = time.perf_counter()
    inst = uniform_instance(N=16)
    state = newton_solve(inst.spec(0.5))
    elapsed = time.perf_counter() - start
    sup_phi = float(np.abs(state.phi).max())
    b_err = abs(state.b - 0.96)
    criterion(
        6,
        "uniform instance recovers phi = 0, b = 0.96",
        {"phi_zero": sup_phi <= 1e-8, "b_exact": b_err <= 1e-8, "runtime": elapsed < 30.0},
        f"sup|phi| {sup_phi:.1e}, |b-0.96| {b_err:.1e}, {elapsed:.2f}s",
    )


def test_07_manufactured_solution(criterion):
    start = time.perf_counter()
    inst = manufactured_instance(N=32)
    spec = inst.spec(inst.extras["t_star"])
    state = newton_solve(spec)
    elapsed = time.perf_counter() - start
    err = state.phi - inst.extras["phi_star"]
    err -= err.mean()
    phi_err = float(np.abs(err).max())
    b_err = abs(state.b - quadrature_b(spec))
    criterion(
        7,
        "manufactured solution recovery at N = 32",
        {
            "phi_recovered": phi_err <= 1e-6,
            "b_matches_quadrature": b_err <= 1e-9,
            "runtime": elapsed < 300.0,
        },
        f"phi err {phi_err:.1e}, b err {b_err:.1e}, {elapsed:.1f}s",
    )


def test_08_continuation_boundedness(criterion, degenerate_run):
    study, elapsed = degenerate_run
    result = study.path
    away_w = study.away_w
    global_w = [st.diagnostics["sup_w"] for st in result.states]
    checks = {
        "path_complete": result.complete,
        "sup_phi_no_blowup": study.sup_phi_ratio <= 1.5,
        "away_sup_w_bounded": study.away_w_ratio <= 1.5,
    }
    detail = (
        f"sup|phi| ratio {study.sup_phi_ratio:.3f}, away w max {max(away_w):.3f}, "
        f"global w max {max(global_w):.3f}, {elapsed:.1f}s"
    )
    criterion(8, "degenerate continuation stays bounded", checks, detail)


def test_09_volume_lower_bound(criterion, degenerate_run):
    study, _ = degenerate_run
    assert study.path.complete
    inst = study.instance
    floor = inst.c ** (inst.grid.n / (inst.grid.n - inst.m))
    slack = study.volume_slack
    criterion(
        9,
        "volume form lower bound at the final step",
        {"min_above_floor": slack >= -1e-6 * floor},
        f"slack {slack:.3e} at t = {SCHEDULE[-1]:g}",
    )


def test_10_degiorgi_suite(criterion):
    report = suite_degiorgi(trials=FULL_TRIALS)
    checks, detail = _suite_checks(report)
    criterion(10, "iteration threshold formula and vanishing", checks, detail)


def test_11_fake_boundary_two_stage(criterion):
    golden_ratio_log = math.log((math.sqrt(5.0) - 1.0) / 2.0)
    b_prime_err = abs(solve_b_prime(1.0, 2, 1) - golden_ratio_log)

    start = time.perf_counter()
    sample = fake_boundary_sample(N=16)
    inst = prepare_instance(sample["g"], sample["chi"], sample["omega"], sample["m"])
    result = two_stage_solve(inst)
    elapsed = time.perf_counter() - start
    final = result.records[-1]
    band_slacks = [rec["min_band_slack"] for rec in result.records]
    criterion(
        11,
        "fake boundary bound and two-stage convergence",
        {
            "b_prime_closed_form": b_prime_err <= 1e-10,
            "b_negative": result.b < 0.0,
            "b_below_b_prime": result.b <= inst.b_prime,
            "band_positive_each_step": min(band_slacks) > 0.0,
            "final_residual": final["residual_sup"] <= 1e-8,
            "runtime": elapsed < 600.0,
        },
        f"b {result.b:.6f} <= b' {inst.b_prime:.6f}, residual {final['residual_sup']:.1e}, "
        f"{elapsed:.1f}s",
    )


def test_12_stability_and_uniqueness(criterion):
    # decade sweep: paired source perturbations at a shared amplitude,
    # implied constant read off each pair
    implied = [rec.c_implied for _, rec in stability_decades(16, t=0.5, q=2.0)]
    ratios = [max(a / b, b / a) for a, b in zip(implied, implied[1:])]

    # uniqueness: two differently perturbed paths, one shared limit equation
    _, gap = uniqueness_limits(32, amp=0.3)

    criterion(
        12,
        "stability constants and limit uniqueness",
        {"decade_drift_under_10x": max(ratios) < 10.0, "uniqueness_gap": gap <= 1e-4},
        f"decade ratios {', '.join(f'{r:.2f}' for r in ratios)}, gap {gap:.1e} at N = 32",
    )
