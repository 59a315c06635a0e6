"""The three benchmark workloads: seeded set-up, the timed solve, and its gate.

Each workload is one closed-loop sequence of blocking library calls. The
seed picks an integer grid translation per real axis (seed 0: none) and every
input field is rolled by it before the inputs are rebuilt through the public
FormField / Instance constructors. Translation leaves the cost unchanged and
moves the exact solutions with the data, so the closed-form gates still hold
on any seed.

Library functions are called through their modules (`solver.newton_solve`,
not a name imported here), so a Probe's rebinding sees these calls too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from hessquot import fakeboundary, instances, solver
from hessquot.instances import Instance
from hessquot.torus import FormField

# the `continue` subcommand's default schedule: 1, 1/2, ..., 2^-7
SCHEDULE = tuple(2.0**-k for k in range(8))


def grid_shift(seed, grid):
    """Integer translation per real axis drawn from the seed; seed 0 is none."""
    if seed == 0:
        return (0,) * len(grid.shape)
    rng = np.random.default_rng(seed)
    return tuple(int(s) for s in rng.integers(0, grid.N, size=len(grid.shape)))


def roll(values, shift):
    return np.roll(values, shift, axis=tuple(range(len(shift))))


def roll_form(form, shift):
    if form.is_constant:
        return FormField(form.grid, form.const)
    return FormField(form.grid, form.const, roll(form.potential, shift))


def roll_instance(inst, shift, extras):
    return Instance(
        inst.name, inst.grid, inst.m, roll_form(inst.chi, shift),
        roll_form(inst.chitilde, shift), roll_form(inst.omega, shift),
        inst.c, roll(inst.f, shift), extras,
    )


def mean_free_sup(a, b):
    err = a - b
    return float(np.max(np.abs(err - err.mean())))


# -- solve_manufactured_n32 -------------------------------------------------

def setup_manufactured(seed):
    base = instances.manufactured_instance(N=32)
    shift = grid_shift(seed, base.grid)
    inst = roll_instance(base, shift, {"phi_star": roll(base.extras["phi_star"], shift)})
    return inst.spec(base.extras["t_star"]), inst


def solve_manufactured(inputs):
    spec, _ = inputs
    return solver.newton_solve(spec)


def gate_manufactured(inputs, state):
    """Criterion 7: phi recovered to 1e-6, b on its quadrature value to 1e-9."""
    spec, inst = inputs
    phi_err = mean_free_sup(state.phi, inst.extras["phi_star"])
    b_err = abs(state.b - solver.quadrature_b(spec))
    if phi_err <= 1e-6 and b_err <= 1e-9:
        return None
    return f"phi err {phi_err:.3e}, b err {b_err:.3e}"


# -- continue_bd_n16 --------------------------------------------------------

def setup_boundary_degenerate(seed):
    base = instances.boundary_degenerate_instance(N=16)
    shift = grid_shift(seed, base.grid)
    exact = base.extras["potential_exact"]
    inst = roll_instance(base, shift, {
        "expected_b": base.extras["expected_b"],
        "potential_exact": lambda t: roll(exact(t), shift),
    })
    return {t: inst.spec(t) for t in SCHEDULE}, inst


def solve_boundary_degenerate(inputs):
    specs, _ = inputs
    return solver.continuation_path(specs.__getitem__, SCHEDULE)


def gate_boundary_degenerate(inputs, result):
    """Complete path; b and mean-free phi on the closed forms to 1e-8 per t."""
    _, inst = inputs
    if not result.complete or len(result.states) != len(SCHEDULE):
        return f"path stopped at t = {result.failed_t}: {result.failure}"
    for st in result.states:
        b_err = abs(st.b - inst.extras["expected_b"](st.t))
        phi_err = mean_free_sup(st.phi, inst.extras["potential_exact"](st.t))
        if not (b_err <= 1e-8 and phi_err <= 1e-8):
            return f"t = {st.t:g}: b err {b_err:.3e}, phi err {phi_err:.3e}"
    return None


# -- fake_boundary_n16 ------------------------------------------------------

def setup_fake_boundary(seed):
    sample = instances.fake_boundary_sample(N=16)
    shift = grid_shift(seed, sample["grid"])
    return fakeboundary.prepare_instance(
        roll(sample["g"], shift), roll_form(sample["chi"], shift),
        roll_form(sample["omega"], shift), sample["m"],
    )


def solve_fake_boundary(inst):
    return fakeboundary.two_stage_solve(inst)


def gate_fake_boundary(inst, result):
    """Criterion 11: b < 0, b <= b', every band slack > 0, residual <= 1e-8."""
    slack = min(rec["min_band_slack"] for rec in result.records)
    resid = result.records[-1]["residual_sup"]
    if result.b < 0.0 and result.b <= inst.b_prime and slack > 0.0 and resid <= 1e-8:
        return None
    return f"b {result.b!r}, b' {inst.b_prime!r}, min slack {slack:.3e}, residual {resid:.3e}"


@dataclass(frozen=True)
class Workload:
    setup: Callable      # seed -> inputs
    solve: Callable      # inputs -> result (the timed call)
    gate: Callable       # (inputs, result) -> None, or why the result is wrong
    min_solves: int = 1  # solves per run even when the run's seconds are up


WORKLOADS = {
    "solve_manufactured_n32": Workload(setup_manufactured, solve_manufactured, gate_manufactured),
    "continue_bd_n16": Workload(
        setup_boundary_degenerate, solve_boundary_degenerate, gate_boundary_degenerate
    ),
    # a 25 s solve swings by about 15% from run to run on a shared 2-core box,
    # so a run takes the median of two; the N = 32 workload keeps one, since a
    # second 40 s solve would double the length of its runs
    "fake_boundary_n16": Workload(
        setup_fake_boundary, solve_fake_boundary, gate_fake_boundary, min_solves=2
    ),
}
