"""Reporting after a solve: the degenerate-path study and the CLI, on the subtorus.

Every number read after a solve is taken on the solve's invariant subtorus.
The study is compared with a full-grid reference computed here, and a spy
on the Hessian and eigenvalue kernels checks that no step of a study or a
CLI command runs them on more than N^2 points.
"""

from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.spatial import cKDTree

from hessquot import cli, instances, solver, studies, torus
from hessquot.cli import EXIT_BOUNDARY, EXIT_OK, main
from hessquot.errors import InputError
from hessquot.studies import SCHEDULE, degenerate_path, stability_decades, uniqueness_limits
from hessquot.symfunc import elementary_sym
from test_torus import grid_eigenvalues


def full_grid_distance(grid, marked):
    """Periodic distance from every grid point to the marked ones, by a tree over all points."""
    ndim = 2 * grid.n
    axes = np.meshgrid(*[np.arange(grid.N) / grid.N] * ndim, indexing="ij")
    coords = np.stack(axes, axis=-1)
    dist, _ = cKDTree(coords[marked], boxsize=1.0).query(coords.reshape(-1, ndim), k=1)
    return dist.reshape(grid.shape)


@pytest.mark.parametrize("N", [8, 16])
def test_degenerate_path_matches_the_full_grid(N):
    study = degenerate_path(N)
    inst = study.instance
    grid = inst.grid
    marked = np.broadcast_to(inst.extras["degenerate_mask"], grid.shape)
    away = full_grid_distance(grid, marked) > 0.2
    # the mask and the potentials vary along x1 and y1 at most
    assert study.away.shape == (N, 1, 1, 1)
    assert np.array_equal(np.broadcast_to(study.away, grid.shape), away)
    assert study.path.complete
    lams = [grid_eigenvalues(st.spec.background, st.spec.omega, st.phi) for st in study.path.states]
    for st, lam, got in zip(study.path.states, lams, study.away_w):
        assert st.phi.shape == (N, N, 1, 1) and lam.shape == (grid.npoints, 2)
        w = np.log(elementary_sym(1, lam)).reshape(grid.shape)
        assert got == float(w[away].max())
    floor = inst.c ** (inst.grid.n / (inst.grid.n - inst.m))
    assert study.volume_slack == float(np.min(elementary_sym(2, lams[-1])) - floor)


def test_degenerate_path_rejects_an_empty_away_region(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("the continuation ran")

    monkeypatch.setattr(studies, "continuation_path", no_solve)
    with pytest.raises(InputError, match="no grid point lies farther than away=0.6"):
        degenerate_path(8, away=0.6)


def test_degenerate_path_reports_on_n_squared_points(batch_sizes):
    degenerate_path(16)
    assert batch_sizes and max(batch_sizes) <= 16**2


@pytest.mark.parametrize(("command", "code"), [("check-cone", EXIT_BOUNDARY), ("continue", EXIT_OK)])
def test_cli_reports_on_n_squared_points(batch_sizes, tmp_path, command, code):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("instance = boundary_degenerate\ngrid_N = 16\n")
    assert main([command, "--out", str(tmp_path / "out"), "--config", str(cfg)]) == code
    assert batch_sizes and max(batch_sizes) <= 16**2


@pytest.fixture
def reads(monkeypatch):
    """The Hessian and eigenvalue kernel calls made after the solves, by name.

    cli's newton_solve and studies' continuation_path run uncounted; every
    packed_hessian and every packed_eigenvalues call, in every module that
    imports it, is counted from the moment one of them returns.
    """
    seen = SimpleNamespace(calls=Counter(), after_solve=False)

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            if seen.after_solve:
                seen.calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    def solve(fn):
        def wrapped(*args, **kwargs):
            seen.after_solve = False
            out = fn(*args, **kwargs)
            seen.after_solve = True
            return out
        return wrapped

    for module in (torus, instances):
        monkeypatch.setattr(module, "packed_hessian", spy("packed_hessian", module.packed_hessian))
    for module in (torus, solver, instances):
        eigenvalues = spy("packed_eigenvalues", module.packed_eigenvalues)
        monkeypatch.setattr(module, "packed_eigenvalues", eigenvalues)
    monkeypatch.setattr(cli, "newton_solve", solve(cli.newton_solve))
    monkeypatch.setattr(studies, "continuation_path", solve(studies.continuation_path))
    return seen


def test_one_eigenvalue_pass_per_converged_state(reads, tmp_path):
    # the diagnostics take their eigenvalues from the X the solve evaluated,
    # with no Hessian, and keep them; the volume floor and the away-region
    # sup of w read them
    cfg = tmp_path / "run.cfg"
    cfg.write_text("instance = manufactured\ngrid_N = 32\n")
    assert main(["solve", "--out", str(tmp_path / "out"), "--config", str(cfg)]) == EXIT_OK
    assert reads.calls == {"packed_eigenvalues": 1}
    assert reads.calls["packed_hessian"] == 0
    reads.calls.clear()
    reads.after_solve = False
    study = degenerate_path(16)
    for st in study.path.states:
        dict(st.diagnostics)
    assert len(study.path.states) == len(SCHEDULE)
    assert reads.calls == {"packed_eigenvalues": len(SCHEDULE)}
    assert reads.calls["packed_hessian"] == 0


def test_stability_decades_rejects_q_before_any_solve(monkeypatch):
    solves = []
    monkeypatch.setattr(studies, "newton_solve", lambda *args, **kwargs: solves.append(args))
    with pytest.raises(InputError, match="q must exceed 1"):
        stability_decades(16, q=1.0)
    assert solves == []


def test_study_states_carry_their_t(monkeypatch):
    # the states of stability_decades' solves and uniqueness_limits' limit solves
    states = []
    solve = studies.newton_solve

    def kept(*args, **kwargs):
        states.append(solve(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(studies, "newton_solve", kept)
    stability_decades(8, t=0.25)
    assert len(states) == 6 and all(st.t == 0.25 for st in states)
    limits, _ = uniqueness_limits(8)
    assert [st.t for st in limits] == [SCHEDULE[-1]] * 2
