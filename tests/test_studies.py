"""Reporting after a solve: the degenerate-path study and the CLI, on the subtorus.

Every number read after a solve is taken on the solve's invariant subtorus.
The study is compared with a full-grid reference computed here, and a spy
on the Hessian and eigenvalue kernels checks that no step of a study or a
CLI command runs them on more than N^2 points.
"""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from hessquot import cli, fakeboundary, solver, studies, torus
from hessquot.cli import EXIT_BOUNDARY, EXIT_OK, main
from hessquot.errors import InputError
from hessquot.studies import SCHEDULE, degenerate_path
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
def eigenvalue_passes(monkeypatch):
    """One entry per relative_eigenvalues call, in every module that imports it."""
    calls = []
    original = torus.relative_eigenvalues

    def spy(*args, **kwargs):
        calls.append(args[0].grid)
        return original(*args, **kwargs)

    for module in (torus, solver, fakeboundary, cli):
        monkeypatch.setattr(module, "relative_eigenvalues", spy)
    return calls


def test_one_eigenvalue_pass_per_converged_state(eigenvalue_passes, tmp_path):
    # the diagnostics keep their eigenvalues, and the volume floor and the
    # away-region sup of w read them
    cfg = tmp_path / "run.cfg"
    cfg.write_text("instance = manufactured\ngrid_N = 32\n")
    assert main(["solve", "--out", str(tmp_path / "out"), "--config", str(cfg)]) == EXIT_OK
    assert len(eigenvalue_passes) == 1
    eigenvalue_passes.clear()
    study = degenerate_path(16)
    for st in study.path.states:
        dict(st.diagnostics)
    # two build the instance (tune_to_boundary's c and make_degenerate_big's masks)
    assert len(study.path.states) == len(SCHEDULE)
    assert len(eigenvalue_passes) == 2 + len(SCHEDULE)
