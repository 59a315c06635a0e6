"""Shared test plumbing: the acceptance-criteria scoreboard and a kernel spy.

Acceptance tests record one line per criterion through the `criterion`
fixture; the terminal-summary hook prints the scoreboard after the run so
the pass/fail lines survive pytest's output capture. The `batch_sizes`
fixture records the point count of every Hessian and eigenvalue kernel call.
"""

import numpy as np
import pytest

import hessquot.instances as instances
import hessquot.solver as solver
import hessquot.torus as torus

_SCOREBOARD = []


@pytest.fixture
def criterion():
    def record(num, label, checks, detail=""):
        failing = sorted(k for k, v in checks.items() if not v)
        verdict = "PASS" if not failing else "FAIL"
        line = f"{verdict} criterion {num:2d} {label}"
        if detail:
            line += f"  [{detail}]"
        if failing:
            line += "  failing: " + ", ".join(failing)
        _SCOREBOARD.append(line)
        assert not failing, f"criterion {num} ({label}) failed checks: {failing}"

    return record


@pytest.fixture
def batch_sizes(monkeypatch):
    """The point count of every packed_hessian and packed_eigenvalues call.

    The solver's calls and the instance tunings' are counted too.
    """
    sizes = []
    hessian, eigenvalues = torus.packed_hessian, torus.packed_eigenvalues

    def packed_hessian(grid, phi):
        sizes.append(grid.npoints)
        return hessian(grid, phi)

    def packed_eigenvalues(fields, metric):
        sizes.append(int(np.prod(fields.shape[2:])))
        return eigenvalues(fields, metric)

    for module in (torus, instances):
        monkeypatch.setattr(module, "packed_hessian", packed_hessian)
    for module in (torus, solver, instances):
        monkeypatch.setattr(module, "packed_eigenvalues", packed_eigenvalues)
    return sizes


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _SCOREBOARD:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(_SCOREBOARD):
        terminalreporter.write_line(line)
