"""The benchmark's probe against this tree: one short continue_bd_n16 run at
each trace setting and one untraced run of each of fake_boundary_n16 and
solve_manufactured_n32, so every workload's gate runs here.

perfbench/tracing.py rebinds solver.LinearOperator, solver.lgmres and every
public function of the traced modules, so a change that drops one of those
names fails here before it fails the benchmark. Each run works on a copy of
perfbench/ beside a link to src/, so its trace file lands in the test's
temporary directory.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_probe(tmp_path, workload, trace):
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    argv = [
        sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", workload,
        "--seed", "0", "--seconds", "0.01", "--trace", str(trace),
    ]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
def test_probe_runs_and_passes_its_gates(tmp_path, trace):
    run_probe(tmp_path, "continue_bd_n16", trace)


def test_fake_boundary_probe_passes_its_gate(tmp_path):
    run_probe(tmp_path, "fake_boundary_n16", 0)


def test_manufactured_probe_passes_its_gate(tmp_path):
    run_probe(tmp_path, "solve_manufactured_n32", 0)
