"""Smoke runs of the study scripts at N = 8: exit status and closing line."""

import os
import subprocess
import sys

import pytest

import hessquot

SCRIPTS_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "scripts")
SRC_DIR = os.path.dirname(os.path.dirname(hessquot.__file__))


def run(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC_DIR, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, os.path.join(SCRIPTS_DIR, name), "--grid-N", "8", *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def run_script(name):
    proc = run(name)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


@pytest.mark.parametrize(
    ("name", "prefix"),
    [
        ("degenerate_path.py", "volume floor slack at t=0.0078125: "),
        ("uniqueness_limits.py", "uniqueness gap on ample region: "),
    ],
)
def test_closing_line(name, prefix):
    last = run_script(name)
    assert last.startswith(prefix)
    float(last[len(prefix):])


def test_stability_decades_ratio_under_10():
    last = run_script("stability_decades.py")
    assert last.startswith("worst consecutive-decade ratio ")
    assert last.endswith("(< 10)")


@pytest.mark.parametrize(
    ("name", "args", "message"),
    [
        pytest.param(name, args, message, id=f"{name} {' '.join(args)}")
        for name, args, message in (
            ("degenerate_path.py", ("--away", "0.6"), "no grid point lies farther than away=0.6"),
            ("stability_decades.py", ("--q", "1"), "q must exceed 1"),
            ("uniqueness_limits.py", ("--amp", "1.5"), "|f amplitude| must be < 1"),
        )
    ],
)
def test_rejected_input_is_a_usage_error(name, args, message):
    # the library's InputError becomes argparse's usage error: one stderr message, exit 2
    proc = run(name, *args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
