"""CLI contract tests: exit codes, config handling, artifacts, goldens.

Summaries are compared against golden files after normalization: floats are
rounded to six significant digits and anything below 1e-6 in magnitude
(residual dust, margins at a tuned boundary) collapses to "~0", so the
goldens pin schema, classifications, assertion outcomes, and closed-form
constants without being brittle about last-ulp noise. Regenerate with
HESSQUOT_REGEN_GOLDENS=1 after an intentional schema change.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from hessquot import cli
from hessquot.cli import (
    CONFIG_ECHO_NAME,
    EXIT_BOUNDARY,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_USAGE,
    EXIT_VIOLATED,
    SUMMARY_NAME,
    UsageError,
    main,
    parse_config,
)
from hessquot.errors import (
    ConeViolationError,
    ConstructionError,
    DomainError,
    InputError,
    NonconvergenceError,
)
from hessquot.fakeboundary import prepare_instance
from hessquot.instances import fake_boundary_sample
from hessquot.torus import load_fields

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")


def normalize(obj):
    if isinstance(obj, dict):
        return {k: normalize(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [normalize(v) for v in obj]
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return "~0" if abs(obj) < 1e-6 else f"{obj:.6g}"
    return obj


def run_cli(tmp_path, command, cfg_text=None, flags=()):
    tmp_path.mkdir(parents=True, exist_ok=True)
    outdir = tmp_path / "out"
    argv = [command, "--out", str(outdir), *flags]
    if cfg_text is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(cfg_text)
        argv += ["--config", str(cfg)]
    code = main(argv)
    summary_path = outdir / SUMMARY_NAME
    summary = json.loads(summary_path.read_text()) if summary_path.exists() else None
    return code, summary, outdir


def check_golden(name, summary):
    path = os.path.join(GOLDEN_DIR, name + ".json")
    got = normalize(summary)
    if os.environ.get("HESSQUOT_REGEN_GOLDENS"):
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(got, fh, indent=2, sort_keys=True)
            fh.write("\n")
    with open(path) as fh:
        want = json.load(fh)
    assert got == want


class TestParseConfig:
    def test_coercion_and_comments(self):
        cfg = parse_config(
            "a = 3\nb = 2.5\nc = true\nd = hello  # trailing comment\n\n# full comment\n"
        )
        assert cfg == {"a": 3, "b": 2.5, "c": True, "d": "hello"}
        assert isinstance(cfg["a"], int) and isinstance(cfg["b"], float)

    def test_comma_lists_stay_strings(self):
        assert parse_config("sched = 1,0.5,0.25\n") == {"sched": "1,0.5,0.25"}

    def test_bad_line(self):
        with pytest.raises(UsageError, match="key=value"):
            parse_config("just a line\n")

    def test_duplicate_key(self):
        with pytest.raises(UsageError, match="duplicate"):
            parse_config("a = 1\na = 2\n")

    def test_empty_value(self):
        with pytest.raises(UsageError, match="empty"):
            parse_config("a =\n")


class TestCheckCone:
    def test_uniform_strict(self, tmp_path):
        code, summary, _ = run_cli(tmp_path, "check-cone", "instance = uniform\n")
        assert code == EXIT_OK
        assert summary["classification"] == "strict"
        assert summary["min_margin"] == pytest.approx(0.5, abs=1e-14)
        assert summary["c"] == pytest.approx(1.0, abs=1e-14)
        check_golden("check_cone_uniform", summary)

    def test_boundary_instance(self, tmp_path):
        code, summary, _ = run_cli(tmp_path, "check-cone", "instance = boundary\n")
        assert code == EXIT_BOUNDARY
        assert summary["classification"] == "boundary"
        assert abs(summary["min_margin"]) <= 1e-9

    def test_scaled_below_violated(self, tmp_path):
        code, summary, _ = run_cli(
            tmp_path, "check-cone", "instance = boundary\nscale = 0.8\n"
        )
        assert code == EXIT_VIOLATED
        assert summary["classification"] == "violated"
        assert summary["min_margin"] < 0.0

    def test_negative_margin_tol_is_usage_error(self, tmp_path):
        # a margin_tol below -|min margin| used to classify a violated
        # instance (min margin -0.1 here) as strict and exit 0
        cfg = "instance = uniform\ngrid_N = 8\nscale = 0.4\n"
        code, summary, _ = run_cli(tmp_path / "a", "check-cone", cfg)
        assert (code, summary["classification"]) == (EXIT_VIOLATED, "violated")
        code, summary, _ = run_cli(tmp_path / "b", "check-cone", cfg + "margin_tol = -1\n")
        assert code == EXIT_USAGE
        assert summary is None
        code, summary, _ = run_cli(tmp_path / "c", "check-cone", cfg + "margin_tol = 0\n")
        assert code == EXIT_VIOLATED

    def test_config_echoed(self, tmp_path):
        _, _, outdir = run_cli(tmp_path, "check-cone", "instance = uniform\nscale = 1.5\n")
        echo = (outdir / CONFIG_ECHO_NAME).read_text()
        assert "scale = 1.5" in echo
        assert "command = check-cone" in echo
        assert "seed = " in echo


class TestSolve:
    def test_uniform_closed_form(self, tmp_path):
        code, summary, outdir = run_cli(
            tmp_path, "solve", "instance = uniform\nt = 0.5\ndump_fields = true\n"
        )
        assert code == EXIT_OK
        assert summary["b"] == pytest.approx(0.96, abs=1e-10)
        assert summary["residual_sup"] <= 1e-10
        assert summary["assertions"] == {"residual_within_tol": True, "volume_floor": True}
        grid, fields = load_fields(outdir / "fields")
        assert grid.N == 16 and np.abs(fields["phi"]).max() <= 1e-10
        check_golden("solve_uniform", summary)

    def test_solver_failure_exit_code(self, tmp_path):
        code, summary, _ = run_cli(
            tmp_path, "solve", "instance = degenerate\nmax_newton = 1\ntol = 1e-12\n"
        )
        assert code == EXIT_SOLVER
        assert summary["stage"] == "solve"
        assert summary["exit_code"] == EXIT_SOLVER
        assert "failure" in summary

    def test_non_finite_data_is_a_usage_error(self, tmp_path):
        # b = s^2 - s overflows at t = 1e200: the spec is refused before any
        # solve, with one line on stderr and nothing from numpy
        cfg = tmp_path / "run.cfg"
        cfg.write_text("instance = uniform\ngrid_N = 8\nt = 1e200\n")
        proc = subprocess.run(
            [sys.executable, "-m", "hessquot", "solve", "--config", str(cfg), "--out", str(tmp_path / "o")],
            capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr == "InputError: the background's class integrals are not finite: [1e+200, inf]\n"
        assert not (tmp_path / "o" / SUMMARY_NAME).exists()

    def test_negative_b_is_rejected_before_any_solve(self, tmp_path, capsys, monkeypatch):
        # uniform at eps = -0.5, t = 0.1: b = s^2 - s = -0.24 would make the source b f negative
        def evaluate(*args):
            raise AssertionError("Newton work before the check of b")

        monkeypatch.setattr("hessquot.solver._evaluate", evaluate)
        code, summary, _ = run_cli(
            tmp_path, "solve", "instance = uniform\ngrid_N = 8\neps = -0.5\nt = 0.1\n"
        )
        assert code == EXIT_USAGE
        assert summary is None
        assert capsys.readouterr().err == (
            "InputError: the quadrature value of b is negative: -0.24; the source b f must be >= 0\n"
        )


class TestContinue:
    def test_manufactured_needs_grid_32_at_the_default_tol(self, tmp_path):
        # at N = 16 the t = 1 solve stops at its aliasing floor, above tol 1e-8
        code, summary, _ = run_cli(tmp_path / "n16", "continue", "instance = manufactured\n")
        assert code == EXIT_SOLVER
        assert (summary["rows"], summary["stage"]) == (0, "t=1")
        assert summary["failure"].startswith("aliasing floor reached at residual 9.279e-08")
        code, summary, outdir = run_cli(
            tmp_path / "n32", "continue", "instance = manufactured\ngrid_N = 32\n"
        )
        assert code == EXIT_OK
        assert summary["rows"] == 8 and summary["complete"] is True
        assert len((outdir / "path.csv").read_text().strip().splitlines()) == 9

    def test_default_schedule_eight_rows(self, tmp_path):
        code, summary, outdir = run_cli(
            tmp_path, "continue", "instance = degenerate\ngrid_N = 8\n"
        )
        assert code == EXIT_OK
        assert summary["rows"] == 8
        assert summary["complete"] is True
        lines = (outdir / "path.csv").read_text().strip().splitlines()
        assert len(lines) == 9  # header + 8 steps
        assert lines[0].startswith("t,b,residual_sup")
        assert summary["schedule"] == [2.0**-k for k in range(8)]
        check_golden("continue_degenerate8", summary)

    def test_bad_schedule_is_usage_error(self, tmp_path):
        code, summary, _ = run_cli(tmp_path, "continue", "t_schedule = 0.5,0.9\n")
        assert code == EXIT_USAGE
        assert summary is None

    def test_nan_in_schedule_is_rejected_before_any_solve(self, tmp_path, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran before the schedule was checked")

        monkeypatch.setattr("hessquot.solver.newton_solve", no_solve)
        code, summary, _ = run_cli(tmp_path, "continue", "grid_N = 8\nt_schedule = 1,nan\n")
        assert code == EXIT_USAGE
        assert summary is None
        assert "schedule must lie in (0, 1]" in capsys.readouterr().err

    def test_negative_b_mid_schedule_is_rejected_before_any_solve(
        self, tmp_path, capsys, monkeypatch
    ):
        # uniform at eps = -0.5: b = s^2 - s with s = 1 + t - 0.5 is 0.75 and 0 at
        # t = 1 and 1/2, and -0.1875 at t = 1/4, where the source b f turns negative
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            raise AssertionError("a solve ran before every t's b was checked")

        monkeypatch.setattr("hessquot.solver.newton_solve", spy)
        code, summary, outdir = run_cli(
            tmp_path, "continue", "instance = uniform\ngrid_N = 8\neps = -0.5\n"
        )
        assert (code, summary, calls) == (EXIT_USAGE, None, [])
        assert capsys.readouterr().err == (
            "usage error: continue: at t = 0.25: the quadrature value of b is negative:"
            " -0.1875; the source b f must be >= 0\n"
        )
        assert sorted(os.listdir(outdir)) == [CONFIG_ECHO_NAME]


class TestStability:
    def test_perturbation_pair(self, tmp_path):
        code, summary, _ = run_cli(
            tmp_path,
            "stability",
            "instance = uniform\nf1_amplitude = 0.1\nf2_amplitude = 0.05\nf2_shape = sin_y2\n",
        )
        assert code == EXIT_OK
        assert summary["sup_diff"] > 0.0
        assert summary["c_implied"] > 0.0
        assert summary["q_star"] == pytest.approx(2.0)
        check_golden("stability_uniform", summary)

    def test_two_descriptors_required(self, tmp_path):
        code, _, _ = run_cli(tmp_path, "stability", "instance = uniform\nf1_amplitude = 0.1\n")
        assert code == EXIT_USAGE

    def test_q_at_most_1_is_rejected_before_any_solve(self, tmp_path, capsys, monkeypatch):
        solves = []
        monkeypatch.setattr(cli, "newton_solve", lambda *args: solves.append(args))
        code, summary, _ = run_cli(
            tmp_path, "stability", "instance = uniform\nq = 1\nf1_amplitude = 0.1\nf2_amplitude = 0.05\n"
        )
        assert code == EXIT_USAGE
        assert summary is None
        assert solves == []
        assert capsys.readouterr().err == "usage error: stability: q must exceed 1, got 1.0\n"

    def test_amplitude_bound(self, tmp_path):
        code, _, _ = run_cli(
            tmp_path, "stability", "instance = uniform\nf1_amplitude = 1.5\nf2_amplitude = 0.1\n"
        )
        assert code == EXIT_USAGE


class TestFakeBoundary:
    def test_sample_run(self, tmp_path):
        code, summary, outdir = run_cli(
            tmp_path, "fake-boundary", "grid_N = 8\ntol = 1e-4\n"
        )
        assert code == EXIT_OK
        assert summary["b"] < 0.0
        assert summary["b"] <= summary["b_prime"]
        assert summary["assertions"] == {
            "b_negative": True,
            "b_le_b_prime": True,
            "band_positive": True,
            "volume_floor": True,
        }
        lines = (outdir / "stages.csv").read_text().strip().splitlines()
        assert lines[0] == "t,b_t,residual_sup,min_band_slack,min_cone_margin"
        assert len(lines) == 1 + summary["records"]

    def test_golden_n16(self, tmp_path):
        # N = 8 stalls at its aliasing floor (2e-5), where the normalized
        # summary moves with one-ulp changes to the operators; at N = 16 the
        # t = 1 solve meets the default tol and the earlier ones the path
        # tolerance, and six digits are stable
        code, summary, _ = run_cli(tmp_path, "fake-boundary", "grid_N = 16\n")
        assert code == EXIT_OK
        check_golden("fake_boundary16", summary)

    def test_infeasible_delta1_is_usage_error(self, tmp_path):
        code, _, _ = run_cli(tmp_path, "fake-boundary", "grid_N = 8\ndelta1 = 5.0\n")
        assert code == EXIT_USAGE

    def test_tiny_delta1_is_one_usage_line(self, tmp_path):
        # the sharpness 1/delta1 overflows while it doubles; no numpy warning joins the usage error
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid_N = 16\ndelta1 = 1e-300\n")
        proc = subprocess.run(
            [sys.executable, "-m", "hessquot", "fake-boundary", "--out", str(tmp_path / "o"),
             "--config", str(cfg)],
            capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_USAGE
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("usage error: ")


SMALLEST_GRID_RUNS = (
    [("check-cone", "uniform", EXIT_OK, None), ("check-cone", "boundary", EXIT_BOUNDARY, None)]
    + [("solve", name, EXIT_OK, None) for name in cli._INSTANCES]
    + [
        ("continue", name, EXIT_SOLVER if name == "manufactured" else EXIT_OK,
         "t=1" if name == "manufactured" else None)
        for name in cli._INSTANCES
    ]
    + [("stability", "uniform", EXIT_OK, None), ("fake-boundary", None, EXIT_SOLVER, "two-stage")]
)


class TestSmallestGrid:
    """grid_N = 4, the smallest grid the CLI admits, on every command that takes it.

    Each run writes a summary and ends in the contract's exit code; the two
    that stop, the manufactured path's first solve and the fake-boundary
    path, stop at the N = 4 aliasing floor.
    """

    @pytest.mark.parametrize(
        ("command", "instance", "code", "stage"),
        [pytest.param(*run, id=f"{run[0]} {run[1] or 'sample'}") for run in SMALLEST_GRID_RUNS],
    )
    def test_runs_to_a_summary(self, tmp_path, capsys, command, instance, code, stage):
        cfg = "grid_N = 4\n"
        if instance is not None:
            cfg += f"instance = {instance}\n"
        if command == "stability":
            cfg += "f1_amplitude = 0.1\nf2_amplitude = 0.05\n"
        got, summary, _ = run_cli(tmp_path, command, cfg)
        assert got == code
        assert summary is not None and summary.get("stage") == stage
        if code == EXIT_SOLVER:
            assert "aliasing floor" in summary["failure"]
        assert "Traceback" not in capsys.readouterr().err


class TestSelftest:
    def test_quick_pass(self, tmp_path):
        code, summary, _ = run_cli(tmp_path, "selftest", flags=("--quick",))
        assert code == EXIT_OK
        assert summary["all_passed"] is True
        assert [s["name"] for s in summary["suites"]] == [
            "symmetric_functions",
            "strong_concavity",
            "quotient_concavity",
            "cone_margin_oracle",
            "operator_identities",
            "degiorgi",
        ]
        assert all(s["trials"] == 100 for s in summary["suites"])
        check_golden("selftest_quick", summary)

    def test_seed_changes_draws_not_outcome(self, tmp_path):
        _, base, _ = run_cli(tmp_path, "selftest", flags=("--quick",))
        code, other, _ = run_cli(tmp_path, "selftest", flags=("--quick", "--seed", "777"))
        assert code == EXIT_OK
        assert other["all_passed"] is True
        assert other["seed"] == 777
        assert any(
            a["worst_ratio"] != b["worst_ratio"]
            for a, b in zip(base["suites"], other["suites"])
            if a["name"] != "cone_margin_oracle"
        )

    def test_suite_subset(self, tmp_path):
        code, summary, _ = run_cli(
            tmp_path, "selftest", "suites = degiorgi,cone_margin_oracle\ntrials = 500\n"
        )
        assert code == EXIT_OK
        assert [s["name"] for s in summary["suites"]] == ["degiorgi", "cone_margin_oracle"]
        assert summary["suites"][0]["trials"] == 500

    def test_unknown_suite_is_usage_error(self, tmp_path):
        code, _, _ = run_cli(tmp_path, "selftest", "suites = nope\n")
        assert code == EXIT_USAGE


class TestUsageContract:
    @pytest.mark.parametrize(
        ("command", "cfg", "flags"),
        [
            pytest.param("check-cone", cfg, (), id=cfg)
            for cfg in (
                "instance = nope\n",
                "bogus_key = 1\n",
                "grid_N = 12\n",
                "grid_N = 0\n",
                "m = 7\n",
                "instance = boundary\neps = 0.2\n",
                "m = two\n",
                "m = 1.5\n",
                "m = true\n",
                "grid_N = 8.5\n",
                "grid_N = 8e400\n",
                "instance = uniform\ngrid_N = 1048576\n",
                "scale = big\n",
                "margin_tol = nan\n",
                "margin_tol = -1\n",
                "eps = inf\n",
            )
        ]
        + [
            pytest.param(command, cfg, (), id=f"{command} {cfg}")
            for command, cfg in (
                ("fake-boundary", "grid_N = 2\n"),
                ("fake-boundary", "steps = many\n"),
                ("fake-boundary", "steps = 2.5\n"),
                ("fake-boundary", "delta1 = wide\n"),
                ("fake-boundary", "max_newton = 2.5\n"),
                ("solve", "t = half\n"),
                ("solve", "tol = -inf\n"),
                ("solve", "tol = -1\n"),
                ("solve", "tol = 0\n"),
                ("continue", "tol = 0\n"),
                ("solve", "max_newton = -3\n"),
                ("continue", "max_newton = many\n"),
                ("stability", "f1_amplitude = 0.1\nf2_amplitude = small\n"),
                ("stability", "q = nan\nf1_amplitude = 0.1\nf2_amplitude = 0.05\n"),
                ("stability", "f1_shape = tan_x1\nf1_amplitude = 0.1\nf2_amplitude = 0.05\n"),
                ("selftest", "trials = 1.5\n"),
                ("selftest", "trials = 0\n"),
                ("selftest", "trials = -5\n"),
                ("selftest", "suites = degiorgi\ntrials = 0\n"),
                ("solve", "dump_fields = no\n"),
                ("solve", "dump_fields = 1\n"),
                ("continue", "dump_fields = no\n"),
                ("continue", "dump_fields = 1\n"),
                ("fake-boundary", "dump_fields = no\n"),
                ("fake-boundary", "dump_fields = 1\n"),
            )
        ]
        # two settings for one trial count
        + [pytest.param("selftest", "trials = 5\n", ("--quick",), id="selftest --quick trials = 5\n")],
    )
    def test_bad_configs(self, tmp_path, command, cfg, flags):
        code, summary, _ = run_cli(tmp_path, command, cfg, flags)
        assert code == EXIT_USAGE
        assert summary is None

    @pytest.mark.parametrize("m", [2, -1])
    @pytest.mark.parametrize(
        ("command", "extra"),
        [
            ("check-cone", "instance = boundary\n"),
            ("solve", "instance = uniform\n"),
            ("continue", "instance = degenerate\n"),
            ("stability", "f1_amplitude = 0.1\nf2_amplitude = 0.05\n"),
        ],
    )
    def test_m_outside_0_1_is_rejected_before_any_instance(
        self, tmp_path, monkeypatch, capsys, command, extra, m
    ):
        # the CLI instances have n = 2, so 0 <= m < n leaves m = 0 and 1
        def no_build(*args, **kwargs):
            raise AssertionError("an instance was built before m was checked")

        for name in cli._INSTANCES:
            monkeypatch.setattr(cli, f"{name}_instance", no_build)
        code, summary, _ = run_cli(tmp_path, command, f"grid_N = 8\nm = {m}\n{extra}")
        assert (code, summary) == (EXIT_USAGE, None)
        assert capsys.readouterr().err == (
            f"usage error: m must be 0 or 1 for the n = 2 instances, got {m}\n"
        )

    def test_grid_beyond_memory_refused(self, tmp_path, monkeypatch, capsys):
        # a machine with room for N = 16 only: N = 32 is refused before any
        # field is built, N = 16 still runs; every run, stability's
        # comparison included, holds N^3 points
        room = cli._RSS_BASE_BYTES + cli._RSS_BYTES_PER_POINT * 16**3
        monkeypatch.setattr(cli, "_physical_memory", lambda: room)
        code, summary, _ = run_cli(tmp_path / "a", "check-cone", "instance = uniform\ngrid_N = 32\n")
        assert code == EXIT_USAGE
        assert summary is None
        assert "grid_N = 32 needs an estimated 0.097 GB" in capsys.readouterr().err
        cfg = "f1_amplitude = 0.1\nf2_amplitude = 0.05\ninstance = boundary_degenerate\n"
        cfg += "f1_shape = sin_x2\nf2_shape = sin_y2\ngrid_N = "
        code, summary, _ = run_cli(tmp_path / "s", "stability", cfg + "32\n")
        assert code == EXIT_USAGE and summary is None
        assert "grid_N = 32 needs an estimated 0.097 GB" in capsys.readouterr().err
        code, _, _ = run_cli(tmp_path / "t", "stability", cfg + "16\n")
        assert code == EXIT_OK
        code, _, _ = run_cli(tmp_path / "b", "check-cone", "instance = uniform\ngrid_N = 16\n")
        assert code == EXIT_OK

    def test_missing_out(self):
        assert main(["selftest", "--quick"]) == EXIT_USAGE

    def test_missing_config_file(self, tmp_path):
        code = main(
            ["check-cone", "--out", str(tmp_path / "o"), "--config", str(tmp_path / "missing.cfg")]
        )
        assert code == EXIT_USAGE

    def test_bad_seed(self, tmp_path):
        code = main(["selftest", "--quick", "--out", str(tmp_path / "o"), "--seed", "-3"])
        assert code == EXIT_USAGE

    def test_threads_flag_rejected(self, tmp_path):
        code, summary, _ = run_cli(
            tmp_path, "check-cone", "instance = uniform\n", flags=("--threads", "1")
        )
        assert code == EXIT_USAGE
        assert summary is None

    def test_bad_command_via_module_entry(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "hessquot", "frobnicate", "--out", str(tmp_path / "o")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_USAGE
        assert "usage error" in proc.stderr


class TestEscapedLibraryErrors:
    """A library error that escapes a command exits with the contract's code."""

    @pytest.mark.parametrize(
        ("error", "code"),
        [
            (InputError, EXIT_USAGE),
            (DomainError, EXIT_USAGE),
            (NonconvergenceError, EXIT_SOLVER),
            (ConeViolationError, EXIT_SOLVER),
            (ConstructionError, EXIT_SOLVER),
        ],
        ids=lambda v: v.__name__ if isinstance(v, type) else str(v),
    )
    def test_exit_code_and_one_line(self, tmp_path, monkeypatch, capsys, error, code):
        def raising(cfg, args, outdir):
            raise error("synthetic failure\nsecond line")

        monkeypatch.setitem(cli.COMMANDS, "solve", raising)
        got, summary, _ = run_cli(tmp_path, "solve")
        assert got == code
        assert summary is None
        err = capsys.readouterr().err
        assert err == f"{error.__name__}: synthetic failure second line\n"


class TestDeterminism:
    def test_identical_reruns_bit_identical_summary(self, tmp_path):
        _, _, out1 = run_cli(tmp_path / "a", "solve", "instance = uniform\n")
        _, _, out2 = run_cli(tmp_path / "b", "solve", "instance = uniform\n")
        assert (out1 / SUMMARY_NAME).read_bytes() == (out2 / SUMMARY_NAME).read_bytes()


def held_shapes(**fields):
    """The shape of each field, None for a form's absent potential."""
    return {name: None if values is None else np.shape(values) for name, values in fields.items()}


# one point on every axis, N = 8 points along x1 only, along x1 and y1
ONE, X1, X1Y1 = (1, 1, 1, 1), (8, 1, 1, 1), (8, 8, 1, 1)


class TestShippedShapes:
    """Every field the CLI builds at N = 8 has at most two varying axes:
    what the N^3 memory estimate assumes. Nothing reduces a field after it
    is built, so an instance function that made a full array would fail
    here rather than run on the full grid."""

    @pytest.mark.parametrize(
        ("name", "varying"),
        [
            ("uniform", {}),
            ("boundary", {"chi": X1Y1, "background": X1Y1}),
            (
                "degenerate",
                {"chitilde": X1, "background": X1, "degenerate_mask": X1, "ample_mask": X1},
            ),
            (
                "boundary_degenerate",
                {
                    "chi": X1Y1, "chitilde": X1, "background": X1Y1, "degenerate_mask": X1,
                    "ample_mask": X1, "potential_exact": X1Y1,
                },
            ),
            (
                "manufactured",
                {"f": (8, 1, 1, 8), "source": (8, 1, 1, 8), "phi_star": (8, 1, 1, 8)},
            ),
        ],
    )
    def test_instance_fields(self, name, varying):
        inst = cli.build_instance({"instance": name, "grid_N": 8})
        spec = inst.spec(0.5)
        arrays = {k: v for k, v in inst.extras.items() if isinstance(v, np.ndarray)}
        if "potential_exact" in inst.extras:
            arrays["potential_exact"] = inst.extras["potential_exact"](0.5)
        got = held_shapes(
            chi=inst.chi.potential, chitilde=inst.chitilde.potential,
            omega=inst.omega.potential, f=inst.f, background=spec.background.potential,
            spec_omega=spec.omega.potential, coefficient=spec.coefficient_field,
            source=spec.source_field, **arrays,
        )
        constant = {"chi": None, "chitilde": None, "omega": None, "background": None, "spec_omega": None}
        want = {key: constant.get(key, ONE) for key in got} | varying
        assert got == want
        assert all(sum(size > 1 for size in shape) <= 2 for shape in got.values() if shape)

    def test_fake_boundary_fields(self):
        sample = fake_boundary_sample(N=8)
        inst = prepare_instance(sample["g"], sample["chi"], sample["omega"], sample["m"])
        got = held_shapes(
            sample_g=sample["g"], chi=inst.chi.potential, omega=inst.omega.potential,
            g=inst.g, g1=inst.g1, g2=inst.g2,
        )
        assert got == {"sample_g": X1, "chi": None, "omega": None, "g": X1, "g1": ONE, "g2": X1}
