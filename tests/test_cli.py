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


class TestContinue:
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
        # summary moves with one-ulp changes to the operators; at N = 16 and
        # the default tol every stage converges and six digits are stable
        code, summary, _ = run_cli(tmp_path, "fake-boundary", "grid_N = 16\n")
        assert code == EXIT_OK
        check_golden("fake_boundary16", summary)

    def test_infeasible_delta1_is_usage_error(self, tmp_path):
        code, _, _ = run_cli(tmp_path, "fake-boundary", "grid_N = 8\ndelta1 = 5.0\n")
        assert code == EXIT_USAGE


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
        ("command", "cfg"),
        [
            pytest.param("check-cone", cfg, id=cfg)
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
                "eps = inf\n",
            )
        ]
        + [
            pytest.param(command, cfg, id=f"{command} {cfg}")
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
        ],
    )
    def test_bad_configs(self, tmp_path, command, cfg):
        code, summary, _ = run_cli(tmp_path, command, cfg)
        assert code == EXIT_USAGE
        assert summary is None

    def test_grid_beyond_memory_refused(self, tmp_path, monkeypatch, capsys):
        # a machine with room for N = 16 only: N = 32 is refused before any
        # field is built, N = 16 still runs
        room = cli._RSS_BASE_BYTES + cli._RSS_BYTES_PER_POINT * 16**4
        monkeypatch.setattr(cli, "_physical_memory", lambda: room)
        code, summary, _ = run_cli(tmp_path / "a", "check-cone", "instance = uniform\ngrid_N = 32\n")
        assert code == EXIT_USAGE
        assert summary is None
        assert "grid_N = 32 needs an estimated 1.35 GB" in capsys.readouterr().err
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
