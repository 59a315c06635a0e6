"""Command-line experiment runner.

Subcommands map one-to-one onto library workflows:

    check-cone      pointwise cone-condition margins and classification
    solve           one Newton solve of an instance at fixed t
    continue        warm-started t-continuation along a schedule
    stability       paired solves with perturbed sources, stability record
    fake-boundary   two-stage construction for touching coefficients
    selftest        the bulk property suites

Configuration is a flat key=value file (# comments allowed); every run
echoes the parsed configuration and writes a versioned JSON summary into
--out, so an output directory is a self-describing record of one
experiment. Exit codes follow a shell contract: 0 ok, 1 boundary case
detected, 2 cone violation or failed self-test, 64 usage error, 70 solver
failure. A library error that no command handles maps onto the same codes:
InputError and DomainError exit 64; NonconvergenceError, ConeViolationError
and ConstructionError exit 70, with one line on stderr and no summary.
Wall-clock numbers go to stdout only, never into summaries, which
keeps the JSON reproducible byte for byte given config + seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from .errors import (
    ConeViolationError,
    ConstructionError,
    DomainError,
    InputError,
    NonconvergenceError,
)
from .fakeboundary import prepare_instance, two_stage_solve
from .instances import (
    boundary_degenerate_instance,
    boundary_instance,
    degenerate_instance,
    fake_boundary_sample,
    manufactured_instance,
    uniform_instance,
)
from .pointwise import cone_margin
from .selfcheck import DEFAULT_SEED, run_suites
from .solver import (
    SolverConfig,
    continuation_path,
    diagnostics,
    newton_solve,
    stability_compare,
    uniqueness_gap,
    volume_lower_bound_check,
    write_path_csv,
)
from .studies import SCHEDULE
from .torus import TorusGrid, dump_fields, form_eigenvalues, normalize_density

SUMMARY_SCHEMA = "hessquot-summary/1"
SUMMARY_NAME = "summary.json"
CONFIG_ECHO_NAME = "config.echo"

EXIT_OK = 0
EXIT_BOUNDARY = 1
EXIT_VIOLATED = 2
EXIT_USAGE = 64
EXIT_SOLVER = 70


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the shell contract wants 64
    def error(self, message):
        raise UsageError(message)


def parse_config(text):
    """Flat key=value lines into a dict; values stay strings except numbers
    and true/false. Comma-separated values keep their raw string form, the
    consuming command splits them."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise UsageError(f"config line {lineno}: empty key or value in {raw!r}")
        if key in out:
            raise UsageError(f"config line {lineno}: duplicate key {key!r}")
        out[key] = _coerce(value)
    return out


def _coerce(value):
    if value.lower() in ("true", "false"):
        return value.lower() == "true"
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        pass
    return value


def load_config(path):
    if path is None:
        return {}
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    with open(path) as fh:
        return parse_config(fh.read())


def echo_config(cfg, outdir, extra):
    lines = ["# parsed configuration, echoed for reproducibility"]
    merged = dict(cfg)
    merged.update(extra)
    for key in sorted(merged):
        lines.append(f"{key} = {merged[key]}")
    with open(os.path.join(outdir, CONFIG_ECHO_NAME), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_summary(outdir, payload):
    path = os.path.join(outdir, SUMMARY_NAME)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _require(cfg, allowed, command):
    unknown = sorted(set(cfg) - set(allowed))
    if unknown:
        raise UsageError(f"{command}: unknown config keys {unknown}; allowed: {sorted(allowed)}")


def _number(cfg, key, default, integer=False):
    """A numeric config value: finite, and integral for integer keys.

    Every numeric key goes through here, so a bad value is a usage error,
    never a traceback.
    """
    value = cfg.get(key, default)
    ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(value, float):
        ok = math.isfinite(value) and (value.is_integer() or not integer)
    if not ok:
        kind = "an integer" if integer else "a finite number"
        raise UsageError(f"{key} must be {kind}, got {value!r}")
    return int(value) if integer else float(value)


def _flag(cfg, key):
    """A true/false config value, False when absent; anything else is a usage error."""
    value = cfg.get(key, False)
    if not isinstance(value, bool):
        raise UsageError(f"{key} must be true or false, got {value!r}")
    return value


# Peak RSS of the heaviest command, `continue` on boundary_degenerate over
# the default schedule, measured at n = 2 (the only n the CLI builds) for
# N = 8, 16 and 32: 87, 161 and 1287 MiB. The interpreter and libraries take
# a fixed part, the rest grows with the grid's points, 2^(2n) per doubling.
_RSS_BASE_BYTES = 86 * 2**20
_RSS_BYTES_PER_POINT = 1200


def _physical_memory():
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _grid_N(cfg):
    """grid_N from the config, held to TorusGrid's rule and to the machine's
    memory before anything is built."""
    N = _number(cfg, "grid_N", 16, integer=True)
    try:
        grid = TorusGrid(2, N)
    except ValueError as err:
        raise UsageError(f"grid_N: {err}") from err
    need = _RSS_BASE_BYTES + _RSS_BYTES_PER_POINT * grid.npoints
    have = _physical_memory()
    if need > have:
        raise UsageError(
            f"grid_N = {N} needs an estimated {need / 1e9:.3g} GB of memory,"
            f" more than the {have / 1e9:.3g} GB of this machine"
        )
    return N


_INSTANCES = ("uniform", "boundary", "degenerate", "boundary_degenerate", "manufactured")


def build_instance(cfg):
    name = str(cfg.get("instance", "uniform"))
    N, m = _grid_N(cfg), _number(cfg, "m", 1, integer=True)
    if name not in _INSTANCES:
        raise UsageError(f"unknown instance {name!r}; have {_INSTANCES}")
    if name != "uniform" and "eps" in cfg:
        raise UsageError("eps only applies to the uniform instance")
    try:
        if name == "uniform":
            return uniform_instance(N=N, eps=_number(cfg, "eps", 0.1), m=m)
        if name == "boundary":
            return boundary_instance(N=N, m=m)
        if name == "degenerate":
            return degenerate_instance(N=N, m=m)
        if name == "boundary_degenerate":
            return boundary_degenerate_instance(N=N, m=m)
        if m != 1:
            raise UsageError("manufactured instance fixes m = 1")
        return manufactured_instance(N=N)
    except (InputError, DomainError) as err:
        raise UsageError(f"instance construction failed: {err}") from err


def _solver_config(cfg, default_tol):
    kwargs = {"tol": _number(cfg, "tol", default_tol)}
    if "max_newton" in cfg:
        kwargs["max_newton"] = _number(cfg, "max_newton", None, integer=True)
    try:
        return SolverConfig(**kwargs)
    except InputError as err:
        raise UsageError(str(err)) from err


def _base_payload(command, args):
    return {
        "schema": SUMMARY_SCHEMA,
        "command": command,
        "seed": args.seed,
        "quick": bool(args.quick),
    }


def cmd_check_cone(cfg, args, outdir):
    _require(cfg, {"instance", "grid_N", "m", "eps", "scale", "margin_tol"}, "check-cone")
    scale = _number(cfg, "scale", 1.0)
    if scale <= 0.0:
        raise UsageError(f"scale must be positive, got {scale}")
    tol = _number(cfg, "margin_tol", 1e-9)
    inst = build_instance(cfg)
    # the scale knob moves chi against the fixed constant of the unscaled
    # instance; scaling both would leave the classification invariant
    mu = form_eigenvalues(scale * inst.chi, inst.omega)
    margins = cone_margin(mu, inst.c, inst.m)
    min_margin = float(margins.min())
    if min_margin > tol:
        classification, code = "strict", EXIT_OK
    elif abs(min_margin) <= tol:
        classification, code = "boundary", EXIT_BOUNDARY
    else:
        classification, code = "violated", EXIT_VIOLATED
    payload = _base_payload("check-cone", args)
    payload.update(
        {
            "instance": inst.name,
            "c": inst.c,
            "scale": scale,
            "margin_tol": tol,
            "min_margin": min_margin,
            "max_margin": float(margins.max()),
            "mean_margin": float(margins.mean()),
            "classification": classification,
            "exit_code": code,
        }
    )
    print(f"check-cone: {classification} (min margin {min_margin:.6g}, c {inst.c:.6g})")
    return payload, code


def cmd_solve(cfg, args, outdir):
    _require(
        cfg,
        {"instance", "grid_N", "m", "eps", "t", "tol", "max_newton", "dump_fields"},
        "solve",
    )
    t = _number(cfg, "t", 0.5)
    config = _solver_config(cfg, 1e-10)
    dump = _flag(cfg, "dump_fields")
    inst = build_instance(cfg)
    payload = _base_payload("solve", args)
    payload["instance"] = inst.name
    payload["t"] = t
    try:
        state = newton_solve(inst.spec(t), None, config, t)
    except (NonconvergenceError, ConeViolationError) as err:
        payload.update({"stage": "solve", "failure": str(err), "exit_code": EXIT_SOLVER})
        print(f"solve: failed ({err})")
        return payload, EXIT_SOLVER
    diag = diagnostics(state)
    volume_slack = volume_lower_bound_check(state, inst.c)
    floor = inst.c ** (inst.grid.n / (inst.grid.n - inst.m))
    payload.update(
        {
            "b": state.b,
            "residual_sup": state.residual_sup,
            "newton_iters": state.diagnostics["newton_iters"],
            "sup_phi": diag["sup_phi"],
            "sup_grad_sq": diag["sup_grad_sq"],
            "sup_w": diag["sup_w"],
            "volume_bound_slack": volume_slack,
            "assertions": {
                "residual_within_tol": bool(state.residual_sup <= config.tol),
                "volume_floor": bool(volume_slack >= -1e-6 * floor),
            },
            "exit_code": EXIT_OK,
        }
    )
    if dump:
        dump_fields(os.path.join(outdir, "fields"), inst.grid, {"phi": state.phi})
        payload["field_dump"] = "fields"
    print(f"solve: b {state.b:.12g}, residual {state.residual_sup:.3e}")
    return payload, EXIT_OK


def _parse_schedule(cfg):
    if "t_schedule" not in cfg:
        return list(SCHEDULE)
    raw = str(cfg["t_schedule"])
    try:
        return [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as err:
        raise UsageError(f"bad t_schedule {raw!r}: {err}") from err


def cmd_continue(cfg, args, outdir):
    _require(
        cfg,
        {"instance", "grid_N", "m", "eps", "t_schedule", "tol", "max_newton", "dump_fields"},
        "continue",
    )
    config = _solver_config(cfg, 1e-8)
    inst = build_instance(cfg)
    schedule = _parse_schedule(cfg)
    dump = _flag(cfg, "dump_fields")
    payload = _base_payload("continue", args)
    payload["instance"] = inst.name
    payload["schedule"] = schedule
    try:
        result = continuation_path(inst.family(), schedule, config)
    except InputError as err:
        raise UsageError(f"continue: {err}") from err
    csv_name = "path.csv"
    write_path_csv(os.path.join(outdir, csv_name), result)
    payload["path_csv"] = csv_name
    payload["rows"] = len(result.states)
    payload["complete"] = result.complete
    if result.states:
        final = result.states[-1]
        payload["final_t"] = final.t
        payload["final_b"] = final.b
        payload["final_residual"] = final.residual_sup
        payload["sup_phi_path"] = max(st.diagnostics["sup_phi"] for st in result.states)
        if dump:
            dump_fields(os.path.join(outdir, "fields"), inst.grid, {"phi_final": final.phi})
            payload["field_dump"] = "fields"
    if result.complete:
        payload["exit_code"] = EXIT_OK
        print(f"continue: {len(result.states)} steps complete, final b {result.states[-1].b:.12g}")
        return payload, EXIT_OK
    payload.update(
        {"stage": f"t={result.failed_t:g}", "failure": result.failure, "exit_code": EXIT_SOLVER}
    )
    print(f"continue: stalled at t={result.failed_t:g} after {len(result.states)} steps")
    return payload, EXIT_SOLVER


_SHAPES = {
    "cos_x1": lambda coords: np.cos(2.0 * np.pi * coords["x1"]),
    "cos_y1": lambda coords: np.cos(2.0 * np.pi * coords["y1"]),
    "sin_x2": lambda coords: np.sin(2.0 * np.pi * coords["x2"]),
    "sin_y2": lambda coords: np.sin(2.0 * np.pi * coords["y2"]),
}


def _perturbed_density(inst, shape_name, amplitude):
    if shape_name not in _SHAPES:
        raise UsageError(f"unknown f shape {shape_name!r}; have {sorted(_SHAPES)}")
    if not -1.0 < amplitude < 1.0:
        raise UsageError(f"|f amplitude| must be < 1 to keep f positive, got {amplitude}")
    base = np.broadcast_to(_SHAPES[shape_name](inst.grid.coords()), inst.grid.shape)
    return normalize_density(np.ascontiguousarray(1.0 + amplitude * base), inst.omega)


def cmd_stability(cfg, args, outdir):
    allowed = {
        "instance", "grid_N", "m", "eps", "t", "tol", "max_newton", "q",
        "f1_shape", "f1_amplitude", "f2_shape", "f2_amplitude",
    }
    _require(cfg, allowed, "stability")
    for key in ("f1_amplitude", "f2_amplitude"):
        if key not in cfg:
            raise UsageError(f"stability needs two f descriptors; missing {key}")
    t = _number(cfg, "t", 0.5)
    q = _number(cfg, "q", 2.0)
    config = _solver_config(cfg, 1e-10)
    amp1, amp2 = _number(cfg, "f1_amplitude", None), _number(cfg, "f2_amplitude", None)
    inst = build_instance(cfg)
    f1 = _perturbed_density(inst, str(cfg.get("f1_shape", "cos_x1")), amp1)
    f2 = _perturbed_density(inst, str(cfg.get("f2_shape", "cos_x1")), amp2)
    payload = _base_payload("stability", args)
    payload.update(
        {
            "instance": inst.name,
            "t": t,
            "q": q,
            "f1": {"shape": str(cfg.get("f1_shape", "cos_x1")), "amplitude": amp1},
            "f2": {"shape": str(cfg.get("f2_shape", "cos_x1")), "amplitude": amp2},
        }
    )
    try:
        run1 = newton_solve(inst.spec(t, f=f1), None, config, t)
        run2 = newton_solve(inst.spec(t, f=f2), None, config, t)
    except (NonconvergenceError, ConeViolationError) as err:
        payload.update({"stage": "solve", "failure": str(err), "exit_code": EXIT_SOLVER})
        print(f"stability: failed ({err})")
        return payload, EXIT_SOLVER
    try:
        record = stability_compare(run1, run2, q)
    except InputError as err:
        raise UsageError(f"stability: {err}") from err
    mask = inst.extras.get("ample_mask", np.ones(inst.grid.shape, dtype=bool))
    payload.update(
        {
            "sup_diff": record.sup_diff,
            "positive_part_norm": record.positive_part_norm,
            "c_implied": record.c_implied,
            "q_star": record.q_star,
            "uniqueness_gap": uniqueness_gap(run1.phi, run2.phi, mask),
            "residual_sup": max(run1.residual_sup, run2.residual_sup),
            "exit_code": EXIT_OK,
        }
    )
    print(f"stability: sup diff {record.sup_diff:.6g}, C implied {record.c_implied:.6g}")
    return payload, EXIT_OK


def cmd_fake_boundary(cfg, args, outdir):
    _require(cfg, {"grid_N", "steps", "tol", "max_newton", "delta1", "dump_fields"}, "fake-boundary")
    N = _grid_N(cfg)
    steps = _number(cfg, "steps", 16, integer=True)
    if steps < 1:
        raise UsageError(f"steps must be >= 1, got {steps}")
    delta1 = _number(cfg, "delta1", None) if "delta1" in cfg else None
    config = _solver_config(cfg, 1e-8)
    dump = _flag(cfg, "dump_fields")
    sample = fake_boundary_sample(N=N)
    payload = _base_payload("fake-boundary", args)
    try:
        inst = prepare_instance(
            sample["g"],
            sample["chi"],
            sample["omega"],
            sample["m"],
            delta1=delta1,
        )
    except (InputError, DomainError, ConstructionError) as err:
        raise UsageError(f"fake-boundary preparation failed: {err}") from err
    payload.update(
        {
            "grid_N": N,
            "c": inst.c,
            "theta0": inst.theta0,
            "b_prime": inst.b_prime,
            "delta1": inst.delta1,
            "log_rescale": inst.log_rescale,
        }
    )
    csv_name = "stages.csv"
    try:
        result = two_stage_solve(
            inst, config, csv_path=os.path.join(outdir, csv_name), steps=steps
        )
    except (NonconvergenceError, ConeViolationError, ConstructionError) as err:
        payload.update({"stage": "two-stage", "failure": str(err), "exit_code": EXIT_SOLVER})
        print(f"fake-boundary: failed ({err})")
        return payload, EXIT_SOLVER
    final = result.records[-1]
    # the two-stage state solves the stored (rescaled) equation, so its
    # volume floor uses the stored minimum of g, not the original one
    effective_c = math.exp(result.b) * inst.g_min
    n, m = inst.grid.n, inst.m
    volume_slack = volume_lower_bound_check(result.final_state, effective_c * (1.0 - 1e-6) ** ((n - m) / n))
    payload.update(
        {
            "stage_csv": csv_name,
            "steps": steps,
            "records": len(result.records),
            "b_stage1": result.b_stage1,
            "b": result.b,
            "final_residual": final["residual_sup"],
            "min_band_slack": min(rec["min_band_slack"] for rec in result.records),
            "min_cone_margin": min(rec["min_cone_margin"] for rec in result.records),
            "assertions": {
                "b_negative": bool(result.b < 0.0),
                "b_le_b_prime": bool(result.b <= inst.b_prime),
                "band_positive": bool(all(rec["min_band_slack"] > 0.0 for rec in result.records)),
                "volume_floor": bool(volume_slack >= 0.0),
            },
            "exit_code": EXIT_OK,
        }
    )
    if dump:
        dump_fields(os.path.join(outdir, "fields"), inst.grid, {"phi": result.phi, "g2": inst.g2})
        payload["field_dump"] = "fields"
    print(
        f"fake-boundary: b {result.b:.12g} <= b' {inst.b_prime:.12g}, "
        f"residual {final['residual_sup']:.3e}"
    )
    return payload, EXIT_OK


def cmd_selftest(cfg, args, outdir):
    _require(cfg, {"suites", "trials"}, "selftest")
    names = None
    if "suites" in cfg:
        names = [tok.strip() for tok in str(cfg["suites"]).split(",") if tok.strip()]
    kwargs = {"seed": args.seed, "quick": bool(args.quick)}
    trials = _number(cfg, "trials", None, integer=True) if "trials" in cfg else None
    if trials is not None and trials < 1:
        raise UsageError(f"trials must be >= 1, got {trials}")
    if trials is not None and not args.quick:
        kwargs["trials"] = trials
    try:
        reports = run_suites(names=names, **kwargs)
    except KeyError as err:
        raise UsageError(str(err)) from err
    payload = _base_payload("selftest", args)
    payload["suites"] = [
        {
            "name": rep.name,
            "trials": rep.trials,
            "seed": rep.seed,
            "checks": rep.checks,
            "worst_ratio": rep.worst_ratio,
            "worst_check": rep.worst_check,
            "passed": rep.passed,
        }
        for rep in reports
    ]
    all_passed = all(rep.passed for rep in reports)
    payload["all_passed"] = all_passed
    payload["exit_code"] = EXIT_OK if all_passed else EXIT_VIOLATED
    for rep in reports:
        print(rep.line())
    return payload, payload["exit_code"]


COMMANDS = {
    "check-cone": cmd_check_cone,
    "solve": cmd_solve,
    "continue": cmd_continue,
    "stability": cmd_stability,
    "fake-boundary": cmd_fake_boundary,
    "selftest": cmd_selftest,
}

def build_parser():
    parser = _Parser(prog="hessquot", description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None, help="flat key=value config file")
    parser.add_argument("--out", default=None, help="output directory for artifacts")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="u64 seed for random suites")
    parser.add_argument("--quick", action="store_true", help="self-test with 10^2 trials, not 10^4")
    return parser


def _escaped(err, code):
    """Report a library error no command handled: one stderr line, the contract's code."""
    print(f"{type(err).__name__}: {' '.join(str(err).split())}", file=sys.stderr)
    return code


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not 0 <= args.seed < 2**64:
            raise UsageError(f"--seed must fit in u64, got {args.seed}")
        cfg = load_config(args.config)
        if args.out is None:
            raise UsageError("--out DIR is required")
        os.makedirs(args.out, exist_ok=True)
        echo_config(
            cfg, args.out, {"command": args.command, "seed": args.seed, "quick": args.quick}
        )
        start = time.perf_counter()
        payload, code = COMMANDS[args.command](cfg, args, args.out)
        write_summary(args.out, payload)
        print(f"wrote {os.path.join(args.out, SUMMARY_NAME)} ({time.perf_counter() - start:.2f}s)")
        return code
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (InputError, DomainError) as err:
        return _escaped(err, EXIT_USAGE)
    except (NonconvergenceError, ConeViolationError, ConstructionError) as err:
        return _escaped(err, EXIT_SOLVER)


if __name__ == "__main__":
    sys.exit(main())
