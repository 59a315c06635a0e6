"""hessquot benchmark: time to a checked solution on three solver workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`. One process runs one workload as a closed loop with a single caller:
four timed set-ups, then timed set-up-and-solve pairs until S seconds have
passed and the workload's minimum number of solves is reached. Every solve must pass its correctness
gate. With --trace 0 the last stdout line reports the end-to-end metrics
(median solve_s and setup_s, peak_rss_mb). With --trace 1 the same untraced
loop runs, then one traced set-up and solve, and the last line reports the
per-layer split instead; the spans go to perfbench/out/. The line before the
last holds the machine facts, the samples and the solver counts.
See perfbench/README.md for why each workload and metric is there.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
SETUP_REPEATS = 5
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
LAYERS = ("torus", "pointwise", "symfunc", "solver", "fakeboundary", "instances")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def solve_counts(probe):
    """Counts that must repeat exactly between runs, traced or not."""
    return {
        "newton_steps": probe.newton_steps,
        "krylov_iters": probe.krylov_iters,
        "matvec_calls": probe.calls["solver.matvec"],
        "psolve_calls": probe.calls["solver.psolve"],
    }


def layer_metrics(probe, untraced_solve_s):
    """Per-layer metrics from a probe holding one 'setup' and one 'solve' span.

    `.s` is self time. Function metrics cover both phases; the layer.* split
    covers the solve only and, with layer.unattributed.s (time in the solve
    not inside any traced call), sums to trace.solve_s.
    """
    from tracing import END, NAME, PARENT, RAISED, START

    spans = probe.spans
    own = probe.self_times()
    roots = probe.roots()
    top = {s[NAME]: i for i, s in enumerate(spans) if s[PARENT] < 0}
    solve = top["solve"]
    self_s = defaultdict(float)
    layer = dict.fromkeys(LAYERS, 0.0)
    for i, s in enumerate(spans):
        self_s[s[NAME]] += own[i]
        if roots[i] == solve and i != solve:
            layer[s[NAME].split(".")[0]] += own[i]

    def under(name, parent):
        return [s for s in spans if s[NAME] == name and s[PARENT] >= 0
                and spans[s[PARENT]][NAME] == parent]

    calls = probe.calls
    # each newton_solve evaluates its start once, then one eigensystem per trial point
    trials = len(under("pointwise.eigensystem_rel", "solver.newton_solve")) - calls["solver.newton_solve"]
    attempts = under("solver.newton_solve", "fakeboundary.two_stage_solve")
    accepted = sum(not s[RAISED] for s in attempts)
    solve_s = spans[solve][END] - spans[solve][START]
    setup_s = spans[top["setup"]][END] - spans[top["setup"]][START]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "torus.fft.calls": (calls["torus.fft"], "count"),
        "torus.fft.s": (self_s["torus.fft"], "s"),
        "torus.fft.computed_bytes": (probe.fft_bytes, "B"),
        "torus.complex_hessian.calls": (calls["torus.complex_hessian"], "count"),
        "torus.complex_hessian.s": (self_s["torus.complex_hessian"], "s"),
        "torus.form_eigenvalues.s": (self_s["torus.form_eigenvalues"], "s"),
        "solver.newton_solve.calls": (calls["solver.newton_solve"], "count"),
        "solver.newton_solve.s": (self_s["solver.newton_solve"], "s"),
        "solver.newton_steps": (probe.newton_steps, "count"),
        "solver.krylov_iters": (probe.krylov_iters, "count"),
        "solver.matvec.calls": (calls["solver.matvec"], "count"),
        "solver.matvec.s": (self_s["solver.matvec"], "s"),
        "solver.psolve.calls": (calls["solver.psolve"], "count"),
        "solver.psolve.s": (self_s["solver.psolve"], "s"),
        "solver.lgmres.s": (self_s["solver.lgmres"], "s"),
        "solver.strip_kernel_modes.calls": (calls["solver.strip_kernel_modes"], "count"),
        "solver.strip_kernel_modes.s": (self_s["solver.strip_kernel_modes"], "s"),
        "solver.quadrature_b.s": (self_s["solver.quadrature_b"], "s"),
        "solver.trial_points": (trials, "count"),
        "solver.step_accept_ratio": (ratio(probe.newton_steps, trials), "ratio"),
        "pointwise.eigensystem_rel.calls": (calls["pointwise.eigensystem_rel"], "count"),
        "pointwise.eigensystem_rel.s": (self_s["pointwise.eigensystem_rel"], "s"),
        "pointwise.linearization_coefficients.s": (self_s["pointwise.linearization_coefficients"], "s"),
        "pointwise.residual_inverse_form.s": (self_s["pointwise.residual_inverse_form"], "s"),
        "pointwise.cone_margin.s": (self_s["pointwise.cone_margin"], "s"),
        "symfunc.elementary_sym.calls": (calls["symfunc.elementary_sym"], "count"),
        "symfunc.elementary_sym.s": (self_s["symfunc.elementary_sym"], "s"),
        "instances.build.s": (sum(v for k, v in self_s.items() if k.startswith("instances.")), "s"),
        "fakeboundary.prepare_instance.s": (self_s["fakeboundary.prepare_instance"], "s"),
        "fakeboundary.solve_attempts": (len(attempts), "count"),
        "fakeboundary.step_accept_ratio": (ratio(accepted, len(attempts)), "ratio"),
    }
    for name in LAYERS:
        m[f"layer.{name}.s"] = (layer[name], "s")
    m["layer.unattributed.s"] = (own[solve], "s")
    m["trace.setup_s"] = (setup_s, "s")
    m["trace.solve_s"] = (solve_s, "s")
    m["trace_overhead_s"] = (solve_s - untraced_solve_s, "s")
    # no double counting: self times are non-negative and add up to the solve
    split = sum(layer.values()) + own[solve]
    consistent = min(own) >= -1e-9 and abs(split - solve_s) <= 1e-9 * max(solve_s, 1.0)
    return m, consistent


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "hessquot" / "__init__.py").is_file():
        print(f"no hessquot sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(ROOT / "src"))

    import numpy
    import scipy
    from hessquot.errors import (
        ConeViolationError, ConstructionError, DomainError, InputError, NonconvergenceError,
    )
    from tracing import Probe
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    library_errors = (
        ConeViolationError, ConstructionError, DomainError, InputError, NonconvergenceError,
    )

    def timed_setup():
        gc.collect()
        t0 = perf_counter()
        inputs = wl.setup(args.seed)
        setup_samples.append(perf_counter() - t0)
        return inputs

    def attempt(inputs):
        """The solve call; returns (result, None) or (None, why it failed)."""
        try:
            return wl.solve(inputs), None
        except library_errors as exc:
            return None, f"{type(exc).__name__}: {exc}"

    setup_samples, solve_samples, counts, failures = [], [], [], []
    for _ in range(SETUP_REPEATS - 1):
        timed_setup()
    start = perf_counter()
    while True:
        # a fresh input per solve: a FormField caches its matrices, so a reused
        # input would skip work; nothing from the last solve stays alive
        inputs = timed_setup()
        probe = Probe(spans=False)
        gc.collect()
        with probe.installed():
            t0 = perf_counter()
            result, failure = attempt(inputs)
            solve_samples.append(perf_counter() - t0)
        counts.append(solve_counts(probe))
        failures.append(failure or wl.gate(inputs, result))
        del inputs, result
        if perf_counter() - start >= args.seconds and len(solve_samples) >= wl.min_solves:
            break
    solve_s = statistics.median(solve_samples)
    ok = all(c == counts[0] for c in counts)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "machine": {
            "cpu_count": os.cpu_count(),
            "thread_cap": nproc,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "setup_s": setup_samples,
        "solve_s": solve_samples,
        "counts": counts[0],
    }

    if args.trace:
        probe = Probe(spans=True)
        gc.collect()
        with probe.installed():
            with probe.span("setup"):
                inputs = wl.setup(args.seed)
            with probe.span("solve"):
                result, failure = attempt(inputs)
        failures.append(failure or wl.gate(inputs, result))
        info["traced_counts"] = solve_counts(probe)
        metrics, consistent = layer_metrics(probe, solve_s)
        ok = ok and consistent and info["traced_counts"] == counts[0]
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        t_zero = probe.spans[0][1]
        with open(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump({
                "info": info,
                "metrics": {k: v for k, (v, _) in metrics.items()},
                "spans": [[s[0], s[1] - t_zero, s[2] - t_zero, s[3], s[4]] for s in probe.spans],
            }, fh)
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        metrics = {
            "solve_s": (solve_s, "s"),
            "setup_s": (statistics.median(setup_samples), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }

    failed = sum(1 for f in failures if f)
    info["failures"] = [f for f in failures if f]
    print(json.dumps(info))
    print(json.dumps({
        "correct": ok and failed == 0,
        "attempted": len(failures),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
