"""Spans and counters recorded from outside hessquot, by rebinding its names.

A Probe replaces every module-level binding of a traced callable with a
wrapper, so a call is seen whichever module it is made from:
`complex_hessian` is bound in `hessquot.torus`, `hessquot.solver` and
`hessquot.instances`, and patching only the defining module would miss the
solver's calls. `hessquot.solver.LinearOperator` is wrapped too, so the
matvec and preconditioner closures the solver builds get spans of their own.

With spans=False a probe only counts: Newton steps and Krylov iterations
(read from the SolverState each `newton_solve` returns or carries on its
NonconvergenceError) and matvec / psolve calls. That is cheap enough for the
untraced runs, so counts can be compared between traced and untraced solves.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np
import numpy.fft
import scipy.fft
from hessquot import fakeboundary, instances, pointwise, solver, symfunc, torus
from hessquot.errors import NonconvergenceError

# layers on the benchmark's paths; cli, degiorgi and selfcheck are not
TRACED_MODULES = {
    "symfunc": symfunc, "pointwise": pointwise, "torus": torus,
    "solver": solver, "instances": instances, "fakeboundary": fakeboundary,
}
FFT_MODULES = (numpy.fft, scipy.fft)
FFT_NAMES = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
)

# span fields
NAME, START, END, PARENT, RAISED = range(5)


class Probe:
    """Wraps hessquot's callables while installed; keeps spans in memory."""

    def __init__(self, spans=True):
        self.record = spans
        self.spans = []        # [name, start, end, parent index or -1, raised]
        self.calls = Counter()
        self.newton_steps = 0
        self.krylov_iters = 0
        self.fft_bytes = 0     # input plus output array bytes, from array sizes
        self._stack = []
        self._patches = []

    # -- recording -------------------------------------------------------

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, False])
        self._stack.append(idx)
        try:
            yield
        except BaseException:
            self.spans[idx][RAISED] = True
            raise
        finally:
            self._stack.pop()
            self.spans[idx][END] = perf_counter()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            if not self.record:
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _count_steps(self, fn):
        def add(state):
            if state is not None:
                self.newton_steps += state.diagnostics["newton_iters"]
                self.krylov_iters += state.diagnostics["krylov_iters"]

        @functools.wraps(fn)
        def newton_solve(*args, **kwargs):
            try:
                state = fn(*args, **kwargs)
            except NonconvergenceError as err:
                add(err.state)
                raise
            add(state)
            return state
        return newton_solve

    def _count_bytes(self, fn):
        @functools.wraps(fn)
        def fft(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.fft_bytes += np.asarray(args[0]).nbytes + out.nbytes
            return out
        return fft

    def _linear_operator(self, cls):
        def LinearOperator(*args, matvec, **kwargs):
            return cls(*args, matvec=self._wrap(f"solver.{matvec.__name__}", matvec), **kwargs)
        return LinearOperator

    # -- installing --------------------------------------------------------

    def _wrappers(self):
        """Map id(original) -> (original, wrapper) for everything traced."""
        out = {}
        newton = solver.newton_solve
        counted = self._count_steps(newton)
        out[id(newton)] = (newton, self._wrap("solver.newton_solve", counted) if self.record else counted)
        cls = solver.LinearOperator
        out[id(cls)] = (cls, self._linear_operator(cls))
        if not self.record:
            return out
        for short, mod in TRACED_MODULES.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and id(obj) not in out):
                    out[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        out[id(solver.lgmres)] = (solver.lgmres, self._wrap("solver.lgmres", solver.lgmres))
        for mod in FFT_MODULES:
            for attr in FFT_NAMES:
                fn = getattr(mod, attr, None)
                if fn is not None and id(fn) not in out:
                    out[id(fn)] = (fn, self._wrap("torus.fft", self._count_bytes(fn)))
        return out

    def install(self):
        if self._patches:
            raise RuntimeError("probe already installed")
        wrappers = self._wrappers()
        mods = [m for name, m in list(sys.modules.items())
                if name == "hessquot" or name.startswith("hessquot.")]
        for mod in mods + list(FFT_MODULES):
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        while self._patches:
            mod, attr, obj = self._patches.pop()
            setattr(mod, attr, obj)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- reading -----------------------------------------------------------

    def self_times(self):
        """Per span: its duration minus the durations of its direct children."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def roots(self):
        """Index of the top-level span each span descends from."""
        out = []
        for i, s in enumerate(self.spans):
            out.append(i if s[PARENT] < 0 else out[s[PARENT]])
        return out
