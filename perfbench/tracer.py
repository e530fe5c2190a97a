"""Out-of-program tracing for the benchmark's traced pass.

Two instruments, both installed from outside ``framecs`` and removed again:

* Module spans.  Every public function defined in a layer module is
  wrapped, and every reference to it in any loaded ``framecs`` module is
  swapped for the wrapper, so calls made through ``from .x import y``
  bindings are seen too.  Functions are found by introspection, so a
  renamed or merged function inside a layer stays attributed to it.
  Time is charged to the innermost open span (self time), so the layer
  times of a trial sum to the trial's duration.
* LAPACK counts.  ``numpy.linalg`` reaches LAPACK only through the gufuncs
  of ``numpy.linalg._umath_linalg``; a proxy for that module counts each
  matrix handed to a gufunc (a batched call counts every matrix in the
  batch, and ``np.linalg.norm(x, 2)`` shows up as its SVD).
"""

import contextlib
import functools
import importlib
import inspect
import math
import sys
import time
from collections import Counter

import numpy.linalg._linalg as _np_linalg

LAYERS = ("frames", "sensing", "drip", "guarantees", "solvers", "experiment")

# the time of a trial that no layer span covers is charged here: for trials
# that go through run_trial this is run_trial's own code, for the audit loop
# it is the loop's own code
TRIAL = "experiment"

LAPACK_KINDS = {
    "svd": "svd", "svd_f": "svd", "svd_s": "svd",
    "eigh_lo": "eigh", "eigh_up": "eigh",
    "eigvalsh_lo": "eigh", "eigvalsh_up": "eigh",
    "lstsq": "lstsq",
}


class _CountingLinalg:
    """Stands in for ``numpy.linalg._umath_linalg`` while tracing."""

    def __init__(self, real, tracer):
        self._real = real
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._real, name)
        if name.startswith("_") or not callable(attr):
            return attr
        kind = LAPACK_KINDS.get(name, "other")
        tracer = self._tracer

        def counted(a, *args, **kwargs):
            tracer.count_lapack(kind, math.prod(a.shape[:-2]))
            return attr(a, *args, **kwargs)

        setattr(self, name, counted)  # later lookups skip __getattr__
        return counted


class Tracer:
    """Spans and counters for one traced pass; install() ... uninstall()."""

    def __init__(self):
        self.self_s = Counter()        # layer -> self time (s)
        self.entries = Counter()       # layer -> calls entering it from elsewhere
        self.lapack = Counter()        # kind -> matrices
        self.lapack_by_layer = Counter()  # (layer, kind) -> matrices
        self.solver_iters = 0
        self.audit_records = 0
        self.solver_results = []       # (A, y, eps, f_hat) per solver entry
        self.spans = []                # (trial, layer, name, start, end, parent)
        self._stack = []               # [layer, start, covered, span index]
        self._trial = None
        self._originals = {}
        self._patched = []
        self._real_linalg = None

    # -- LAPACK ------------------------------------------------------------

    def count_lapack(self, kind, matrices):
        self.lapack[kind] += matrices
        layer = self._stack[-1][0] if self._stack else None
        self.lapack_by_layer[(layer, kind)] += matrices

    # -- spans -------------------------------------------------------------

    def _open(self, layer, name):
        parent = self._stack[-1][3] if self._stack else -1
        index = len(self.spans)
        self.spans.append([self._trial, layer, name, 0.0, 0.0, parent])
        start = time.perf_counter()
        self.spans[index][3] = start
        self._stack.append([layer, start, 0.0, index])

    def _close(self):
        end = time.perf_counter()
        layer, start, covered, index = self._stack.pop()
        self.spans[index][4] = end
        self.self_s[layer] += (end - start) - covered
        if self._stack:
            self._stack[-1][2] += end - start

    @contextlib.contextmanager
    def trial(self, label):
        """Span around one trial; the time no layer span covers is TRIAL's."""
        self._trial = label
        self._open(TRIAL, "trial")
        try:
            yield
        finally:
            self._close()
            self._trial = None

    def _wrap(self, layer, func):
        tracer = self
        name = "%s.%s" % (layer, func.__name__)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            entering = not tracer._stack or tracer._stack[-1][0] != layer
            if entering:
                tracer.entries[layer] += 1
            tracer._open(layer, name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close()
            if entering:
                tracer._observe(layer, args, result)
            return result

        return traced

    def _observe(self, layer, args, result):
        if layer == "solvers" and hasattr(result, "iterations"):
            self.solver_iters += int(result.iterations)
            model = next((a for a in args if hasattr(a, "epsilon")), None)
            if model is not None:
                self.solver_results.append(
                    (model.A, model.y, float(model.epsilon), result.f_hat))
        elif (layer == "guarantees" and isinstance(result, list)
              and result and all(hasattr(r, "holds") for r in result)):
            self.audit_records += len(result)

    # -- install / uninstall ------------------------------------------------

    def install(self):
        for layer in LAYERS:
            module = importlib.import_module("framecs." + layer)
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    self._originals[id(obj)] = (obj, self._wrap(layer, obj))
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "framecs"
                                      or modname.startswith("framecs.")):
                continue
            for attr, obj in list(vars(module).items()):
                hit = self._originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, obj))
        self._real_linalg = _np_linalg._umath_linalg
        _np_linalg._umath_linalg = _CountingLinalg(self._real_linalg, self)
        return self

    def uninstall(self):
        if self._real_linalg is not None:
            _np_linalg._umath_linalg = self._real_linalg
            self._real_linalg = None
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()
        self._originals.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False
