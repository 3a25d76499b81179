"""Span tracing of unirat's public functions, installed from outside the package.

Each traced function is replaced, for the duration of ``instrument``, by a
wrapper that records a span ``(group, start, end, parent)`` in memory and adds
counts taken from its arguments and result.  A wrapper is installed at every
``unirat`` module attribute bound to the original function, because callers
look functions up where they imported them:

* ``aaa``, ``lawson`` and ``loewner`` import ``svd_real``/``svd_complex`` by
  name, so those bindings are replaced as well as the ones in ``linalg``;
* ``svd_complex`` calls ``svd_real`` through ``linalg``'s globals, so its
  embedded real SVD is a child span and ``svd_complex``'s self time is the
  embedding, pairing and U-build work alone;
* ``aaa_fit`` imports ``lawson_fit`` lazily from ``unirat.lawson`` at call time,
  which picks up the wrapper;
* ``unirat.loewner`` as a package attribute is the ``loewner`` function, so
  modules are reached through ``sys.modules``.

Approximant methods (``denominator``, Pade ``eval``) are wrapped on their
classes; the barycentric ``eval`` methods dispatch to module functions, which
are wrapped there.  A layer's self time is its spans' time minus their child
spans' time.
"""

import importlib
import os
import sys
import time
from collections import defaultdict

import numpy as np

_MODULES = ("linalg", "loewner", "aaa", "lawson", "barycentric", "pade",
            "diagnostics", "cli")


def _matrix(counts, group, args, kwargs, out):
    rows, cols = np.shape(args[0])
    counts[group + ".elems"] += rows * cols
    counts[group + ".work"] += rows * cols * cols


def _aaa(counts, group, args, kwargs, out):
    iterations = out[1].iterations
    counts["aaa.iterations"] += len(iterations)
    counts["aaa.degenerate"] += sum(it.degenerate for it in iterations)


def _lawson(counts, group, args, kwargs, out):
    counts["lawson.steps"] += len(out[1].steps)


def _eval(counts, group, args, kwargs, out):
    points = np.size(args[1])
    counts[group + ".points"] += points
    # one n x m complex temporary per partial-fraction sum (computed size)
    counts[group + ".bytes"] += points * np.size(args[0].support) * 16


def _points(counts, group, args, kwargs, out):
    counts[group + ".points"] += np.size(args[1])


def _written(counts, group, args, kwargs, out):
    if isinstance(args[0], str):
        counts[group + ".bytes"] += os.path.getsize(args[0])


# (group, module, function names, counter).  Counted groups also get ".calls".
FUNCTIONS = (
    ("linalg.svd_real", "linalg", ("svd_real",), _matrix),
    ("linalg.svd_complex", "linalg", ("svd_complex",), _matrix),
    ("loewner.build", "loewner",
     ("NodeSet", "phase_diagonals", "cauchy", "loewner", "weighted_loewner",
      "rescaled_loewner", "modified_cauchy", "expanded_loewner", "bhat"), None),
    ("loewner.extract", "loewner",
     ("min_singular_coefficients", "min_singular_pair"), None),
    ("aaa", "aaa", ("aaa_fit",), _aaa),
    ("lawson", "lawson", ("lawson_fit",), _lawson),
    ("barycentric.eval", "barycentric",
     ("eval_interpolant", "eval_cayley", "eval_noninterpolatory"), _eval),
    ("diagnostics.max_error", "diagnostics", ("max_error",), None),
    ("diagnostics.unitarity_deviation", "diagnostics", ("unitarity_deviation",), None),
    ("diagnostics.pole_scan", "diagnostics", ("real_axis_pole_scan",), None),
    ("cli.write", "cli", ("write_csv", "write_json", "approximant_to_dict"), _written),
)

# (group, module, class names, method name, counter)
METHODS = (
    ("barycentric.denominator", "barycentric",
     ("BarycentricInterpolant", "CayleyApproximant", "NonInterpolatoryApproximant"),
     "denominator", None),
    ("pade.eval", "pade", ("PadeApproximant",), "eval", _points),
    ("pade.denominator", "pade", ("PadeApproximant",), "denominator", None),
)

GROUPS = tuple(g for g, *_ in FUNCTIONS) + tuple(g for g, *_ in METHODS)


def _module(name):
    return importlib.import_module("unirat." + name)


class Tracer:
    """In-memory span recorder; records only while ``active`` is true."""

    def __init__(self):
        self.active = False
        self.spans = []  # (group, start, end, parent index or -1)
        self.counts = defaultdict(int)
        self._stack = []

    def wrap(self, group, fn, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (group, start, end, parent)
            tracer.counts[group + ".calls"] += 1
            if counter is not None:
                counter(tracer.counts, group, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", group)
        return wrapper

    def self_times(self):
        """Self seconds per group: span durations minus their children's."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        out = dict.fromkeys(GROUPS, 0.0)
        for (group, *_), t in zip(self.spans, own):
            out[group] += t
        return out

    def root_seconds(self):
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)


class instrument:
    """Context manager installing ``tracer``'s wrappers into the loaded
    ``unirat`` modules and restoring the originals on exit."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._undo = []

    def __enter__(self):
        modules = [sys.modules["unirat"]] + [_module(m) for m in _MODULES]
        try:
            for group, home, names, counter in FUNCTIONS:
                for name in names:
                    original = getattr(_module(home), name)
                    wrapper = self.tracer.wrap(group, original, counter)
                    for mod in modules:
                        if getattr(mod, name, None) is original:
                            self._set(mod, name, wrapper)
            for group, home, classes, method, counter in METHODS:
                for cls_name in classes:
                    cls = getattr(_module(home), cls_name)
                    original = cls.__dict__[method]
                    self._set(cls, method, self.tracer.wrap(group, original, counter))
        except BaseException:
            self._restore()
            raise
        return self.tracer

    def _set(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _restore(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def __exit__(self, *exc):
        self._restore()
        return False
