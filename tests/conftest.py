"""Shared fixtures and node-set helpers for the test suite."""

import os
import time

import numpy as np
import pytest

import unirat
from unirat.cli import EVAL_INTERVAL, EVAL_NODES, FIT_INTERVAL, FIT_NODES, _figure_fit

# Subprocesses started by the tests import the same package as the tests do.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [os.path.dirname(os.path.dirname(unirat.__file__)),
                  os.environ.get("PYTHONPATH")]))

# Fit/evaluation setup shared by the figure-reproduction tests.
FIT_GRID = np.linspace(*FIT_INTERVAL, FIT_NODES)
EVAL_GRID = np.linspace(*EVAL_INTERVAL, EVAL_NODES)


def separated_nodes(rng, n, m, lo=-15.0, hi=15.0, spacing=1.0):
    """n test and m support nodes with pairwise separation >= spacing/2.

    Roundoff-level tolerance statements about Loewner matrices assume the
    node differences are not tiny; jittered lattice slots guarantee that
    while keeping the draw random.
    """
    slots = np.arange(lo, hi, spacing)[: n + m]
    if slots.size < n + m:
        raise ValueError("interval too small for the requested node count")
    pts = slots + rng.uniform(-0.25 * spacing, 0.25 * spacing, size=n + m)
    rng.shuffle(pts)
    return pts[:n], pts[n:]


@pytest.fixture(scope="session")
def figure_fits():
    """The four fits behind the error/unitarity figures, built by the CLI's
    own ``_figure_fit``, with per-fit times.

    Keys map to (approximant, trace, seconds).  Built once per session; the
    acceptance tests add the relevant build times to their own budgets.
    """
    out = {}
    for name, variant, lawson in (("lawson_mod", "modified", True),
                                  ("aaa_mod", "modified", False),
                                  ("aaa_orig", "original", False),
                                  ("lawson_orig", "original", True)):
        t0 = time.perf_counter()
        approx, trace = _figure_fit(FIT_GRID, variant, lawson)
        out[name] = (approx, trace, time.perf_counter() - t0)
    return out
