"""Shared fixtures and node-set helpers for the test suite."""

import importlib.util
import os
import time
from dataclasses import replace

import numpy as np
import pytest

import unirat
from unirat import aaa_fit
from unirat.barycentric import _partial_fraction
from unirat.cli import EVAL_INTERVAL, EVAL_NODES, FIGURE_FITS, FIT_INTERVAL, FIT_NODES

# Subprocesses started by the tests import the same package as the tests do.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [os.path.dirname(os.path.dirname(unirat.__file__)),
                  os.environ.get("PYTHONPATH")]))

#: The repository root, which holds the scripts under bench/ and tools/.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_script(*path):
    """The module of a script outside the package, at ``path`` below the
    repository root (or at an absolute path), named after its file."""
    path = os.path.join(ROOT, *path)
    name = os.path.splitext(os.path.basename(path))[0]
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def partial_fraction(coeff, support, x):
    """The blocks of ``barycentric._partial_fraction`` joined: the sums at
    every point of x, scaled where the kernel scales them, and per point the
    index of the support node it hits (-1 for none)."""
    sums = np.empty(coeff.shape[:-1] + x.shape, dtype=complex)
    node = np.full(x.size, -1)
    for start, block, hits, hit_node, *_ in _partial_fraction(coeff, support, x):
        sums[..., start:start + block.shape[-1]] = block
        node[start + hits] = hit_node
    return sums, node


def pade_numerator(p, x):
    """p(ix) of the Pade approximant p at the points x: the conjugate of its
    denominator q = conj(p(ix))."""
    return np.conj(p.denominator(x))


def figure_aaa_config(variant):
    """The AAA stage of the variant's figure AAA-Lawson fit: its entry of the
    CLI's ``FIGURE_FITS`` without the Lawson steps."""
    [config] = [c for c in FIGURE_FITS.values() if c.variant == variant and c.n_lawson]
    return replace(config, n_lawson=0)


@pytest.fixture(scope="session")
def figure_fits():
    """The four fits behind the error/unitarity figures, built from the CLI's
    own ``FIGURE_FITS``, with per-fit times.

    Keys map to (approximant, trace, seconds).  Built once per session; the
    acceptance tests add the relevant build times to their own budgets.
    """
    out = {}
    for name, config in FIGURE_FITS.items():
        t0 = time.perf_counter()
        approx, trace = aaa_fit(FIT_GRID, config)
        out[name] = (approx, trace, time.perf_counter() - t0)
    return out
