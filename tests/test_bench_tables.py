"""bench/workloads.py restates the paper's figure fits; its copy must agree
with the CLI's ``FIGURE_FITS``."""

import importlib.util
import os

from unirat import AaaConfig
from unirat.cli import FIGURE_FITS, FIGURE_TOL

_spec = importlib.util.spec_from_file_location(
    "bench_workloads",
    os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench", "workloads.py"))
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def test_figure_fits_match_the_cli_table():
    assert workloads.FIGURE_TOL == FIGURE_TOL
    assert set(workloads.FIGURE_FITS) == set(FIGURE_FITS)
    for name, kwargs in workloads.FIGURE_FITS.items():
        # built as the figure-fits workload builds it
        bench = AaaConfig(tol=workloads.FIGURE_TOL, **kwargs)
        for field in ("m_max", "variant", "n_lawson", "tol"):
            assert getattr(bench, field) == getattr(FIGURE_FITS[name], field), (name, field)
