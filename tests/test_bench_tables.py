"""bench/workloads.py restates the paper's figure fits; its copy must agree
with the CLI's ``FIGURE_FITS``."""

from unirat import AaaConfig
from unirat.cli import FIGURE_FITS, FIGURE_TOL

from conftest import load_script

workloads = load_script("bench", "workloads.py")


def test_figure_fits_match_the_cli_table():
    assert workloads.FIGURE_TOL == FIGURE_TOL
    assert set(workloads.FIGURE_FITS) == set(FIGURE_FITS)
    for name, kwargs in workloads.FIGURE_FITS.items():
        # built as the figure-fits workload builds it
        bench = AaaConfig(tol=workloads.FIGURE_TOL, **kwargs)
        for field in ("m_max", "variant", "n_lawson", "tol"):
            assert getattr(bench, field) == getattr(FIGURE_FITS[name], field), (name, field)
