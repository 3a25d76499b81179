"""bench/tracing.py wraps evaluation by name; each approximant method must
reach exactly one wrapper, and Padé none of the barycentric ones."""

import numpy as np
import pytest

from unirat import (BarycentricInterpolant, CayleyApproximant, NonInterpolatoryApproximant,
                    PadeApproximant)

from conftest import load_script

tracing = load_script("bench", "tracing.py")

SUPPORT = np.array([-2.0, -0.5, 1.0, 2.5])
W = np.array([0.3 + 0.1j, -0.7, 0.4 - 0.2j, 0.5j])

APPROXIMANTS = [BarycentricInterpolant(SUPPORT, W), CayleyApproximant(SUPPORT, W),
                NonInterpolatoryApproximant(SUPPORT, np.conj(W[::-1]), W), PadeApproximant(5)]


@pytest.mark.parametrize("r", APPROXIMANTS, ids=lambda r: type(r).__name__)
@pytest.mark.parametrize("method", ["eval", "denominator"])
def test_one_traced_call_per_method(r, method):
    group = "pade" if isinstance(r, PadeApproximant) else "barycentric"
    x = np.linspace(-3.0, 3.0, 7)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        tracer.active = True
        getattr(r, method)(x)
    calls = {k: v for k, v in tracer.counts.items() if k.endswith(".calls")}
    assert calls == {f"{group}.{method}.calls": 1}
