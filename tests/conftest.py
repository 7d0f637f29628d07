import numpy as np
import pytest

from fidte.engine import Standardizer

# Standardizer that leaves covariates and outcomes as they are: the solve
# then runs in data units, which makes hand-computed expectations simple.
IDENTITY_SCALER = Standardizer(x_mean=np.zeros(1), x_std=np.ones(1), y_mean=0.0, y_std=1.0)


def central_diff(f, x, h=1e-6):
    """Central finite-difference gradient of scalar f at vector x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def assert_grad_close(analytic, numeric, rtol=1e-4, atol=1e-7):
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
