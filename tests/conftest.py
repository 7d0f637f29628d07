import numpy as np
import pytest

from fidte.engine import Standardizer
from fidte.prior import RHO, SIGMA0, SIGMA1

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


def lse_log_prior_grad(w, scale=None):
    """Reference gradient of the mixture prior, by log-sum-exp responsibilities.

    The form fidte.prior used before its one-exp responsibility: both
    weighted component log densities, r_c = exp(a_c - logsumexp), and
    -w (r1 / SIGMA1^2 + r0 / SIGMA0^2).  Its squares overflow for |w| past
    ~1e153, so it is a reference only below that.
    """
    w = np.asarray(w, dtype=np.float64)
    inv = 1.0
    if scale is not None:
        s = np.broadcast_to(np.asarray(scale, dtype=np.float64), w.shape)
        w = w / s
        inv = 1.0 / s
    log_2pi = np.log(2.0 * np.pi)
    a1 = np.log(RHO) - 0.5 * log_2pi - np.log(SIGMA1) - 0.5 * (w / SIGMA1) ** 2
    a0 = np.log1p(-RHO) - 0.5 * log_2pi - np.log(SIGMA0) - 0.5 * (w / SIGMA0) ** 2
    lse = np.logaddexp(a1, a0)
    r1 = np.exp(a1 - lse)
    r0 = np.exp(a0 - lse)
    return -w * (r1 / SIGMA1**2 + r0 / SIGMA0**2) * inv
