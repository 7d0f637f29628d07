"""Synthetic benchmark designs with stored ground truth.

Every design draws both potential outcomes with independent noise per arm,
records the observed arm's latent draw as z_true, and satisfies
y = c(x) + tau_true * t + z_true exactly for its control surface c(x)
(noise scale 1 throughout).  generate draws from a design by name; the same
names key config.DESIGN_SURFACES, so the design also chooses the model a run
fits to its data.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .engine import Dataset

# covariate width of the linear_ate design
LINEAR_ATE_D = 4

# E s(U) for U uniform on [0, 1] is exactly 1: s(u) + s(1 - u) = 2
S_MEAN = 1.0


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function, numerically safe on both tails."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def s_curve(a):
    """Steep logistic ramp 2 / (1 + exp(-12 (a - 1/2))), hitting 1 at a = 1/2."""
    out = 2.0 * sigmoid(12.0 * (np.asarray(a, dtype=np.float64) - 0.5))
    return out if out.ndim else float(out)


def nonlinear_tau(x: np.ndarray) -> np.ndarray:
    """Effect surface 1 + s(x1) s(x2) - E[s(x1) s(x2)] of the nonlinear designs."""
    x = np.atleast_2d(x)
    return 1.0 + s_curve(x[:, 0]) * s_curve(x[:, 1]) - S_MEAN ** 2


def nonlinear_propensity(x: np.ndarray) -> np.ndarray:
    """Treatment probability (1 + I_x1(2, 4)) / 4, bounded in [1/4, 1/2], with
    the Beta(2, 4) CDF in closed form, I_x(2, 4) = 1 - (1 - x)^4 (1 + 4x)."""
    x1 = np.atleast_2d(x)[:, 0]
    return (1.0 + (1.0 - (1.0 - x1) ** 4 * (1.0 + 4.0 * x1))) / 4.0


def example2_c(x: np.ndarray) -> np.ndarray:
    """Control surface 2 x1 / (1 + 5 x2^2) of the second nonlinear design."""
    x = np.atleast_2d(x)
    return 2.0 * x[:, 0] / (1.0 + 5.0 * x[:, 1] ** 2)


def _assemble(x, t, c, tau, z0, z1) -> Dataset:
    y0 = c + z0
    y1 = c + tau + z1
    t = t.astype(np.int64)
    return Dataset(
        x=x,
        t=t,
        y=np.where(t == 1, y1, y0),
        z_true=np.where(t == 1, z1, z0),
        tau_true=tau,
        y1=y1,
        y0=y0,
    )


def gen_linear_ate(n: int, seed: int) -> Dataset:
    """LINEAR_ATE_D Gaussian covariates, constant effect 1, logistic assignment.

    y = tau t + mu + x beta + z with tau = mu = 1, beta alternating (-1, 1, ...),
    P(T=1|x) = logistic(1 + x xi) with xi = beta.
    """
    d = LINEAR_ATE_D
    rng = np.random.default_rng(seed)
    coef = np.array([(-1.0) ** j for j in range(1, d + 1)])
    x = rng.standard_normal((n, d))
    p = sigmoid(1.0 + x @ coef)
    t = rng.random(n) < p
    z0 = rng.standard_normal(n)
    z1 = rng.standard_normal(n)
    c = 1.0 + x @ coef
    return _assemble(x, t, c, np.ones(n), z0, z1)


def _gen_nonlinear(n: int, seed: int, c_of, d: int) -> Dataset:
    """Uniform covariates on [0,1]^d, control surface c_of(x), the nonlinear
    effect surface and the bounded propensity, both driven by (x1, x2)."""
    rng = np.random.default_rng(seed)
    x = rng.random((n, d))
    p = nonlinear_propensity(x)
    t = rng.random(n) < p
    z0 = rng.standard_normal(n)
    z1 = rng.standard_normal(n)
    return _assemble(x, t, c_of(x), nonlinear_tau(x), z0, z1)


# each design's generator (n, seed) -> Dataset, by the name a config gives it:
# example1 has the linear control surface 1 + x1 + x2 on two covariates, and
# example2 the nonlinear example2_c on five, whose trailing three are noise
GENERATORS = {
    "linear_ate": gen_linear_ate,
    "example1": partial(_gen_nonlinear, c_of=lambda x: 1.0 + x[:, 0] + x[:, 1], d=2),
    "example2": partial(_gen_nonlinear, c_of=example2_c, d=5),
}


def generate(design: str, n: int, seed: int = 0) -> Dataset:
    """n rows of the named design, drawn from seed."""
    return GENERATORS[design](n, seed)

