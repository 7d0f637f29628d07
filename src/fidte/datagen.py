"""Synthetic benchmark designs with stored ground truth.

Every design draws both potential outcomes with independent noise per arm,
records the observed arm's latent draw as z_true, and satisfies
y = c(x) + tau_true * t + z_true exactly for its control surface c(x)
(noise scale 1 throughout).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .engine import TRUTH_COLUMNS, Dataset
from .nn import sigmoid

DESIGNS = ("linear_ate", "example1", "example2")

# covariate width of the linear_ate design
LINEAR_ATE_D = 4

# E s(U) for U uniform on [0, 1] is exactly 1: s(u) + s(1 - u) = 2
S_MEAN = 1.0


@dataclass(frozen=True)
class GenSpec:
    design: str
    n: int
    seed: int = 0

    def __post_init__(self):
        if self.design not in DESIGNS:
            raise ValueError(f"unknown design {self.design!r}, expected one of {DESIGNS}")
        if self.n < 1:
            raise ValueError("n must be positive")


def beta_cdf(x, a: int, b: int):
    """CDF of Beta(a, b) at x for positive integer shapes.

    Uses the exact binomial tail identity
    I_x(a, b) = sum_{j=a}^{a+b-1} C(a+b-1, j) x^j (1-x)^(a+b-1-j),
    which is closed-form for integer shapes.  x may be scalar or array.
    """
    if not (isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer))):
        raise ValueError("shape parameters must be integers")
    if a < 1 or b < 1:
        raise ValueError(f"shape parameters must be positive, got a={a} b={b}")
    x_arr = np.asarray(x, dtype=np.float64)
    if np.any(x_arr < 0.0) or np.any(x_arr > 1.0):
        raise ValueError("x must lie in [0, 1]")
    m = a + b - 1
    total = np.zeros_like(x_arr)
    for j in range(a, m + 1):
        total += math.comb(m, j) * x_arr**j * (1.0 - x_arr) ** (m - j)
    return total if total.ndim else float(total)


def s_curve(a):
    """Steep logistic ramp 2 / (1 + exp(-12 (a - 1/2))), hitting 1 at a = 1/2."""
    out = 2.0 * sigmoid(12.0 * (np.asarray(a, dtype=np.float64) - 0.5))
    return out if out.ndim else float(out)


def nonlinear_tau(x: np.ndarray) -> np.ndarray:
    """Effect surface 1 + s(x1) s(x2) - E[s(x1) s(x2)] of the nonlinear designs."""
    x = np.atleast_2d(x)
    return 1.0 + s_curve(x[:, 0]) * s_curve(x[:, 1]) - S_MEAN ** 2


def nonlinear_propensity(x: np.ndarray) -> np.ndarray:
    """Treatment probability (1 + F_beta(x1; 2, 4)) / 4, bounded in [1/4, 1/2]."""
    x = np.atleast_2d(x)
    return (1.0 + beta_cdf(x[:, 0], 2, 4)) / 4.0


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


def gen_linear_ate(spec: GenSpec) -> Dataset:
    """LINEAR_ATE_D Gaussian covariates, constant effect 1, logistic assignment.

    y = tau t + mu + x beta + z with tau = mu = 1, beta alternating (-1, 1, ...),
    P(T=1|x) = logistic(1 + x xi) with xi = beta.
    """
    d = LINEAR_ATE_D
    n = spec.n
    rng = np.random.default_rng(spec.seed)
    coef = np.array([(-1.0) ** j for j in range(1, d + 1)])
    x = rng.standard_normal((n, d))
    p = sigmoid(1.0 + x @ coef)
    t = rng.random(n) < p
    z0 = rng.standard_normal(n)
    z1 = rng.standard_normal(n)
    c = 1.0 + x @ coef
    return _assemble(x, t, c, np.ones(n), z0, z1)


def _gen_nonlinear(spec: GenSpec, c_of, d: int) -> Dataset:
    rng = np.random.default_rng(spec.seed)
    x = rng.random((spec.n, d))
    p = nonlinear_propensity(x)
    t = rng.random(spec.n) < p
    z0 = rng.standard_normal(spec.n)
    z1 = rng.standard_normal(spec.n)
    return _assemble(x, t, c_of(x), nonlinear_tau(x), z0, z1)


def gen_example1(spec: GenSpec) -> Dataset:
    """Uniform covariates on [0,1]^2, linear control surface 1 + x1 + x2,
    nonlinear effect surface, bounded propensity."""
    return _gen_nonlinear(spec, lambda x: 1.0 + x[:, 0] + x[:, 1], d=2)


def gen_example2(spec: GenSpec) -> Dataset:
    """Uniform covariates on [0,1]^5 with nonlinear control and effect
    surfaces driven by (x1, x2); trailing covariates are pure noise."""
    return _gen_nonlinear(spec, example2_c, d=5)


def generate(spec: GenSpec) -> Dataset:
    return {
        "linear_ate": gen_linear_ate,
        "example1": gen_example1,
        "example2": gen_example2,
    }[spec.design](spec)


def save_dataset_csv(data: Dataset, path) -> None:
    """Write x1..xd, t, y and whatever truth columns are present.

    runner.load_csv_dataset reads the file back with the schema
    {y: y, t: t, x: [x1, ..., xd]}.
    """
    truth = [name for name in TRUTH_COLUMNS if getattr(data, name) is not None]
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow([f"x{j + 1}" for j in range(data.d)] + ["t", "y"] + truth)
        for i in range(data.n):
            row = [repr(float(v)) for v in data.x[i]]
            row += [repr(float(data.t[i])), repr(float(data.y[i]))]
            row += [repr(float(getattr(data, name)[i])) for name in truth]
            wr.writerow(row)
