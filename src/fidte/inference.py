"""Intervals and the PEHE from a collected fiducial sample.

ATE confidence intervals come straight from the fiducial draws of the effect
slot.  ITE prediction intervals depend on what the test subject exposed:

  Ic  control outcome observed; predict the treated arm per draw as
      c(x) + tau(x) + sigma Z and shift the interval by -y_obs.
  It  treated outcome observed; predict the control arm as c(x) + sigma Z
      and flip the interval around y_obs.
  Im  covariates only; predict the difference tau(x) + sqrt(2) sigma Z.

Every draw gets one fresh standard normal per subject and case, taken from
per-subject child streams of the caller's generator so subjects can be
processed in any order (or in parallel) without changing the answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .engine import Dataset, ThetaLayout, surfaces
from .sampler import FiducialChain

CASES = ("Ic", "It", "Im", "ATE")

# Share of test subjects whose outcome is withheld (case Im).
P_MISSING = 1.0 / 3.0


@dataclass(frozen=True)
class PredictionInterval:
    subject_id: int
    case: str
    lower: float
    upper: float
    alpha: float

    def __post_init__(self):
        if self.case not in CASES:
            raise ValueError(f"unknown case {self.case!r}, expected one of {CASES}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not self.lower <= self.upper:
            raise ValueError(f"interval must satisfy lower <= upper, got ({self.lower}, {self.upper})")

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


def ate_draws(chain: FiducialChain, layout: ThetaLayout) -> np.ndarray:
    """Fiducial sample of the average effect, in data units."""
    if layout.tau_spec is not None:
        raise ValueError("ATE extraction needs the constant effect of a linear_ate layout")
    # the effect slot multiplies t' in {-1, +1}, so the 0-to-1 contrast is 2 tau'
    return 2.0 * chain.scaler.y_std * chain.draws[:, 0]


def ate_interval(chain: FiducialChain, layout: ThetaLayout, alpha: float = 0.05) -> PredictionInterval:
    draws = ate_draws(chain, layout)
    if draws.size == 0:
        raise ValueError("empty fiducial chain")
    lower, upper = np.quantile(draws, (alpha / 2.0, 1.0 - alpha / 2.0), method="linear").tolist()
    return PredictionInterval(subject_id=-1, case="ATE", lower=lower, upper=upper, alpha=alpha)


def assign_cases(test: Dataset, rng: np.random.Generator) -> np.ndarray:
    """Tag each test row Ic/It by its observed arm, or Im with probability P_MISSING."""
    by_arm = np.where(test.t == 1, "It", "Ic")
    return np.where(rng.random(test.n) < P_MISSING, "Im", by_arm)


def chain_surfaces(chain: FiducialChain, layout: ThetaLayout, x: np.ndarray):
    """Per-draw c(x), tau(x) matrices and sigma vector, all in data units.

    ite_intervals and pehe take the result as their surfaces."""
    draws = chain.draws
    m = draws.shape[0]
    c_mat = np.empty((m, x.shape[0]))
    tau_mat = np.empty((m, x.shape[0]))
    sig = np.empty(m)
    for k in range(m):
        c_mat[k], tau_mat[k], sig[k] = surfaces(draws[k], layout, x, chain.scaler)
    return c_mat, tau_mat, sig


def ite_intervals(
    surfaces: tuple,
    test: Dataset,
    alpha: float,
    rng: np.random.Generator,
    cases: Sequence[str],
) -> List[PredictionInterval]:
    """Per-subject prediction intervals for the individual effect.

    surfaces come from chain_surfaces on test.x.  cases gives one tag per
    test row (assign_cases); subjects without an observed arm are Im.
    """
    c_mat, tau_mat, sig = surfaces
    if sig.size == 0:
        raise ValueError("empty fiducial chain")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    cases = np.asarray(cases, dtype=object)
    if cases.shape != (test.n,):
        raise ValueError(f"need one case tag per test row, got {cases.shape} for n={test.n}")
    bad = set(cases) - {"Ic", "It", "Im"}
    if bad:
        raise ValueError(f"unknown case tags {sorted(bad)}")

    qs = (alpha / 2.0, 1.0 - alpha / 2.0)
    out: List[PredictionInterval] = []
    streams = rng.spawn(test.n)
    for i in range(test.n):
        z_new = streams[i].standard_normal(sig.size)
        case = str(cases[i])
        if case == "Ic":
            y1_hat = c_mat[:, i] + tau_mat[:, i] + sig * z_new
            q_lo, q_hi = np.quantile(y1_hat, qs, method="linear").tolist()
            y_obs = float(test.y[i])
            lower, upper = q_lo - y_obs, q_hi - y_obs
        elif case == "It":
            y0_hat = c_mat[:, i] + sig * z_new
            q_lo, q_hi = np.quantile(y0_hat, qs, method="linear").tolist()
            y_obs = float(test.y[i])
            lower, upper = y_obs - q_hi, y_obs - q_lo
        else:
            diff = tau_mat[:, i] + np.sqrt(2.0) * sig * z_new
            lower, upper = np.quantile(diff, qs, method="linear").tolist()
        out.append(PredictionInterval(subject_id=i, case=case, lower=lower, upper=upper, alpha=alpha))
    return out


def pehe(surfaces: tuple, test: Dataset) -> float:
    """Mean squared error of the chain-mean effect surface against truth.

    It is taken over the treated test rows; surfaces come from
    chain_surfaces on test.x."""
    if test.tau_true is None:
        raise ValueError("pehe needs tau_true on the test set")
    keep = test.t == 1
    if not np.any(keep):
        raise ValueError("no treated test units")
    tau_hat = surfaces[1].mean(axis=0)
    return float(np.mean((tau_hat[keep] - test.tau_true[keep]) ** 2))


def ite_truth(test: Dataset) -> np.ndarray:
    """Realized individual effects Y(1) - Y(0); needs both stored arms."""
    if test.y1 is None or test.y0 is None:
        raise ValueError("test set lacks stored potential outcomes")
    return test.y1 - test.y0
