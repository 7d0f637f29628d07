"""Interval construction and scoring on a collected fiducial sample.

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

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .engine import Dataset, ThetaLayout, c_surface, sigma_of, tau_surface
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

    @property
    def length(self) -> float:
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


@dataclass
class EvalReport:
    coverage: float
    mean_length: float
    per_case: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.coverage <= 1.0:
            raise ValueError(f"coverage must lie in [0, 1], got {self.coverage}")


def ate_draws(chain: FiducialChain, layout: ThetaLayout) -> np.ndarray:
    """Fiducial sample of the average effect, in data units."""
    if layout.model_kind != "linear_ate":
        raise ValueError(f"ATE extraction needs a linear_ate layout, got {layout.model_kind!r}")
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
        c_mat[k] = c_surface(draws[k], layout, x, chain.scaler)
        tau_mat[k] = tau_surface(draws[k], layout, x, chain.scaler)
        sig[k] = sigma_of(draws[k], layout, chain.scaler)
    return c_mat, tau_mat, sig


def ite_intervals(
    surfaces: tuple,
    test: Dataset,
    alpha: float = 0.05,
    rng: Optional[np.random.Generator] = None,
    cases: Optional[Sequence[str]] = None,
) -> List[PredictionInterval]:
    """Per-subject prediction intervals for the individual effect.

    surfaces come from chain_surfaces on test.x.  cases gives one tag per
    test row; subjects without an observed arm are treated as Im.  When
    omitted, tags follow the observed arm of test.t.
    """
    c_mat, tau_mat, sig = surfaces
    if sig.size == 0:
        raise ValueError("empty fiducial chain")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if cases is None:
        cases = np.where(test.t == 1, "It", "Ic")
    cases = np.asarray(cases, dtype=object)
    if cases.shape != (test.n,):
        raise ValueError(f"need one case tag per test row, got {cases.shape} for n={test.n}")
    bad = set(cases) - {"Ic", "It", "Im"}
    if bad:
        raise ValueError(f"unknown case tags {sorted(bad)}")
    rng = rng if rng is not None else np.random.default_rng()

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


def score_intervals(intervals: Sequence[PredictionInterval], truth: np.ndarray) -> EvalReport:
    """Coverage and mean length against per-subject realized effects."""
    if len(intervals) == 0:
        raise ValueError("no intervals to score")
    truth = np.asarray(truth, dtype=np.float64)
    hits: Dict[str, List[float]] = {}
    lens: Dict[str, List[float]] = {}
    for iv in intervals:
        v = float(truth[iv.subject_id])
        hits.setdefault(iv.case, []).append(1.0 if iv.contains(v) else 0.0)
        lens.setdefault(iv.case, []).append(iv.length)
    per_case = {
        case: {
            "coverage": float(np.mean(hits[case])),
            "mean_length": float(np.mean(lens[case])),
            "count": float(len(hits[case])),
        }
        for case in sorted(hits)
    }
    all_hits = [h for hs in hits.values() for h in hs]
    all_lens = [l for ls in lens.values() for l in ls]
    return EvalReport(
        coverage=float(np.mean(all_hits)),
        mean_length=float(np.mean(all_lens)),
        per_case=per_case,
    )
