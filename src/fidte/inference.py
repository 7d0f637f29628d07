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
processed in any order (or in parallel) without changing the answer;
ite_intervals takes them in blocks of subjects, one quantile call a block.

Both read their endpoints off empirical quantiles of the draws (Hyndman and
Fan's type 7, numpy's method="linear") through one order-statistic kernel,
_linear_quantiles, which equals np.quantile bit for bit.  np.quantile itself
is not called: its generic path dedupes the partition ranks with np.unique,
which imports numpy.ma (about 1 MB resident) into every command that takes
a quantile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .engine import Dataset, ThetaLayout, draw_surfaces
from .sampler import FiducialChain

CASES = ("Ic", "It", "Im", "ATE")

# Share of test subjects whose outcome is withheld (case Im).
P_MISSING = 1.0 / 3.0

# Predictive draws per ite_intervals block: 512 KiB of float64.
_BLOCK_VALUES = 1 << 16


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


def _linear_quantiles(draws: np.ndarray, levels) -> np.ndarray:
    """np.quantile(draws, levels, axis=-1, method="linear"), bit for bit,
    partitioning draws in place along its last axis.

    Level q sits at position (m - 1) q of the m sorted draws.  draws is
    partitioned at the two ranks around each position and at the first and
    last rank, the ranks numpy partitions at, and each endpoint is numpy's
    _lerp of its two order statistics a and b at the fractional part t:
    a + (b - a) t, or b - (b - a)(1 - t) where t >= 0.5.  A position at or
    past the last rank takes the maximum.  As in numpy, a lane holding a NaN
    gives NaN at every level, and a level outside [0, 1] raises ValueError.
    The result has one row per level, each shaped like draws without its
    last axis.
    """
    if not all(0.0 <= q <= 1.0 for q in levels):
        raise ValueError("Quantiles must be in the range [0, 1]")
    top = draws.shape[-1] - 1
    below, above, frac = [], [], []
    for q in levels:
        pos = top * q
        # pos >= 0, so int() is its floor
        lo, hi = (-1, -1) if pos >= top else (int(pos), int(pos) + 1)
        below.append(lo)
        above.append(hi)
        frac.append(pos - lo)
    draws.partition(sorted({0, -1, *below, *above}), axis=-1)
    a, b = draws[..., below], draws[..., above]
    t = np.array(frac)
    diff = b - a
    out = np.add(a, diff * t)
    np.subtract(b, diff * (1.0 - t), out=out, where=t >= 0.5)
    # a NaN partitions to the last rank; its lane reads that NaN everywhere
    np.copyto(out, draws[..., -1:], where=np.isnan(draws[..., -1:]))
    return out.T


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
    lower, upper = _linear_quantiles(draws, (alpha / 2.0, 1.0 - alpha / 2.0)).tolist()
    return PredictionInterval(subject_id=-1, case="ATE", lower=lower, upper=upper, alpha=alpha)


def assign_cases(test: Dataset, rng: np.random.Generator) -> np.ndarray:
    """Tag each test row Ic/It by its observed arm, or Im with probability P_MISSING."""
    by_arm = np.where(test.t == 1, "It", "Ic")
    return np.where(rng.random(test.n) < P_MISSING, "Im", by_arm)


def chain_surfaces(chain: FiducialChain, layout: ThetaLayout, x: np.ndarray):
    """Per-draw c(x), tau(x) matrices and sigma vector, all in data units.

    Row k holds engine.draw_surfaces' values for draw k; it builds one
    network per surface for the whole chain.  ite_intervals and pehe take
    the result as their surfaces."""
    m = chain.draws.shape[0]
    c_mat = np.empty((m, x.shape[0]))
    tau_mat = np.empty((m, x.shape[0]))
    sig = np.empty(m)
    for k, row in enumerate(draw_surfaces(chain.draws, layout, x, chain.scaler)):
        c_mat[k], tau_mat[k], sig[k] = row
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

    Subject i's normals stay streams[i].standard_normal(m) of rng.spawn, so
    the answer does not depend on how subjects are grouped.  A case's
    subjects go in blocks of at most _BLOCK_VALUES predictive draws (one row
    per subject), each built in place and partitioned in place by one
    _linear_quantiles call, so the extra memory is a few blocks, not n x m.
    Every endpoint equals the one-subject-at-a-time computation bit for bit:
    the sums differ from it only in the order of two terms, which IEEE
    addition does not see.
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
    m = sig.size
    block = max(1, _BLOCK_VALUES // m)
    streams = rng.spawn(test.n)
    lower = np.empty(test.n)
    upper = np.empty(test.n)
    for case in ("Ic", "It", "Im"):
        members = np.flatnonzero(cases == case)
        for start in range(0, members.size, block):
            idx = members[start : start + block]
            pred = np.empty((idx.size, m))
            for j, i in enumerate(idx):
                streams[i].standard_normal(out=pred[j])
            # draw k of subject i: c + tau + sig z (Ic), c + sig z (It) or
            # tau + sqrt(2) sig z (Im), at column i of the surfaces
            if case == "Ic":
                pred *= sig
                pred += c_mat[:, idx].T + tau_mat[:, idx].T
            elif case == "It":
                pred *= sig
                pred += c_mat[:, idx].T
            else:
                pred *= np.sqrt(2.0) * sig
                pred += tau_mat[:, idx].T
            q_lo, q_hi = _linear_quantiles(pred, qs)
            if case == "Ic":
                # shift the treated-arm interval by -y_obs
                lower[idx], upper[idx] = q_lo - test.y[idx], q_hi - test.y[idx]
            elif case == "It":
                # flip the control-arm interval around y_obs
                lower[idx], upper[idx] = test.y[idx] - q_hi, test.y[idx] - q_lo
            else:
                lower[idx], upper[idx] = q_lo, q_hi
    return [
        PredictionInterval(subject_id=i, case=str(case), lower=lo, upper=hi, alpha=alpha)
        for i, (case, lo, hi) in enumerate(zip(cases, lower.tolist(), upper.tolist()))
    ]


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
