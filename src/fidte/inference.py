"""Intervals and the PEHE from a collected fiducial sample.  An interval
result is one Intervals block per method and level, checked once, as columns.

ATE confidence intervals come straight from the fiducial draws of the effect
slot that the chain's own layout names.  ITE prediction intervals and the
PEHE take the chain's surfaces from engine.draw_surfaces.  ITE intervals
depend on what the test subject exposed:

  Ic  control outcome observed; predict the treated arm per draw as
      c(x) + tau(x) + sigma Z and shift the interval by -y_obs.
  It  treated outcome observed; predict the control arm as c(x) + sigma Z
      and flip the interval around y_obs.
  Im  covariates only; predict the difference tau(x) + sqrt(2) sigma Z.

Every draw gets one fresh standard normal per subject and case, taken from
per-subject child streams of the caller's seed so subjects can be
processed in any order (or in parallel) without changing the answer;
ite_intervals takes them in blocks of subjects, one quantile call a block,
and builds each subject's stream as its block fills.

Both read their endpoints off empirical quantiles of the draws (Hyndman and
Fan's type 7, numpy's method="linear") through one order-statistic kernel,
_linear_quantiles, which equals np.quantile bit for bit.  np.quantile itself
is not called: its generic path dedupes the partition ranks with np.unique,
which imports numpy.ma (about 1 MB resident) into every command that takes
a quantile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .engine import Dataset
from .sampler import FiducialChain

CASES = ("Ic", "It", "Im", "ATE")

# Share of test subjects whose outcome is withheld (case Im).
P_MISSING = 1.0 / 3.0

# Predictive draws per ite_intervals block: 512 KiB of float64.
_BLOCK_VALUES = 1 << 16


class IntervalError(ValueError):
    """An Intervals row that breaks a rule: its index in the block and its column."""

    def __init__(self, message: str, row: int, column: str):
        super().__init__(message)
        self.row, self.column = row, column


@dataclass(frozen=True, eq=False)
class Intervals:
    """One method's prediction intervals at one level, as columns: row k is
    [lower[k], upper[k]] for subject subject_id[k] in case case[k] (an ATE
    block is one row, subject -1).  Building one checks every row at once:
    alpha in (0, 1), a known case, finite endpoints with lower <= upper.  The
    first row to break a rule raises IntervalError; ragged columns ValueError.
    """

    subject_id: np.ndarray
    case: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    alpha: float

    def __post_init__(self):
        for name, kind in zip(("subject_id", "case", "lower", "upper"), (np.int64, str, float, float)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=kind))
        object.__setattr__(self, "alpha", float(self.alpha))
        shapes = [col.shape for col in (self.subject_id, self.case, self.lower, self.upper)]
        if len(set(shapes)) != 1 or len(shapes[0]) != 1:
            raise ValueError(f"interval columns must be 1-d and of one length, got shapes {shapes}")
        if not 0.0 < self.alpha < 1.0:
            raise IntervalError(f"alpha must lie in (0, 1), got {self.alpha}", 0, "alpha")
        rules = {"case": np.isin(self.case, CASES), "lower": np.isfinite(self.lower),
                 "upper": np.isfinite(self.upper) & (self.lower <= self.upper)}
        for column, ok in rules.items():
            if not ok.all():
                k = int(np.argmin(ok))
                got = f"({float(self.lower[k])}, {float(self.upper[k])})"
                raise IntervalError(f"unknown case {str(self.case[k])!r}, expected one of {CASES}"
                                    if column == "case" else "interval must have finite endpoints "
                                    f"with lower <= upper, got {got}", k, column)


def _linear_quantiles(draws: np.ndarray, levels) -> np.ndarray:
    """np.quantile(draws, levels, axis=-1, method="linear"), bit for bit,
    partitioning draws in place along its last axis.

    Level q sits at position (m - 1) q of the m sorted draws.  draws is
    partitioned at the two ranks around each position and at the first and
    last rank, the ranks numpy partitions at, and each endpoint is numpy's
    _lerp of its two order statistics a and b at the fractional part t:
    a + (b - a) t, or b - (b - a)(1 - t) where t >= 0.5.  A position at or
    past the last rank takes the maximum.  As in numpy, a lane holding a NaN
    gives NaN at every level.  The levels lie in [0, 1].  The result has one
    row per level, each shaped like draws without its last axis.
    """
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


def ate_interval(chain: FiducialChain, alpha: float = 0.05) -> Intervals:
    """Equal-tailed level-(1 - alpha) interval of the fiducial sample of the
    average effect, in data units: one ATE row.  The chain's layout has a
    constant effect."""
    # the effect slot multiplies t' in {-1, +1}, so the 0-to-1 contrast is 2 tau'
    draws = 2.0 * chain.scaler.y_std * chain.draws[:, chain.layout.tau_slice.start]
    lower, upper = _linear_quantiles(draws, (alpha / 2.0, 1.0 - alpha / 2.0))[:, None]
    return Intervals([-1], ["ATE"], lower, upper, alpha)


def assign_cases(test: Dataset, rng: np.random.Generator) -> np.ndarray:
    """Tag each test row Ic/It by its observed arm, or Im with probability P_MISSING."""
    by_arm = np.where(test.t == 1, "It", "Ic")
    return np.where(rng.random(test.n) < P_MISSING, "Im", by_arm)


def ite_intervals(
    surfaces: tuple,
    test: Dataset,
    alpha: float,
    seed: int | Sequence[int],
    cases: Sequence[str],
) -> Intervals:
    """Per-subject prediction intervals for the individual effect, one row
    per test row in test order.  surfaces come from engine.draw_surfaces on
    test.x; cases gives one tag per test row (assign_cases).

    Subject i's normals come from SeedSequence(seed, spawn_key=(i,)), the
    stream default_rng(seed).spawn(test.n)[i] gives, so the answer does not
    depend on how subjects are grouped; that stream is built alone as the
    subject's block fills, so one block's streams exist at a time.  A case's
    subjects go in blocks of at most _BLOCK_VALUES predictive draws (one row
    per subject), each built in place and partitioned in place by one
    _linear_quantiles call, so the extra memory is a few blocks, not n x m.
    Every endpoint equals the one-subject-at-a-time computation bit for bit:
    the sums differ from it only in the order of two terms, which IEEE
    addition does not see.
    """
    c_mat, tau_mat, sig = surfaces
    cases = np.asarray(cases)
    qs = (alpha / 2.0, 1.0 - alpha / 2.0)
    m = sig.size
    block = max(1, _BLOCK_VALUES // m)
    lower = np.empty(test.n)
    upper = np.empty(test.n)
    for case in ("Ic", "It", "Im"):
        members = np.flatnonzero(cases == case)
        for start in range(0, members.size, block):
            idx = members[start : start + block]
            pred = np.empty((idx.size, m))
            for j, i in enumerate(idx.tolist()):
                child = np.random.SeedSequence(seed, spawn_key=(i,))
                np.random.default_rng(child).standard_normal(out=pred[j])
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
    return Intervals(np.arange(test.n), cases, lower, upper, alpha)


def pehe(surfaces: tuple, test: Dataset) -> float:
    """Mean squared error of the chain-mean effect surface against truth.

    It is taken over the treated test rows, of which test has at least
    one; surfaces come from engine.draw_surfaces on test.x."""
    keep = test.t == 1
    tau_hat = surfaces[1].mean(axis=0)
    return float(np.mean((tau_hat[keep] - test.tau_true[keep]) ** 2))
