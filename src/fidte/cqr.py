"""Conformalized quantile regression baselines for individual effects.

A single network with a treatment input slot and two output neurons learns
the lower and upper conditional quantiles by pinball loss.  Split-conformal
calibration per arm expands the raw band by the finite-sample score quantile.
Three constructions cover the covariates-only test case: per-arm bands
differenced (naive), interval-outcome conformal on a second fold (exact), and
median regression of the fold-two interval endpoints (inexact, no coverage
guarantee).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .engine import Dataset
from .inference import PredictionInterval
from .nn import MlpParams, MlpSpec, mlp_backward_batch, mlp_forward_batch, mlp_init


@dataclass(frozen=True)
class TrainConfig:
    iters: int = 3000
    lr: float = 0.02

    def __post_init__(self):
        if self.iters < 1:
            raise ValueError("iters must be positive")
        if self.lr <= 0.0:
            raise ValueError("lr must be positive")


@dataclass
class QuantileModel:
    """Two-output quantile net over (x, t) with its input/output scaling."""

    net: MlpParams
    f_mean: np.ndarray
    f_sd: np.ndarray
    y_mean: np.ndarray
    y_sd: np.ndarray

    def __post_init__(self):
        if self.net.spec.d_out != 2:
            raise ValueError(f"quantile net needs 2 outputs, got {self.net.spec.d_out}")


@dataclass(frozen=True)
class ConformalCorrection:
    s_hat: Dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        for arm, s in self.s_hat.items():
            if math.isnan(s):
                raise ValueError(f"correction for arm {arm} is NaN")


def _standardize_columns(mat: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    mean = mat.mean(axis=0)
    sd = mat.std(axis=0)
    sd = np.where(sd < 1e-9, 1.0, sd)
    return (mat - mean) / sd, mean, sd


def _fit_pinball_net(
    features: np.ndarray,
    targets: np.ndarray,
    qs: Sequence[float],
    spec: MlpSpec,
    config: TrainConfig,
) -> MlpParams:
    """Full-batch Adam on the summed pinball losses, one level per output.

    The net's flat vector is updated in place, so its layer views are built
    once per fit; each step is one forward and one backward through it.  The
    pinball gradient, Adam's two moments, their bias-corrected forms and the
    update are written into arrays made once per fit, one numpy call per
    operation of the textbook step and in its order, so a fit is bitwise
    equal to one that allocates every term afresh.
    """
    n = features.shape[0]
    qvec = np.asarray(qs, dtype=np.float64)[None, :]
    net = mlp_init(spec)
    flat = net.flat
    m = np.zeros_like(flat)
    v = np.zeros_like(flat)
    mh = np.empty_like(flat)
    vh = np.empty_like(flat)
    finite = np.empty(flat.shape, dtype=bool)
    below = np.empty(targets.shape, dtype=bool)
    out_grad = np.empty(targets.shape)
    b1, b2, eps = 0.9, 0.999, 1e-8
    for step in range(1, config.iters + 1):
        acts = mlp_forward_batch(net, features)
        # d/du of rho_q(y - u) is 1{y < u} - q
        np.less(targets, acts[-1], out=below)
        np.subtract(below, qvec, out=out_grad)
        out_grad /= n
        grad, _ = mlp_backward_batch(net, acts, out_grad, need_input=False)
        # m = b1 m + (1 - b1) g and v = b2 v + (1 - b2) g^2
        m *= b1
        np.multiply(grad, 1.0 - b1, out=mh)
        m += mh
        v *= b2
        np.square(grad, out=vh)
        vh *= 1.0 - b2
        v += vh
        # flat -= lr mh / (sqrt(vh) + eps), mh = m / (1 - b1^step), vh = v / (1 - b2^step)
        np.divide(m, 1.0 - b1**step, out=mh)
        np.divide(v, 1.0 - b2**step, out=vh)
        np.sqrt(vh, out=vh)
        vh += eps
        mh *= config.lr
        mh /= vh
        flat -= mh
        if not np.isfinite(flat, out=finite).all():
            raise ValueError(
                f"non-finite parameter values at Adam step {step} of {config.iters}, "
                f"quantile levels {tuple(float(q) for q in qs)}"
            )
    return net


def _features(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    return np.column_stack([x, t.astype(np.float64)])


def pinball_fit(
    train: Dataset,
    alpha: float,
    spec: Optional[MlpSpec] = None,
    config: TrainConfig = TrainConfig(),
    seed: int = 0,
) -> QuantileModel:
    """Quantile net for the (alpha/2, 1-alpha/2) conditional quantiles of y."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if spec is None:
        spec = MlpSpec((train.d + 1, 10, 10, 2), seed=seed)
    raw = _features(train.x, train.t)
    feats, f_mean, f_sd = _standardize_columns(raw)
    ys, y_mean, y_sd = _standardize_columns(train.y[:, None])
    targets = np.repeat(ys, 2, axis=1)
    net = _fit_pinball_net(feats, targets, (alpha / 2.0, 1.0 - alpha / 2.0), spec, config)
    return QuantileModel(net=net, f_mean=f_mean, f_sd=f_sd, y_mean=y_mean, y_sd=y_sd)


def predict_quantiles(model: QuantileModel, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Per-row (lower, upper) in data units, sorted to undo quantile crossing."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    t = np.broadcast_to(np.asarray(t, dtype=np.float64), (x.shape[0],))
    feats = (_features(x, t) - model.f_mean) / model.f_sd
    out = mlp_forward_batch(model.net, feats)[-1] * model.y_sd + model.y_mean
    return np.sort(out, axis=1)


def conformal_scores(model: QuantileModel, valid: Dataset, arm: int) -> np.ndarray:
    """Signed exceedance of each arm-t validation outcome over the raw band."""
    keep = valid.t == arm
    if not np.any(keep):
        raise ValueError(f"validation set has no rows with arm {arm}")
    q = predict_quantiles(model, valid.x[keep], np.full(int(keep.sum()), arm))
    y = valid.y[keep]
    return np.maximum(q[:, 0] - y, y - q[:, 1])


def calibrate(scores: np.ndarray, alpha: float) -> float:
    """Finite-sample score quantile: the ceil((n+1)(1-alpha))-th order statistic."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("cannot calibrate on an empty score set")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    n = scores.size
    rank = math.ceil((n + 1) * (1.0 - alpha))
    if rank > n:
        return float("inf")
    return float(np.sort(scores)[rank - 1])


def _band(
    model: QuantileModel, corr: ConformalCorrection, x: np.ndarray, arm: int
) -> Tuple[np.ndarray, np.ndarray]:
    if arm not in corr.s_hat:
        raise ValueError(f"no calibrated correction for arm {arm}")
    x = np.atleast_2d(x)
    q = predict_quantiles(model, x, np.full(x.shape[0], arm))
    s = corr.s_hat[arm]
    return q[:, 0] - s, q[:, 1] + s


def _split(n: int, rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    perm = rng.permutation(n)
    half = n // 2
    return perm[:half], perm[half:]


def _arm_bands(
    train: Dataset,
    alpha: float,
    rng: np.random.Generator,
    config: TrainConfig,
    seed: int,
) -> Tuple[QuantileModel, ConformalCorrection]:
    """Split-conformal per-arm outcome bands at level 1 - alpha/2.

    Raises when an arm has too few calibration rows for that level, whose
    band would then be infinite.
    """
    level_alpha = alpha / 2.0
    fit_idx, cal_idx = _split(train.n, rng)
    model = pinball_fit(train.subset(fit_idx), level_alpha, config=config, seed=seed)
    cal = train.subset(cal_idx)
    s_hat = {}
    for arm in (0, 1):
        scores = conformal_scores(model, cal, arm)
        s_hat[arm] = calibrate(scores, level_alpha)
        if math.isinf(s_hat[arm]):
            raise ValueError(
                f"calibration at alpha {alpha} returned an infinite band: arm {arm} has "
                f"{scores.size} calibration rows, too few for level {1.0 - level_alpha:g}; "
                "use more training rows or a larger alpha"
            )
    return model, ConformalCorrection(s_hat=s_hat)


def _interval_outcomes(
    fold2: Dataset, model: QuantileModel, corr: ConformalCorrection
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row ITE interval outcomes from observed arms and counterfactual bands."""
    lo1, hi1 = _band(model, corr, fold2.x, 1)
    lo0, hi0 = _band(model, corr, fold2.x, 0)
    treated = fold2.t == 1
    c_lo = np.where(treated, fold2.y - hi0, lo1 - fold2.y)
    c_hi = np.where(treated, fold2.y - lo0, hi1 - fold2.y)
    return c_lo, c_hi


@dataclass
class _FoldOne:
    # what exact and inexact share: fold 2, its interval outcomes under the
    # fold-1 per-arm bands, and the rng as it stood right after the fit
    fold2: Dataset
    c_lo: np.ndarray
    c_hi: np.ndarray
    rng: np.random.Generator


def _fold_one(train: Dataset, alpha: float, seed: int, config: TrainConfig) -> _FoldOne:
    rng = np.random.default_rng(seed)
    fold1_idx, fold2_idx = _split(train.n, rng)
    model, corr = _arm_bands(train.subset(fold1_idx), alpha, rng, config, seed)
    fold2 = train.subset(fold2_idx)
    c_lo, c_hi = _interval_outcomes(fold2, model, corr)
    return _FoldOne(fold2, c_lo, c_hi, rng)


def cqr_ite(
    train: Dataset,
    test: Dataset,
    alpha: float = 0.05,
    mode: str = "naive",
    seed: int = 0,
    config: TrainConfig = TrainConfig(),
    fold_one_fits: Optional[dict] = None,
) -> List[PredictionInterval]:
    """Covariates-only ITE intervals for every test row, tagged Im.

    exact and inexact start from the same fold-1 fit.  Calls on one training
    set share it through fold_one_fits, a dict their caller makes for that
    set: the first exact or inexact call at an (alpha, seed, config) fits and
    stores it, the next one reuses it, in either order.
    """
    if mode not in ("naive", "exact", "inexact"):
        raise ValueError(f"unknown mode {mode!r}, expected naive, exact, or inexact")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")

    if mode == "naive":
        # per-arm bands at level 1 - alpha/2, differenced
        rng = np.random.default_rng(seed)
        model, corr = _arm_bands(train, alpha, rng, config, seed)
        lo1, hi1 = _band(model, corr, test.x, 1)
        lo0, hi0 = _band(model, corr, test.x, 0)
        lower, upper = lo1 - hi0, hi1 - lo0
    else:
        fits = {} if fold_one_fits is None else fold_one_fits
        key = (alpha, seed, config)
        if key not in fits:
            fits[key] = _fold_one(train, alpha, seed, config)
        fold = fits[key]
        fold2, c_lo, c_hi = fold.fold2, fold.c_lo, fold.c_hi
        if mode == "inexact":
            # median regression of both endpoints, no second conformal step
            feats, f_mean, f_sd = _standardize_columns(fold2.x)
            targets, t_mean, t_sd = _standardize_columns(np.column_stack([c_lo, c_hi]))
            spec = MlpSpec((fold2.d, 10, 10, 2), seed=seed + 1)
            net = _fit_pinball_net(feats, targets, (0.5, 0.5), spec, config)
            out = mlp_forward_batch(net, (test.x - f_mean) / f_sd)[-1] * t_sd + t_mean
            out = np.sort(out, axis=1)
            lower, upper = out[:, 0], out[:, 1]
        else:
            # least-squares endpoint surfaces on one half, interval-outcome
            # conformal scores on the other; the split continues the fit's
            # rng stream from a copy, so the stored state never moves
            rng = copy.deepcopy(fold.rng)
            reg_idx, cal_idx = _split(fold2.n, rng)
            design = np.column_stack([np.ones(len(reg_idx)), fold2.x[reg_idx]])
            coef_lo, *_ = np.linalg.lstsq(design, c_lo[reg_idx], rcond=None)
            coef_hi, *_ = np.linalg.lstsq(design, c_hi[reg_idx], rcond=None)
            cal_design = np.column_stack([np.ones(len(cal_idx)), fold2.x[cal_idx]])
            s = np.maximum(
                cal_design @ coef_lo - c_lo[cal_idx], c_hi[cal_idx] - cal_design @ coef_hi
            )
            s_hat = calibrate(s, alpha)
            test_design = np.column_stack([np.ones(test.n), test.x])
            lower = test_design @ coef_lo - s_hat
            upper = test_design @ coef_hi + s_hat

    # crossed endpoints mean an empty interval; report the degenerate point
    swap = lower > upper
    if np.any(swap):
        mid = 0.5 * (lower[swap] + upper[swap])
        lower = np.where(swap, mid, lower)
        upper = np.where(swap, mid, upper)

    return [
        PredictionInterval(subject_id=i, case="Im", lower=float(lower[i]),
                           upper=float(upper[i]), alpha=alpha)
        for i in range(test.n)
    ]
