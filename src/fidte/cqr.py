"""Conformalized quantile regression baselines for individual effects.

A single network with a treatment input slot and two output neurons learns
the lower and upper conditional quantiles by pinball loss.  Split-conformal
calibration per arm expands the raw band by the finite-sample score quantile.
Three constructions cover the covariates-only test case: per-arm bands
differenced (naive), interval-outcome conformal on a second fold (exact), and
median regression of the fold-two interval endpoints (inexact, no coverage
guarantee).

Every quantile net, for the arm bands and the inexact endpoints alike, is
fit by pinball_fit on raw columns, in ADAM_STEPS full-batch Adam steps at
rate ADAM_LR, and read back by predict_quantiles.

The quantile nets are nn's networks, made by mlp_init and evaluated by
mlp_forward_batch, but _fit_pinball_net trains them in a layout of its own:
bias-folded [W | b] matrices and feature-major activations with a row of
ones, so each layer's forward and each weight-and-bias gradient is one
matmul.  On a 6->10->10->2 net and 250 rows an Adam step takes 52-73 us
against 96-124 us through nn's row-major passes, with their broadcast
bias adds and column sums (one BLAS thread, 2 cores).  The layout is
private to the fit, and the two share no pass code: nn keeps the row-major
(n, d) form that the engine and sampler hand it and read back, and
whether the sampler's networks would gain from feature-major passes is
an open question (ROADMAP item 3).

The feature-major weight gradient is a different GEMM from nn's, so it
rounds differently in the last bit, and 3000 pinball steps amplify that.
Against the same fit in nn's layout, on 250 random rows, the largest
parameter gap is ~6e-17 after one step, 2e-6 to 0.1 after 1000 and 0.4 to
1.4 after 3000; on example1 a seed's mean interval length moves by up to
17%, while over 40 seeds the mean length and coverage do not move
detectably.  A fit's intervals therefore depend on the BLAS kernel's
rounding: compare CQR results across seeds (validate/compare_cqr.py), not
bit for bit across machines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .engine import Dataset
from .inference import PredictionInterval
from .nn import MlpParams, MlpSpec, mlp_forward_batch, mlp_init
# no fit calls it, but perfbench's tracer wraps fidte.cqr.mlp_backward_batch and
# its selftest resolves every name the tracer wraps
from .nn import mlp_backward_batch  # noqa: F401


# Full-batch Adam steps of every quantile-net fit and their learning rate,
# read when a fit starts.
ADAM_STEPS = 3000
ADAM_LR = 0.02


@dataclass
class QuantileModel:
    """Two-output quantile net with its feature and target scaling (one
    y_mean and y_sd entry per target column)."""

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
) -> MlpParams:
    """Full-batch Adam on the summed pinball losses, one level per output.

    The fit runs in its own layout, not nn's.  Layer l is one augmented
    matrix [W_l | b_l] of shape (d_l, d_{l-1} + 1), all of them views into
    one flat vector that Adam steps elementwise.  Activations are
    feature-major, (d_l + 1, n) with a last row of ones, so a layer's forward
    is one matmul and an in-place tanh, and its weight-and-bias gradient is
    one matmul.  Every array is made once per fit.  The network starts at
    mlp_init(spec) and comes back in nn's layout.
    """
    n = features.shape[0]
    widths = spec.layer_widths
    start = mlp_init(spec).layers()
    flat = np.concatenate([np.column_stack([W, b]).ravel() for W, b in start])
    grad = np.empty_like(flat)
    layers, grads, pos = [], [], 0
    for l in range(1, len(widths)):
        shape = (widths[l], widths[l - 1] + 1)
        size = shape[0] * shape[1]
        layers.append(flat[pos:pos + size].reshape(shape))
        grads.append(grad[pos:pos + size].reshape(shape))
        pos += size
    # acts[l] is the input of layers[l] over a row of ones, acts[0] the
    # features; for a hidden acts[l], back[l] takes layers[l].T @ d, whose
    # ones-row slot is never read, and deltas[l] the gradient under its tanh
    acts = [np.ones((w + 1, n)) for w in widths[:-1]]
    acts[0][:-1] = features.T
    back = [None] + [np.empty((w + 1, n)) for w in widths[1:-1]]
    deltas = [None] + [np.empty((w, n)) for w in widths[1:-1]]
    out = np.empty((widths[-1], n))
    below = np.empty(out.shape, dtype=bool)
    targets_t = np.ascontiguousarray(targets.T)
    # d/du of rho_q(y - u) / n is (1{y < u} - q) / n, one of these two values
    q = np.asarray(qs, dtype=np.float64)[:, None]
    grad_below, grad_above = (1.0 - q) / n, (0.0 - q) / n
    m = np.zeros_like(flat)
    v = np.zeros_like(flat)
    mh = np.empty_like(flat)
    vh = np.empty_like(flat)
    finite = np.empty(flat.shape, dtype=bool)
    b1, b2, eps = 0.9, 0.999, 1e-8
    last = len(layers) - 1
    iters, lr = ADAM_STEPS, ADAM_LR
    for step in range(1, iters + 1):
        for l in range(last):
            h = np.matmul(layers[l], acts[l], out=acts[l + 1][:-1])
            np.tanh(h, out=h)
        np.matmul(layers[last], acts[last], out=out)
        np.less(targets_t, out, out=below)
        d = np.where(below, grad_below, grad_above)
        for l in range(last, -1, -1):
            np.matmul(d, acts[l].T, out=grads[l])
            if l == 0:
                break
            np.matmul(layers[l].T, d, out=back[l])
            # tanh' from its output, 1 - a^2, times the gradient at a
            a = acts[l][:-1]
            d = np.multiply(a, a, out=deltas[l])
            np.subtract(1.0, d, out=d)
            d *= back[l][:-1]
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
        mh *= lr
        mh /= vh
        flat -= mh
        if not np.isfinite(flat, out=finite).all():
            raise ValueError(
                f"non-finite parameter values at Adam step {step} of {iters}, "
                f"quantile levels {tuple(float(q) for q in qs)}"
            )
    # nn's layout: per layer W_l row-major, then b_l
    nn_flat = [p for Wb in layers for p in (Wb[:, :-1].ravel(), Wb[:, -1])]
    return MlpParams(spec, np.concatenate(nn_flat))


def _features(x: np.ndarray, t) -> np.ndarray:
    # an arm net's input: the covariates and t, a column or one arm for all rows
    return np.column_stack([x, np.broadcast_to(np.asarray(t, dtype=np.float64), x.shape[:1])])


def pinball_fit(
    features: np.ndarray, targets: np.ndarray, qs: Sequence[float], seed: int = 0
) -> QuantileModel:
    """A 10-10 tanh net's fit of the qs conditional quantiles of targets.

    features and targets are raw columns, standardized here.  targets holds
    one column per level, or one column fitted at both; that column is
    standardized before it is widened, so both outputs share its mean and sd.
    """
    feats, f_mean, f_sd = _standardize_columns(features)
    ys, y_mean, y_sd = _standardize_columns(targets)
    spec = MlpSpec((features.shape[1], 10, 10, 2), seed=seed)
    net = _fit_pinball_net(feats, np.broadcast_to(ys, (ys.shape[0], 2)), qs, spec)
    return QuantileModel(net=net, f_mean=f_mean, f_sd=f_sd, y_mean=y_mean, y_sd=y_sd)


def predict_quantiles(model: QuantileModel, features: np.ndarray) -> np.ndarray:
    """Per-row (lower, upper) in data units at raw features, sorted to undo
    quantile crossing."""
    feats = (features - model.f_mean) / model.f_sd
    out = mlp_forward_batch(model.net, feats)[-1] * model.y_sd + model.y_mean
    return np.sort(out, axis=1)


def conformal_scores(model: QuantileModel, valid: Dataset, arm: int) -> np.ndarray:
    """Signed exceedance of each arm-t validation outcome over the raw band."""
    keep = valid.t == arm
    if not np.any(keep):
        raise ValueError(f"validation set has no rows with arm {arm}")
    q = predict_quantiles(model, _features(valid.x[keep], arm))
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
    rank = _calibration_rank(n, alpha)
    if rank > n:
        return float("inf")
    return float(np.sort(scores)[rank - 1])


def _calibration_rank(n: int, alpha: float) -> int:
    # the order statistic calibrate picks from n scores; past n the band is infinite
    return math.ceil((n + 1) * (1.0 - alpha))


def _band(
    model: QuantileModel, corr: ConformalCorrection, x: np.ndarray, arm: int
) -> Tuple[np.ndarray, np.ndarray]:
    if arm not in corr.s_hat:
        raise ValueError(f"no calibrated correction for arm {arm}")
    q = predict_quantiles(model, _features(x, arm))
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
    seed: int,
) -> Tuple[QuantileModel, ConformalCorrection]:
    """Split-conformal per-arm outcome bands at level 1 - alpha/2.

    Raises before the fit when an arm has too few calibration rows for that
    level, whose band would then be infinite.
    """
    level_alpha = alpha / 2.0
    fit_idx, cal_idx = _split(train.n, rng)
    cal = train.subset(cal_idx)
    for arm in (0, 1):
        rows = int(np.count_nonzero(cal.t == arm))
        if _calibration_rank(rows, level_alpha) > rows:
            raise ValueError(
                f"calibration at alpha {alpha} returned an infinite band: arm {arm} has "
                f"{rows} calibration rows, too few for level {1.0 - level_alpha:g}; "
                "use more training rows or a larger alpha"
            )
    fit = train.subset(fit_idx)
    qs = (level_alpha / 2.0, 1.0 - level_alpha / 2.0)
    model = pinball_fit(_features(fit.x, fit.t), fit.y[:, None], qs, seed)
    s_hat = {arm: calibrate(conformal_scores(model, cal, arm), level_alpha) for arm in (0, 1)}
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
    # fold-1 per-arm bands, and exact's regression / calibration split of it
    fold2: Dataset
    c_lo: np.ndarray
    c_hi: np.ndarray
    reg_idx: np.ndarray
    cal_idx: np.ndarray


def _fold_one(train: Dataset, alpha: float, seed: int) -> _FoldOne:
    rng = np.random.default_rng(seed)
    fold1_idx, fold2_idx = _split(train.n, rng)
    model, corr = _arm_bands(train.subset(fold1_idx), alpha, rng, seed)
    fold2 = train.subset(fold2_idx)
    c_lo, c_hi = _interval_outcomes(fold2, model, corr)
    # exact's split, drawn right after the fit whichever mode runs first
    reg_idx, cal_idx = _split(fold2.n, rng)
    return _FoldOne(fold2, c_lo, c_hi, reg_idx, cal_idx)


def cqr_ite(
    train: Dataset,
    test: Dataset,
    alpha: float = 0.05,
    mode: str = "naive",
    seed: int = 0,
    fold_one_fits: Optional[dict] = None,
) -> List[PredictionInterval]:
    """Covariates-only ITE intervals for every test row, tagged Im.

    exact and inexact start from the same fold-1 fit.  Calls on one training
    set share it through fold_one_fits, a dict their caller makes for that
    set: the first exact or inexact call at an (alpha, seed) fits and
    stores it, the next one reuses it, in either order.
    """
    if mode not in ("naive", "exact", "inexact"):
        raise ValueError(f"unknown mode {mode!r}, expected naive, exact, or inexact")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")

    if mode == "naive":
        # per-arm bands at level 1 - alpha/2, differenced
        rng = np.random.default_rng(seed)
        model, corr = _arm_bands(train, alpha, rng, seed)
        lo1, hi1 = _band(model, corr, test.x, 1)
        lo0, hi0 = _band(model, corr, test.x, 0)
        lower, upper = lo1 - hi0, hi1 - lo0
    else:
        fits = {} if fold_one_fits is None else fold_one_fits
        key = (alpha, seed)
        if key not in fits:
            fits[key] = _fold_one(train, alpha, seed)
        fold = fits[key]
        fold2, c_lo, c_hi = fold.fold2, fold.c_lo, fold.c_hi
        if mode == "inexact":
            # median regression of both endpoints, no second conformal step
            model = pinball_fit(fold2.x, np.column_stack([c_lo, c_hi]), (0.5, 0.5), seed + 1)
            lower, upper = predict_quantiles(model, test.x).T
        else:
            # least-squares endpoint surfaces on one half, interval-outcome
            # conformal scores on the other
            reg_idx, cal_idx = fold.reg_idx, fold.cal_idx
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
