"""Conformalized quantile regression baselines for individual effects.

A single network with a treatment input slot and two output neurons learns
the lower and upper conditional quantiles by pinball loss.  Split-conformal
calibration per arm expands the raw band by the finite-sample score
quantile, so a band's correction is the pair (s_0, s_1), one per arm.
Three constructions cover the covariates-only test case: per-arm bands
differenced (naive), interval-outcome conformal on a second fold (exact), and
median regression of the fold-two interval endpoints (inexact, no coverage
guarantee).

A replication plans its CQR work up front (fit_cqr) and fits it in two
pinball_fit stages of ADAM_STEPS full-batch Adam steps: every arm-band net
((d+1)->10->10->2), then every inexact endpoint net (d->10->10->2), whose
targets are stage 1's interval outcomes.  Each net fits standardized
columns: pinball_fit fits one engine.Standardizer, the sampler's column
scaling, to each task's features and targets, and a QuantileModel keeps it
beside its net.  predict_quantiles reads a net back through its scaler, and
cqr_ite turns the fits into each (mode, level)'s intervals.

The quantile nets are nn's networks, made by mlp_init and evaluated by
mlp_forward_batch, but _fit_pinball_stage trains a stage's nets stacked on
a leading axis, in a bias-folded, feature-major layout private to the fit
(nn keeps the row-major (n, d) form of the engine and sampler), so each
matmul, tanh, derivative op and Adam op is one call per stage.  Each step's
passes run on a float32 copy of the master weights; the weights and Adam
moments stay float64 (the mixed-precision recipe of Micikevicius et al. 2018).

Stacking and padding move no bit: in either precision a stage's net is
the net fitted alone.  The float32 passes, like the folded layout's GEMM
rounding against nn's, do move the fit, as 3000 pinball steps amplify any
last-bit difference (a row's gradient flips between two values as its
output crosses its target): on example1 a seed's mean interval length moves
by up to 21% against the float64 fit, while over 40 seeds the mean length
and coverage do not move detectably.  So compare CQR results across seeds
(validate/compare_cqr.py), not bit for bit across machines.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from .engine import Dataset, Standardizer
from .inference import Intervals
from .nn import MlpParams, MlpSpec, mlp_forward_batch, mlp_init
# no fit calls it, but perfbench's tracer wraps fidte.cqr.mlp_backward_batch and
# its selftest resolves every name the tracer wraps
from .nn import mlp_backward_batch  # noqa: F401


# Full-batch Adam steps of every quantile-net fit and their learning rate,
# read when a fit starts.
ADAM_STEPS = 3000
ADAM_LR = 0.02


class QuantileModel(NamedTuple):
    """Two-output quantile net and the Standardizer of its feature (x) and
    target (y) columns, one y_mean and y_std entry per target column."""

    net: MlpParams
    scaler: Standardizer


def _fit_pinball_stage(
    features: Sequence[np.ndarray],
    targets: Sequence[np.ndarray],
    qs: Sequence[Sequence[float]],
    specs: Sequence[MlpSpec],
    dtype=np.float32,
) -> List[MlpParams]:
    """Full-batch Adam on each net's summed pinball losses, one level per
    output, for K nets of the same widths in one loop.

    Net k fits features[k] (n_k rows) to targets[k] at levels qs[k] from
    mlp_init(specs[k]); the nets share nothing but the loop.  They are
    stacked on a leading axis: layer l is one (K, d_l, d_{l-1} + 1) array
    of bias-folded [W | b] matrices, all of them views into one float64
    flat vector that Adam steps elementwise, and activations are
    feature-major, (K, d_l + 1, N) with a last row of ones, N the largest
    n_k.  A net's columns past its n_k carry zero loss weight, so they add
    exact zeros to its gradient.  Each layer's forward and each
    weight-and-bias gradient is one stacked matmul, and each tanh, each
    derivative op and each Adam op is one call for the stage.

    The passes (activations, deltas, gradients) run in dtype on a copy of
    the float64 master weights made each step; Adam's moments stay float64
    and the finiteness check reads the master weights.  Every fit passes in
    float32; dtype float64, an exact copy, lets the tests hold the fit to the
    float64 references bit for bit.  Every array is made once per stage.
    The nets come back in nn's float64 layout.
    """
    widths = specs[0].layer_widths
    k_nets, depth = len(specs), len(widths) - 1
    rows = [f.shape[0] for f in features]
    n = max(rows)
    starts = [mlp_init(spec).layers() for spec in specs]
    flat = np.concatenate([
        np.stack([np.column_stack(start[l]) for start in starts]).ravel() for l in range(depth)
    ])
    grad = np.empty_like(flat)
    # the passes' copy of flat, refreshed each step, and their gradient
    pass_flat = np.empty(flat.shape, dtype=dtype)
    pass_grad = np.empty_like(pass_flat)
    layers, masters, grads, pos = [], [], [], 0
    for l in range(1, len(widths)):
        shape = (k_nets, widths[l], widths[l - 1] + 1)
        size = shape[0] * shape[1] * shape[2]
        layers.append(pass_flat[pos:pos + size].reshape(shape))
        masters.append(flat[pos:pos + size].reshape(shape))
        grads.append(pass_grad[pos:pos + size].reshape(shape))
        pos += size
    # acts[l] is the input of layers[l] over a row of ones, acts[0] the
    # features; for a hidden acts[l], back[l] takes layers[l].T @ d, whose
    # ones-row slot is never read, and deltas[l] the gradient under its tanh
    acts = [np.ones((k_nets, w + 1, n), dtype=dtype) for w in widths[:-1]]
    acts[0][:, :-1] = 0.0
    targets_t = np.zeros((k_nets, widths[-1], n), dtype=dtype)
    # d/du of rho_q(y - u) / n_k is (1{y < u} - q) / n_k, one of these two
    # values on net k's rows and 0 on its padding
    grad_below = np.zeros((k_nets, widths[-1], n), dtype=dtype)
    grad_above = np.zeros_like(grad_below)
    for k, (feats, ys, levels, n_k) in enumerate(zip(features, targets, qs, rows)):
        acts[0][k, :-1, :n_k] = feats.T
        targets_t[k, :, :n_k] = ys.T
        q = np.asarray(levels, dtype=np.float64)[:, None]
        grad_below[k, :, :n_k] = (1.0 - q) / n_k
        grad_above[k, :, :n_k] = (0.0 - q) / n_k
    back = [None] + [np.empty((k_nets, w + 1, n), dtype=dtype) for w in widths[1:-1]]
    deltas = [None] + [np.empty((k_nets, w, n), dtype=dtype) for w in widths[1:-1]]
    out = np.empty((k_nets, widths[-1], n), dtype=dtype)
    below = np.empty(out.shape, dtype=bool)
    m = np.zeros_like(flat)
    v = np.zeros_like(flat)
    mh = np.empty_like(flat)
    vh = np.empty_like(flat)
    finite = np.empty(flat.shape, dtype=bool)
    b1, b2, eps = 0.9, 0.999, 1e-8
    last = depth - 1
    iters, lr = ADAM_STEPS, ADAM_LR
    for step in range(1, iters + 1):
        np.copyto(pass_flat, flat)
        for l in range(last):
            h = np.matmul(layers[l], acts[l], out=acts[l + 1][:, :-1])
            np.tanh(h, out=h)
        np.matmul(layers[last], acts[last], out=out)
        np.less(targets_t, out, out=below)
        d = np.where(below, grad_below, grad_above)
        for l in range(last, -1, -1):
            np.matmul(d, acts[l].transpose(0, 2, 1), out=grads[l])
            if l == 0:
                break
            np.matmul(layers[l].transpose(0, 2, 1), d, out=back[l])
            # tanh' from its output, 1 - a^2, times the gradient at a
            a = acts[l][:, :-1]
            d = np.multiply(a, a, out=deltas[l])
            np.subtract(1.0, d, out=d)
            d *= back[l][:, :-1]
        np.copyto(grad, pass_grad)
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
            k = next(k for k in range(k_nets) if not all(np.isfinite(W[k]).all() for W in masters))
            raise RuntimeError(
                f"non-finite parameter values at Adam step {step} of {iters}, "
                f"quantile levels {tuple(float(q) for q in qs[k])}"
            )
    # nn's layout: per layer W_l row-major, then b_l
    return [
        MlpParams(spec, np.concatenate(
            [p for Wb in masters for p in (Wb[k, :, :-1].ravel(), Wb[k, :, -1])]))
        for k, spec in enumerate(specs)
    ]


def _features(x: np.ndarray, t) -> np.ndarray:
    # an arm net's input: the covariates and t, a column or one arm for all rows
    return np.column_stack([x, np.broadcast_to(np.asarray(t, dtype=np.float64), x.shape[:1])])


class PinballTask(NamedTuple):
    """One quantile net of a stage: raw feature and target columns, the
    two levels and the init seed."""

    features: np.ndarray
    targets: np.ndarray
    qs: Tuple[float, float]
    seed: int


def pinball_fit(tasks: Sequence[PinballTask]) -> List[QuantileModel]:
    """One stage: a 10-10 tanh net's fit of each task's quantiles, all of
    them in one lockstep loop (_fit_pinball_stage).

    Every task has the same number of feature columns.  features and
    targets are raw columns, standardized here by a Standardizer fit per
    task.  targets holds one column per level, or one column fitted at
    both; that column is standardized before it is widened, so both outputs
    share its mean and sd.
    """
    scalers = [Standardizer.fit(task.features, task.targets) for task in tasks]
    nets = _fit_pinball_stage(
        [scaler.scale_x(task.features) for task, scaler in zip(tasks, scalers)],
        [np.broadcast_to(scaler.scale_y(task.targets), (task.targets.shape[0], 2))
         for task, scaler in zip(tasks, scalers)],
        [task.qs for task in tasks],
        [MlpSpec((task.features.shape[1], 10, 10, 2), seed=task.seed) for task in tasks],
    )
    return [QuantileModel(net, scaler) for net, scaler in zip(nets, scalers)]


def predict_quantiles(model: QuantileModel, features: np.ndarray) -> np.ndarray:
    """Per-row (lower, upper) in data units at raw features, sorted to undo
    quantile crossing."""
    scaler = model.scaler
    out = mlp_forward_batch(model.net, scaler.scale_x(features))[-1] * scaler.y_std + scaler.y_mean
    return np.sort(out, axis=1)


def conformal_scores(model: QuantileModel, valid: Dataset, arm: int) -> np.ndarray:
    """Signed exceedance of each arm-t validation outcome over the raw band."""
    keep = valid.t == arm
    q = predict_quantiles(model, _features(valid.x[keep], arm))
    y = valid.y[keep]
    return np.maximum(q[:, 0] - y, y - q[:, 1])


def calibrate(scores: np.ndarray, alpha: float) -> float:
    """Finite-sample score quantile: the ceil((n+1)(1-alpha))-th order statistic."""
    n = scores.size
    rank = _calibration_rank(n, alpha)
    if rank > n:
        return float("inf")
    return float(np.sort(scores)[rank - 1])


def _calibration_rank(n: int, alpha: float) -> int:
    # the order statistic calibrate picks from n scores; past n the band is infinite
    return math.ceil((n + 1) * (1.0 - alpha))


def _band(
    model: QuantileModel, s_hat: Tuple[float, float], x: np.ndarray, arm: int
) -> Tuple[np.ndarray, np.ndarray]:
    q = predict_quantiles(model, _features(x, arm))
    s = s_hat[arm]
    return q[:, 0] - s, q[:, 1] + s


def _split(n: int, rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    perm = rng.permutation(n)
    half = n // 2
    return perm[:half], perm[half:]


def _interval_outcomes(
    fold2: Dataset, model: QuantileModel, s_hat: Tuple[float, float]
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row ITE interval outcomes from observed arms and counterfactual bands."""
    lo1, hi1 = _band(model, s_hat, fold2.x, 1)
    lo0, hi0 = _band(model, s_hat, fold2.x, 0)
    treated = fold2.t == 1
    c_lo = np.where(treated, fold2.y - hi0, lo1 - fold2.y)
    c_hi = np.where(treated, fold2.y - lo0, hi1 - fold2.y)
    return c_lo, c_hi


def _check_calibration_rows(cal: Dataset, alpha: float) -> None:
    # an arm band at level 1 - alpha/2 needs ceil((n+1)(1 - alpha/2)) <= n
    # calibration rows of its arm; with fewer its band would be infinite
    for arm in (0, 1):
        rows = int(np.count_nonzero(cal.t == arm))
        if _calibration_rank(rows, alpha / 2.0) > rows:
            raise ValueError(
                f"calibration at alpha {alpha} returned an infinite band: arm {arm} has "
                f"{rows} calibration rows, too few for level {1.0 - alpha / 2.0:g}; "
                "use more training rows or a larger alpha"
            )


def fit_cqr(
    train: Dataset, alphas: Sequence[float], modes: Sequence[str], seed: int
) -> Dict[Tuple[str, float], object]:
    """Every CQR fit one training set needs for modes at alphas.

    The plan: draw every split, check every arm band's calibration rows at
    every level, then fit in two pinball_fit stages, each net of a stage
    in one lockstep loop.  Stage 1 fits the arm-band nets, naive's on half
    of train and exact's and inexact's shared one on half of fold 1, at
    each level; stage 2 fits inexact's endpoint nets on fold 2, which need
    stage 1's bands.  Each mode draws its splits from its own generator at
    seed, and no fit draws from one, so a (mode, alpha)'s fit does not
    depend on which other modes and levels are fitted with it.

    Returns, per (mode, alpha), what cqr_ite reads: naive's arm-band model
    and per-arm corrections (s_0, s_1), exact's endpoint coefficients and
    score quantile, and inexact's endpoint model.
    """
    # per-arm bands at level 1 - alpha/2: ("naive" or "fold1", fit rows, calibration rows)
    band_sets = []
    if "naive" in modes:
        rng = np.random.default_rng(seed)
        fit_idx, cal_idx = _split(train.n, rng)
        band_sets.append(("naive", train.subset(fit_idx), train.subset(cal_idx)))
    if "exact" in modes or "inexact" in modes:
        # exact and inexact share fold 1's bands; exact also splits fold 2
        rng = np.random.default_rng(seed)
        fold1_idx, fold2_idx = _split(train.n, rng)
        fold1, fold2 = train.subset(fold1_idx), train.subset(fold2_idx)
        fit_idx, cal_idx = _split(fold1.n, rng)
        reg_idx, cal2_idx = _split(fold2.n, rng)
        band_sets.append(("fold1", fold1.subset(fit_idx), fold1.subset(cal_idx)))
    for _, _, cal in band_sets:
        for alpha in alphas:
            _check_calibration_rows(cal, alpha)

    keys = [(name, alpha) for name, _, _ in band_sets for alpha in alphas]
    models = pinball_fit([
        PinballTask(_features(fit.x, fit.t), fit.y[:, None],
                    (alpha / 2.0 / 2.0, 1.0 - alpha / 2.0 / 2.0), seed)
        for _, fit, _ in band_sets for alpha in alphas
    ])
    cals = {name: cal for name, _, cal in band_sets}
    bands = {
        (name, alpha): (model, tuple(
            calibrate(conformal_scores(model, cals[name], arm), alpha / 2.0) for arm in (0, 1)))
        for (name, alpha), model in zip(keys, models)
    }
    fits = {("naive", alpha): bands["naive", alpha] for alpha in alphas if "naive" in modes}
    outcomes = {alpha: _interval_outcomes(fold2, *bands["fold1", alpha])
                for alpha in alphas if ("fold1", alpha) in bands}
    if "exact" in modes:
        # least-squares endpoint surfaces on one half of fold 2,
        # interval-outcome conformal scores on the other
        design = np.column_stack([np.ones(len(reg_idx)), fold2.x[reg_idx]])
        cal_design = np.column_stack([np.ones(len(cal2_idx)), fold2.x[cal2_idx]])
        for alpha, (c_lo, c_hi) in outcomes.items():
            coef_lo, *_ = np.linalg.lstsq(design, c_lo[reg_idx], rcond=None)
            coef_hi, *_ = np.linalg.lstsq(design, c_hi[reg_idx], rcond=None)
            s = np.maximum(
                cal_design @ coef_lo - c_lo[cal2_idx], c_hi[cal2_idx] - cal_design @ coef_hi
            )
            fits["exact", alpha] = (coef_lo, coef_hi, calibrate(s, alpha))
    if "inexact" in modes:
        # median regression of both endpoints, no second conformal step
        models = pinball_fit([
            PinballTask(fold2.x, np.column_stack(outcomes[alpha]), (0.5, 0.5), seed + 1)
            for alpha in alphas
        ])
        fits.update((("inexact", alpha), model) for alpha, model in zip(alphas, models))
    return fits


def cqr_ite(
    fits: Dict[Tuple[str, float], object], test: Dataset, alpha: float, mode: str
) -> Intervals:
    """Covariates-only ITE intervals for every test row, tagged Im, from
    fit_cqr's fits of mode at alpha, as one block in test order.

    naive differences the per-arm bands at level 1 - alpha/2; exact and
    inexact read their endpoint surfaces.
    """
    fit = fits[mode, alpha]
    if mode == "naive":
        model, s_hat = fit
        lo1, hi1 = _band(model, s_hat, test.x, 1)
        lo0, hi0 = _band(model, s_hat, test.x, 0)
        lower, upper = lo1 - hi0, hi1 - lo0
    elif mode == "inexact":
        lower, upper = predict_quantiles(fit, test.x).T
    else:
        coef_lo, coef_hi, s_hat = fit
        test_design = np.column_stack([np.ones(test.n), test.x])
        lower = test_design @ coef_lo - s_hat
        upper = test_design @ coef_hi + s_hat

    # crossed endpoints mean an empty interval; report the degenerate point
    swap, mid = lower > upper, 0.5 * (lower + upper)
    lower, upper = np.where(swap, mid, lower), np.where(swap, mid, upper)

    return Intervals(np.arange(test.n), np.full(test.n, "Im"), lower, upper, alpha)
