"""Energy and gradients for joint latent-noise / inverse-network sampling.

An observation model y = c(x) + tau(x) * t + sigma * z is solved by learning
an inverse network g that maps each observation row (y_i, t_i', x_i, z_i) to
a parameter estimate theta_hat_i.  The energy

    U(Z, w) = sum_i (y_i - f(x_i, t_i, z_i; theta_bar))^2
            + eta * sum_i ||theta_hat_i - theta_bar||^2

couples all observations through theta_bar, the mean of the theta_hat rows.
This module evaluates U and its exact gradients in Z and in the inverse
network's weights.

The inverse network's output layer is linear, theta_hat_i = s W a_i + b with
a_i its last hidden layer and s its out_scale, so everything is computed in
hidden space and the n x theta_dim matrix of theta_hat rows is never formed:

    theta_bar   = s W a_bar + b
    consensus   = s^2 tr(W^T W C),   C = sum_i (a_i - a_bar)(a_i - a_bar)^T
    dU/da_i     = 2 eta s^2 W^T W (a_i - a_bar) + s W^T A / n
    dU/dW       = 2 eta s^2 W C + s A a_bar^T
    dU/db       = A

where A = dU/dtheta_bar of the residual term, a single O(n) aggregate
(_dbar_aggregate).  The consensus term has no theta_bar gradient because
sum_i (a_i - a_bar) = 0 holds by construction.

When a Standardizer is supplied, the system is solved in standardized
outcome/covariate units (inputs, residuals and theta all standardized) and
predictions are mapped back to data units; see Standardizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .nn import (
    MlpParams,
    MlpSpec,
    _layer_slices,
    mlp_backward_batch,
    mlp_forward_batch,
    mlp_init,
    param_count,
)

MODEL_KINDS = ("linear_ate", "dnn_tau_linear_c", "dnn_both")


@dataclass
class Dataset:
    """Observed data plus optional simulation truth columns.

    x: covariates (n, d); t: binary treatment (n,); y: outcome (n,).
    Truth columns, when present, come from a generator: the latent draw that
    produced the observed arm, the effect and control surfaces, and both
    potential outcomes.
    """

    x: np.ndarray
    t: np.ndarray
    y: np.ndarray
    z_true: Optional[np.ndarray] = None
    tau_true: Optional[np.ndarray] = None
    c_true: Optional[np.ndarray] = None
    y1: Optional[np.ndarray] = None
    y0: Optional[np.ndarray] = None
    propensity: Optional[np.ndarray] = None

    def __post_init__(self):
        self.x = np.atleast_2d(np.asarray(self.x, dtype=np.float64))
        self.t = np.asarray(self.t)
        self.y = np.asarray(self.y, dtype=np.float64)
        n = self.x.shape[0]
        if self.t.shape != (n,) or self.y.shape != (n,):
            raise ValueError(
                f"inconsistent shapes: x {self.x.shape}, t {self.t.shape}, y {self.y.shape}"
            )
        tv = np.unique(self.t)
        if not np.all(np.isin(tv, (0, 1))):
            raise ValueError(f"treatment must be binary 0/1, found values {tv}")
        self.t = self.t.astype(np.int64)
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.y))):
            raise ValueError("non-finite covariate or outcome values")
        for name in ("z_true", "tau_true", "c_true", "y1", "y0", "propensity"):
            v = getattr(self, name)
            if v is not None:
                v = np.asarray(v, dtype=np.float64)
                if v.shape != (n,):
                    raise ValueError(f"{name} has shape {v.shape}, expected ({n},)")
                setattr(self, name, v)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    def subset(self, idx: np.ndarray) -> "Dataset":
        """Row subset keeping whatever truth columns exist."""
        pick = lambda v: None if v is None else v[idx]
        return Dataset(
            x=self.x[idx],
            t=self.t[idx],
            y=self.y[idx],
            z_true=pick(self.z_true),
            tau_true=pick(self.tau_true),
            c_true=pick(self.c_true),
            y1=pick(self.y1),
            y0=pick(self.y0),
            propensity=pick(self.propensity),
        )


@dataclass(frozen=True)
class Standardizer:
    """Affine train-set standardization of covariates and outcome.

    The sampler runs in standardized units: the inverse network sees
    standardized (y, x), the data model is fit to standardized residuals,
    and theta draws live in that space.  Inference maps effect and noise
    scales back to data units through y_std.
    """

    x_mean: np.ndarray
    x_std: np.ndarray
    y_mean: float
    y_std: float

    @classmethod
    def fit(cls, data: Dataset) -> "Standardizer":
        x_std = data.x.std(axis=0)
        x_std = np.where(x_std > 0, x_std, 1.0)
        y_std = float(data.y.std())
        return cls(
            x_mean=data.x.mean(axis=0),
            x_std=x_std,
            y_mean=float(data.y.mean()),
            y_std=y_std if y_std > 0 else 1.0,
        )

    def scale_x(self, x: np.ndarray) -> np.ndarray:
        return (x - self.x_mean) / self.x_std

    def scale_y(self, y: np.ndarray) -> np.ndarray:
        return (y - self.y_mean) / self.y_std


def _sx(scaler: Optional[Standardizer], x: np.ndarray) -> np.ndarray:
    return x if scaler is None else scaler.scale_x(x)


def _sy(scaler: Optional[Standardizer], y: np.ndarray) -> np.ndarray:
    return y if scaler is None else scaler.scale_y(y)


def _y_scale(scaler: Optional[Standardizer]) -> float:
    return 1.0 if scaler is None else scaler.y_std


def _y_shift(scaler: Optional[Standardizer]) -> float:
    return 0.0 if scaler is None else scaler.y_mean


@dataclass(frozen=True)
class ThetaLayout:
    """Slot layout of the model parameter vector theta.

    linear_ate:        [tau', mu', beta_1..beta_d, log sigma]
                       (c_spec = d + 1 linear coefficients, tau_spec None)
    dnn_tau_linear_c:  [mu, beta_1..beta_d, tau-network weights, log sigma]
    dnn_both:          [c-network weights, tau-network weights, log sigma]

    Network-valued blocks are stored multiplied by `rescale` so all inverse
    network output slots have comparable magnitude; unpacking divides the
    blocks by `rescale` and exponentiates the log-sigma slot.
    """

    model_kind: str
    c_spec: Union[int, MlpSpec]
    tau_spec: Optional[MlpSpec] = None
    rescale: float = 25.0

    def __post_init__(self):
        if self.model_kind not in MODEL_KINDS:
            raise ValueError(f"unknown model_kind {self.model_kind!r}, expected one of {MODEL_KINDS}")
        if self.rescale <= 0:
            raise ValueError("rescale must be positive")
        if self.model_kind == "linear_ate":
            if not isinstance(self.c_spec, int) or self.tau_spec is not None:
                raise ValueError("linear_ate uses an integer c_spec and no tau network")
            if self.c_spec < 1:
                raise ValueError("linear_ate needs at least an intercept coefficient")
        elif self.model_kind == "dnn_tau_linear_c":
            if not isinstance(self.c_spec, int) or not isinstance(self.tau_spec, MlpSpec):
                raise ValueError("dnn_tau_linear_c uses an integer c_spec and an MlpSpec tau_spec")
        else:
            if not isinstance(self.c_spec, MlpSpec) or not isinstance(self.tau_spec, MlpSpec):
                raise ValueError("dnn_both uses MlpSpec for both surfaces")
        for spec, name in ((self.c_spec, "c"), (self.tau_spec, "tau")):
            if isinstance(spec, MlpSpec) and spec.d_out != 1:
                raise ValueError(f"{name} network must have a single output, got {spec.d_out}")

    @property
    def c_dim(self) -> int:
        return self.c_spec if isinstance(self.c_spec, int) else param_count(self.c_spec)

    @property
    def tau_dim(self) -> int:
        if self.tau_spec is None:
            return 1
        return param_count(self.tau_spec)

    @property
    def theta_dim(self) -> int:
        return self.c_dim + self.tau_dim + 1

    @property
    def tau_slice(self) -> slice:
        if self.model_kind == "linear_ate":
            return slice(0, 1)
        return slice(self.c_dim, self.c_dim + self.tau_dim)

    @property
    def c_slice(self) -> slice:
        if self.model_kind == "linear_ate":
            return slice(1, 1 + self.c_dim)
        return slice(0, self.c_dim)

    @property
    def log_sigma_index(self) -> int:
        return self.theta_dim - 1


@dataclass
class ModelTheta:
    """Unpacked view of one theta vector (rescaling already undone)."""

    kind: str
    sigma: float
    log_sigma: float
    tau_prime: Optional[float] = None
    c_coef: Optional[np.ndarray] = None
    c_net: Optional[MlpParams] = None
    tau_net: Optional[MlpParams] = None


def unpack_theta(theta: np.ndarray, layout: ThetaLayout) -> ModelTheta:
    """Split a theta vector into model pieces.

    Network-valued blocks are divided by layout.rescale, the noise scale is
    exp of the last slot.  Linear coefficient blocks are taken as-is.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (layout.theta_dim,):
        raise ValueError(f"theta has shape {theta.shape}, layout needs ({layout.theta_dim},)")
    log_sigma = float(theta[layout.log_sigma_index])
    mt = ModelTheta(kind=layout.model_kind, sigma=float(np.exp(log_sigma)), log_sigma=log_sigma)
    if layout.model_kind == "linear_ate":
        mt.tau_prime = float(theta[0])
        mt.c_coef = theta[layout.c_slice].copy()
    elif layout.model_kind == "dnn_tau_linear_c":
        mt.c_coef = theta[layout.c_slice].copy()
        mt.tau_net = MlpParams(layout.tau_spec, theta[layout.tau_slice] / layout.rescale)
    else:
        mt.c_net = MlpParams(layout.c_spec, theta[layout.c_slice] / layout.rescale)
        mt.tau_net = MlpParams(layout.tau_spec, theta[layout.tau_slice] / layout.rescale)
    return mt


def least_squares_theta(
    data: Dataset, layout: ThetaLayout, scaler: Optional[Standardizer] = None
) -> np.ndarray:
    """Starting theta: the least-squares fit with the latent noise marginalized.

    Since the reference noise is independent of (x, t), an ordinary
    regression of the outcome on the design is a consistent estimate of the
    location parameters, and its residual scale estimates sigma.  Linear
    blocks (and the output bias of each network-valued block) are set from
    that regression; network blocks otherwise keep their seeded
    initialization so the surfaces start non-degenerate.  The log-sigma slot
    gets the log residual scale, floored away from zero.
    """
    ys = _sy(scaler, data.y)
    xs = _sx(scaler, data.x)
    n = data.n
    theta = np.zeros(layout.theta_dim)
    if layout.model_kind == "linear_ate":
        design = np.column_stack([2.0 * data.t - 1.0, np.ones(n), xs])
        coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
        theta[: layout.log_sigma_index] = coef
    else:
        design = np.column_stack([np.ones(n), xs, data.t.astype(np.float64)])
        coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
        if isinstance(layout.c_spec, int):
            theta[layout.c_slice] = coef[: layout.c_dim]
        else:
            block = layout.rescale * mlp_init(layout.c_spec).flat
            block[-1] = layout.rescale * coef[0]
            theta[layout.c_slice] = block
        tau_block = layout.rescale * mlp_init(layout.tau_spec).flat
        tau_block[-1] = layout.rescale * coef[-1]
        theta[layout.tau_slice] = tau_block
    resid_sd = float(np.std(ys - design @ coef))
    theta[layout.log_sigma_index] = np.log(max(resid_sd, 0.05))
    return theta


def feature_matrix(data: Dataset, z: np.ndarray, scaler: Optional[Standardizer] = None) -> np.ndarray:
    """Inverse-network input rows for a whole dataset, standardized if asked."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (data.n,):
        raise ValueError(f"z has shape {z.shape}, expected ({data.n},)")
    cols = [
        _sy(scaler, data.y)[:, None],
        (2.0 * data.t - 1.0)[:, None].astype(np.float64),
        _sx(scaler, data.x),
        z[:, None],
    ]
    return np.concatenate(cols, axis=1)


def _check_widths(w: MlpParams, data: Dataset, layout: ThetaLayout) -> None:
    if w.spec.d_in != data.d + 3:
        raise ValueError(
            f"inverse network input width {w.spec.d_in} != d + 3 = {data.d + 3}"
        )
    if w.spec.d_out != layout.theta_dim:
        raise ValueError(
            f"inverse network output width {w.spec.d_out} != theta dim {layout.theta_dim}"
        )
    for spec in (layout.c_spec, layout.tau_spec):
        if isinstance(spec, MlpSpec) and spec.d_in != data.d:
            raise ValueError(f"surface network input width {spec.d_in} != d = {data.d}")
    if isinstance(layout.c_spec, int) and layout.c_spec != data.d + 1:
        raise ValueError(
            f"linear surface has {layout.c_spec} coefficients, data needs {data.d + 1}"
        )


def _mean_rows(
    mt: ModelTheta, layout: ThetaLayout, xs: np.ndarray, t01: np.ndarray, z: np.ndarray
) -> tuple[np.ndarray, tuple]:
    # model mean f(x, t, z; theta) rows in the solve's units, and the
    # activations of the (c, tau) data-model nets, None for a linear surface
    c_acts = tau_acts = None
    if layout.model_kind == "linear_ate":
        tprime = 2.0 * t01 - 1.0
        base = mt.tau_prime * tprime + mt.c_coef[0] + xs @ mt.c_coef[1:]
    else:
        if layout.model_kind == "dnn_tau_linear_c":
            c_vals = mt.c_coef[0] + xs @ mt.c_coef[1:]
        else:
            c_acts = mlp_forward_batch(mt.c_net, xs)
            c_vals = c_acts[-1][:, 0]
        tau_acts = mlp_forward_batch(mt.tau_net, xs)
        base = c_vals + tau_acts[-1][:, 0] * t01
    return base + mt.sigma * z, (c_acts, tau_acts)


def _dbar_aggregate(
    mt: ModelTheta,
    layout: ThetaLayout,
    xs: np.ndarray,
    t01: np.ndarray,
    z: np.ndarray,
    rvec: np.ndarray,
    surface_acts: tuple,
) -> np.ndarray:
    # sum_j rvec_j * d f_j / d theta_bar, laid out like theta; surface_acts
    # are the data-model nets' activations from _mean_rows
    c_acts, tau_acts = surface_acts
    out = np.zeros(layout.theta_dim)
    if layout.model_kind == "linear_ate":
        tprime = 2.0 * t01 - 1.0
        out[0] = rvec @ tprime
        out[1] = rvec.sum()
        out[2 : 2 + xs.shape[1]] = xs.T @ rvec
    elif layout.model_kind == "dnn_tau_linear_c":
        out[0] = rvec.sum()
        out[1 : 1 + xs.shape[1]] = xs.T @ rvec
        pg, _ = mlp_backward_batch(
            mt.tau_net, tau_acts, (rvec * t01)[:, None], need_input=False
        )
        out[layout.tau_slice] = pg / layout.rescale
    else:
        pg_c, _ = mlp_backward_batch(mt.c_net, c_acts, rvec[:, None], need_input=False)
        out[layout.c_slice] = pg_c / layout.rescale
        pg_t, _ = mlp_backward_batch(
            mt.tau_net, tau_acts, (rvec * t01)[:, None], need_input=False
        )
        out[layout.tau_slice] = pg_t / layout.rescale
    # chain through sigma = exp(log sigma)
    out[layout.log_sigma_index] = mt.sigma * (rvec @ z)
    return out


def model_predict_batch(
    theta: np.ndarray,
    layout: ThetaLayout,
    x: np.ndarray,
    t: np.ndarray,
    z: np.ndarray,
    scaler: Optional[Standardizer] = None,
) -> np.ndarray:
    """Vector of model mean outcomes in data units."""
    mt = unpack_theta(theta, layout)
    f, _ = _mean_rows(mt, layout, _sx(scaler, x), np.asarray(t, dtype=np.float64), z)
    return _y_shift(scaler) + _y_scale(scaler) * f


def tau_surface(
    theta: np.ndarray, layout: ThetaLayout, x: np.ndarray, scaler: Optional[Standardizer] = None
) -> np.ndarray:
    """Treatment effect tau(x) per row, in data units."""
    mt = unpack_theta(theta, layout)
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if layout.model_kind == "linear_ate":
        vals = np.full(x.shape[0], 2.0 * mt.tau_prime)
    else:
        vals = mlp_forward_batch(mt.tau_net, _sx(scaler, x))[-1][:, 0]
    return _y_scale(scaler) * vals


def c_surface(
    theta: np.ndarray, layout: ThetaLayout, x: np.ndarray, scaler: Optional[Standardizer] = None
) -> np.ndarray:
    """Untreated mean outcome c(x) per row, in data units."""
    mt = unpack_theta(theta, layout)
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    xs = _sx(scaler, x)
    if layout.model_kind == "linear_ate":
        # y = tau' t' + mu' + x beta + sigma z with t' = -1 on controls
        vals = mt.c_coef[0] - mt.tau_prime + xs @ mt.c_coef[1:]
    elif layout.model_kind == "dnn_tau_linear_c":
        vals = mt.c_coef[0] + xs @ mt.c_coef[1:]
    else:
        vals = mlp_forward_batch(mt.c_net, xs)[-1][:, 0]
    return _y_shift(scaler) + _y_scale(scaler) * vals


def sigma_of(theta: np.ndarray, layout: ThetaLayout, scaler: Optional[Standardizer] = None) -> float:
    """Noise scale sigma in data units."""
    return _y_scale(scaler) * float(np.exp(np.asarray(theta)[layout.log_sigma_index]))


@dataclass
class EnergyReport:
    total: float
    theta_bar: np.ndarray


@dataclass
class GradReport:
    total: float
    theta_bar: np.ndarray
    sigma: float  # solve-space noise scale exp(theta_bar log-sigma slot)
    z_grad: Optional[np.ndarray] = None
    w_grad: Optional[np.ndarray] = None


@dataclass
class _HiddenPass:
    # one inverse-network forward to the last hidden layer and what the
    # energy and its gradients share
    trunk: list  # inverse-network activations, features to last hidden layer
    z: np.ndarray
    W: np.ndarray  # output-layer weight matrix, (theta_dim, hidden)
    dev: np.ndarray  # a_i - a_bar, (n, hidden)
    a_bar: np.ndarray
    cov: np.ndarray  # C = dev^T dev
    gram: np.ndarray  # W^T W
    theta_bar: np.ndarray
    mt: ModelTheta
    xs: np.ndarray
    t01: np.ndarray
    resid: np.ndarray
    surface_acts: tuple  # data-model net activations, see _mean_rows
    total: float


def _hidden_pass(
    w: MlpParams,
    data: Dataset,
    z: np.ndarray,
    eta: float,
    layout: ThetaLayout,
    scaler: Optional[Standardizer],
) -> _HiddenPass:
    _check_widths(w, data, layout)
    z = np.asarray(z, dtype=np.float64)
    feats = feature_matrix(data, z, scaler)
    trunk = mlp_forward_batch(w, feats, head=False)
    hidden = trunk[-1]
    W, b = w.layers()[-1]
    s = w.spec.out_scale
    a_bar = hidden.mean(axis=0)
    dev = hidden - a_bar
    cov = dev.T @ dev
    gram = W.T @ W
    tb = s * (W @ a_bar) + b
    mt = unpack_theta(tb, layout)
    xs = _sx(scaler, data.x)
    t01 = data.t.astype(np.float64)
    rows, surface_acts = _mean_rows(mt, layout, xs, t01, z)
    resid = _sy(scaler, data.y) - rows
    total = float((resid**2).sum() + eta * s * s * (gram * cov).sum())
    return _HiddenPass(
        trunk, z, W, dev, a_bar, cov, gram, tb, mt, xs, t01, resid, surface_acts, total
    )


def energy(
    w: MlpParams,
    data: Dataset,
    z: np.ndarray,
    eta: float,
    layout: ThetaLayout,
    scaler: Optional[Standardizer] = None,
) -> EnergyReport:
    """Energy U at (Z, w): squared residuals plus eta-weighted consensus.

    With a scaler, residuals are taken on standardized outcomes (the units the
    system is solved in).
    """
    hp = _hidden_pass(w, data, z, eta, layout, scaler)
    return EnergyReport(total=hp.total, theta_bar=hp.theta_bar)


def energy_gradients(
    w: MlpParams,
    data: Dataset,
    z: np.ndarray,
    eta: float,
    layout: ThetaLayout,
    scaler: Optional[Standardizer] = None,
    need_z: bool = True,
    need_w: bool = True,
) -> GradReport:
    """U and its exact gradients in one forward and one backward pass.

    z_grad is dU/dZ and w_grad is dU/dw, the flat inverse-network gradient;
    the sampler forms its latent and weight log-density gradients from them.
    Both come from the hidden-space closed forms in the module docstring:
    the trunk below the output layer is back-propagated from dU/da_i, and
    the output layer's gradient is filled in from dU/dW and dU/db.
    """
    hp = _hidden_pass(w, data, z, eta, layout, scaler)
    W, s = hp.W, w.spec.out_scale
    # A = d(sum_j d_j)/d theta_bar = -2 sum_j r_j df_j/d theta_bar
    a_total = -2.0 * _dbar_aggregate(
        hp.mt, layout, hp.xs, hp.t01, hp.z, hp.resid, hp.surface_acts
    )
    c = 2.0 * eta * s * s
    hidden_grads = hp.dev @ (c * hp.gram) + (s / data.n) * (W.T @ a_total)
    # the z pass needs only the input gradient, the w pass the weight gradient
    w_grad, input_grads = mlp_backward_batch(
        w, hp.trunk, hidden_grads, head=False, need_params=need_w, need_input=need_z
    )

    rep = GradReport(total=hp.total, theta_bar=hp.theta_bar, sigma=hp.mt.sigma)
    if need_z:
        # direct path d d_i / d z_i at fixed theta_bar, plus the inverse-net path
        rep.z_grad = -2.0 * hp.resid * hp.mt.sigma + input_grads[:, -1]
    if need_w:
        ws, bs, _ = _layer_slices(w.spec)[-1]
        w_grad[ws] = (c * (W @ hp.cov) + s * np.outer(a_total, hp.a_bar)).ravel()
        w_grad[bs] = a_total
        rep.w_grad = w_grad
    return rep
