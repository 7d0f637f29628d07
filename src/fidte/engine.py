"""Energy and gradients for joint latent-noise / inverse-network sampling.

An observation model y = c(x) + tau(x) * t + sigma * z is solved by learning
an inverse network g that maps each observation row (y_i, t_i', x_i, z_i) to
a parameter estimate theta_hat_i.  The energy

    U(Z, w) = sum_i (y_i - f(x_i, t_i, z_i; theta_bar))^2
            + eta * sum_i ||theta_hat_i - theta_bar||^2

couples all observations through theta_bar, the mean of the theta_hat rows.
This module evaluates U and its exact gradients in Z and in the inverse
network's weights.  ThetaLayout describes the model by its two surfaces, c
and tau, each linear (constant, for tau) or a network, and every model
function branches once per surface.

The inverse network's output layer is linear, theta_hat_i = s W a_i + b with
a_i its last hidden layer and s = OUT_SCALE, so everything is computed in
hidden space and the n x theta_dim matrix of theta_hat rows is never formed:

    theta_bar   = s W a_bar + b
    consensus   = s^2 tr(W^T W C),   C = sum_i (a_i - a_bar)(a_i - a_bar)^T
    dU/da_i     = 2 eta s^2 W^T W (a_i - a_bar) + s W^T A / n
    dU/dW       = 2 eta s^2 W C + s A a_bar^T
    dU/db       = A

where A = dU/dtheta_bar of the residual term, a single O(n) aggregate that
_surface_grad fills block by block.  The consensus term has no theta_bar
gradient because sum_i (a_i - a_bar) = 0 holds by construction.

The system is solved in standardized outcome/covariate units (inputs,
residuals and theta all standardized) and predictions are mapped back to
data units; see Standardizer.  SolveRows holds a run's rows in those units,
built once per run; a minibatch is a row selection of it, and every pass
reads it as it is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .nn import (
    MlpParams,
    MlpSpec,
    _layer_slices,
    hidden_grad_array,
    mlp_backward_batch,
    mlp_forward_batch,
    mlp_init,
    param_count,
)

# theta stores a network's weights times RESCALE, see ThetaLayout
RESCALE = 25.0

# The inverse network's head is theta_hat_i = OUT_SCALE * W a_i + b (see the
# module docstring).  The small scale lets the stored head weights sit at the
# magnitude the shrinkage prior favors while the map they make stays that much
# smaller; with a unit scale the linear_ate_n250 preset at seed 7 diverges at
# iteration 21.
OUT_SCALE = 1.0 / 25.0


# Dataset's truth columns, in the order a csv file holds them after x1..xd, t, y
TRUTH_COLUMNS = ("y0", "y1", "tau_true", "z_true")


@dataclass
class Dataset:
    """Observed data plus optional simulation truth columns.

    x: covariates (n, d); t: binary treatment (n,); y: outcome (n,).
    Truth columns (TRUTH_COLUMNS), when present, come from a generator: the
    latent draw that produced the observed arm, the effect surface, and both
    potential outcomes.  Building one converts the columns to float64 (t to
    int64) and checks nothing: its rows are finite, of one length and of a
    binary t wherever they come from, datagen.generate or a csv file that
    runner.load_csv_dataset has checked cell by cell.
    """

    x: np.ndarray
    t: np.ndarray
    y: np.ndarray
    z_true: Optional[np.ndarray] = None
    tau_true: Optional[np.ndarray] = None
    y1: Optional[np.ndarray] = None
    y0: Optional[np.ndarray] = None

    def __post_init__(self):
        self.x = np.atleast_2d(np.asarray(self.x, dtype=np.float64))
        self.t = np.asarray(self.t).astype(np.int64)
        self.y = np.asarray(self.y, dtype=np.float64)
        for name in TRUTH_COLUMNS:
            v = getattr(self, name)
            if v is not None:
                setattr(self, name, np.asarray(v, dtype=np.float64))

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    def subset(self, idx: np.ndarray) -> "Dataset":
        """Row subset keeping whatever truth columns exist."""
        truth = {name: getattr(self, name) for name in TRUTH_COLUMNS}
        return Dataset(x=self.x[idx], t=self.t[idx], y=self.y[idx],
                       **{name: None if v is None else v[idx] for name, v in truth.items()})


@dataclass(frozen=True)
class Standardizer:
    """Affine train-set standardization of covariate and outcome columns,
    the one column scaling of both the sampler and cqr's quantile nets.

    fit keeps each column's mean and sd: x_mean and x_std per column of x,
    y_mean and y_std per column of y (0-d values for a 1-d y).  A column
    whose values are all equal keeps sd 1, so it scales to ~0, not to the
    +-1 its rounding-level sd would give.

    The sampler runs in standardized units: the inverse network sees
    standardized (y, x), the data model is fit to standardized residuals,
    and theta draws live in that space.  Inference maps effect and noise
    scales back to data units through y_std.  A quantile net fits
    standardized features (x) to standardized targets (y), and
    predict_quantiles maps its outputs back.
    """

    x_mean: np.ndarray
    x_std: np.ndarray
    y_mean: np.ndarray
    y_std: np.ndarray

    @classmethod
    def fit(cls, x: np.ndarray, y: np.ndarray) -> "Standardizer":
        return cls(*_column_moments(x), *_column_moments(y))

    def scale_x(self, x: np.ndarray) -> np.ndarray:
        return (x - self.x_mean) / self.x_std

    def scale_y(self, y: np.ndarray) -> np.ndarray:
        return (y - self.y_mean) / self.y_std


def _column_moments(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # each column's mean and sd, sd 1 where every value equals the first: an
    # exact test, as a constant column's computed sd is rounding, not 0 (the
    # same test as max == min, which raised example2 fit's own peak 0.1 MB)
    const = (a == a[0]).all(axis=0)
    return a.mean(axis=0), np.where(const, 1.0, a.std(axis=0))


@dataclass(frozen=True)
class ThetaLayout:
    """Slot layout of the model parameter vector theta.

    The model is y = c(x) + tau(x) * code(t) + sigma * z.  An int c_spec k is
    a linear c: the intercept, then k - 1 slopes.  An MlpSpec is a network
    surface, stored as its weights times RESCALE so all inverse-network output
    slots have comparable magnitude.  tau_spec None is a constant effect tau'
    on t' = 2t - 1.  Each data source's model (sampler.build_layout) and its
    slots:

        linear_ate, csv  ThetaLayout(d + 1)           [tau', mu', beta, log sigma]
        example1         ThetaLayout(d + 1, tau net)  [mu, beta, tau net, log sigma]
        example2         ThetaLayout(c net, tau net)  [c net, tau net, log sigma]

    build_layout, the one builder, gives each network one output and a
    network c only with a network tau, so neither is checked here.

    c_net and tau_net are the one scratch network of each network surface
    (None otherwise), which every _surface call writes its block into; they
    take no part in the layout's equality, hash or repr.
    """

    c_spec: Union[int, MlpSpec]
    tau_spec: Optional[MlpSpec] = None
    c_slice: slice = field(init=False, repr=False, compare=False)
    tau_slice: slice = field(init=False, repr=False, compare=False)
    theta_dim: int = field(init=False, repr=False, compare=False)
    c_net: Optional[MlpParams] = field(init=False, repr=False, compare=False)
    tau_net: Optional[MlpParams] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for spec, name in ((self.c_spec, "c"), (self.tau_spec, "tau")):
            net = MlpParams(spec, np.zeros(param_count(spec))) if isinstance(spec, MlpSpec) else None
            object.__setattr__(self, f"{name}_net", net)
        c_dim = param_count(self.c_spec) if isinstance(self.c_spec, MlpSpec) else self.c_spec
        if self.tau_spec is None:
            c_slice, tau_slice = slice(1, 1 + c_dim), slice(0, 1)
        else:
            c_slice = slice(0, c_dim)
            tau_slice = slice(c_dim, c_dim + param_count(self.tau_spec))
        object.__setattr__(self, "c_slice", c_slice)
        object.__setattr__(self, "tau_slice", tau_slice)
        object.__setattr__(self, "theta_dim", max(c_slice.stop, tau_slice.stop) + 1)

    @property
    def log_sigma_index(self) -> int:
        return self.theta_dim - 1

    def code(self, t: np.ndarray) -> np.ndarray:
        """The regressor the effect multiplies: t' = 2t - 1 for a constant effect, else t."""
        t = np.asarray(t, dtype=np.float64)
        return 2.0 * t - 1.0 if self.tau_spec is None else t


@dataclass(frozen=True)
class SolveRows:
    """A run's rows in the solve's units: what no pass of the sampler changes.

    ys and xs are the standardized outcome (n,) and covariates (n, d); feats
    holds the inverse network's input columns [y, 2t - 1, x] (n, d + 2),
    to which a pass appends z; u is the regressor the effect multiplies,
    layout.code(t).  Built once per run by build; take selects a minibatch.
    """

    ys: np.ndarray
    xs: np.ndarray
    feats: np.ndarray
    u: np.ndarray

    @classmethod
    def build(cls, data: Dataset, scaler: Standardizer, layout: ThetaLayout) -> "SolveRows":
        ys = scaler.scale_y(data.y)
        xs = scaler.scale_x(data.x)
        feats = np.concatenate([ys[:, None], (2.0 * data.t - 1.0)[:, None], xs], axis=1)
        return cls(ys=ys, xs=xs, feats=feats, u=layout.code(data.t))

    def take(self, idx: np.ndarray) -> "SolveRows":
        """The rows idx, taken as they are (see Dataset)."""
        return SolveRows(ys=self.ys[idx], xs=self.xs[idx], feats=self.feats[idx], u=self.u[idx])

    @property
    def n(self) -> int:
        return self.xs.shape[0]


def _surface(spec, block: np.ndarray, xs: np.ndarray, net: Optional[MlpParams]):
    """One surface's values on the rows xs (a scalar for a constant effect),
    in the solve's units, and a network's (params, activations) or None.

    A network surface writes block, unchecked, into net, the layout's net,
    whose pass arrays the z pass, the w pass and draw_surfaces share: no
    caller holds a surface's activations across another pass."""
    if spec is None:
        return block[0], None
    if isinstance(spec, int):
        return block[0] + xs @ block[1:], None
    np.divide(block, RESCALE, out=net.flat)
    acts = mlp_forward_batch(net, xs)
    return acts[-1][:, 0], (net, acts)


def _surface_grad(spec, net_pass, xs: np.ndarray, r: np.ndarray, u) -> np.ndarray:
    """sum_j r_j u_j d s(x_j) / d block for the surface s of _surface, laid
    out like its theta block; u is the regressor s multiplies (None: 1).
    A network's backward spends the hidden activations in net_pass."""
    if spec is None:
        return r @ u
    if u is not None:
        r = r * u
    if isinstance(spec, int):
        return np.concatenate(([r.sum()], xs.T @ r))
    net, acts = net_pass
    pg, _ = mlp_backward_batch(net, acts, r[:, None], need_input=False)
    return pg / RESCALE


def least_squares_theta(rows: SolveRows, layout: ThetaLayout) -> np.ndarray:
    """Starting theta: the least-squares fit with the latent noise marginalized.

    Since the reference noise is independent of (x, t), an ordinary
    regression of the outcome on the design is a consistent estimate of the
    location parameters, and its residual scale estimates sigma.  The design
    holds, in slot order, [1, x] for c and code(t) for tau.  A linear block
    takes its coefficients; a network block keeps its seeded initialization,
    so the surface starts non-degenerate, with its output bias set from the
    block's first coefficient.  The log-sigma slot gets the log residual
    scale, floored away from zero.
    """
    ys = rows.ys
    blocks = [
        (layout.c_spec, layout.c_slice, np.column_stack([np.ones(rows.n), rows.xs])),
        (layout.tau_spec, layout.tau_slice, rows.u[:, None]),
    ]
    blocks.sort(key=lambda b: b[1].start)
    design = np.column_stack([cols for _, _, cols in blocks])
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    theta = np.zeros(layout.theta_dim)
    k = 0
    for spec, sl, cols in blocks:
        b, k = coef[k : k + cols.shape[1]], k + cols.shape[1]
        if isinstance(spec, MlpSpec):
            intercept, b = b[0], RESCALE * mlp_init(spec).flat
            b[-1] = RESCALE * intercept
        theta[sl] = b
    resid_sd = float(np.std(ys - design @ coef))
    theta[layout.log_sigma_index] = np.log(max(resid_sd, 0.05))
    return theta


def feature_matrix(rows: SolveRows, z: np.ndarray) -> np.ndarray:
    """Inverse-network input rows [y, 2t - 1, x, z], with y and x standardized."""
    return np.concatenate([rows.feats, z[:, None]], axis=1)


def draw_surfaces(draws: np.ndarray, layout: ThetaLayout, x: np.ndarray, scaler: Standardizer):
    """Untreated mean c(x) and effect tau(x) per row of x, and sigma, in data
    units, for each row of draws (m, theta_dim): (c_mat, tau_mat, sig), with
    row k of each from draw k.  ite_intervals and pehe take the result as
    their surfaces.

    x is standardized once and each network surface is the layout's net.
    """
    xs = scaler.scale_x(x)
    m, n = draws.shape[0], xs.shape[0]
    c_mat, tau_mat, sig = np.empty((m, n)), np.empty((m, n)), np.empty(m)
    for k, theta in enumerate(draws):
        c, _ = _surface(layout.c_spec, theta[layout.c_slice], xs, layout.c_net)
        tau, _ = _surface(layout.tau_spec, theta[layout.tau_slice], xs, layout.tau_net)
        if layout.tau_spec is None:
            # t' = -1 on controls, and the 0-to-1 contrast of tau' t' is 2 tau'
            c, tau = c - tau, 2.0 * tau
        c_mat[k] = scaler.y_mean + scaler.y_std * c
        tau_mat[k] = scaler.y_std * tau
        sig[k] = scaler.y_std * float(np.exp(theta[layout.log_sigma_index]))
    return c_mat, tau_mat, sig


@dataclass
class GradReport:
    total: float
    theta_bar: np.ndarray
    z_grad: Optional[np.ndarray] = None
    w_grad: Optional[np.ndarray] = None


def energy(
    w: MlpParams, rows: SolveRows, z: np.ndarray, eta: float, layout: ThetaLayout
) -> GradReport:
    """Energy U at (Z, w): squared residuals plus eta-weighted consensus.

    Residuals are taken on standardized outcomes, the units the system is
    solved in.  This is energy_gradients with neither gradient, one forward.
    """
    return energy_gradients(w, rows, z, eta, layout, need_z=False, need_w=False)


def energy_gradients(
    w: MlpParams,
    rows: SolveRows,
    z: np.ndarray,
    eta: float,
    layout: ThetaLayout,
    need_z: bool = True,
    need_w: bool = True,
) -> GradReport:
    """U and its exact gradients in one forward and one backward pass.

    z_grad is dU/dZ and w_grad is dU/dw, the flat inverse-network gradient;
    the sampler forms its latent and weight log-density gradients from them.
    Both come from the hidden-space closed forms in the module docstring:
    the trunk below the output layer is back-propagated from dU/da_i, and
    the output layer's gradient is filled in from dU/dW and dU/db.  dU/da_i
    is formed in w's own slot for it (nn.hidden_grad_array), which the
    headless backward reads before it overwrites it, and w's pass arrays
    are allocated at its row capacity (see nn.MlpParams), which the
    sampler's step-size estimate sets to all rows before the first
    minibatch.  A gradient not asked for is None; with neither, the pass
    ends after the forward.  The gradients are new arrays, which no later
    pass of w overwrites.  A non-finite theta_bar ends the pass with a NaN
    total and no gradients, which the sampler reports as a divergence.
    """
    feats = feature_matrix(rows, z)
    trunk = mlp_forward_batch(w, feats, head=False)
    hidden = trunk[-1]
    W, b = w.layers()[-1]
    s = OUT_SCALE
    a_bar = hidden.mean(axis=0)
    dev = hidden - a_bar
    cov = dev.T @ dev
    gram = W.T @ W
    tb = s * (W @ a_bar) + b
    if not np.isfinite(tb).all():
        # tanh would saturate on an inf hidden weight of a surface net, hiding it
        return GradReport(total=float("nan"), theta_bar=tb)
    sigma = float(np.exp(tb[layout.log_sigma_index]))
    c, c_pass = _surface(layout.c_spec, tb[layout.c_slice], rows.xs, layout.c_net)
    tau, tau_pass = _surface(layout.tau_spec, tb[layout.tau_slice], rows.xs, layout.tau_net)
    r = rows.ys - (c + tau * rows.u + sigma * z)
    rep = GradReport(total=float((r**2).sum() + eta * s * s * (gram * cov).sum()), theta_bar=tb)
    if not (need_z or need_w):
        return rep

    # A = d(sum_j d_j)/d theta_bar = -2 sum_j r_j df_j/d theta_bar
    a_total = np.empty(layout.theta_dim)
    a_total[layout.c_slice] = _surface_grad(layout.c_spec, c_pass, rows.xs, r, None)
    a_total[layout.tau_slice] = _surface_grad(layout.tau_spec, tau_pass, rows.xs, r, rows.u)
    # chain through sigma = exp(log sigma)
    a_total[layout.log_sigma_index] = sigma * (r @ z)
    a_total *= -2.0
    cons = 2.0 * eta * s * s
    # dU/da_i, formed in w's scratch slot for it, which the backward reads
    hidden_grads = np.matmul(dev, cons * gram, out=hidden_grad_array(w, rows.n))
    hidden_grads += (s / rows.n) * (W.T @ a_total)
    # the z pass needs only the input gradient, the w pass the weight
    # gradient; the backward spends trunk, which nothing below reads
    w_grad, input_grads = mlp_backward_batch(
        w, trunk, hidden_grads, head=False, need_params=need_w, need_input=need_z
    )
    if need_z:
        # direct path d d_i / d z_i at fixed theta_bar, plus the inverse-net path
        rep.z_grad = -2.0 * r * sigma + input_grads[:, -1]
    if need_w:
        ws, bs, shape = _layer_slices(w.spec)[-1]
        Wg = w_grad[ws].reshape(shape)
        np.matmul(W, cov, out=Wg)
        Wg *= cons
        Wg += s * np.outer(a_total, a_bar)
        w_grad[bs] = a_total
        rep.w_grad = w_grad
    return rep
