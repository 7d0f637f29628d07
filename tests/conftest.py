import numpy as np
import pytest

import fidte.cqr
from fidte.engine import RESCALE, Standardizer
from fidte.inference import Intervals
from fidte.nn import MlpParams, mlp_forward_batch, mlp_init
from fidte.prior import RHO, SIGMA0, SIGMA1

# Standardizer that leaves covariates and outcomes as they are: the solve
# then runs in data units, which makes hand-computed expectations simple.
IDENTITY_SCALER = Standardizer(x_mean=np.zeros(1), x_std=np.ones(1), y_mean=0.0, y_std=1.0)


def central_diff(f, x, h=1e-6):
    """Central finite-difference gradient of scalar f at vector x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def assert_grad_close(analytic, numeric, rtol=1e-4, atol=1e-7):
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def adam_steps(monkeypatch):
    """Sets the CQR fits' Adam step count and learning rate for one test."""

    def set_steps(iters, lr):
        monkeypatch.setattr(fidte.cqr, "ADAM_STEPS", iters)
        monkeypatch.setattr(fidte.cqr, "ADAM_LR", lr)

    return set_steps


def slices_mask(size, slices):
    """Boolean mask of length size, set on each of slices (a head_slices
    head), for the np.where reference forms of the head's scaling."""
    mask = np.zeros(size, dtype=bool)
    for sl in slices:
        mask[sl] = True
    return mask


def lse_log_prior_grad(w, scale=None):
    """Reference gradient of the mixture prior, by log-sum-exp responsibilities.

    The form fidte.prior used before its one-exp responsibility: both
    weighted component log densities, r_c = exp(a_c - logsumexp), and
    -w (r1 / SIGMA1^2 + r0 / SIGMA0^2).  Its squares overflow for |w| past
    ~1e153, so it is a reference only below that.
    """
    w = np.asarray(w, dtype=np.float64)
    inv = 1.0
    if scale is not None:
        s = np.broadcast_to(np.asarray(scale, dtype=np.float64), w.shape)
        w = w / s
        inv = 1.0 / s
    log_2pi = np.log(2.0 * np.pi)
    a1 = np.log(RHO) - 0.5 * log_2pi - np.log(SIGMA1) - 0.5 * (w / SIGMA1) ** 2
    a0 = np.log1p(-RHO) - 0.5 * log_2pi - np.log(SIGMA0) - 0.5 * (w / SIGMA0) ** 2
    lse = np.logaddexp(a1, a0)
    r1 = np.exp(a1 - lse)
    r0 = np.exp(a0 - lse)
    return -w * (r1 / SIGMA1**2 + r0 / SIGMA0**2) * inv


def sum_param_grad(params, acts, out_grads, head=True):
    """Reference parameter gradient, by the backward pass's earlier arithmetic.

    The form fidte.nn.mlp_backward_batch used before its column sums went
    through einsum: every bias gradient is .sum(axis=0).  Each array is new.
    """
    layers = params.layers()
    last = len(layers) - 1
    grads = np.asarray(out_grads, dtype=np.float64)
    if head:
        pieces = [((grads.T @ acts[last]).ravel(), grads.sum(axis=0))]
        grads = grads @ layers[last][0]
    else:
        pieces = [(np.zeros(layers[last][0].size), np.zeros(layers[last][1].size))]
    for l in range(last - 1, -1, -1):
        delta = (1.0 - acts[l + 1] * acts[l + 1]) * grads
        pieces.append(((delta.T @ acts[l]).ravel(), delta.sum(axis=0)))
        grads = delta @ layers[l][0]
    return np.concatenate([g for pair in reversed(pieces) for g in pair])


def allocating_pinball_net(features, targets, qs, spec):
    """Reference pinball fit in nn's row-major layout, every term a new array.

    Full-batch Adam from mlp_init(spec), with fidte.cqr's step count and
    rate, and the parameter gradient of
    sum_param_grad: the fit fidte.cqr ran through nn's
    passes before it trained in its folded layout.
    """
    n = features.shape[0]
    qvec = np.asarray(qs, dtype=np.float64)[None, :]
    net = mlp_init(spec)
    flat = net.flat
    m = np.zeros_like(flat)
    v = np.zeros_like(flat)
    b1, b2, eps = 0.9, 0.999, 1e-8
    for step in range(1, fidte.cqr.ADAM_STEPS + 1):
        acts = mlp_forward_batch(net, features)
        out_grad = ((targets < acts[-1]).astype(np.float64) - qvec) / n
        grad = sum_param_grad(net, acts, out_grad)
        m = b1 * m + (1.0 - b1) * grad
        v = b2 * v + (1.0 - b2) * grad**2
        mh = m / (1.0 - b1**step)
        vh = v / (1.0 - b2**step)
        flat -= fidte.cqr.ADAM_LR * mh / (np.sqrt(vh) + eps)
    return net


def fold_layers(net):
    """A network's layers as bias-folded matrices [W_l | b_l], each a new array."""
    return [np.column_stack([W, b]) for W, b in net.layers()]


def unfold_layers(layers):
    """nn's flat layout of folded matrices: per layer W_l row-major, then b_l."""
    return np.concatenate([p for Wb in layers for p in (Wb[:, :-1].ravel(), Wb[:, -1])])


def folded_activations(layers, features):
    """Feature-major activations [x, hidden_1, ...], each (d_l + 1, n) over a
    row of ones, and the (d_out, n) output, every array new."""
    ones = np.ones((1, features.shape[0]))
    # C order, as the fit holds it: vstack would keep features.T's column order,
    # and the first layer's weight gradient would round as another GEMM
    acts = [np.ascontiguousarray(np.vstack([features.T, ones]))]
    for Wb in layers[:-1]:
        acts.append(np.vstack([np.tanh(Wb @ acts[-1]), ones]))
    return acts, layers[-1] @ acts[-1]


def folded_pinball_grads(layers, features, targets, qs):
    """Per-layer gradients of the summed pinball losses over n, in the folded
    layout: one (d_l, d_{l-1} + 1) matrix per layer, every array new."""
    n = features.shape[0]
    q = np.asarray(qs, dtype=np.float64)[:, None]
    acts, out = folded_activations(layers, features)
    d = np.where(targets.T < out, (1.0 - q) / n, (0.0 - q) / n)
    grads = [None] * len(layers)
    for l in range(len(layers) - 1, -1, -1):
        grads[l] = d @ acts[l].T
        if l > 0:
            a = acts[l][:-1]
            d = (1.0 - a * a) * (layers[l].T @ d)[:-1]
    return grads


def folded_pinball_net(features, targets, qs, spec):
    """Reference pinball fit in the folded, feature-major layout.

    The same full-batch Adam as allocating_pinball_net from the same start,
    with the gradient of folded_pinball_grads and every term a new array;
    returns the folded layer matrices.
    """
    layers = fold_layers(mlp_init(spec))
    m = [np.zeros_like(Wb) for Wb in layers]
    v = [np.zeros_like(Wb) for Wb in layers]
    b1, b2, eps = 0.9, 0.999, 1e-8
    for step in range(1, fidte.cqr.ADAM_STEPS + 1):
        grads = folded_pinball_grads(layers, features, targets, qs)
        for l, g in enumerate(grads):
            m[l] = b1 * m[l] + (1.0 - b1) * g
            v[l] = b2 * v[l] + (1.0 - b2) * g**2
            mh = m[l] / (1.0 - b1**step)
            vh = v[l] / (1.0 - b2**step)
            layers[l] = layers[l] - fidte.cqr.ADAM_LR * mh / (np.sqrt(vh) + eps)
    return layers


def per_draw_chain_surfaces(chain, layout, x):
    """Reference chain surfaces: every draw's surfaces computed afresh.

    What engine.draw_surfaces returns, computed one draw at a time: x is
    standardized per draw and a new network is built for each network
    surface on every draw, where draw_surfaces reuses the layout's nets.
    """

    def surface(spec, block, xs):
        if spec is None:
            return block[0]
        if isinstance(spec, int):
            return block[0] + xs @ block[1:]
        return mlp_forward_batch(MlpParams(spec, block / RESCALE), xs)[-1][:, 0]

    scaler = chain.scaler
    m = chain.draws.shape[0]
    c_mat = np.empty((m, x.shape[0]))
    tau_mat = np.empty((m, x.shape[0]))
    sig = np.empty(m)
    for k in range(m):
        theta = chain.draws[k]
        xs = scaler.scale_x(np.atleast_2d(np.asarray(x, dtype=np.float64)))
        c = surface(layout.c_spec, theta[layout.c_slice], xs)
        tau = surface(layout.tau_spec, theta[layout.tau_slice], xs)
        if layout.tau_spec is None:
            c, tau = c - tau, np.full(xs.shape[0], 2.0 * tau)
        c_mat[k] = scaler.y_mean + scaler.y_std * c
        tau_mat[k] = scaler.y_std * tau
        sig[k] = scaler.y_std * float(np.exp(theta[layout.log_sigma_index]))
    return c_mat, tau_mat, sig


def per_subject_ite_intervals(surfaces, test, alpha, rng, cases):
    """Reference ITE intervals: one np.quantile call per subject.

    The form fidte.inference.ite_intervals took before it built a case's
    predictive draws in blocks of subjects; it reads the same subject streams.
    """
    c_mat, tau_mat, sig = surfaces
    qs = (alpha / 2.0, 1.0 - alpha / 2.0)
    out = []
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
        out.append((case, lower, upper))
    cases, lowers, uppers = map(np.array, zip(*out))
    return Intervals(np.arange(test.n), cases, lowers, uppers, alpha)
