"""Adaptive stochastic-gradient sampling of latent noise and inverse weights.

One run alternates two moves per iteration k:
  * an SGHMC step on the latent vector Z targeting pi_0(Z) e^(-U/eps),
    with step size upsilon_k and momentum 1 - varpi, temperature fixed at 1;
  * an SGD step on the inverse-network weights along the log posterior
    gradient with step size gamma_k, where each parameter group has its own
    decay constant (output-layer rows feeding network-valued theta blocks
    follow their own schedule).

The absolute scale of every step is anchored, group by group, to a curvature
measured at the start state (see _group_w_rates and Z_STEP_TARGET); the
published schedules contribute only their decay shape (c + 1) / (c + k^a),
which is 1 at k = 1.  The published multipliers C would cancel against that
anchor, so they are not parameters.  The chain starts from the noise-
marginalized least-squares fit.  With weight-update minibatches
(n_batches > 1) the stochastic gradient keeps the weights diffusing around
the posterior mode, which is what spreads theta_bar into a non-degenerate
fiducial sample.

Before the sampling phase an optional initial phase trains the weights
against freshly resampled reference noise.  After burn-in every thin-th
iteration records theta_bar, giving the fiducial sample.

run_efi reads its constants and budgets from the run's ExperimentConfig
(see config), which checks every one of them when it is built; this module
does not import config, because config reads LAYOUT_GROUPS from here.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import IO, Optional

import numpy as np

from .engine import (
    RESCALE,
    Dataset,
    Standardizer,
    ThetaLayout,
    energy,
    energy_gradients,
    feature_matrix,
    least_squares_theta,
)
from .nn import MlpParams, MlpSpec, _layer_slices, mlp_forward_batch, mlp_init, param_count
from .prior import SIGMA0, log_prior_grad

# Fraction of the 2/kappa gradient-descent stability bound used as the base
# weight step.  0.5 keeps the stiffest mode contracting while leaving enough
# minibatch jitter for the fiducial spread; 1.0 diverges through the
# z-coupling. See _group_w_rates for the curvature estimate kappa.
STEP_SAFETY = 0.5

# The binding curvature for head-row groups is the consensus mode, estimated
# from hidden activations at the start state.  Those activations reorganize
# as the run proceeds, so the head bound is inflated by this factor instead
# of being trusted as measured.
HEAD_GROWTH_ALLOWANCE = 2.0

# Target for upsilon * kappa_z, the latent step times the latent curvature
# 1 + 2 sigma^2 / eps.  The discrete dynamics on a quadratic mode inflate the
# stationary variance by exactly 1 / (1 - upsilon kappa / (4 - 2 varpi)), so
# the latent marginal is only faithful well below the stability bound
# upsilon kappa = 4 - 2 varpi.  0.3 keeps the inflation under ten percent at
# varpi = 0.1 while still mixing in tens of iterations.
Z_STEP_TARGET = 0.3


# Step-size groups of the inverse network's parameters per model layout:
# output rows feeding a network-valued theta block form that block's head.
LAYOUT_GROUPS = {
    "linear_ate": ("rest",),
    "dnn_tau_linear_c": ("rest", "tau_head"),
    "dnn_both": ("rest", "tau_head", "c_head"),
}


def _decay(c: float, alpha: float, k: int) -> float:
    """Step at iteration k relative to iteration 1, for decay constant c.

    With the published c of 2e4 to 1e6 and alpha = 1/7 this moves a step by
    at most 2e-4 over a paper-scale run.
    """
    return (c + 1.0) / (c + float(k) ** alpha)


def sghmc_z_step(
    z: np.ndarray,
    v: np.ndarray,
    grad: np.ndarray,
    upsilon: float,
    varpi: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """One momentum step: V' = (1-varpi)V + upsilon*grad + sqrt(2 varpi upsilon) e.

    varpi = 1 drops the momentum and gives the Langevin step.
    """
    e = rng.standard_normal(z.shape)
    v_new = (1.0 - varpi) * v + upsilon * grad + np.sqrt(2.0 * varpi * upsilon) * e
    return z + v_new, v_new


def sgd_w_step(
    w: MlpParams,
    grad: np.ndarray,
    gamma,
    clip_norm: Optional[float] = None,
) -> MlpParams:
    """Ascent step on the weight log posterior.

    gamma may be a scalar or a per-parameter vector (grouped schedules).
    With clip_norm set, grad is rescaled to norm <= clip_norm before the step.
    """
    g = np.asarray(grad, dtype=np.float64)
    if g.shape != w.flat.shape:
        raise ValueError(f"gradient shape {g.shape} != parameter shape {w.flat.shape}")
    if clip_norm is not None:
        nrm = float(np.linalg.norm(g))
        if nrm > clip_norm:
            g = g * (clip_norm / nrm)
    return MlpParams(w.spec, w.flat + gamma * g)


def gamma_groups(spec: MlpSpec, layout: ThetaLayout) -> dict:
    """Boolean masks over the inverse net's flat parameters, one per group.

    Output-layer rows (weights and bias) whose output slot lies in a
    network-valued theta block form "tau_head" / "c_head"; everything else is
    "rest".  Masks partition the parameter vector.
    """
    P = param_count(spec)
    masks = {"rest": np.ones(P, dtype=bool)}
    ws, bs, (d_out, d_prev) = _layer_slices(spec)[-1]
    if d_out != layout.theta_dim:
        raise ValueError(
            f"inverse output width {d_out} != theta dim {layout.theta_dim}"
        )

    def head_mask(sl: slice) -> np.ndarray:
        m = np.zeros(P, dtype=bool)
        for j in range(sl.start, sl.stop):
            m[ws.start + j * d_prev : ws.start + (j + 1) * d_prev] = True
            m[bs.start + j] = True
        return m

    groups = LAYOUT_GROUPS[layout.model_kind]
    if "tau_head" in groups:
        masks["tau_head"] = head_mask(layout.tau_slice)
        masks["rest"] &= ~masks["tau_head"]
    if "c_head" in groups:
        masks["c_head"] = head_mask(layout.c_slice)
        masks["rest"] &= ~masks["c_head"]
    return masks


@dataclass
class FiducialChain:
    """Recorded draws of one run.

    draws rows are theta_bar in the solve's (standardized) parameterization;
    sigmas is exp of the log-sigma slot per draw, also solve-space.  scaler
    maps back to data units.
    """

    draws: np.ndarray
    sigmas: np.ndarray
    energies: np.ndarray
    z_final: np.ndarray
    w_final: MlpParams
    scaler: Standardizer

    @property
    def n_draws(self) -> int:
        return self.draws.shape[0]


def _group_w_rates(
    w: MlpParams,
    data: Dataset,
    z: np.ndarray,
    layout: ThetaLayout,
    config,
    scaler: Standardizer,
    masks: dict,
) -> dict:
    """Largest safe weight step per schedule group, from measured curvature.

    Three modes bound the curvature of -log posterior at the start state:
      * consensus: a shared shift of the output-layer rows moves every
        theta_hat_i coherently; its curvature is (2 eta n / eps) times the top
        eigenvalue of the last hidden layer's activation covariance, times
        out_scale^2;
      * the spike component of the weight prior, 1/SIGMA0^2;
      * an output-bias shift of a location slot, at most (2 n / eps) for the
        unit-scale regressors the model uses.
    Every mode applies to the catch-all group.  Head rows are gentler: their
    elements reach the residual term only through theta values carrying a
    1/RESCALE conversion, so the location-slot and spike bounds shrink by
    RESCALE^2 and the consensus mode usually binds.  Because that mode is a
    property of hidden activations that reorganize during the run, the head
    bound is doubled (HEAD_GROWTH_ALLOWANCE) rather than trusted as measured.
    Each rate is STEP_SAFETY times the 2/kappa descent bound of its group.
    """
    hidden = mlp_forward_batch(w, feature_matrix(data, z, scaler), head=False)[-1]
    cov = np.cov(hidden.T, bias=True)
    lam = float(np.linalg.eigvalsh(cov)[-1])
    consensus = 2.0 * config.eta * data.n / config.eps * max(lam, 1e-12) * w.spec.out_scale**2
    kappa_rest = max(consensus, 1.0 / SIGMA0**2, 2.0 * data.n / config.eps)
    rates = {}
    for g in masks:
        if g == "rest":
            kappa = kappa_rest
        else:
            r2 = RESCALE**2
            kappa = HEAD_GROWTH_ALLOWANCE * max(
                consensus,
                1.0 / SIGMA0**2 / r2,
                2.0 * data.n / config.eps / r2,
            )
        rates[g] = STEP_SAFETY * 2.0 / kappa
    return rates


def run_efi(
    data: Dataset,
    layout: ThetaLayout,
    inverse_spec: MlpSpec,
    config,
    seed: int,
    trace: Optional[IO] = None,
) -> FiducialChain:
    """Run the two-phase sampler and collect the fiducial sample.

    config is the run's ExperimentConfig, read for its sampler constants and
    budgets; a weight step uses n // n_batches rows.  seed drives every draw.
    The run is solved in the units of a Standardizer fit to data.

    trace, if given, receives one CSV row per iteration:
    iteration, energy, upsilon, gamma (rest group), grad norm.
    """
    scaler = Standardizer.fit(data)
    rng = np.random.default_rng(seed)
    w = mlp_init(inverse_spec)
    masks = gamma_groups(inverse_spec, layout)
    if set(masks) != set(config.gamma_map):
        raise ValueError(
            f"gamma_map: layout {layout.model_kind} needs groups {sorted(masks)}, "
            f"got {sorted(config.gamma_map)}"
        )
    n = data.n
    m_batch = max(1, n // config.n_batches)
    step = np.empty(param_count(inverse_spec))
    writer = csv.writer(trace) if trace is not None else None
    if writer is not None:
        writer.writerow(["iteration", "energy", "upsilon", "gamma_rest", "grad_w_norm"])

    # start on the consensus manifold: output biases carry the noise-
    # marginalized least-squares solution, so every theta_hat_i begins at a
    # consistent point estimate and the chain explores around it
    _, bias_slice, _ = _layer_slices(inverse_spec)[-1]
    theta_ls = least_squares_theta(data, layout, scaler)
    w.flat[bias_slice] = theta_ls

    z = rng.standard_normal(n)
    # published step constants assume the paper's loss scaling; only the
    # decay shapes transfer, so anchor each group's absolute scale to its own
    # stability limit measured at the start state
    rates = _group_w_rates(w, data, z, layout, config, scaler, masks)

    # head rows emit theta blocks stored at RESCALE times their natural
    # network units; the shrinkage prior reads those rows in natural units,
    # otherwise it is RESCALE times stiffer there than anywhere else and
    # flattens whatever surface the head has learned
    prior_scale = None
    if len(masks) > 1:
        prior_scale = np.ones(param_count(inverse_spec))
        for g, mask in masks.items():
            if g != "rest":
                prior_scale[mask] = RESCALE

    # the latent step is anchored the same way: its curvature at the start
    # state is 1 + 2 sigma^2 / eps from the reference prior plus the pinned
    # residual term, with sigma taken from the marginalized fit
    sigma_warm = float(np.exp(theta_ls[layout.log_sigma_index]))
    kappa_z = 1.0 + 2.0 * sigma_warm**2 / config.eps
    upsilon_scale = Z_STEP_TARGET / kappa_z
    a = config.alpha_exp

    def w_update(k: int, z_now: np.ndarray) -> MlpParams:
        # one batched pass yields the batch energy and the weight gradient
        if m_batch < n:
            idx = rng.choice(n, size=m_batch, replace=False)
            batch, zb, scale = data.subset(idx), z_now[idx], n / m_batch
        else:
            batch, zb, scale = data, z_now, 1.0
        rep = energy_gradients(w, batch, zb, config.eta, layout, scaler, need_z=False, need_w=True)
        if not np.isfinite(rep.total):
            raise RuntimeError(f"energy diverged at iteration {k}: {rep.total}")
        gw = scale * (-rep.w_grad / config.eps) + log_prior_grad(w.flat, prior_scale)
        if not np.all(np.isfinite(gw)):
            raise RuntimeError(f"weight gradient diverged at iteration {k}")
        if writer is not None:
            writer.writerow(
                [k, repr(rep.total), repr(upsilon_scale * _decay(config.c_upsilon, a, k)),
                 repr(rates["rest"] * _decay(config.gamma_map["rest"], a, k)),
                 repr(float(np.linalg.norm(gw)))]
            )
        for g, mask in masks.items():
            step[mask] = rates[g] * _decay(config.gamma_map[g], a, k)
        clip = config.clip_norm if k <= config.clip_iters else None
        return sgd_w_step(w, gw, step, clip)

    # phase one: weights only, latent noise resampled from the reference
    for k in range(1, config.init_iters + 1):
        w = w_update(k, z)
        if k < config.init_iters:
            z = rng.standard_normal(n)
    if config.init_iters > 0:
        # the resampled-noise phase carries no scale information (residuals
        # are independent of the fresh draws, so its sigma-MLE degenerates
        # at zero); restore the marginalized-fit value before the chain runs
        w.flat[bias_slice.start + layout.log_sigma_index] = theta_ls[
            layout.log_sigma_index
        ]

    # phase two: alternate latent SGHMC and weight SGD, record after burn-in
    v = np.zeros(n)
    total = config.k_burn + config.m_keep
    draws, sigmas, energies = [], [], []
    for j in range(1, total + 1):
        k = config.init_iters + j
        rep = energy_gradients(w, data, z, config.eta, layout, scaler, need_z=True, need_w=False)
        if not np.isfinite(rep.total):
            raise RuntimeError(f"energy diverged at iteration {k}: {rep.total}")
        gz = -z - rep.z_grad / config.eps
        z, v = sghmc_z_step(
            z, v, gz, upsilon_scale * _decay(config.c_upsilon, a, k), config.varpi, rng
        )
        if not np.all(np.isfinite(z)):
            raise RuntimeError(f"latent chain diverged at iteration {k}")
        w = w_update(k, z)
        if j > config.k_burn and (j - config.k_burn) % config.thin == 0:
            er = energy(w, data, z, config.eta, layout, scaler)
            if not np.isfinite(er.total):
                raise RuntimeError(f"energy diverged at iteration {k}: {er.total}")
            draws.append(er.theta_bar)
            sigmas.append(float(np.exp(er.theta_bar[layout.log_sigma_index])))
            energies.append(er.total)

    p = layout.theta_dim
    return FiducialChain(
        draws=np.array(draws).reshape(len(draws), p),
        sigmas=np.array(sigmas),
        energies=np.array(energies),
        z_final=z.copy(),
        w_final=w,
        scaler=scaler,
    )
