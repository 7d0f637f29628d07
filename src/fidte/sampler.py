"""Adaptive stochastic-gradient sampling of latent noise and inverse weights.

One run alternates two moves per iteration:
  * an SGHMC step on the latent vector Z targeting pi_0(Z) e^(-U/eps),
    with step size upsilon and momentum 1 - VARPI, temperature fixed at 1;
  * an SGD step on the inverse-network weights along the log posterior
    gradient with two rates: one for the head (head_slices: the output-layer
    rows and biases feeding network-valued theta blocks), one for the rest.

Both steps are constant, anchored to a curvature measured at the start state
(see _group_w_rates and Z_STEP_TARGET).  The paper's schedules decay as
(c + 1) / (c + k^(1/7)); with its constants c of 2e4 to 1e6 that moves a step
by at most 2e-4 over a paper-scale run, so the steps are held at their
anchors.  The chain starts from the noise-marginalized least-squares fit.
With weight-update minibatches (n_batches > 1) the stochastic gradient keeps
the weights diffusing around the posterior mode.  That step noise, not Z,
spreads theta_bar today (full-batch steps under-spread); in EFI the spread
should come from Z, so this is a measured fault (ROADMAP item 2).

The phases are ranges of the iteration k in one loop.  For k <= init_iters
(an optional initial phase) only the weights step, against fresh reference
noise; past it the latent step comes first; past init_iters + k_burn every
thin-th iteration records theta_bar, giving the fiducial sample.

A run standardizes its rows once (engine.SolveRows) and draws each weight
minibatch as a row selection of them.  It keeps one inverse network for the
whole run and steps its flat vector in place, so the one set of arrays the
network's passes write (see nn.MlpParams) serves the passes on all rows and
on a minibatch alike, from one iteration to the next.

run_efi reads eps, eta and the budgets from the run's ExperimentConfig (see
config), which checks every one of them when it is built; VARPI, CLIP_NORM
and CLIP_ITERS are constants here.  It builds the run's three networks from
the config and the data's width: the data model's c(x) and tau(x) by
build_layout, and an inverse network of INVERSE_WIDTHS on d + 3 features.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import IO, Optional

import numpy as np

from .config import ExperimentConfig
from .engine import (
    OUT_SCALE,
    RESCALE,
    Dataset,
    SolveRows,
    Standardizer,
    ThetaLayout,
    energy,
    energy_gradients,
    feature_matrix,
    least_squares_theta,
)
from .nn import MlpParams, MlpSpec, _layer_slices, mlp_forward_batch, mlp_init
from .prior import SIGMA0, log_prior_grad

# Fraction of the 2/kappa gradient-descent stability bound used as the base
# weight step.  0.5 keeps the stiffest mode contracting; 1.0 diverges through
# the z-coupling.  The minibatch jitter it leaves is what spreads the sample
# today (a fault, see the module docstring).  _group_w_rates estimates kappa.
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
# varpi = VARPI = 0.1 while still mixing in tens of iterations.
Z_STEP_TARGET = 0.3
VARPI = 0.1  # one minus the latent momentum

# The first CLIP_ITERS weight steps have their gradient norm capped at CLIP_NORM.
CLIP_NORM = 5000.0
CLIP_ITERS = 100

# fixed init seeds for the data-model networks: the warm-start blocks are
# part of the model family, not of the per-replication randomness
TAU_NET_SEED = 5
C_NET_SEED = 6
# the hidden widths of the inverse network and of a c network, the same in
# every run that has one
INVERSE_WIDTHS = (90, 30)
C_WIDTHS = (10, 10)


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
    rate_rest: float,
    rate_head: float,
    head: tuple[slice, ...],
    clip_norm: Optional[float] = None,
) -> None:
    """Ascent step on the weight log posterior, made in place on w.flat.

    grad is turned into the step in place, in one walk over it: multiplied
    by rate_head inside the ascending slices head (head_slices) and by
    rate_rest between them; head () steps every parameter at rate_rest.
    With clip_norm set, grad is first rescaled to norm <= clip_norm.  A step
    that leaves a parameter non-finite raises ValueError.
    """
    if clip_norm is not None:
        nrm = float(np.linalg.norm(grad))
        if nrm > clip_norm:
            grad *= clip_norm / nrm
    k = 0
    for sl in head:
        grad[k : sl.start] *= rate_rest
        grad[sl] *= rate_head
        k = sl.stop
    grad[k:] *= rate_rest
    w.flat += grad
    if not np.all(np.isfinite(w.flat)):
        raise ValueError("weight step gave non-finite parameter values")


def build_layout(config: ExperimentConfig, d: int) -> ThetaLayout:
    """The ThetaLayout of config's model on d covariates: a network for each
    surface in config.surfaces, a linear c and a constant tau otherwise."""
    nets = config.surfaces
    c_spec = MlpSpec((d, *C_WIDTHS, 1), seed=C_NET_SEED) if "c" in nets else d + 1
    tau_spec = MlpSpec((d, *config.tau_widths, 1), seed=TAU_NET_SEED) if "tau" in nets else None
    return ThetaLayout(c_spec, tau_spec)


def head_slices(spec: MlpSpec, layout: ThetaLayout) -> tuple[slice, ...]:
    """The inverse net's head as slices of its flat parameters: the output
    layer's weight rows, then its biases, whose output slots lie in the theta
    block of a network surface, tau(x) or c(x); () when no surface is a
    network.  ThetaLayout puts c's block just before tau's and refuses a
    network c without a network tau, so those slots are one run [lo, hi)."""
    if layout.tau_spec is None:
        return ()
    lo = (layout.c_slice if isinstance(layout.c_spec, MlpSpec) else layout.tau_slice).start
    hi = layout.tau_slice.stop
    ws, bs, (_, d_prev) = _layer_slices(spec)[-1]
    return slice(ws.start + lo * d_prev, ws.start + hi * d_prev), slice(bs.start + lo, bs.start + hi)


@dataclass
class FiducialChain:
    """Recorded draws of one run.

    draws rows are theta_bar in the solve's (standardized) parameterization,
    slotted by layout, the run's ThetaLayout, so a chain is read alone.
    sigmas is exp of the log-sigma slot per draw, also solve-space.  scaler
    maps back to data units.
    """

    draws: np.ndarray
    energies: np.ndarray
    scaler: Standardizer
    layout: ThetaLayout

    @property
    def n_draws(self) -> int:
        return self.draws.shape[0]

    @property
    def sigmas(self) -> np.ndarray:
        return np.exp(self.draws[:, self.layout.log_sigma_index])


def _group_w_rates(
    w: MlpParams,
    rows: SolveRows,
    z: np.ndarray,
    config,
) -> tuple[float, float]:
    """Largest safe weight steps (rest, head), from measured curvature.

    Three modes bound the curvature of -log posterior at the start state:
      * consensus: a shared shift of the output-layer rows moves every
        theta_hat_i coherently; its curvature is (2 eta n / eps) times the top
        eigenvalue of the last hidden layer's activation covariance, times
        OUT_SCALE^2;
      * the spike component of the weight prior, 1/SIGMA0^2;
      * an output-bias shift of a location slot, at most (2 n / eps) for the
        unit-scale regressors the model uses.
    Every mode applies to the rest.  Head rows are gentler: their
    elements reach the residual term only through theta values carrying a
    1/RESCALE conversion, so the location-slot and spike bounds shrink by
    RESCALE^2 and the consensus mode usually binds.  Because that mode is a
    property of hidden activations that reorganize during the run, the head
    bound is doubled (HEAD_GROWTH_ALLOWANCE) rather than trusted as measured.
    Each rate is STEP_SAFETY times the 2/kappa descent bound of its group.
    """
    hidden = mlp_forward_batch(w, feature_matrix(rows, z), head=False)[-1]
    cov = np.cov(hidden.T, bias=True)
    lam = float(np.linalg.eigvalsh(cov)[-1])
    consensus = 2.0 * config.eta * rows.n / config.eps * max(lam, 1e-12) * OUT_SCALE**2
    kappa_rest = max(consensus, 1.0 / SIGMA0**2, 2.0 * rows.n / config.eps)
    r2 = RESCALE**2
    kappa_head = HEAD_GROWTH_ALLOWANCE * max(
        consensus,
        1.0 / SIGMA0**2 / r2,
        2.0 * rows.n / config.eps / r2,
    )
    return STEP_SAFETY * 2.0 / kappa_rest, STEP_SAFETY * 2.0 / kappa_head


def run_efi(
    data: Dataset,
    config: ExperimentConfig,
    seed: int,
    trace: Optional[IO] = None,
) -> FiducialChain:
    """Run the sampler and collect the fiducial sample.

    config is the run's ExperimentConfig, read for the model (build_layout
    on data.d covariates), eps, eta and the budgets; a weight step uses
    n // n_batches rows.  seed drives every draw and the inverse network's
    init.  One loop runs k = 1 .. init_iters + k_burn + m_keep, the phases
    being ranges of k; after its weight step, k < init_iters draws fresh z
    and k == init_iters restores the log-sigma output bias.
    The run is solved in the units of a Standardizer fit to data; the rows
    are standardized once, and one inverse network is stepped in place.

    trace, if given, receives one CSV row per iteration:
    iteration, energy, upsilon, gamma (rest of the weights), grad norm;
    the two steps are constant, so their columns repeat the anchors.
    """
    layout = build_layout(config, data.d)
    inverse_spec = MlpSpec((data.d + 3, *INVERSE_WIDTHS, layout.theta_dim), seed=seed)
    scaler = Standardizer.fit(data)
    rows = SolveRows.build(data, scaler, layout)
    # mlp_init and the generator both read seed, so the first latent draw
    # reads the words the initial weights came from: a known defect (ROADMAP,
    # smaller open defects) whose mend changes every chain, so it waits on
    # ROADMAP item 1's --compare
    rng = np.random.default_rng(seed)
    w = mlp_init(inverse_spec)
    # head rows emit theta blocks stored at RESCALE times their natural
    # network units; they take their own weight step, and the shrinkage prior
    # reads them in natural units, otherwise it is RESCALE times stiffer there
    # than anywhere else and flattens whatever surface the head has learned
    head = head_slices(inverse_spec, layout)
    n = data.n
    m_batch = max(1, n // config.n_batches)
    writer = csv.writer(trace) if trace is not None else None
    if writer is not None:
        writer.writerow(["iteration", "energy", "upsilon", "gamma_rest", "grad_w_norm"])

    # start on the consensus manifold: output biases carry the noise-
    # marginalized least-squares solution, so every theta_hat_i begins at a
    # consistent point estimate and the chain explores around it
    _, bias_slice, _ = _layer_slices(inverse_spec)[-1]
    theta_ls = least_squares_theta(rows, layout)
    w.flat[bias_slice] = theta_ls

    z = rng.standard_normal(n)
    # published step constants assume the paper's loss scaling, so each
    # group's step is anchored to its own stability limit measured at the
    # start state
    rate_rest, rate_head = _group_w_rates(w, rows, z, config)

    # the latent step is anchored the same way: its curvature at the start
    # state is 1 + 2 sigma^2 / eps from the reference prior plus the pinned
    # residual term, with sigma taken from the marginalized fit
    sigma_warm = float(np.exp(theta_ls[layout.log_sigma_index]))
    kappa_z = 1.0 + 2.0 * sigma_warm**2 / config.eps
    upsilon = Z_STEP_TARGET / kappa_z

    v = np.zeros(n)
    k_init, k_kept = config.init_iters, config.init_iters + config.k_burn
    # every thin-th of the m_keep iterations after burn-in is recorded
    draws = np.empty((config.m_keep // config.thin, layout.theta_dim))
    energies = np.empty(draws.shape[0])
    for k in range(1, k_kept + config.m_keep + 1):
        if k > k_init:
            rep = energy_gradients(w, rows, z, config.eta, layout, need_z=True, need_w=False)
            if not np.isfinite(rep.total):
                raise RuntimeError(f"energy diverged at iteration {k}: {rep.total}")
            gz = -z - rep.z_grad / config.eps
            z, v = sghmc_z_step(z, v, gz, upsilon, VARPI, rng)
            if not np.all(np.isfinite(z)):
                raise RuntimeError(f"latent chain diverged at iteration {k}")
        # one batched pass yields the batch energy and the weight gradient
        if m_batch < n:
            idx = rng.choice(n, size=m_batch, replace=False)
            batch, zb, scale = rows.take(idx), z[idx], n / m_batch
        else:
            batch, zb, scale = rows, z, 1.0
        rep = energy_gradients(w, batch, zb, config.eta, layout, need_z=False, need_w=True)
        if not np.isfinite(rep.total):
            raise RuntimeError(f"energy diverged at iteration {k}: {rep.total}")
        # scale * (-w_grad / eps) + prior, formed on the pass's fresh gradient
        gw = np.negative(rep.w_grad, out=rep.w_grad)
        gw /= config.eps
        gw *= scale
        gw += log_prior_grad(w.flat, head)
        if not np.all(np.isfinite(gw)):
            raise RuntimeError(f"weight gradient diverged at iteration {k}")
        if writer is not None:
            writer.writerow(
                [k, repr(rep.total), repr(upsilon), repr(rate_rest),
                 repr(float(np.linalg.norm(gw)))]
            )
        sgd_w_step(w, gw, rate_rest, rate_head, head, CLIP_NORM if k <= CLIP_ITERS else None)
        del rep, gw  # drop the P-sized gradient before the next pass
        if k < k_init:
            z = rng.standard_normal(n)
        elif k == k_init:
            # the resampled-noise phase carries no scale information (residuals
            # are independent of the fresh draws, so its sigma-MLE degenerates
            # at zero); restore the marginalized-fit value before the chain runs
            w.flat[bias_slice.start + layout.log_sigma_index] = theta_ls[layout.log_sigma_index]
        elif k > k_kept and (k - k_kept) % config.thin == 0:
            er = energy(w, rows, z, config.eta, layout)
            if not np.isfinite(er.total):
                raise RuntimeError(f"energy diverged at iteration {k}: {er.total}")
            i = (k - k_kept) // config.thin - 1
            draws[i] = er.theta_bar
            energies[i] = er.total

    return FiducialChain(draws=draws, energies=energies, scaler=scaler, layout=layout)
