import io

import numpy as np
import pytest

from fidte.config import ExperimentConfig
from fidte.engine import Dataset, Standardizer, ThetaLayout, least_squares_theta
from fidte.nn import MlpParams, MlpSpec, mlp_init, param_count
from fidte.sampler import (
    Z_STEP_TARGET,
    FiducialChain,
    _decay,
    gamma_groups,
    run_efi,
    sgd_w_step,
    sghmc_z_step,
)


def make_config(**kw):
    # full-batch weight steps unless n_batches is given
    base = dict(design="linear_ate", n_batches=1)
    base.update(kw)
    return ExperimentConfig(**base)


def toy_data(rng, n=40, d=2):
    x = rng.normal(size=(n, d))
    t = (rng.random(n) < 0.5).astype(int)
    z = rng.standard_normal(n)
    y = 0.5 * (2 * t - 1) + 1.0 + x @ np.array([1.0, -1.0]) + z
    return Dataset(x=x, t=t, y=y)


# ---------------------------------------------------------------- schedules


def test_schedule_arithmetic_frozen():
    # steps are relative to iteration 1, where run_efi anchors their scale:
    # (c + 1) / (c + k^a), with the default a = 1/7
    a = make_config().alpha_exp
    assert _decay(1e6, a, 1) == 1.0
    assert _decay(1e6, a, 128) == pytest.approx((1e6 + 1.0) / (1e6 + 2.0), rel=1e-15)
    assert _decay(20000.0, a, 1) == 1.0
    assert _decay(20000.0, a, 128) == pytest.approx(20001.0 / 20002.0, rel=1e-15)
    # the smallest published c moves a step by under 2e-4 over a paper-scale run
    assert 1.0 - _decay(20000.0, a, 75000) < 2e-4


def test_schedule_decays_with_k():
    cfg = make_config()
    ks = [1, 10, 1000, 100000]
    vals = [_decay(cfg.c_upsilon, cfg.alpha_exp, k) for k in ks]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_schedule_validation():
    with pytest.raises(ValueError, match="c_upsilon: must be positive"):
        make_config(c_upsilon=-1.0)
    with pytest.raises(ValueError, match="gamma_map: decay constant of group 'rest'"):
        make_config(gamma_map={"rest": 0.0})
    with pytest.raises(ValueError, match=r"varpi: must be in \(0, 1\]"):
        make_config(varpi=0.0)
    with pytest.raises(ValueError, match="varpi"):
        make_config(varpi=1.5)
    with pytest.raises(ValueError, match=r"alpha_exp: must be in \(0, 1\)"):
        make_config(alpha_exp=1.0)
    # every group of the layout needs a decay constant, and no other group is read
    with pytest.raises(ValueError, match="gamma_map: layout linear_ate needs groups"):
        make_config(gamma_map={"tau_head": 1.0})
    with pytest.raises(ValueError, match="gamma_map"):
        make_config(gamma_map={"rest": 1e6, "no_such_group": 1.0})


# ---------------------------------------------------------------- steps


def test_sghmc_varpi_one_equals_sgld():
    # without momentum the step is Langevin: z + upsilon grad + sqrt(2 upsilon) e
    rng_a = np.random.default_rng(99)
    rng_b = np.random.default_rng(99)
    z_a = np.linspace(-2, 2, 11)
    z_b = z_a.copy()
    v = np.zeros_like(z_a)
    for _ in range(200):
        grad_a = -z_a
        z_a, v = sghmc_z_step(z_a, v, grad_a, upsilon=0.05, varpi=1.0, rng=rng_a)
        e = rng_b.standard_normal(z_b.shape)
        z_b = z_b + (0.05 * -z_b + np.sqrt(2.0 * 0.05) * e)
        np.testing.assert_array_equal(z_a, z_b)


def test_sghmc_standard_normal_stationary_quick():
    # unit-variance target via grad = -z; long-run marginal variance near 1
    rng = np.random.default_rng(5)
    n = 400
    z = rng.standard_normal(n)
    v = np.zeros(n)
    ups = 1e-3
    acc = []
    for k in range(20000):
        z, v = sghmc_z_step(z, v, -z, ups, varpi=0.1, rng=rng)
        if k > 5000 and k % 10 == 0:
            acc.append(z.copy())
    var = np.concatenate(acc).var()
    assert 0.9 < var < 1.1


def test_sgd_step_converges_on_quadratic():
    spec = MlpSpec((1, 2, 1), seed=0)
    target = np.arange(param_count(spec), dtype=float) / 7.0
    w = mlp_init(spec)
    for _ in range(400):
        w = sgd_w_step(w, target - w.flat, gamma=0.1)
    np.testing.assert_allclose(w.flat, target, atol=1e-8)


def test_sgd_step_clips_by_norm():
    spec = MlpSpec((1, 1, 1), seed=0)
    w = MlpParams(spec, np.zeros(4))
    grad = np.array([3.0, 0.0, 4.0, 0.0])  # norm 5
    stepped = sgd_w_step(w, grad, gamma=1.0, clip_norm=1.0)
    np.testing.assert_allclose(stepped.flat, grad / 5.0, rtol=1e-12)
    unclipped = sgd_w_step(w, grad, gamma=1.0, clip_norm=10.0)
    np.testing.assert_array_equal(unclipped.flat, grad)


def test_sgd_step_accepts_per_parameter_gamma():
    spec = MlpSpec((1, 1, 1), seed=0)
    w = MlpParams(spec, np.zeros(4))
    gam = np.array([1.0, 0.5, 0.25, 0.0])
    stepped = sgd_w_step(w, np.ones(4), gamma=gam)
    np.testing.assert_array_equal(stepped.flat, gam)


# ---------------------------------------------------------------- groups


def test_gamma_groups_linear_model_is_all_rest():
    layout = ThetaLayout("linear_ate", c_spec=3)
    spec = MlpSpec((5, 6, layout.theta_dim), seed=0)
    masks = gamma_groups(spec, layout)
    assert set(masks) == {"rest"}
    assert masks["rest"].all()


def test_gamma_groups_partition_tau_head():
    layout = ThetaLayout(
        "dnn_tau_linear_c", c_spec=3, tau_spec=MlpSpec((2, 4, 1), seed=0)
    )
    spec = MlpSpec((5, 8, 6, layout.theta_dim), seed=0)
    masks = gamma_groups(spec, layout)
    assert set(masks) == {"rest", "tau_head"}
    # each tau output slot owns one row of the last weight matrix plus a bias
    assert masks["tau_head"].sum() == layout.tau_dim * (6 + 1)
    assert not (masks["tau_head"] & masks["rest"]).any()
    assert (masks["tau_head"] | masks["rest"]).all()


def test_gamma_groups_partition_both_heads():
    layout = ThetaLayout(
        "dnn_both",
        c_spec=MlpSpec((2, 3, 1), seed=0),
        tau_spec=MlpSpec((2, 3, 1), seed=1),
    )
    spec = MlpSpec((5, 7, layout.theta_dim), seed=0)
    masks = gamma_groups(spec, layout)
    assert set(masks) == {"rest", "tau_head", "c_head"}
    stack = np.stack([masks[g] for g in masks])
    assert (stack.sum(axis=0) == 1).all()  # exact partition


# ---------------------------------------------------------------- run_efi


def small_run(seed=0, **kw):
    rng = np.random.default_rng(123)
    data = toy_data(rng, n=30)
    layout = ThetaLayout("linear_ate", c_spec=3)
    # small output scale keeps the random output layer's consensus term tame,
    # same posture as the experiment presets
    spec = MlpSpec((5, 8, layout.theta_dim), seed=1, out_scale=1.0 / 25.0)
    cfg_kw = dict(eta=500.0, eps=0.1, k_burn=60, m_keep=100, thin=5)
    cfg_kw.update(kw)
    return data, layout, spec, make_config(**cfg_kw), seed


def test_run_efi_shapes_and_determinism():
    data, layout, spec, config, seed = small_run()
    chain = run_efi(data, layout, spec, config, seed)
    assert isinstance(chain, FiducialChain)
    assert chain.draws.shape == (20, layout.theta_dim)
    assert chain.sigmas.shape == (20,)
    assert (chain.sigmas > 0).all()
    assert np.all(np.isfinite(chain.draws))
    assert np.all(np.isfinite(chain.energies))
    assert chain.z_final.shape == (30,)
    assert chain.scaler is not None
    again = run_efi(data, layout, spec, config, seed)
    np.testing.assert_array_equal(chain.draws, again.draws)
    np.testing.assert_array_equal(chain.z_final, again.z_final)
    np.testing.assert_array_equal(chain.w_final.flat, again.w_final.flat)


def test_run_efi_seed_changes_draws():
    data, layout, spec, config, seed = small_run(seed=7)
    data2, _, _, config2, seed2 = small_run(seed=8)
    a = run_efi(data, layout, spec, config, seed)
    b = run_efi(data2, layout, spec, config2, seed2)
    assert not np.array_equal(a.draws, b.draws)


def test_run_efi_with_init_phase_and_minibatch():
    # 30 rows in 3 batches: weight steps on 10-row minibatches
    data, layout, spec, config, seed = small_run(init_iters=40, n_batches=3)
    chain = run_efi(data, layout, spec, config, seed)
    assert chain.n_draws == 20
    assert np.all(np.isfinite(chain.draws))


def test_run_efi_trace_stream():
    data, layout, spec, config, seed = small_run(init_iters=5)
    buf = io.StringIO()
    run_efi(data, layout, spec, config, seed, trace=buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0].split(",") == ["iteration", "energy", "upsilon", "gamma_rest", "grad_w_norm"]
    assert len(lines) == 1 + 5 + 160  # header + init phase + sampling phase
    first = lines[1].split(",")
    assert int(first[0]) == 1
    # the upsilon column records the anchored latent step: the schedule's
    # decay scaled so upsilon * kappa_z = Z_STEP_TARGET at start
    sig = np.exp(least_squares_theta(data, layout, Standardizer.fit(data))[layout.log_sigma_index])
    kappa_z = 1.0 + 2.0 * sig**2 / config.eps
    assert float(first[2]) == pytest.approx(Z_STEP_TARGET / kappa_z)
    mid = lines[80].split(",")
    ratio = float(mid[2]) / float(first[2])
    decay = [_decay(config.c_upsilon, config.alpha_exp, k) for k in (80, 1)]
    assert ratio == pytest.approx(decay[0] / decay[1])


def test_run_efi_divergence_guard():
    # curvature anchoring reads the start state only; a landscape much
    # stiffer away from it (out_scale 1 on the inverse head, no clipping)
    # still escapes, and the guard must turn that into an error, not NaNs
    rng = np.random.default_rng(3)
    x = rng.normal(size=(40, 2)) * 1e6
    t = (rng.random(40) < 0.5).astype(float)
    data = Dataset(x=x, t=t, y=1e8 * rng.normal(size=40))
    layout = ThetaLayout("linear_ate", c_spec=3)
    spec = MlpSpec((5, 8, layout.theta_dim), seed=1)
    config = make_config(eta=500.0, eps=0.1, k_burn=50, m_keep=100, thin=5, clip_norm=None)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match="diverged"):
            run_efi(data, layout, spec, config, 0)


def test_run_efi_missing_gamma_group():
    rng = np.random.default_rng(3)
    data = toy_data(rng, n=20)
    layout = ThetaLayout("dnn_tau_linear_c", c_spec=3, tau_spec=MlpSpec((2, 3, 1), seed=0))
    spec = MlpSpec((5, 6, layout.theta_dim), seed=1)
    # a linear_ate config carries no tau_head constant
    config = make_config(eta=10.0, eps=0.1, k_burn=5, m_keep=5, thin=1)
    with pytest.raises(ValueError, match=r"needs groups \['rest', 'tau_head'\]"):
        run_efi(data, layout, spec, config, 0)


def test_run_config_validation():
    with pytest.raises(ValueError, match="eta: must be nonnegative"):
        make_config(eta=-1.0, eps=0.1, k_burn=1, m_keep=1, thin=1)
    with pytest.raises(ValueError, match="eps: must be positive"):
        make_config(eta=1.0, eps=0.0, k_burn=1, m_keep=1, thin=1)
    with pytest.raises(ValueError, match="thin: must be >= 1"):
        make_config(eta=1.0, eps=0.1, k_burn=1, m_keep=1, thin=0)
    with pytest.raises(ValueError, match="n_batches: must be in"):
        make_config(eta=1.0, eps=0.1, k_burn=1, m_keep=1, thin=1, n_batches=0)
    with pytest.raises(ValueError, match="k_burn: must be nonnegative"):
        make_config(k_burn=-1)


def test_recovery_on_easy_linear_problem():
    # a longer toy run should land tau near its generating value
    rng = np.random.default_rng(11)
    n = 120
    x = rng.normal(size=(n, 2))
    t = (rng.random(n) < 0.5).astype(int)
    y = 1.0 * t + 0.5 + x @ np.array([1.0, -1.0]) + 0.3 * rng.standard_normal(n)
    data = Dataset(x=x, t=t, y=y)
    layout = ThetaLayout("linear_ate", c_spec=3)
    spec = MlpSpec((5, 30, 10, layout.theta_dim), seed=2, out_scale=1.0 / 25.0)
    config = make_config(eta=500.0, eps=0.1, k_burn=1500, m_keep=1500, thin=5)
    chain = run_efi(data, layout, spec, config, 4)
    tau_draws = 2.0 * chain.scaler.y_std * chain.draws[:, 0]
    assert abs(tau_draws.mean() - 1.0) < 0.35
