import io

import numpy as np
import pytest

import fidte.sampler
from fidte.config import LAYOUT_GROUPS, PRESETS, ExperimentConfig, preset_config
from fidte.datagen import GenSpec, generate
from fidte.engine import Dataset, SolveRows, Standardizer, ThetaLayout, least_squares_theta
from fidte.nn import MlpParams, MlpSpec, _layer_slices, mlp_init, param_count
from fidte.runner import build_layout
from fidte.sampler import (
    Z_STEP_TARGET,
    FiducialChain,
    head_mask,
    run_efi,
    sgd_w_step,
    sghmc_z_step,
)

from conftest import lse_log_prior_grad


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
        sgd_w_step(w, target - w.flat, gamma=0.1)
    np.testing.assert_allclose(w.flat, target, atol=1e-8)


def zero_params():
    return MlpParams(MlpSpec((1, 1, 1), seed=0), np.zeros(4))


def test_sgd_step_clips_by_norm():
    # the step is made in place, so each case starts from its own zero vector
    grad = np.array([3.0, 0.0, 4.0, 0.0])  # norm 5
    clipped = zero_params()
    sgd_w_step(clipped, grad, gamma=1.0, clip_norm=1.0)
    np.testing.assert_allclose(clipped.flat, grad / 5.0, rtol=1e-12)
    unclipped = zero_params()
    sgd_w_step(unclipped, grad, gamma=1.0, clip_norm=10.0)
    np.testing.assert_array_equal(unclipped.flat, grad)


def test_sgd_step_accepts_per_parameter_gamma():
    w = zero_params()
    gam = np.array([1.0, 0.5, 0.25, 0.0])
    sgd_w_step(w, np.ones(4), gamma=gam)
    np.testing.assert_array_equal(w.flat, gam)


def test_sgd_step_to_a_non_finite_weight_raises():
    w = MlpParams(MlpSpec((1, 1, 1), seed=0), np.full(4, 1e308))
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="non-finite parameter values"):
            sgd_w_step(w, np.ones(4), gamma=1e308)


# ---------------------------------------------------------------- groups


def test_gamma_groups_linear_model_is_all_rest():
    layout = ThetaLayout(3)
    spec = MlpSpec((5, 6, layout.theta_dim), seed=0)
    assert not head_mask(spec, layout).any()


def test_gamma_groups_partition_tau_head():
    layout = ThetaLayout(3, MlpSpec((2, 4, 1), seed=0))
    spec = MlpSpec((5, 8, 6, layout.theta_dim), seed=0)
    # each of the 17 tau output slots owns one row of the last weight matrix plus a bias
    assert head_mask(spec, layout).sum() == 17 * (6 + 1)


def test_gamma_groups_partition_both_heads():
    layout = ThetaLayout(MlpSpec((2, 3, 1), seed=0), MlpSpec((2, 3, 1), seed=1))
    spec = MlpSpec((5, 7, layout.theta_dim), seed=0)
    # 13 c slots and 13 tau slots; only the log-sigma row stays out of the head
    assert head_mask(spec, layout).sum() == (13 + 13) * (7 + 1)


def layout_configs():
    # every preset at its design's width, and every layout_kind at d 2 and 5
    for name in PRESETS:
        cfg = preset_config(name)
        yield pytest.param(cfg, generate(GenSpec(cfg.design, 2)).d, id=name)
    for kind in LAYOUT_GROUPS:
        cfg = ExperimentConfig(design="example1", n_test=1, layout_kind=kind)
        for d in (2, 5):
            yield pytest.param(cfg, d, id=f"{kind}-d{d}")


@pytest.mark.parametrize("config, d", layout_configs())
def test_gamma_groups_are_the_config_layout_groups(config, d):
    # the head, stepped at its own rate, is exactly the W rows and biases of
    # the output slots of each network surface the config's layout names
    surfaces = LAYOUT_GROUPS[config.layout_kind]
    layout = build_layout(config, d)
    nets = {s for s in ("tau", "c") if isinstance(getattr(layout, f"{s}_spec"), MlpSpec)}
    assert nets == set(surfaces)
    spec = MlpSpec((d + 3, 6, layout.theta_dim), seed=0)
    ws, bs, (_, d_prev) = _layer_slices(spec)[-1]
    weights = np.zeros((layout.theta_dim, d_prev), dtype=bool)
    biases = np.zeros(layout.theta_dim, dtype=bool)
    for s in surfaces:
        weights[getattr(layout, f"{s}_slice")] = True
        biases[getattr(layout, f"{s}_slice")] = True
    want = np.zeros(param_count(spec), dtype=bool)
    want[ws], want[bs] = weights.ravel(), biases
    np.testing.assert_array_equal(head_mask(spec, layout), want)
    assert want.any() == bool(surfaces)


# ---------------------------------------------------------------- run_efi


def small_run(seed=0, **kw):
    rng = np.random.default_rng(123)
    data = toy_data(rng, n=30)
    layout = ThetaLayout(3)
    spec = MlpSpec((5, 8, layout.theta_dim), seed=1)
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
    assert chain.scaler is not None
    again = run_efi(data, layout, spec, config, seed)
    np.testing.assert_array_equal(chain.draws, again.draws)
    np.testing.assert_array_equal(chain.sigmas, again.sigmas)
    np.testing.assert_array_equal(chain.energies, again.energies)


def test_run_efi_stores_each_recorded_draw_in_order(monkeypatch):
    # m_keep 23 at thin 5 records the 5th, 10th, 15th and 20th kept iterations
    records = []
    real = fidte.sampler.energy

    def recorded(*args, **kwargs):
        records.append(real(*args, **kwargs))
        return records[-1]

    monkeypatch.setattr(fidte.sampler, "energy", recorded)
    chain = run_efi(*small_run(k_burn=7, m_keep=23))
    assert len(records) == 4
    np.testing.assert_array_equal(chain.draws, np.stack([er.theta_bar for er in records]))
    np.testing.assert_array_equal(chain.energies, [er.total for er in records])


def test_run_efi_leaves_no_state_between_runs():
    # a run on another row count in between must not change a run's draws
    first = run_efi(*small_run())
    rng = np.random.default_rng(5)
    _, layout, spec, config, _ = small_run()
    run_efi(toy_data(rng, n=45), layout, spec, config, 3)
    again = run_efi(*small_run())
    np.testing.assert_array_equal(first.draws, again.draws)
    np.testing.assert_array_equal(first.energies, again.energies)


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
    cols = [line.split(",") for line in lines[1:]]
    assert [int(c[0]) for c in cols] == list(range(1, 1 + 5 + 160))
    # both steps are constant: upsilon is anchored so that
    # upsilon * kappa_z = Z_STEP_TARGET, and the weight step keeps its anchor
    rows = SolveRows.build(data, Standardizer.fit(data), layout)
    sig = np.exp(least_squares_theta(rows, layout)[layout.log_sigma_index])
    kappa_z = 1.0 + 2.0 * sig**2 / config.eps
    assert {float(c[2]) for c in cols} == {Z_STEP_TARGET / kappa_z}
    assert len({c[3] for c in cols}) == 1


def test_run_efi_divergence_guard(monkeypatch):
    # curvature anchoring reads the start state only; a landscape much
    # stiffer away from it (a small noise budget eps, no clipping) still
    # escapes, and the guard must turn that into an error, not NaNs
    monkeypatch.setattr(fidte.sampler, "CLIP_NORM", None)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(40, 2)) * 1e6
    t = (rng.random(40) < 0.5).astype(float)
    data = Dataset(x=x, t=t, y=1e8 * rng.normal(size=40))
    layout = ThetaLayout(3)
    spec = MlpSpec((5, 8, layout.theta_dim), seed=1)
    config = make_config(eta=500.0, eps=0.005, k_burn=50, m_keep=100, thin=5)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match="diverged"):
            run_efi(data, layout, spec, config, 0)


@pytest.mark.parametrize(
    "c_spec, tau_spec",
    [(3, None), (3, MlpSpec((2, 3, 1), seed=0)),
     (MlpSpec((2, 3, 1), seed=2), MlpSpec((2, 3, 1), seed=0))],
    ids=["linear_ate", "dnn_tau_linear_c", "dnn_both"],
)
def test_run_efi_reports_a_non_finite_start_as_a_divergence(monkeypatch, c_spec, tau_spec):
    # an inf in the tau block of the start state (tau' on linear_ate, a hidden
    # weight of the tau network otherwise) is one error on every layout
    real = fidte.sampler.least_squares_theta

    def with_inf(rows, layout):
        theta = real(rows, layout)
        theta[layout.tau_slice.start] = np.inf
        return theta

    monkeypatch.setattr(fidte.sampler, "least_squares_theta", with_inf)
    layout = ThetaLayout(c_spec, tau_spec)
    spec = MlpSpec((5, 6, layout.theta_dim), seed=1)
    config = make_config(eta=10.0, eps=0.1, k_burn=5, m_keep=5, thin=1)
    with pytest.raises(RuntimeError, match="^energy diverged at iteration 1: nan$"):
        run_efi(toy_data(np.random.default_rng(3), n=20), layout, spec, config, 0)


def test_run_efi_rejects_an_inverse_net_of_another_width():
    rng = np.random.default_rng(3)
    data = toy_data(rng, n=20)
    layout = ThetaLayout(3, MlpSpec((2, 3, 1), seed=0))
    # an inverse net sized for the linear layout cannot emit the tau block
    spec = MlpSpec((5, 6, ThetaLayout(3).theta_dim), seed=1)
    config = make_config(eta=10.0, eps=0.1, k_burn=5, m_keep=5, thin=1)
    with pytest.raises(ValueError, match="inverse output width 5 != theta dim 17"):
        run_efi(data, layout, spec, config, 0)


def test_run_efi_draws_match_the_log_sum_exp_prior(monkeypatch):
    # the one-exp prior gradient agrees with the log-sum-exp form to ~1e-12
    # relative, so a short dnn_tau_linear_c run, whose tau head also takes
    # the scaled prior path, moves its draws by no more than a few ulps
    cfg = make_config(design="example1", layout_kind="dnn_tau_linear_c", tau_widths=(4, 3),
                      n_test=1, eta=10.0, eps=0.1, k_burn=40, m_keep=60, thin=3,
                      init_iters=10, n_batches=2)
    data = generate(GenSpec("example1", 40, seed=4))
    layout = build_layout(cfg, data.d)
    spec = MlpSpec((data.d + 3, 12, 6, layout.theta_dim), seed=2)
    shipped = run_efi(data, layout, spec, cfg, 9)
    monkeypatch.setattr(fidte.sampler, "log_prior_grad", lse_log_prior_grad)
    reference = run_efi(data, layout, spec, cfg, 9)
    assert head_mask(spec, layout).any()
    assert shipped.n_draws == 20
    np.testing.assert_allclose(shipped.draws, reference.draws, rtol=0, atol=1e-10)


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
    layout = ThetaLayout(3)
    spec = MlpSpec((5, 30, 10, layout.theta_dim), seed=2)
    config = make_config(eta=500.0, eps=0.1, k_burn=1500, m_keep=1500, thin=5)
    chain = run_efi(data, layout, spec, config, 4)
    tau_draws = 2.0 * chain.scaler.y_std * chain.draws[:, 0]
    assert abs(tau_draws.mean() - 1.0) < 0.35
