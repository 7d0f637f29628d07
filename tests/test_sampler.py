import io
from dataclasses import replace

import numpy as np
import pytest

import fidte.sampler
from fidte.config import DESIGN_SURFACES, PRESETS, ExperimentConfig, preset_config
from fidte.datagen import generate
from fidte.engine import RESCALE, Dataset, SolveRows, Standardizer, ThetaLayout, least_squares_theta
from fidte.nn import MlpParams, MlpSpec, _layer_slices, mlp_init, param_count
from fidte.prior import _K, _L0, SIGMA1, log_prior_grad
from fidte.runner import _replication_data, replication_ints, run_replication
from fidte.sampler import (
    INVERSE_WIDTHS,
    Z_STEP_TARGET,
    FiducialChain,
    build_layout,
    head_slices,
    run_efi,
    sgd_w_step,
    sghmc_z_step,
)

from conftest import lse_log_prior_grad, slices_mask


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
        sgd_w_step(w, target - w.flat, 0.1, 0.1, ())
    np.testing.assert_allclose(w.flat, target, atol=1e-8)


def zero_params():
    return MlpParams(MlpSpec((1, 1, 1), seed=0), np.zeros(4))


def test_sgd_step_clips_by_norm():
    # the step is made in place on the weights and on the gradient, so each
    # case starts from its own zero vector and its own gradient copy
    grad = np.array([3.0, 0.0, 4.0, 0.0])  # norm 5
    clipped = zero_params()
    sgd_w_step(clipped, grad.copy(), 1.0, 1.0, (), clip_norm=1.0)
    np.testing.assert_allclose(clipped.flat, grad / 5.0, rtol=1e-12)
    unclipped = zero_params()
    sgd_w_step(unclipped, grad.copy(), 1.0, 1.0, (), clip_norm=10.0)
    np.testing.assert_array_equal(unclipped.flat, grad)


def test_sgd_step_accepts_per_parameter_gamma():
    # the head rate inside the head slices, the rest rate between and around them
    w = zero_params()
    sgd_w_step(w, np.ones(4), 0.5, 0.25, (slice(1, 2), slice(2, 3)))
    np.testing.assert_array_equal(w.flat, [0.5, 0.25, 0.25, 0.5])
    w = zero_params()
    sgd_w_step(w, np.ones(4), 0.5, 0.25, (slice(0, 1), slice(3, 4)))
    np.testing.assert_array_equal(w.flat, [0.25, 0.5, 0.5, 0.25])


# ---------------------------------------------------------------- groups


def test_gamma_groups_linear_model_is_all_rest():
    layout = ThetaLayout(3)
    spec = MlpSpec((5, 6, layout.theta_dim), seed=0)
    assert head_slices(spec, layout) == ()


def test_gamma_groups_partition_tau_head():
    layout = ThetaLayout(3, MlpSpec((2, 4, 1), seed=0))
    spec = MlpSpec((5, 8, 6, layout.theta_dim), seed=0)
    # each of the 17 tau output slots owns one row of the last weight matrix plus a bias
    assert slices_mask(param_count(spec), head_slices(spec, layout)).sum() == 17 * (6 + 1)


def test_gamma_groups_partition_both_heads():
    layout = ThetaLayout(MlpSpec((2, 3, 1), seed=0), MlpSpec((2, 3, 1), seed=1))
    spec = MlpSpec((5, 7, layout.theta_dim), seed=0)
    # 13 c slots and 13 tau slots; only the log-sigma row stays out of the head
    assert slices_mask(param_count(spec), head_slices(spec, layout)).sum() == (13 + 13) * (7 + 1)


def layout_configs():
    # every preset at its design's width, and every design's model and a csv
    # config's at d 2 and 5
    for name in PRESETS:
        cfg = preset_config(name)
        yield pytest.param(cfg, generate(cfg.design, 2).d, id=name)
    for design in DESIGN_SURFACES:
        for d in (2, 5):
            yield pytest.param(ExperimentConfig(design=design, n_test=1), d, id=f"{design}-d{d}")
    csv = ExperimentConfig(csv="d.csv", csv_schema={"y": "y", "t": "t", "x": ["x1"]})
    for d in (2, 5):
        yield pytest.param(csv, d, id=f"csv-d{d}")


@pytest.mark.parametrize("config, d", layout_configs())
def test_gamma_groups_are_the_config_layout_groups(config, d):
    # the head, stepped at its own rate, is exactly the W rows and biases of
    # the output slots of each network surface the config's model learns
    surfaces = config.surfaces
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
    head = head_slices(spec, layout)
    assert len(head) == (2 if surfaces else 0)
    np.testing.assert_array_equal(slices_mask(param_count(spec), head), want)
    assert want.any() == bool(surfaces)


def vector_prior_grad(w, scale):
    """Reference: the prior gradient with a per-element scale vector, the
    form run_efi used before log_prior_grad took the head (scale was
    np.where(mask, RESCALE, 1.0) on the head's boolean mask, or None for a
    net without a head)."""
    out = np.empty(w.shape)
    with np.errstate(over="ignore"):
        if scale is None:
            np.multiply(w, w, out=out)
        else:
            np.divide(w, scale, out=out)
            out *= out
        out *= _K
        out -= _L0
        np.exp(out, out=out)
        out += 1.0
        np.divide(-2.0 * _K, out, out=out)
        out -= 1.0 / SIGMA1**2
    out *= w
    if scale is not None:
        out /= scale
        out /= scale
    return out


def vector_w_step(flat, grad, step, clip_norm):
    """Reference: the weight step with a per-element step vector, the form
    run_efi used before sgd_w_step took the head
    (step was np.where(mask, rate_head, rate_rest) on the head's boolean mask)."""
    if clip_norm is not None:
        nrm = float(np.linalg.norm(grad))
        if nrm > clip_norm:
            grad = grad * (clip_norm / nrm)
    return flat + step * grad


@pytest.mark.parametrize("config, d", layout_configs())
def test_head_step_and_prior_equal_the_vector_forms(config, d):
    # run_efi's inverse net on the config's layout; weights spread over the
    # spike, the crossover, the slab and the exp overflow, head rows at
    # RESCALE times that
    layout = build_layout(config, d)
    spec = MlpSpec((d + 3, *INVERSE_WIDTHS, layout.theta_dim), seed=3)
    head = head_slices(spec, layout)
    assert bool(head) == bool(config.surfaces)
    p = param_count(spec)
    mask = slices_mask(p, head)
    scale = np.where(mask, RESCALE, 1.0) if head else None
    rng = np.random.default_rng(8)
    flat = rng.normal(size=p) * rng.choice([0.005, 0.043, 0.3, 5.0], size=p)
    flat *= 1.0 if scale is None else scale
    np.testing.assert_array_equal(log_prior_grad(flat, head), vector_prior_grad(flat, scale))
    rate_rest, rate_head = 1.37e-4, 2.9e-2
    step = np.where(mask, rate_head, rate_rest)
    grad = rng.normal(scale=300.0, size=p)
    for clip_norm in (None, 5000.0, 1e9):
        w = MlpParams(spec, flat.copy())
        sgd_w_step(w, grad.copy(), rate_rest, rate_head, head, clip_norm)
        np.testing.assert_array_equal(w.flat, vector_w_step(flat, grad, step, clip_norm))


# ---------------------------------------------------------------- run_efi


def small_run(seed=0, **kw):
    rng = np.random.default_rng(123)
    data = toy_data(rng, n=30)
    cfg_kw = dict(eta=500.0, eps=0.1, k_burn=60, m_keep=100, thin=5)
    cfg_kw.update(kw)
    return data, make_config(**cfg_kw), seed


@pytest.mark.parametrize("config, d", layout_configs())
def test_run_efi_builds_the_config_networks(monkeypatch, config, d):
    # the config and the data's width decide the model and the inverse net,
    # whose init reads the chain's seed; a replication's chain is run_efi on
    # its training set at the replication's chain seed
    sizes = {} if config.csv else dict(n_train=40, n_test=20)
    config = replace(config, init_iters=2, k_burn=3, m_keep=4, thin=2, n_batches=2,
                     methods=("efi",), **sizes)
    specs = []
    real = fidte.sampler.mlp_init
    monkeypatch.setattr(fidte.sampler, "mlp_init", lambda spec: specs.append(spec) or real(spec))
    rng = np.random.default_rng(d)
    data = Dataset(x=rng.normal(size=(40, d)), t=np.arange(40) % 2, y=rng.normal(size=40))
    chain = run_efi(data, config, 11)
    layout = build_layout(config, d)
    assert specs == [MlpSpec((d + 3, *INVERSE_WIDTHS, layout.theta_dim), seed=11)]
    assert chain.layout == layout
    ints = replication_ints(config.seed, 0)
    train = data if config.csv else _replication_data(config, ints)[0]
    rep = run_replication(config, 0, data if config.csv else None)
    np.testing.assert_array_equal(rep["chain"].draws, run_efi(train, config, ints[2]).draws)


def test_run_efi_shapes_and_determinism():
    data, config, seed = small_run()
    chain = run_efi(data, config, seed)
    assert isinstance(chain, FiducialChain)
    assert chain.draws.shape == (20, build_layout(config, data.d).theta_dim)
    assert chain.sigmas.shape == (20,)
    assert (chain.sigmas > 0).all()
    assert np.all(np.isfinite(chain.draws))
    assert np.all(np.isfinite(chain.energies))
    assert chain.scaler is not None
    again = run_efi(data, config, seed)
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
    _, config, _ = small_run()
    run_efi(toy_data(rng, n=45), config, 3)
    again = run_efi(*small_run())
    np.testing.assert_array_equal(first.draws, again.draws)
    np.testing.assert_array_equal(first.energies, again.energies)


def test_run_efi_seed_changes_draws():
    a = run_efi(*small_run(seed=7))
    b = run_efi(*small_run(seed=8))
    assert not np.array_equal(a.draws, b.draws)


def test_run_efi_with_init_phase_and_minibatch():
    # 30 rows in 3 batches: weight steps on 10-row minibatches
    chain = run_efi(*small_run(init_iters=40, n_batches=3))
    assert chain.n_draws == 20
    assert np.all(np.isfinite(chain.draws))


def test_run_efi_ends_the_init_phase_at_init_iters(monkeypatch):
    # init 3, burn 2, keep 4: three weight passes on fresh reference noise,
    # then the log-sigma bias reset, then latent and weight passes alternating
    data, config, seed = small_run(init_iters=3, k_burn=2, m_keep=4, thin=2, n_batches=1)
    layout = build_layout(config, data.d)
    spec = MlpSpec((data.d + 3, *INVERSE_WIDTHS, layout.theta_dim), seed=seed)
    sigma_slot = _layer_slices(spec)[-1][1].start + layout.log_sigma_index
    calls = []
    real = fidte.sampler.energy_gradients

    def recorded(w, rows, z, *args, need_z, need_w):
        calls.append((need_z, need_w, z.copy(), float(w.flat[sigma_slot])))
        return real(w, rows, z, *args, need_z=need_z, need_w=need_w)

    monkeypatch.setattr(fidte.sampler, "energy_gradients", recorded)
    run_efi(data, config, seed)
    rows = SolveRows.build(data, Standardizer.fit(data.x, data.y), layout)
    log_sigma = least_squares_theta(rows, layout)[layout.log_sigma_index]
    assert len(calls) == 3 + 2 * (2 + 4)
    assert [c[:2] for c in calls[:3]] == [(False, True)] * 3
    for a, b in ((0, 1), (0, 2), (1, 2)):
        assert not np.array_equal(calls[a][2], calls[b][2])
    # the init phase moved the bias, and the reset put it back
    assert calls[2][3] != log_sigma
    assert calls[3][:2] == (True, False)
    np.testing.assert_array_equal(calls[3][2], calls[2][2])
    assert calls[3][3] == log_sigma
    assert [c[:2] for c in calls[3:]] == [(True, False), (False, True)] * 6


def test_run_efi_trace_stream():
    data, config, seed = small_run(init_iters=5)
    buf = io.StringIO()
    run_efi(data, config, seed, trace=buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0].split(",") == ["iteration", "energy", "upsilon", "gamma_rest", "grad_w_norm"]
    assert len(lines) == 1 + 5 + 160  # header + init phase + sampling phase
    cols = [line.split(",") for line in lines[1:]]
    assert [int(c[0]) for c in cols] == list(range(1, 1 + 5 + 160))
    # both steps are constant: upsilon is anchored so that
    # upsilon * kappa_z = Z_STEP_TARGET, and the weight step keeps its anchor
    layout = build_layout(config, data.d)
    rows = SolveRows.build(data, Standardizer.fit(data.x, data.y), layout)
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
    config = make_config(eta=500.0, eps=0.005, k_burn=50, m_keep=100, thin=5)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match="diverged"):
            run_efi(data, config, 0)


@pytest.mark.parametrize("design", ["linear_ate", "example1", "example2"],
                         ids=["linear_ate", "dnn_tau_linear_c", "dnn_both"])
def test_run_efi_reports_a_non_finite_start_as_a_divergence(monkeypatch, design):
    # an inf in the tau block of the start state (tau' on linear_ate, a hidden
    # weight of the tau network otherwise) is one error on every layout
    real = fidte.sampler.least_squares_theta

    def with_inf(rows, layout):
        theta = real(rows, layout)
        theta[layout.tau_slice.start] = np.inf
        return theta

    monkeypatch.setattr(fidte.sampler, "least_squares_theta", with_inf)
    config = make_config(design=design, n_test=1, eta=10.0, eps=0.1, k_burn=5, m_keep=5, thin=1)
    with pytest.raises(RuntimeError, match="^energy diverged at iteration 1: nan$"):
        run_efi(toy_data(np.random.default_rng(3), n=20), config, 0)


def _non_finite_w_pass(real):
    def stage(*args, need_w, **kwargs):
        rep = real(*args, need_w=need_w, **kwargs)
        return replace(rep, total=np.inf) if need_w else rep
    return stage


# run_efi's stages that can diverge on their own: (name in fidte.sampler, the
# stage with a non-finite result, the message)
DIVERGING_STAGES = {
    "latent-step": ("sghmc_z_step", lambda real: lambda z, v, *a: (z * np.nan, v),
                    "^latent chain diverged at iteration 1$"),
    "w-pass-energy": ("energy_gradients", _non_finite_w_pass,
                      "^energy diverged at iteration 1: inf$"),
    "weight-gradient": ("log_prior_grad", lambda real: lambda *a: np.full_like(real(*a), np.nan),
                        "^weight gradient diverged at iteration 1$"),
    "weight-step": ("sgd_w_step", lambda real: lambda w, *a: w.flat.fill(np.nan),
                    "^weight step diverged at iteration 1$"),
    # k_burn 5 at thin 1: the first draw is recorded at iteration 6
    "recorded-draw": ("energy", lambda real: lambda *a: replace(real(*a), total=np.inf),
                      "^energy diverged at iteration 6: inf$"),
}


@pytest.mark.parametrize("stage", list(DIVERGING_STAGES))
def test_run_efi_names_the_stage_that_diverged(monkeypatch, stage):
    name, make, message = DIVERGING_STAGES[stage]
    monkeypatch.setattr(fidte.sampler, name, make(getattr(fidte.sampler, name)))
    config = make_config(eta=10.0, eps=0.1, k_burn=5, m_keep=5, thin=1)
    with pytest.raises(RuntimeError, match=message):
        run_efi(toy_data(np.random.default_rng(3), n=20), config, 0)


def test_run_efi_draws_match_the_log_sum_exp_prior(monkeypatch):
    # the one-exp prior gradient agrees with the log-sum-exp form to ~1e-12
    # relative, so a short run of example1's model, whose tau head also takes
    # the scaled prior path, moves its draws by no more than a few ulps
    cfg = make_config(design="example1", tau_widths=(4, 3),
                      n_test=1, eta=10.0, eps=0.1, k_burn=40, m_keep=60, thin=3,
                      init_iters=10, n_batches=2)
    data = generate("example1", 40, seed=4)
    layout = build_layout(cfg, data.d)
    spec = MlpSpec((data.d + 3, *INVERSE_WIDTHS, layout.theta_dim), seed=9)
    shipped = run_efi(data, cfg, 9)
    monkeypatch.setattr(fidte.sampler, "log_prior_grad", lambda w, head: lse_log_prior_grad(
        w, np.where(slices_mask(w.size, head), RESCALE, 1.0)))
    reference = run_efi(data, cfg, 9)
    assert head_slices(spec, layout)
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
    config = make_config(eta=500.0, eps=0.1, k_burn=1500, m_keep=1500, thin=5)
    chain = run_efi(data, config, 4)
    tau_draws = 2.0 * chain.scaler.y_std * chain.draws[:, 0]
    assert abs(tau_draws.mean() - 1.0) < 0.35
