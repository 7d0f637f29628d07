import numpy as np
import pytest
from scipy import stats

import fidte.cqr

from fidte.config import preset_config
from fidte.cqr import (
    PinballTask,
    QuantileModel,
    _band,
    _features,
    _fit_pinball_stage,
    calibrate,
    conformal_scores,
    cqr_ite,
    fit_cqr,
    pinball_fit,
    predict_quantiles,
)
from fidte.datagen import generate
from fidte.engine import Dataset
from fidte.nn import (
    MlpParams,
    MlpSpec,
    mlp_backward_batch,
    mlp_forward_batch,
    mlp_init,
    param_count,
)

from conftest import (
    allocating_pinball_net,
    fold_layers,
    folded_activations,
    folded_pinball_grads,
    folded_pinball_net,
    unfold_layers,
)

FAST = (600, 0.05)  # Adam steps and rate of most fits here


def flat_data(rng, n, sd=1.0):
    # outcome independent of x: true quantiles are the same everywhere
    x = rng.uniform(size=(n, 2))
    t = (rng.random(n) < 0.5).astype(float)
    y = rng.normal(scale=sd, size=n)
    return Dataset(x=x, t=t, y=y)


def arm_fit(data, alpha, seed=0):
    # the (alpha/2, 1 - alpha/2) quantiles of y on (x, t), as an arm band fits them
    qs = (alpha / 2.0, 1.0 - alpha / 2.0)
    return pinball_fit([PinballTask(_features(data.x, data.t), data.y[:, None], qs, seed)])[0]


def fit_net(features, targets, qs, spec, dtype=np.float64):
    # a one-net stage, by default in the float64 passes the references use
    return _fit_pinball_stage([features], [targets], [qs], [spec], dtype=dtype)[0]


def test_pinball_fit_constant_outcome(adam_steps):
    # fixed-step subgradient descent dithers at a floor proportional to the
    # learning rate, so the fit lands near the point mass but not on it
    adam_steps(*FAST)
    rng = np.random.default_rng(0)
    data = flat_data(rng, 120, sd=1.0)
    data = Dataset(x=data.x, t=data.t, y=np.full(120, 3.25))
    model = arm_fit(data, alpha=0.1)
    q = predict_quantiles(model, _features(data.x[:20], data.t[:20]))
    np.testing.assert_allclose(q, 3.25, atol=0.12)


def test_pinball_fit_gaussian_quantiles(adam_steps):
    # y ~ N(0,1) regardless of x, so the fitted (0.05, 0.95) curves should be
    # calibrated on fresh outcomes and average near the normal quantiles
    adam_steps(2000, 0.05)
    rng = np.random.default_rng(1)
    data = flat_data(rng, 4000)
    model = arm_fit(data, alpha=0.1)
    grid = rng.uniform(size=(2000, 2))
    q = predict_quantiles(model, _features(grid, 0))
    zq = stats.norm.ppf(0.95)
    assert abs(np.mean(q[:, 0]) + zq) < 0.12
    assert abs(np.mean(q[:, 1]) - zq) < 0.12
    fresh = rng.standard_normal(2000)
    assert 0.01 < np.mean(fresh < q[:, 0]) < 0.10
    assert 0.90 < np.mean(fresh < q[:, 1]) < 0.99


def test_predict_quantiles_never_cross(adam_steps):
    # an undertrained net can emit crossed raw outputs; the per-row sort has
    # to leave lower <= upper everywhere
    adam_steps(2, 0.5)
    rng = np.random.default_rng(2)
    data = flat_data(rng, 60)
    model = arm_fit(data, alpha=0.5)
    q = predict_quantiles(model, _features(rng.uniform(size=(200, 2)), 0))
    assert np.all(q[:, 0] <= q[:, 1])


# the fits of cqr_ite on example1 at n_train 500: the naive arm bands, the
# fold-1 arm bands and the inexact endpoint regression
EXAMPLE1_FITS = [(250, 6, (0.0125, 0.9875)), (125, 6, (0.0125, 0.9875)), (250, 5, (0.5, 0.5))]
HIDDEN = {1: (10,), 2: (10, 10), 3: (5, 7, 3)}


@pytest.mark.parametrize("depth", [1, 2, 3], ids=["depth1", "depth2", "depth3"])
@pytest.mark.parametrize("n, d_in, qs", EXAMPLE1_FITS, ids=["250x6", "125x6", "250x5"])
def test_fit_is_bitwise_the_folded_reference(n, d_in, qs, depth, rng, adam_steps):
    adam_steps(200, 0.02)
    features = rng.normal(size=(n, d_in))
    targets = rng.normal(size=(n, 2))
    spec = MlpSpec((d_in, *HIDDEN[depth], 2), seed=3)
    got = fit_net(features, targets, qs, spec)
    want = folded_pinball_net(features, targets, qs, spec)
    np.testing.assert_array_equal(got.flat, unfold_layers(want))


@pytest.mark.parametrize("widths", [(2, 6, 2), (3, 10, 10, 2), (4, 5, 7, 3, 2)],
                         ids=["depth1", "depth2", "depth3"])
def test_folded_gradient_is_nn_gradient(widths, rng):
    # the folded layout maps onto nn's: on shared parameters, the folded
    # pinball gradient unfolded is nn's backward pass to the last few bits
    n, qs = 37, (0.1, 0.9)
    features = rng.normal(size=(n, widths[0]))
    targets = rng.normal(size=(n, 2))
    spec = MlpSpec(widths)
    net = MlpParams(spec, rng.normal(scale=0.5, size=param_count(spec)))
    acts = mlp_forward_batch(net, features)
    out_grad = ((targets < acts[-1]) - np.asarray(qs)[None, :]) / n
    want, _ = mlp_backward_batch(net, acts, out_grad, need_input=False)
    got = unfold_layers(folded_pinball_grads(fold_layers(net), features, targets, qs))
    np.testing.assert_allclose(got, want, rtol=1e-12)


@pytest.mark.parametrize(
    "widths, qs",
    [((2, 6, 2), (0.5, 0.5)), ((3, 10, 10, 2), (0.025, 0.975)), ((4, 5, 7, 3, 2), (0.1, 0.9))],
    ids=["depth1", "depth2", "depth3"],
)
def test_fit_steps_match_the_row_major_reference(widths, qs, rng, adam_steps):
    # a few steps in, before the pinball fit amplifies the two layouts'
    # last-bit rounding differences, the fit is the row-major one
    adam_steps(5, 0.05)
    features = rng.normal(size=(37, widths[0]))
    targets = np.repeat(rng.normal(size=(37, 1)), 2, axis=1)
    spec = MlpSpec(widths, seed=4)
    got = fit_net(features, targets, qs, spec)
    want = allocating_pinball_net(features, targets, qs, spec)
    np.testing.assert_allclose(got.flat, want.flat, rtol=1e-12)


def test_fitted_net_predicts_the_folded_forward(rng, adam_steps):
    # predict_quantiles runs nn's forward on the fit's unfolded network; it
    # gives the folded forward of the fit's own parameters, sorted per row
    adam_steps(200, 0.02)
    n, d_in, qs = EXAMPLE1_FITS[0]
    features = rng.normal(size=(n, d_in))
    targets = rng.normal(size=(n, 2))
    spec = MlpSpec((d_in, 10, 10, 2), seed=3)
    model = QuantileModel(net=fit_net(features, targets, qs, spec),
                          f_mean=np.zeros(d_in), f_sd=np.ones(d_in),
                          y_mean=np.zeros(1), y_sd=np.ones(1))
    _, out = folded_activations(folded_pinball_net(features, targets, qs, spec), features)
    got = predict_quantiles(model, features)
    np.testing.assert_allclose(got, np.sort(out.T, axis=1), rtol=1e-12)


# a stage's nets as one replication at alphas 0.05 and 0.10 fits them: the
# naive and fold-1 arm bands at each level, 250 and 125 rows on one stack
STAGE = [(250, (0.0125, 0.9875), 3), (125, (0.0125, 0.9875), 3),
         (250, (0.025, 0.975), 4), (125, (0.025, 0.975), 4)]


def stage_inputs(rng, nets, d_in=6):
    features = [rng.normal(size=(n, d_in)) for n, _, _ in nets]
    targets = [rng.normal(size=(n, 2)) for n, _, _ in nets]
    qs = [q for _, q, _ in nets]
    specs = [MlpSpec((d_in, 10, 10, 2), seed=seed) for _, _, seed in nets]
    return features, targets, qs, specs


@pytest.mark.parametrize("nets", [STAGE[:1], STAGE[:2], STAGE], ids=["K1", "K2", "K4"])
def test_stage_nets_are_bitwise_the_folded_reference(nets, rng, adam_steps):
    # in float64 the lockstep stage is each net's own fit, padding and all
    adam_steps(200, 0.02)
    features, targets, qs, specs = stage_inputs(rng, nets)
    got = _fit_pinball_stage(features, targets, qs, specs, dtype=np.float64)
    for k, net in enumerate(got):
        want = folded_pinball_net(features[k], targets[k], qs[k], specs[k])
        np.testing.assert_array_equal(net.flat, unfold_layers(want))


def test_float32_stage_nets_are_bitwise_the_nets_alone(rng, adam_steps):
    # stacking and padding move no bit of a net's float32 fit either, so a
    # net's fit does not depend on the stage it runs in
    adam_steps(200, 0.02)
    features, targets, qs, specs = stage_inputs(rng, STAGE)
    stacked = _fit_pinball_stage(features, targets, qs, specs)
    for k, net in enumerate(stacked):
        alone = _fit_pinball_stage(features[k:k + 1], targets[k:k + 1], qs[k:k + 1], specs[k:k + 1])
        np.testing.assert_array_equal(net.flat, alone[0].flat)


def test_float32_passes_track_the_float64_fit(rng, adam_steps):
    # float32 passes round each gradient to ~1e-7 relative, and Adam's
    # steps of at most ~lr carry that into the weights: five steps at lr
    # 0.02 stay within 1e-6 (measured ~4e-8).  Longer fits flip some row's
    # pinball indicator, after which the two fits part by up to ~lr a step
    adam_steps(5, 0.02)
    features, targets, qs, specs = stage_inputs(rng, STAGE)
    low = _fit_pinball_stage(features, targets, qs, specs)
    high = _fit_pinball_stage(features, targets, qs, specs, dtype=np.float64)
    for a, b in zip(low, high):
        assert a.flat.dtype == np.float64
        np.testing.assert_allclose(a.flat, b.flat, rtol=0, atol=1e-6)


def test_pinball_fit_names_the_step_that_went_non_finite(rng, adam_steps):
    # the error names the step and the levels of the net that went
    # non-finite: the first net cannot move, since at levels 0 with targets
    # above every output its gradient is exactly 0; the second overflows at
    # the second step
    adam_steps(5, 1e308)
    features = [rng.normal(size=(30, 3)), rng.normal(size=(20, 3))]
    targets = [np.full((30, 2), 1e30), np.repeat(rng.normal(size=(20, 1)), 2, axis=1)]
    specs = [MlpSpec((3, 4, 2), seed=1), MlpSpec((3, 4, 2), seed=2)]
    for dtype in (np.float32, np.float64):
        with np.errstate(all="ignore"), pytest.raises(
            ValueError, match=r"^non-finite parameter values at Adam step 2 of 5, "
                              r"quantile levels \(0\.1, 0\.9\)$"
        ):
            _fit_pinball_stage(features, targets, [(0.0, 0.0), (0.1, 0.9)], specs, dtype=dtype)


def test_pinball_fit_rejects_non_finite_weights(rng, adam_steps):
    adam_steps(3, 1e308)
    data = flat_data(rng, 40)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite parameter values"):
        arm_fit(data, alpha=0.1)


def exact_model(lo, hi):
    # zero-weight net emits (0, 0); shifting by y_mean and scaling y_sd makes
    # a model with constant band [lo, hi] at alpha irrelevant for these tests
    spec = MlpSpec((3, 2, 2), seed=0)
    net = mlp_init(spec)
    net.flat[:] = 0.0
    mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    # bias of the output layer sets (-1, +1) before scaling
    net.flat[-2:] = np.array([-1.0, 1.0]) if half > 0 else np.zeros(2)
    return QuantileModel(
        net=net,
        f_mean=np.zeros(3), f_sd=np.ones(3),
        y_mean=np.array([mid]), y_sd=np.array([half if half > 0 else 1.0]),
    )


def test_conformal_scores_sign_convention():
    model = exact_model(-1.0, 1.0)
    x = np.zeros((3, 2))
    valid = Dataset(x=x, t=np.ones(3), y=np.array([0.0, 1.0, 2.5]))
    s = conformal_scores(model, valid, arm=1)
    # inside the band -> negative, on the upper edge -> zero, outside -> gap
    np.testing.assert_allclose(s, [-1.0, 0.0, 1.5], atol=1e-12)


def test_conformal_scores_requires_arm_rows(monkeypatch):
    # conformal_scores takes an arm's calibration rows as given: fit_cqr
    # refuses a training set without treated rows, before any fit
    base = generate("example1", 40, seed=12)
    train = Dataset(x=base.x, t=np.zeros(40), y=base.y)
    calls = count_pinball_fits(monkeypatch)
    with pytest.raises(ValueError, match=r"^calibration at alpha 0\.1 returned an infinite band: "
                                         r"arm 1 has 0 calibration rows"):
        fit_cqr(train, (0.1,), ("naive",), 0)
    assert calls == []


def test_calibrate_order_statistic():
    assert calibrate(np.zeros(99), alpha=0.05) == 0.0
    # with scores 1..99 and alpha 0.05 the ceil(100 * 0.95) = 95th order
    # statistic is picked
    assert calibrate(np.arange(1.0, 100.0), alpha=0.05) == 95.0
    # too few scores for the requested level: rank 6 of 5 -> unbounded
    assert calibrate(np.arange(5.0), alpha=0.05) == float("inf")


def test_calibrate_validation():
    # calibrate takes its level, alpha or alpha / 2 of a configured alpha, as
    # given: the config rejects an alpha outside (0, 1) when it is built
    for alpha in (0.0, 1.0):
        with pytest.raises(ValueError, match=r"^alphas: levels must lie in \(0, 1\)"):
            preset_config("example1", alphas=(0.05, alpha))


def test_calibrate_monotone_in_alpha():
    rng = np.random.default_rng(3)
    scores = rng.normal(size=40)
    vals = [calibrate(scores, a) for a in (0.01, 0.05, 0.1, 0.25, 0.5)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_cqr_counterfactual_applies_correction():
    # the counterfactual band of one arm is the raw quantile band widened by
    # that arm's calibrated correction on both sides
    model = exact_model(-1.0, 1.0)
    x = np.zeros((3, 2))
    # (s_0, s_1): the other arm's correction is not read
    raw = _band(model, (5.0, 0.0), x, 1)
    widened = _band(model, (5.0, 2.0), x, 1)
    np.testing.assert_array_equal(raw, ([-1.0] * 3, [1.0] * 3))
    np.testing.assert_array_equal(widened, ([-3.0] * 3, [3.0] * 3))
    np.testing.assert_array_equal(_band(model, (0.5, 5.0), x, 0)[0], -1.5)


def test_split_conformal_marginal_coverage(adam_steps):
    # the finite-sample guarantee P(y in band) >= 1 - alpha holds for any
    # regressor, even a deliberately undertrained one; check the Monte Carlo
    # coverage over exchangeable replications against a 3-sigma binomial band
    adam_steps(40, 0.05)
    alpha, reps = 0.2, 300
    rng = np.random.default_rng(4)
    hits = 0
    for _ in range(reps):
        x = rng.uniform(size=(41, 2))
        y = np.sin(3.0 * x[:, 0]) + rng.normal(scale=0.5, size=41)
        t = np.ones(41)
        fit = Dataset(x=x[:20], t=t[:20], y=y[:20])
        cal = Dataset(x=x[20:40], t=t[20:40], y=y[20:40])
        model = arm_fit(fit, alpha=alpha, seed=int(rng.integers(2**31)))
        s_hat = calibrate(conformal_scores(model, cal, arm=1), alpha)
        q = predict_quantiles(model, _features(x[40:41], 1))
        hits += int(q[0, 0] - s_hat <= y[40] <= q[0, 1] + s_hat)
    floor = (1.0 - alpha) - 3.0 * np.sqrt(alpha * (1.0 - alpha) / reps)
    assert hits / reps >= floor


def one_mode(train, test, alpha, mode, seed):
    # one mode's intervals at one level, fitted for it alone
    return cqr_ite(fit_cqr(train, (alpha,), (mode,), seed), test, alpha=alpha, mode=mode)


def columns(ivs):
    # a block's rows as plain values, to compare two blocks
    return (ivs.subject_id.tolist(), ivs.case.tolist(), ivs.lower.tolist(), ivs.upper.tolist(),
            ivs.alpha)


def test_cqr_ite_modes_run_and_tag_im(adam_steps):
    adam_steps(*FAST)
    # large enough that every calibration fold supports a finite band
    train = generate("example1", 400, seed=5)
    test = generate("example1", 40, seed=6)
    for mode in ("naive", "exact", "inexact"):
        out = one_mode(train, test, 0.1, mode, seed=0)
        assert out.lower.shape == (test.n,)
        assert out.case.tolist() == ["Im"] * test.n
        assert np.all(out.lower <= out.upper)
        assert out.subject_id.tolist() == list(range(test.n))


def test_cqr_ite_deterministic_in_seed(adam_steps):
    adam_steps(*FAST)
    train = generate("example1", 120, seed=7)
    test = generate("example1", 20, seed=8)
    a = one_mode(train, test, 0.1, "naive", seed=3)
    b = one_mode(train, test, 0.1, "naive", seed=3)
    assert columns(a) == columns(b)


def test_cqr_ite_naive_wider_than_inexact(adam_steps):
    # differencing two outcome bands stacks both arms' widths; the inexact
    # variant regresses interval endpoints instead and should come out tighter
    adam_steps(*FAST)
    train = generate("example1", 400, seed=9)
    test = generate("example1", 100, seed=10)
    naive = one_mode(train, test, 0.05, "naive", seed=1)
    inexact = one_mode(train, test, 0.05, "inexact", seed=1)
    def mean_length(ivs):
        return np.mean(ivs.upper - ivs.lower)

    assert mean_length(naive) > mean_length(inexact)


def test_cqr_ite_naive_covers_noise_free_effect(adam_steps):
    # with sigma -> 0 both potential outcomes are deterministic functions of
    # x, so the differenced bands must catch y1 - y0 nearly everywhere
    adam_steps(2000, 0.05)
    rng = np.random.default_rng(11)
    n = 400
    x = rng.uniform(size=(n, 2))
    t = (rng.random(n) < 0.5).astype(float)
    c = 1.0 + x[:, 0] + x[:, 1]
    tau = 2.0 * x[:, 0]
    y = c + tau * t
    train = Dataset(x=x[:300], t=t[:300], y=y[:300])
    test_x = x[300:]
    out = one_mode(train, Dataset(x=test_x, t=t[300:], y=y[300:]), 0.1, "naive", seed=2)
    truth = 2.0 * test_x[:, 0]
    covered = np.mean((out.lower <= truth) & (truth <= out.upper))
    assert covered >= 0.9


def test_cqr_ite_reports_crossed_endpoints_as_their_midpoint():
    # exact's endpoint surfaces x1 and 1/2 cross on the rows with x1 > 1/2,
    # some but not all of the test rows; each crossed row is its midpoint
    test = generate("example1", 20, seed=3)
    fits = {("exact", 0.1): (np.array([0.0, 1.0, 0.0]), np.array([0.5, 0.0, 0.0]), 0.0)}
    out = cqr_ite(fits, test, alpha=0.1, mode="exact")
    x1 = test.x[:, 0]
    crossed = x1 > 0.5
    assert 1 < crossed.sum() < test.n
    mid = 0.5 * (x1 + 0.5)
    assert np.array_equal(out.lower, np.where(crossed, mid, x1))
    assert np.array_equal(out.upper, np.where(crossed, mid, 0.5))


def test_cqr_ite_unknown_mode():
    # fit_cqr and cqr_ite take their modes as given: the config rejects an
    # unknown one when it is built
    with pytest.raises(ValueError, match=r"^methods: unknown method 'cqr-magic'"):
        preset_config("example1", methods=("efi", "cqr-magic"))


def test_cqr_ite_endpoint_modes_reject_infinite_band(monkeypatch, adam_steps):
    # too few calibration rows per arm for alpha/2 push the conformal margin
    # to infinity; the endpoint-regression modes must refuse rather than fit
    # infinite targets, and refuse before fitting anything
    adam_steps(*FAST)
    train = generate("example1", 120, seed=13)
    test = generate("example1", 20, seed=14)
    calls = count_pinball_fits(monkeypatch)
    with pytest.raises(ValueError, match="infinite band"):
        one_mode(train, test, 0.05, "inexact", seed=1)
    assert calls == []


def test_cqr_ite_naive_rejects_infinite_band(monkeypatch, adam_steps):
    # the same 120 rows: the naive mode's per-arm bands are infinite too, and
    # it must refuse rather than report (-inf, inf) intervals as covered,
    # before its fit
    adam_steps(*FAST)
    train = generate("example1", 120, seed=13)
    test = generate("example1", 20, seed=14)
    calls = count_pinball_fits(monkeypatch)
    with pytest.raises(ValueError, match=r"^calibration at alpha 0\.05 returned an infinite band"):
        one_mode(train, test, 0.05, "naive", seed=1)
    assert calls == []


def count_pinball_fits(monkeypatch):
    calls = []
    real = fidte.cqr.pinball_fit

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(fidte.cqr, "pinball_fit", counted)
    return calls


def test_a_replication_fits_in_two_stages(monkeypatch, adam_steps):
    # two levels and all three modes: stage 1 fits the naive and fold-1 arm
    # bands at both levels, stage 2 inexact's endpoints at both levels; each
    # (mode, level) gets what it gets fitted alone
    adam_steps(*FAST)
    train = generate("example1", 800, seed=5)
    test = generate("example1", 30, seed=6)
    alphas = (0.05, 0.10)
    calls = count_pinball_fits(monkeypatch)
    fits = fit_cqr(train, alphas, ("naive", "exact", "inexact"), seed=4)
    assert len(calls) == 2
    assert sorted(fits) == sorted((m, a) for m in ("naive", "exact", "inexact") for a in alphas)
    for mode, alpha in fits:
        want = one_mode(train, test, alpha, mode, seed=4)
        assert columns(cqr_ite(fits, test, alpha=alpha, mode=mode)) == columns(want)


@pytest.mark.parametrize("modes, n", [(("exact",), 120), (("naive", "inexact"), 200)])
def test_a_shortfall_at_any_level_or_mode_raises_before_any_fit(modes, n, monkeypatch, adam_steps):
    # level 0.975 needs 39 calibration rows of each arm: 120 rows leave too
    # few in every mode; of 200, naive's 100 calibration rows hold enough and
    # fold 1's 50 do not.  At alpha 0.5 every mode has enough
    adam_steps(*FAST)
    train = generate("example1", n, seed=13)
    calls = count_pinball_fits(monkeypatch)
    fit_cqr(train, (0.5,), modes, seed=1)
    calls.clear()
    with pytest.raises(ValueError, match=r"^calibration at alpha 0\.05 returned an infinite band"):
        fit_cqr(train, (0.5, 0.05), modes, seed=1)
    assert calls == []
