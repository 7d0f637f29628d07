import numpy as np
import pytest
from scipy import stats

import fidte.cqr

from fidte.cqr import (
    ConformalCorrection,
    QuantileModel,
    TrainConfig,
    _band,
    _fit_pinball_net,
    calibrate,
    conformal_scores,
    cqr_ite,
    pinball_fit,
    predict_quantiles,
)
from fidte.datagen import GenSpec, generate
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

FAST = TrainConfig(iters=600, lr=0.05)


def flat_data(rng, n, sd=1.0):
    # outcome independent of x: true quantiles are the same everywhere
    x = rng.uniform(size=(n, 2))
    t = (rng.random(n) < 0.5).astype(float)
    y = rng.normal(scale=sd, size=n)
    return Dataset(x=x, t=t, y=y)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(iters=0)
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)


def test_quantile_model_needs_two_outputs():
    net = mlp_init(MlpSpec((3, 4, 1), seed=0))
    with pytest.raises(ValueError, match="2 outputs"):
        QuantileModel(
            net=net,
            f_mean=np.zeros(3), f_sd=np.ones(3),
            y_mean=np.zeros(1), y_sd=np.ones(1),
        )


def test_conformal_correction_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        ConformalCorrection(s_hat={1: float("nan")})


def test_pinball_fit_constant_outcome():
    # fixed-step subgradient descent dithers at a floor proportional to the
    # learning rate, so the fit lands near the point mass but not on it
    rng = np.random.default_rng(0)
    data = flat_data(rng, 120, sd=1.0)
    data = Dataset(x=data.x, t=data.t, y=np.full(120, 3.25))
    model = pinball_fit(data, alpha=0.1, config=FAST)
    q = predict_quantiles(model, data.x[:20], data.t[:20])
    np.testing.assert_allclose(q, 3.25, atol=0.12)


def test_pinball_fit_gaussian_quantiles():
    # y ~ N(0,1) regardless of x, so the fitted (0.05, 0.95) curves should be
    # calibrated on fresh outcomes and average near the normal quantiles
    rng = np.random.default_rng(1)
    data = flat_data(rng, 4000)
    model = pinball_fit(data, alpha=0.1, config=TrainConfig(iters=2000, lr=0.05))
    grid = rng.uniform(size=(2000, 2))
    q = predict_quantiles(model, grid, np.zeros(2000))
    zq = stats.norm.ppf(0.95)
    assert abs(np.mean(q[:, 0]) + zq) < 0.12
    assert abs(np.mean(q[:, 1]) - zq) < 0.12
    fresh = rng.standard_normal(2000)
    assert 0.01 < np.mean(fresh < q[:, 0]) < 0.10
    assert 0.90 < np.mean(fresh < q[:, 1]) < 0.99


def test_predict_quantiles_never_cross():
    # an undertrained net can emit crossed raw outputs; the per-row sort has
    # to leave lower <= upper everywhere
    rng = np.random.default_rng(2)
    data = flat_data(rng, 60)
    model = pinball_fit(data, alpha=0.5, config=TrainConfig(iters=2, lr=0.5))
    q = predict_quantiles(model, rng.uniform(size=(200, 2)), np.zeros(200))
    assert np.all(q[:, 0] <= q[:, 1])


# the fits of cqr_ite on example1 at n_train 500: the naive arm bands, the
# fold-1 arm bands and the inexact endpoint regression
EXAMPLE1_FITS = [(250, 6, (0.0125, 0.9875)), (125, 6, (0.0125, 0.9875)), (250, 5, (0.5, 0.5))]
HIDDEN = {1: (10,), 2: (10, 10), 3: (5, 7, 3)}


@pytest.mark.parametrize("depth", [1, 2, 3], ids=["depth1", "depth2", "depth3"])
@pytest.mark.parametrize("n, d_in, qs", EXAMPLE1_FITS, ids=["250x6", "125x6", "250x5"])
def test_fit_is_bitwise_the_folded_reference(n, d_in, qs, depth, rng):
    features = rng.normal(size=(n, d_in))
    targets = rng.normal(size=(n, 2))
    spec = MlpSpec((d_in, *HIDDEN[depth], 2), seed=3)
    config = TrainConfig(iters=200, lr=0.02)
    got = _fit_pinball_net(features, targets, qs, spec, config)
    want = folded_pinball_net(features, targets, qs, spec, config)
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
def test_fit_steps_match_the_row_major_reference(widths, qs, rng):
    # a few steps in, before the pinball fit amplifies the two layouts'
    # last-bit rounding differences, the fit is the row-major one
    features = rng.normal(size=(37, widths[0]))
    targets = np.repeat(rng.normal(size=(37, 1)), 2, axis=1)
    spec = MlpSpec(widths, seed=4)
    config = TrainConfig(iters=5, lr=0.05)
    got = _fit_pinball_net(features, targets, qs, spec, config)
    want = allocating_pinball_net(features, targets, qs, spec, config)
    np.testing.assert_allclose(got.flat, want.flat, rtol=1e-12)


def test_fitted_net_predicts_the_folded_forward(rng):
    # predict_quantiles runs nn's forward on the fit's unfolded network; it
    # gives the folded forward of the fit's own parameters, sorted per row
    n, d_in, qs = EXAMPLE1_FITS[0]
    features = rng.normal(size=(n, d_in))
    targets = rng.normal(size=(n, 2))
    spec = MlpSpec((d_in, 10, 10, 2), seed=3)
    config = TrainConfig(iters=200, lr=0.02)
    model = QuantileModel(net=_fit_pinball_net(features, targets, qs, spec, config),
                          f_mean=np.zeros(d_in), f_sd=np.ones(d_in),
                          y_mean=np.zeros(1), y_sd=np.ones(1))
    _, out = folded_activations(folded_pinball_net(features, targets, qs, spec, config), features)
    got = predict_quantiles(model, features[:, :-1], features[:, -1])
    np.testing.assert_allclose(got, np.sort(out.T, axis=1), rtol=1e-12)


def test_pinball_fit_names_the_step_that_went_non_finite(rng):
    features = rng.normal(size=(30, 3))
    targets = np.repeat(rng.normal(size=(30, 1)), 2, axis=1)
    with np.errstate(all="ignore"), pytest.raises(
        ValueError, match=r"^non-finite parameter values at Adam step 2 of 5, "
                          r"quantile levels \(0\.1, 0\.9\)$"
    ):
        _fit_pinball_net(features, targets, (0.1, 0.9), MlpSpec((3, 4, 2), seed=1),
                         TrainConfig(iters=5, lr=1e308))


def test_pinball_fit_rejects_non_finite_weights(rng):
    data = flat_data(rng, 40)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite parameter values"):
        pinball_fit(data, alpha=0.1, config=TrainConfig(iters=3, lr=1e308))


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


def test_conformal_scores_requires_arm_rows():
    model = exact_model(-1.0, 1.0)
    valid = Dataset(x=np.zeros((2, 2)), t=np.zeros(2), y=np.zeros(2))
    with pytest.raises(ValueError, match="no rows with arm 1"):
        conformal_scores(model, valid, arm=1)


def test_calibrate_order_statistic():
    assert calibrate(np.zeros(99), alpha=0.05) == 0.0
    # with scores 1..99 and alpha 0.05 the ceil(100 * 0.95) = 95th order
    # statistic is picked
    assert calibrate(np.arange(1.0, 100.0), alpha=0.05) == 95.0
    # too few scores for the requested level: rank 6 of 5 -> unbounded
    assert calibrate(np.arange(5.0), alpha=0.05) == float("inf")


def test_calibrate_monotone_in_alpha():
    rng = np.random.default_rng(3)
    scores = rng.normal(size=40)
    vals = [calibrate(scores, a) for a in (0.01, 0.05, 0.1, 0.25, 0.5)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_calibrate_validation():
    with pytest.raises(ValueError, match="empty"):
        calibrate(np.array([]), alpha=0.1)
    with pytest.raises(ValueError, match="alpha"):
        calibrate(np.ones(3), alpha=1.0)


def test_cqr_counterfactual_applies_correction():
    # the counterfactual band of one arm is the raw quantile band widened by
    # that arm's calibrated correction on both sides
    model = exact_model(-1.0, 1.0)
    x = np.zeros((3, 2))
    raw = _band(model, ConformalCorrection({1: 0.0}), x, 1)
    widened = _band(model, ConformalCorrection({1: 2.0}), x, 1)
    np.testing.assert_array_equal(raw, ([-1.0] * 3, [1.0] * 3))
    np.testing.assert_array_equal(widened, ([-3.0] * 3, [3.0] * 3))
    np.testing.assert_array_equal(_band(model, ConformalCorrection({0: 0.5}), x, 0)[0], -1.5)


def test_cqr_counterfactual_missing_arm():
    model = exact_model(-1.0, 1.0)
    with pytest.raises(ValueError, match="no calibrated correction"):
        _band(model, ConformalCorrection({0: 0.0}), np.zeros((1, 2)), 1)


def test_split_conformal_marginal_coverage():
    # the finite-sample guarantee P(y in band) >= 1 - alpha holds for any
    # regressor, even a deliberately undertrained one; check the Monte Carlo
    # coverage over exchangeable replications against a 3-sigma binomial band
    alpha, reps = 0.2, 300
    rng = np.random.default_rng(4)
    hits = 0
    cheap = TrainConfig(iters=40, lr=0.05)
    for _ in range(reps):
        x = rng.uniform(size=(41, 2))
        y = np.sin(3.0 * x[:, 0]) + rng.normal(scale=0.5, size=41)
        t = np.ones(41)
        fit = Dataset(x=x[:20], t=t[:20], y=y[:20])
        cal = Dataset(x=x[20:40], t=t[20:40], y=y[20:40])
        model = pinball_fit(fit, alpha=alpha, config=cheap, seed=int(rng.integers(2**31)))
        s_hat = calibrate(conformal_scores(model, cal, arm=1), alpha)
        q = predict_quantiles(model, x[40:41], np.ones(1))
        hits += int(q[0, 0] - s_hat <= y[40] <= q[0, 1] + s_hat)
    floor = (1.0 - alpha) - 3.0 * np.sqrt(alpha * (1.0 - alpha) / reps)
    assert hits / reps >= floor


def test_cqr_ite_modes_run_and_tag_im():
    # large enough that every calibration fold supports a finite band
    train = generate(GenSpec("example1", 400, seed=5))
    test = generate(GenSpec("example1", 40, seed=6))
    for mode in ("naive", "exact", "inexact"):
        out = cqr_ite(train, test, alpha=0.1, mode=mode, seed=0, config=FAST)
        assert len(out) == test.n
        assert all(iv.case == "Im" for iv in out)
        assert all(iv.lower <= iv.upper for iv in out)
        assert [iv.subject_id for iv in out] == list(range(test.n))


def test_cqr_ite_deterministic_in_seed():
    train = generate(GenSpec("example1", 120, seed=7))
    test = generate(GenSpec("example1", 20, seed=8))
    a = cqr_ite(train, test, alpha=0.1, mode="naive", seed=3, config=FAST)
    b = cqr_ite(train, test, alpha=0.1, mode="naive", seed=3, config=FAST)
    assert [(iv.lower, iv.upper) for iv in a] == [(iv.lower, iv.upper) for iv in b]


def test_cqr_ite_naive_wider_than_inexact():
    # differencing two outcome bands stacks both arms' widths; the inexact
    # variant regresses interval endpoints instead and should come out tighter
    train = generate(GenSpec("example1", 400, seed=9))
    test = generate(GenSpec("example1", 100, seed=10))
    naive = cqr_ite(train, test, alpha=0.05, mode="naive", seed=1, config=FAST)
    inexact = cqr_ite(train, test, alpha=0.05, mode="inexact", seed=1, config=FAST)
    def mean_length(ivs):
        return np.mean([iv.upper - iv.lower for iv in ivs])

    assert mean_length(naive) > mean_length(inexact)


def test_cqr_ite_naive_covers_noise_free_effect():
    # with sigma -> 0 both potential outcomes are deterministic functions of
    # x, so the differenced bands must catch y1 - y0 nearly everywhere
    rng = np.random.default_rng(11)
    n = 400
    x = rng.uniform(size=(n, 2))
    t = (rng.random(n) < 0.5).astype(float)
    c = 1.0 + x[:, 0] + x[:, 1]
    tau = 2.0 * x[:, 0]
    y = c + tau * t
    train = Dataset(x=x[:300], t=t[:300], y=y[:300])
    test_x = x[300:]
    out = cqr_ite(train, Dataset(x=test_x, t=t[300:], y=y[300:]), alpha=0.1,
                  mode="naive", seed=2, config=TrainConfig(iters=2000, lr=0.05))
    truth = 2.0 * test_x[:, 0]
    covered = np.mean([iv.lower <= tr <= iv.upper for iv, tr in zip(out, truth)])
    assert covered >= 0.9


def test_cqr_ite_unknown_mode():
    train = generate(GenSpec("example1", 40, seed=12))
    with pytest.raises(ValueError, match="unknown mode"):
        cqr_ite(train, train, mode="magic")
    with pytest.raises(ValueError, match="alpha"):
        cqr_ite(train, train, alpha=0.0)


def test_cqr_ite_endpoint_modes_reject_infinite_band(monkeypatch):
    # too few calibration rows per arm for alpha/2 push the conformal margin
    # to infinity; the endpoint-regression modes must refuse rather than fit
    # infinite targets, and refuse before fitting anything
    train = generate(GenSpec("example1", 120, seed=13))
    test = generate(GenSpec("example1", 20, seed=14))
    calls = count_pinball_fits(monkeypatch)
    with pytest.raises(ValueError, match="infinite band"):
        cqr_ite(train, test, alpha=0.05, mode="inexact", seed=1, config=FAST)
    assert calls == []


def test_cqr_ite_naive_rejects_infinite_band(monkeypatch):
    # the same 120 rows: the naive mode's per-arm bands are infinite too, and
    # it must refuse rather than report (-inf, inf) intervals as covered,
    # before its fit
    train = generate(GenSpec("example1", 120, seed=13))
    test = generate(GenSpec("example1", 20, seed=14))
    calls = count_pinball_fits(monkeypatch)
    with pytest.raises(ValueError, match=r"^calibration at alpha 0\.05 returned an infinite band"):
        cqr_ite(train, test, alpha=0.05, mode="naive", seed=1, config=FAST)
    assert calls == []


def count_pinball_fits(monkeypatch):
    calls = []
    real = fidte.cqr.pinball_fit

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(fidte.cqr, "pinball_fit", counted)
    return calls


def test_exact_and_inexact_share_one_fold_one_fit(monkeypatch):
    # with a shared dict the second endpoint mode reuses the first one's
    # fold-1 fit, in either order, and gets what it gets on its own
    train = generate(GenSpec("example1", 400, seed=5))
    test = generate(GenSpec("example1", 30, seed=6))
    calls = count_pinball_fits(monkeypatch)
    alone = {
        mode: cqr_ite(train, test, alpha=0.1, mode=mode, seed=4, config=FAST)
        for mode in ("exact", "inexact")
    }
    assert len(calls) == 2
    for order in (("exact", "inexact"), ("inexact", "exact")):
        calls.clear()
        fits = {}
        for mode in order:
            shared = cqr_ite(train, test, alpha=0.1, mode=mode, seed=4, config=FAST,
                             fold_one_fits=fits)
            assert shared == alone[mode]
        assert len(calls) == 1 and len(fits) == 1
