import numpy as np
import pytest

from fidte.engine import (
    RESCALE,
    Dataset,
    Standardizer,
    ThetaLayout,
    _dbar_aggregate,
    _mean_rows,
    c_surface,
    energy,
    energy_gradients,
    feature_matrix,
    sigma_of,
    tau_surface,
    unpack_theta,
)
from fidte.nn import (
    MlpParams,
    MlpSpec,
    mlp_backward_batch,
    mlp_forward_batch,
    mlp_init,
    param_count,
)

from conftest import IDENTITY_SCALER, assert_grad_close, central_diff


def linear_layout(d=2):
    return ThetaLayout("linear_ate", c_spec=d + 1)


def tau_net_layout(d=2, hidden=(3,)):
    return ThetaLayout(
        "dnn_tau_linear_c", c_spec=d + 1, tau_spec=MlpSpec((d, *hidden, 1), seed=1)
    )


def both_net_layout(d=2, hidden=(3,)):
    return ThetaLayout(
        "dnn_both",
        c_spec=MlpSpec((d, *hidden, 1), seed=2),
        tau_spec=MlpSpec((d, *hidden, 1), seed=3),
    )


def random_dataset(rng, n=8, d=2):
    return Dataset(
        x=rng.normal(size=(n, d)),
        t=(rng.random(n) < 0.5).astype(int),
        y=rng.normal(size=n),
    )


def random_inverse(rng, d, layout, hidden=(5,), seed=0):
    spec = MlpSpec((d + 3, *hidden, layout.theta_dim), seed=seed)
    params = mlp_init(spec)
    # perturb so biases are active too
    params.flat[:] += 0.05 * rng.normal(size=params.flat.size)
    return params


def model_predict_batch(theta, layout, x, t, z, scaler=IDENTITY_SCALER):
    """Reference model mean outcomes c(x) + tau(x) t + sigma z, in data units."""
    mt = unpack_theta(theta, layout)
    f, _ = _mean_rows(mt, layout, scaler.scale_x(x), np.asarray(t, dtype=np.float64), z)
    return scaler.y_mean + scaler.y_std * f


# ---------------------------------------------------------------- features


def theta_hat_rows(w, data, z):
    """theta_hat_i one observation at a time: the inverse net on a one-row batch."""
    return np.concatenate(
        [
            mlp_forward_batch(w, feature_matrix(data.subset([i]), z[i : i + 1], IDENTITY_SCALER))[-1]
            for i in range(data.n)
        ]
    )


def test_inverse_feature_order():
    data = Dataset(x=np.array([[3.0, 4.0], [3.0, 4.0]]), t=np.array([1, 0]), y=np.array([2.0, 2.0]))
    rows = feature_matrix(data, np.array([-1.5, -1.5]), IDENTITY_SCALER)
    np.testing.assert_array_equal(rows, [[2.0, 1.0, 3.0, 4.0, -1.5], [2.0, -1.0, 3.0, 4.0, -1.5]])


def test_theta_hat_is_forward_on_feature_row(rng):
    # with one observation theta_bar is that observation's theta_hat: the
    # inverse net on the row [y, 2t - 1, x, z]
    layout = linear_layout()
    w = random_inverse(rng, 2, layout)
    data = Dataset(x=np.array([[0.2, -0.4]]), t=np.array([1]), y=np.array([0.7]))
    z = np.array([0.9])
    want = mlp_forward_batch(w, np.array([[0.7, 1.0, 0.2, -0.4, 0.9]]))[-1][0]
    np.testing.assert_array_equal(energy(w, data, z, 1.0, layout, IDENTITY_SCALER).theta_bar, want)


def test_feature_matrix_standardizes_y_and_x_only(rng):
    data = random_dataset(rng, n=20)
    scaler = Standardizer.fit(data)
    z = rng.normal(size=20)
    f = feature_matrix(data, z, scaler)
    np.testing.assert_allclose(f[:, 0].mean(), 0.0, atol=1e-12)
    np.testing.assert_allclose(f[:, 0].std(), 1.0, rtol=1e-12)
    np.testing.assert_allclose(f[:, 2:4].mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_array_equal(f[:, 1], 2.0 * data.t - 1.0)  # treatment raw
    np.testing.assert_array_equal(f[:, 4], z)  # z raw


def test_theta_bar_is_mean_of_rows(rng):
    layout = linear_layout()
    data = random_dataset(rng, n=6)
    w = random_inverse(rng, 2, layout)
    z = rng.normal(size=6)
    rows = theta_hat_rows(w, data, z)
    np.testing.assert_allclose(energy(w, data, z, 1.0, layout, IDENTITY_SCALER).theta_bar, rows.mean(axis=0), rtol=1e-12)
    rep = energy_gradients(w, data, z, 1.0, layout, IDENTITY_SCALER)
    np.testing.assert_allclose(rep.theta_bar, rows.mean(axis=0), rtol=1e-12)


# ---------------------------------------------------------------- layouts


def test_layout_dims():
    lay = tau_net_layout(d=2, hidden=(10, 10))
    assert lay.tau_dim == param_count(MlpSpec((2, 10, 10, 1)))
    assert lay.theta_dim == 3 + 151 + 1
    lay2 = both_net_layout(d=5, hidden=(10, 10))
    assert lay2.theta_dim == 181 + 181 + 1


@pytest.mark.parametrize("make", [linear_layout, tau_net_layout, both_net_layout])
def test_pack_unpack_roundtrip(make, rng):
    # the unpacked pieces carry every slot of theta: repacking them restores it
    layout = make()
    theta = rng.normal(size=layout.theta_dim)
    mt = unpack_theta(theta, layout)
    back = np.full(layout.theta_dim, np.nan)
    if mt.tau_prime is not None:
        back[0] = mt.tau_prime
    if mt.c_coef is not None:
        back[layout.c_slice] = mt.c_coef
    for net, sl in ((mt.c_net, layout.c_slice), (mt.tau_net, layout.tau_slice)):
        if net is not None:
            back[sl] = net.flat * RESCALE
    back[layout.log_sigma_index] = np.log(mt.sigma)
    np.testing.assert_allclose(back, theta, rtol=1e-12, atol=1e-12)


def test_unpack_rescales_network_blocks():
    layout = tau_net_layout(d=2, hidden=(3,))
    theta = np.arange(layout.theta_dim, dtype=float) + 1.0
    mt = unpack_theta(theta, layout)
    np.testing.assert_allclose(mt.tau_net.flat, theta[layout.tau_slice] / RESCALE)
    np.testing.assert_array_equal(mt.c_coef, theta[:3])  # linear block untouched
    assert mt.sigma == pytest.approx(np.exp(theta[-1]))


def test_layout_validation():
    with pytest.raises(ValueError):
        ThetaLayout("linear_ate", c_spec=MlpSpec((2, 3, 1)))
    with pytest.raises(ValueError):
        ThetaLayout("dnn_both", c_spec=MlpSpec((2, 3, 1)), tau_spec=MlpSpec((2, 3, 2)))
    with pytest.raises(ValueError):
        ThetaLayout("no_such_kind", c_spec=3)
    with pytest.raises(ValueError):
        unpack_theta(np.zeros(5), linear_layout(d=3))  # needs 6 slots


# ---------------------------------------------------------------- model


def test_model_predict_linear_by_hand():
    layout = linear_layout(d=2)
    theta = np.array([0.5, 1.5, 0.0, 0.0, 0.0])  # tau'=.5 mu'=1.5 beta=0 logsig=0
    got = model_predict_batch(theta, layout, np.zeros((2, 2)), np.array([1, 0]), np.zeros(2))
    assert got[0] == pytest.approx(2.0, abs=1e-15)
    assert got[1] == pytest.approx(1.0, abs=1e-15)  # t'=-1 flips the tau' term


@pytest.mark.parametrize("make", [linear_layout, tau_net_layout, both_net_layout])
def test_surfaces_compose_to_prediction(make, rng):
    # y_hat must equal c(x) + tau(x) t + sigma z in data units, for any scaler
    layout = make(d=2)
    theta = rng.normal(size=layout.theta_dim)
    x = rng.normal(size=(9, 2))
    t = (rng.random(9) < 0.5).astype(int)
    z = rng.normal(size=9)
    for scaler in (IDENTITY_SCALER, Standardizer(x_mean=np.array([0.3, -1.0]), x_std=np.array([2.0, 0.5]), y_mean=1.7, y_std=2.5)):
        pred = model_predict_batch(theta, layout, x, t, z, scaler)
        composed = (
            c_surface(theta, layout, x, scaler)
            + tau_surface(theta, layout, x, scaler) * t
            + sigma_of(theta, layout, scaler) * z
        )
        np.testing.assert_allclose(pred, composed, rtol=1e-10, atol=1e-12)


def test_model_predict_batch_matches_singles(rng):
    layout = both_net_layout(d=3)
    theta = rng.normal(size=layout.theta_dim)
    x = rng.normal(size=(5, 3))
    t = np.array([0, 1, 1, 0, 1])
    z = rng.normal(size=5)
    batch = model_predict_batch(theta, layout, x, t, z)
    singles = [
        model_predict_batch(theta, layout, x[i : i + 1], t[i : i + 1], z[i : i + 1])[0]
        for i in range(5)
    ]
    np.testing.assert_allclose(batch, singles, rtol=1e-12)


# ---------------------------------------------------------------- energy


def test_energy_single_observation_no_consensus(rng):
    layout = linear_layout()
    data = random_dataset(rng, n=1)
    w = random_inverse(rng, 2, layout)
    z = rng.normal(size=1)
    rep = energy(w, data, z, eta=7.0, layout=layout, scaler=IDENTITY_SCALER)
    # one row sits at its own mean, so the total is the fit term alone
    pred = model_predict_batch(rep.theta_bar, layout, data.x, data.t, z)[0]
    assert rep.total == (data.y[0] - pred) ** 2


def test_energy_two_observation_recomputation(rng):
    layout = linear_layout()
    data = random_dataset(rng, n=2)
    w = random_inverse(rng, 2, layout)
    z = rng.normal(size=2)
    eta = 3.0
    rep = energy(w, data, z, eta, layout, IDENTITY_SCALER)
    th = theta_hat_rows(w, data, z)
    tb = th.mean(axis=0)
    fit = float(np.sum((data.y - model_predict_batch(tb, layout, data.x, data.t, z)) ** 2))
    cons = ((th - tb) ** 2).sum()
    assert rep.total == pytest.approx(fit + eta * cons, rel=1e-12)
    np.testing.assert_allclose(rep.theta_bar, tb, rtol=1e-12)


def test_energy_permutation_invariant(rng):
    layout = tau_net_layout()
    data = random_dataset(rng, n=10)
    w = random_inverse(rng, 2, layout)
    z = rng.normal(size=10)
    perm = rng.permutation(10)
    rep = energy(w, data, z, eta=2.0, layout=layout, scaler=IDENTITY_SCALER)
    rep_p = energy(w, data.subset(perm), z[perm], eta=2.0, layout=layout, scaler=IDENTITY_SCALER)
    assert rep.total == pytest.approx(rep_p.total, rel=1e-12)
    np.testing.assert_allclose(rep.theta_bar, rep_p.theta_bar, rtol=1e-12)


def zero_energy_setup(rng, n=6, d=2):
    """Inverse net constant in its input; data generated exactly by theta*."""
    layout = linear_layout(d)
    # dyadic values so the float mean of identical theta rows is bitwise exact
    theta_star = np.array([0.25, -0.5, 0.5, -0.75, 0.125])
    spec = MlpSpec((d + 3, 4, layout.theta_dim), seed=0)
    flat = np.zeros(param_count(spec))
    flat[-layout.theta_dim:] = theta_star  # output biases carry theta*
    w = MlpParams(spec, flat)
    x = rng.normal(size=(n, d))
    t = (rng.random(n) < 0.5).astype(int)
    z = rng.normal(size=n)
    y = model_predict_batch(theta_star, layout, x, t, z)
    return layout, w, Dataset(x=x, t=t, y=y), z


def test_zero_energy_region(rng):
    layout, w, data, z = zero_energy_setup(rng)
    rep = energy(w, data, z, eta=500.0, layout=layout, scaler=IDENTITY_SCALER)
    assert rep.total == pytest.approx(0.0, abs=1e-20)
    # the sampler's z log-density gradient collapses to the reference pull -z
    rep_g = energy_gradients(w, data, z, 500.0, layout, IDENTITY_SCALER, need_z=True, need_w=False)
    np.testing.assert_array_equal(-z - rep_g.z_grad / 0.1, -z)


# ---------------------------------------------------------------- gradients


# run_efi consumes energy_gradients' z_grad and w_grad (dU/dZ and dU/dw)
# as they are; the prior gradient it adds is checked in test_prior


def fd_check_z_grad(layout, data, w, z, eta, scaler=IDENTITY_SCALER):
    rep = energy_gradients(w, data, z, eta, layout, scaler, need_z=True, need_w=False)
    assert rep.w_grad is None

    def u(zv):
        return energy(w, data, zv, eta, layout, scaler).total

    assert_grad_close(rep.z_grad, central_diff(u, z))


def fd_check_w_grad(layout, data, w, z, eta, scale=1.0, scaler=IDENTITY_SCALER):
    rep = energy_gradients(w, data, z, eta, layout, scaler, need_z=False, need_w=True)
    assert rep.z_grad is None

    def u(flat):
        return scale * energy(MlpParams(w.spec, flat), data, z, eta, layout, scaler).total

    assert_grad_close(scale * rep.w_grad, central_diff(u, w.flat))


@pytest.mark.parametrize("make", [linear_layout, tau_net_layout, both_net_layout])
def test_z_gradient_matches_fd(make, rng):
    layout = make(d=2)
    data = random_dataset(rng, n=7)
    w = random_inverse(rng, 2, layout, seed=4)
    z = rng.normal(size=7)
    fd_check_z_grad(layout, data, w, z, eta=5.0)


@pytest.mark.parametrize("make", [linear_layout, tau_net_layout, both_net_layout])
def test_w_gradient_matches_fd(make, rng):
    layout = make(d=2)
    data = random_dataset(rng, n=5)
    w = random_inverse(rng, 2, layout, hidden=(4,), seed=6)
    z = rng.normal(size=5)
    fd_check_w_grad(layout, data, w, z, eta=2.0)


def test_gradients_with_standardizer(rng):
    layout = tau_net_layout(d=2)
    data = random_dataset(rng, n=6)
    data.y[:] = 3.0 + 2.0 * data.y  # give the scaler something to do
    scaler = Standardizer.fit(data)
    w = random_inverse(rng, 2, layout, seed=8)
    z = rng.normal(size=6)
    fd_check_z_grad(layout, data, w, z, eta=4.0, scaler=scaler)
    fd_check_w_grad(layout, data, w, z, eta=4.0, scaler=scaler)


def test_single_observation_coupling(rng):
    # with n = 1 the consensus term is identically zero and theta_bar follows
    # the single row; FD is the arbiter of the coupled chain rule
    layout = linear_layout()
    data = random_dataset(rng, n=1)
    w = random_inverse(rng, 2, layout, seed=10)
    z = rng.normal(size=1)
    fd_check_z_grad(layout, data, w, z, eta=9.0)


def test_minibatch_scale(rng):
    # the scaled gradient on a batch equals the gradient of the scaled batch energy
    layout = linear_layout()
    data = random_dataset(rng, n=9)
    w = random_inverse(rng, 2, layout, seed=12)
    z = rng.normal(size=9)
    idx = np.array([1, 4, 6])
    fd_check_w_grad(layout, data.subset(idx), w, z[idx], eta=2.0, scale=3.0)


def explicit_energy_gradients(w, data, z, eta, layout, scaler):
    """Oracle: U and its gradients from the n x theta_dim matrix of theta_hat rows.

    The consensus enters every row's out-gradient as 2 eta (theta_hat_i -
    theta_bar) and the residual term as the shared A / n; a full-head
    backward pass carries both into the weights and the inputs.
    """
    acts = mlp_forward_batch(w, feature_matrix(data, z, scaler))
    theta = acts[-1]
    tb = theta.mean(axis=0)
    dev = theta - tb
    resid = (data.y - model_predict_batch(tb, layout, data.x, data.t, z, scaler)) / scaler.y_std
    total = float((resid**2).sum() + eta * (dev**2).sum())
    mt = unpack_theta(tb, layout)
    xs = scaler.scale_x(data.x)
    surface_acts = tuple(
        None if net is None else mlp_forward_batch(net, xs) for net in (mt.c_net, mt.tau_net)
    )
    t01 = data.t.astype(np.float64)
    a_total = -2.0 * _dbar_aggregate(mt, layout, xs, t01, z, resid, surface_acts)
    w_grad, input_grads = mlp_backward_batch(w, acts, 2.0 * eta * dev + a_total / data.n)
    z_grad = -2.0 * resid * mt.sigma + input_grads[:, -1]
    return total, tb, z_grad, w_grad


def assert_rel_close(got, want, tol=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


@pytest.mark.parametrize("standardize", [False, True])
@pytest.mark.parametrize("make", [linear_layout, tau_net_layout, both_net_layout])
def test_hidden_space_matches_explicit_consensus(make, standardize, rng):
    # last hidden width 6 lies above linear_ate's theta_dim 5 and below the others'
    layout = make(d=2)
    data = random_dataset(rng, n=40)
    data.y[:] = 3.0 + 2.0 * data.y
    scaler = Standardizer.fit(data) if standardize else IDENTITY_SCALER
    spec = MlpSpec((5, 8, 6, layout.theta_dim), seed=14, out_scale=0.04)
    w = MlpParams(spec, mlp_init(spec).flat + 0.3 * rng.normal(size=param_count(spec)))
    z = rng.normal(size=40)
    idx = np.array([0, 3, 7, 11, 19, 25, 31, 38])
    for d, zv in ((data, z), (data.subset(idx), z[idx])):
        total, tb, z_grad, w_grad = explicit_energy_gradients(w, d, zv, 5.0, layout, scaler)
        er = energy(w, d, zv, 5.0, layout, scaler)
        rep = energy_gradients(w, d, zv, 5.0, layout, scaler)
        for got in (er.total, rep.total):
            assert got == pytest.approx(total, rel=1e-12)
        assert_rel_close(er.theta_bar, tb)
        assert_rel_close(rep.theta_bar, tb)
        assert_rel_close(rep.z_grad, z_grad)
        assert_rel_close(rep.w_grad, w_grad)


@pytest.mark.parametrize("make", [linear_layout, tau_net_layout, both_net_layout])
def test_z_pass_skips_weight_gradient_with_the_same_z_grad(make, rng):
    # the z pass drops the trunk's weight gradients; its z_grad and energy
    # must equal those of a pass that computes everything, bit for bit
    layout = make(d=2)
    data = random_dataset(rng, n=30)
    scaler = Standardizer.fit(data)
    spec = MlpSpec((5, 8, 6, layout.theta_dim), seed=15, out_scale=0.04)
    w = MlpParams(spec, mlp_init(spec).flat + 0.3 * rng.normal(size=param_count(spec)))
    z = rng.normal(size=30)
    z_only = energy_gradients(w, data, z, 5.0, layout, scaler, need_z=True, need_w=False)
    both = energy_gradients(w, data, z, 5.0, layout, scaler)
    assert z_only.w_grad is None
    np.testing.assert_array_equal(z_only.z_grad, both.z_grad)
    assert z_only.total == both.total


# ---------------------------------------------------------------- validation


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(x=np.zeros((3, 2)), t=np.array([0, 1, 2]), y=np.zeros(3))
    with pytest.raises(ValueError):
        Dataset(x=np.zeros((3, 2)), t=np.zeros(2, dtype=int), y=np.zeros(3))
    with pytest.raises(ValueError):
        Dataset(x=np.zeros((3, 2)), t=np.zeros(3, dtype=int), y=np.array([1.0, np.inf, 0.0]))
    with pytest.raises(ValueError):
        Dataset(x=np.zeros((3, 2)), t=np.zeros(3, dtype=int), y=np.zeros(3), y1=np.zeros(2))


def test_width_mismatch_rejected(rng):
    layout = linear_layout(d=2)
    data = random_dataset(rng, n=4, d=2)
    w_bad = mlp_init(MlpSpec((4, 3, layout.theta_dim), seed=0))  # d+3 should be 5
    with pytest.raises(ValueError):
        energy(w_bad, data, rng.normal(size=4), 1.0, layout, IDENTITY_SCALER)
    w_bad_out = mlp_init(MlpSpec((5, 3, layout.theta_dim + 1), seed=0))
    with pytest.raises(ValueError):
        energy(w_bad_out, data, rng.normal(size=4), 1.0, layout, IDENTITY_SCALER)


def test_standardizer_zero_variance_guard():
    data = Dataset(x=np.ones((4, 2)), t=np.array([0, 1, 0, 1]), y=np.ones(4))
    s = Standardizer.fit(data)
    np.testing.assert_array_equal(s.x_std, 1.0)
    assert s.y_std == 1.0
