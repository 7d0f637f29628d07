import numpy as np
import pytest

from fidte.engine import (
    OUT_SCALE,
    RESCALE,
    Dataset,
    SolveRows,
    Standardizer,
    ThetaLayout,
    _surface,
    _surface_grad,
    draw_surfaces,
    energy,
    energy_gradients,
    feature_matrix,
)
from fidte.nn import (
    MlpParams,
    MlpSpec,
    _layer_slices,
    mlp_backward_batch,
    mlp_forward_batch,
    mlp_init,
    param_count,
)

from conftest import IDENTITY_SCALER, assert_grad_close, central_diff


def linear_layout(d=2):
    return ThetaLayout(d + 1)


def tau_net_layout(d=2, hidden=(3,)):
    return ThetaLayout(d + 1, MlpSpec((d, *hidden, 1), seed=1))


def both_net_layout(d=2, hidden=(3,)):
    return ThetaLayout(MlpSpec((d, *hidden, 1), seed=2), MlpSpec((d, *hidden, 1), seed=3))


def solve_rows(data, layout, scaler=IDENTITY_SCALER):
    return SolveRows.build(data, scaler, layout)


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


def net_surface(spec, block, xs):
    """A network surface stored at RESCALE times its weights, on the rows xs."""
    return mlp_forward_batch(MlpParams(spec, block / RESCALE), xs)[-1][:, 0]


def model_predict_batch(theta, layout, x, t, z, scaler=IDENTITY_SCALER):
    """Reference model mean outcomes c(x) + tau(x) t + sigma z, in data units.

    Read from the slot table of the ThetaLayout docstring by hand:
    [tau', mu', beta, log sigma] with t' = 2t - 1 for a constant effect,
    else [c block, tau block, log sigma], a linear c being [mu, beta].
    """
    xs = scaler.scale_x(np.atleast_2d(x))
    t = np.asarray(t, dtype=np.float64)
    d = xs.shape[1]
    if layout.tau_spec is None:
        f = theta[1] + xs @ theta[2 : 2 + d] + theta[0] * (2.0 * t - 1.0)
    else:
        if isinstance(layout.c_spec, int):
            k = 1 + d
            c = theta[0] + xs @ theta[1:k]
        else:
            k = param_count(layout.c_spec)
            c = net_surface(layout.c_spec, theta[:k], xs)
        tau = net_surface(layout.tau_spec, theta[k : k + param_count(layout.tau_spec)], xs)
        f = c + tau * t
    f = f + np.exp(theta[-1]) * z
    return scaler.y_mean + scaler.y_std * f


# ---------------------------------------------------------------- features


def theta_hat_rows(w, rows, z):
    """theta_hat_i one observation at a time: the inverse net's trunk on a
    one-row batch, then its head OUT_SCALE * a @ W.T + b."""
    W, b = w.layers()[-1]
    out = []
    for i in range(rows.n):
        a = mlp_forward_batch(w, feature_matrix(rows.take([i]), z[i : i + 1]), head=False)[-1]
        out.append(OUT_SCALE * a @ W.T + b)
    return np.concatenate(out)


def test_inverse_feature_order():
    data = Dataset(x=np.array([[3.0, 4.0], [3.0, 4.0]]), t=np.array([1, 0]), y=np.array([2.0, 2.0]))
    rows = feature_matrix(solve_rows(data, linear_layout()), np.array([-1.5, -1.5]))
    np.testing.assert_array_equal(rows, [[2.0, 1.0, 3.0, 4.0, -1.5], [2.0, -1.0, 3.0, 4.0, -1.5]])


def test_theta_hat_is_forward_on_feature_row(rng):
    # with one observation theta_bar is that observation's theta_hat: the
    # inverse net's trunk on the row [y, 2t - 1, x, z], then its head
    layout = linear_layout()
    w = random_inverse(rng, 2, layout)
    data = Dataset(x=np.array([[0.2, -0.4]]), t=np.array([1]), y=np.array([0.7]))
    z = np.array([0.9])
    a = mlp_forward_batch(w, np.array([[0.7, 1.0, 0.2, -0.4, 0.9]]), head=False)[-1][0]
    W, b = w.layers()[-1]
    want = OUT_SCALE * (W @ a) + b
    np.testing.assert_array_equal(energy(w, solve_rows(data, layout), z, 1.0, layout).theta_bar, want)


def test_feature_matrix_standardizes_y_and_x_only(rng):
    data = random_dataset(rng, n=20)
    scaler = Standardizer.fit(data)
    z = rng.normal(size=20)
    f = feature_matrix(solve_rows(data, linear_layout(), scaler), z)
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
    rows = solve_rows(data, layout)
    th = theta_hat_rows(w, rows, z)
    np.testing.assert_allclose(energy(w, rows, z, 1.0, layout).theta_bar, th.mean(axis=0), rtol=1e-12)
    rep = energy_gradients(w, rows, z, 1.0, layout)
    np.testing.assert_allclose(rep.theta_bar, th.mean(axis=0), rtol=1e-12)


# ---------------------------------------------------------------- layouts


def test_layout_dims():
    lay = tau_net_layout(d=2, hidden=(10, 10))
    assert (lay.c_slice, lay.tau_slice) == (slice(0, 3), slice(3, 3 + 151))
    assert param_count(MlpSpec((2, 10, 10, 1))) == 151
    assert lay.theta_dim == 3 + 151 + 1
    lay2 = both_net_layout(d=5, hidden=(10, 10))
    assert lay2.theta_dim == 181 + 181 + 1
    lay3 = linear_layout(d=4)
    assert (lay3.tau_slice, lay3.c_slice, lay3.theta_dim) == (slice(0, 1), slice(1, 6), 7)


# owner of each slot per the ThetaLayout table, d = 2 and hidden (3,): a
# 2-3-1 network block holds 13 weights
SLOT_TABLE = {
    linear_layout: ["tau"] + ["c"] * 3 + ["sigma"],
    tau_net_layout: ["c"] * 3 + ["tau"] * 13 + ["sigma"],
    both_net_layout: ["c"] * 13 + ["tau"] * 13 + ["sigma"],
}


@pytest.mark.parametrize("make", [linear_layout, tau_net_layout, both_net_layout])
def test_pack_unpack_roundtrip(make, rng):
    # draw_surfaces reads every slot where the table puts it: moving one slot
    # moves only the surface that owns it (a constant effect tau' also shifts
    # c(x) = mu' - tau' + x beta, the outcome at t' = -1)
    layout = make()
    assert layout.theta_dim == len(SLOT_TABLE[make])
    theta = rng.normal(size=layout.theta_dim)
    x = rng.normal(size=(6, 2))
    base, *moved = zip(*draw_surfaces(
        np.vstack([theta, theta + 0.1 * np.eye(layout.theta_dim)]), layout, x, IDENTITY_SCALER
    ))
    for j, owner in enumerate(SLOT_TABLE[make]):
        changed = {
            name for name, a, b in zip(("c", "tau", "sigma"), base, moved[j])
            if not np.array_equal(a, b)
        }
        want = {"c", "tau"} if (make is linear_layout and owner == "tau") else {owner}
        assert changed == want, (j, owner)


def test_unpack_rescales_network_blocks():
    layout = tau_net_layout(d=2, hidden=(3,))
    theta = (np.arange(layout.theta_dim, dtype=float) + 1.0) / 10.0
    x = np.array([[0.5, -1.0], [2.0, 0.25]])
    (c,), (tau,), (sigma,) = draw_surfaces(theta[None, :], layout, x, IDENTITY_SCALER)
    np.testing.assert_array_equal(c, theta[0] + x @ theta[1:3])  # linear block untouched
    net = MlpParams(layout.tau_spec, theta[3:16] / RESCALE)
    np.testing.assert_array_equal(tau, mlp_forward_batch(net, x)[-1][:, 0])
    assert sigma == pytest.approx(np.exp(theta[16]))


def test_layout_validation():
    with pytest.raises(ValueError, match="network c surface needs a tau network"):
        ThetaLayout(MlpSpec((2, 3, 1)))
    with pytest.raises(ValueError, match="tau network must have a single output"):
        ThetaLayout(MlpSpec((2, 3, 1)), MlpSpec((2, 3, 2)))


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
        (c,), (tau,), (sigma,) = draw_surfaces(theta[None, :], layout, x, scaler)
        composed = c + tau * t + sigma * z
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
    rep = energy(w, solve_rows(data, layout), z, eta=7.0, layout=layout)
    # one row sits at its own mean, so the total is the fit term alone
    pred = model_predict_batch(rep.theta_bar, layout, data.x, data.t, z)[0]
    assert rep.total == (data.y[0] - pred) ** 2


def test_energy_two_observation_recomputation(rng):
    layout = linear_layout()
    data = random_dataset(rng, n=2)
    w = random_inverse(rng, 2, layout)
    z = rng.normal(size=2)
    eta = 3.0
    rows = solve_rows(data, layout)
    rep = energy(w, rows, z, eta, layout)
    th = theta_hat_rows(w, rows, z)
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
    rep = energy(w, solve_rows(data, layout), z, eta=2.0, layout=layout)
    rep_p = energy(w, solve_rows(data.subset(perm), layout), z[perm], eta=2.0, layout=layout)
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
    rows = solve_rows(data, layout)
    rep = energy(w, rows, z, eta=500.0, layout=layout)
    assert rep.total == pytest.approx(0.0, abs=1e-20)
    # the sampler's z log-density gradient collapses to the reference pull -z
    rep_g = energy_gradients(w, rows, z, 500.0, layout, need_z=True, need_w=False)
    np.testing.assert_array_equal(-z - rep_g.z_grad / 0.1, -z)


# ---------------------------------------------------------------- gradients


# run_efi consumes energy_gradients' z_grad and w_grad (dU/dZ and dU/dw)
# as they are; the prior gradient it adds is checked in test_prior


def fd_check_z_grad(layout, data, w, z, eta, scaler=IDENTITY_SCALER):
    rows = solve_rows(data, layout, scaler)
    rep = energy_gradients(w, rows, z, eta, layout, need_z=True, need_w=False)
    assert rep.w_grad is None

    def u(zv):
        return energy(w, rows, zv, eta, layout).total

    assert_grad_close(rep.z_grad, central_diff(u, z))


def fd_check_w_grad(layout, data, w, z, eta, scale=1.0, scaler=IDENTITY_SCALER):
    rows = solve_rows(data, layout, scaler)
    rep = energy_gradients(w, rows, z, eta, layout, need_z=False, need_w=True)
    assert rep.z_grad is None

    def u(flat):
        return scale * energy(MlpParams(w.spec, flat), rows, z, eta, layout).total

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

    theta_hat_i = OUT_SCALE * W a_i + b is the output of the net whose head
    weights are OUT_SCALE * W, and dU/dW is OUT_SCALE times that net's head
    weight gradient.  The consensus enters every row's out-gradient as
    2 eta (theta_hat_i - theta_bar) and the residual term as the shared
    A / n; a full-head backward pass carries both into the weights and the
    inputs.  The feature rows [y, 2t - 1, x, z] are built here from the data.
    """
    ws, _, _ = _layer_slices(w.spec)[-1]
    scaled = MlpParams(w.spec, w.flat.copy())
    scaled.flat[ws] *= OUT_SCALE
    feats = np.column_stack([scaler.scale_y(data.y), 2.0 * data.t - 1.0, scaler.scale_x(data.x), z])
    acts = mlp_forward_batch(scaled, feats)
    theta = acts[-1]
    tb = theta.mean(axis=0)
    dev = theta - tb
    resid = (data.y - model_predict_batch(tb, layout, data.x, data.t, z, scaler)) / scaler.y_std
    total = float((resid**2).sum() + eta * (dev**2).sum())
    # A = dU/dtheta_bar of the residual term, block by block
    xs = scaler.scale_x(data.x)
    sigma = np.exp(tb[-1])
    a_total = np.empty(layout.theta_dim)
    for spec, sl, u in ((layout.c_spec, layout.c_slice, None),
                        (layout.tau_spec, layout.tau_slice, layout.code(data.t))):
        # a network of the oracle's own, not the layout's
        net = MlpParams(spec, np.zeros(param_count(spec))) if isinstance(spec, MlpSpec) else None
        _, net_pass = _surface(spec, tb[sl], xs, net)
        a_total[sl] = -2.0 * _surface_grad(spec, net_pass, xs, resid, u)
    a_total[-1] = -2.0 * sigma * (resid @ z)
    w_grad, input_grads = mlp_backward_batch(scaled, acts, 2.0 * eta * dev + a_total / data.n)
    w_grad[ws] *= OUT_SCALE
    z_grad = -2.0 * resid * sigma + input_grads[:, -1]
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
    spec = MlpSpec((5, 8, 6, layout.theta_dim), seed=14)
    w = MlpParams(spec, mlp_init(spec).flat + 0.3 * rng.normal(size=param_count(spec)))
    z = rng.normal(size=40)
    idx = np.array([0, 3, 7, 11, 19, 25, 31, 38])
    rows = solve_rows(data, layout, scaler)
    for d, r, zv in ((data, rows, z), (data.subset(idx), rows.take(idx), z[idx])):
        total, tb, z_grad, w_grad = explicit_energy_gradients(w, d, zv, 5.0, layout, scaler)
        er = energy(w, r, zv, 5.0, layout)
        rep = energy_gradients(w, r, zv, 5.0, layout)
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
    spec = MlpSpec((5, 8, 6, layout.theta_dim), seed=15)
    w = MlpParams(spec, mlp_init(spec).flat + 0.3 * rng.normal(size=param_count(spec)))
    z = rng.normal(size=30)
    rows = solve_rows(data, layout, scaler)
    z_only = energy_gradients(w, rows, z, 5.0, layout, need_z=True, need_w=False)
    both = energy_gradients(w, rows, z, 5.0, layout)
    assert z_only.w_grad is None
    np.testing.assert_array_equal(z_only.z_grad, both.z_grad)
    assert z_only.total == both.total


@pytest.mark.parametrize("make", [linear_layout, tau_net_layout, both_net_layout])
def test_minibatch_rows_match_rows_of_the_subset(make, rng):
    # the sampler selects a minibatch from the run's rows; that must equal
    # standardizing the subset of the data with the run's scaler, bit for bit
    layout = make(d=2)
    data = random_dataset(rng, n=30)
    data.y[:] = 3.0 + 2.0 * data.y
    scaler = Standardizer.fit(data)
    spec = MlpSpec((5, 8, 6, layout.theta_dim), seed=16)
    w = MlpParams(spec, mlp_init(spec).flat + 0.3 * rng.normal(size=param_count(spec)))
    z = rng.normal(size=30)
    idx = rng.choice(30, size=10, replace=False)
    taken = energy_gradients(w, solve_rows(data, layout, scaler).take(idx), z[idx], 5.0, layout)
    built = energy_gradients(w, solve_rows(data.subset(idx), layout, scaler), z[idx], 5.0, layout)
    assert taken.total == built.total
    np.testing.assert_array_equal(taken.z_grad, built.z_grad)
    np.testing.assert_array_equal(taken.w_grad, built.w_grad)


def test_layout_nets_leave_equality_hash_and_repr():
    # each network surface has one scratch net of its own; it does not enter
    # the layout's equality, hash or repr
    a, b = both_net_layout(), both_net_layout()
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert "net=" not in repr(a) and a.c_net is not b.c_net
    assert (a.c_net.spec, a.tau_net.spec) == (a.c_spec, a.tau_spec)
    assert a.c_net is not a.tau_net
    assert tau_net_layout().c_net is None and linear_layout().tau_net is None


@pytest.mark.parametrize("make", [linear_layout, tau_net_layout, both_net_layout])
def test_non_finite_network_block_gives_non_finite_energy(make, rng):
    # an inf output bias in the tau block's first slot (tau' on linear_ate, a
    # hidden weight, which tanh would saturate, on the network layouts)
    # makes theta_bar non-finite there: every layout returns a non-finite
    # total, which the sampler reports as a divergence
    layout = make(d=2)
    data = random_dataset(rng, n=7)
    w = random_inverse(rng, 2, layout, seed=4)
    _, bs, _ = _layer_slices(w.spec)[-1]
    w.flat[bs.start + layout.tau_slice.start] = np.inf
    z = rng.normal(size=7)
    for need_z, need_w in ((True, False), (False, True), (False, False)):
        rep = energy_gradients(w, solve_rows(data, layout), z, 5.0, layout, need_z, need_w)
        assert not np.isfinite(rep.total)


@pytest.mark.parametrize("make", [tau_net_layout, both_net_layout])
def test_passes_and_draw_surfaces_share_the_layouts_nets(make, rng):
    # draw_surfaces and the passes write the same pass arrays of the layout's
    # nets on the same row count; neither leaves the other a different result
    data = random_dataset(rng, n=12)
    scaler = Standardizer.fit(data)
    used, fresh = make(d=2), make(d=2)
    w = random_inverse(rng, 2, used, seed=4)
    z = rng.normal(size=12)
    draws = 10.0 * rng.normal(size=(3, used.theta_dim))
    rows = solve_rows(data, used, scaler)
    first = draw_surfaces(draws, used, data.x, scaler)
    got = energy_gradients(w, rows, z, 5.0, used)
    want = energy_gradients(w, rows, z, 5.0, fresh)
    assert got.total == want.total
    for name in ("theta_bar", "z_grad", "w_grad"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    for a, b in zip(draw_surfaces(draws, used, data.x, scaler), first):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("make", [linear_layout, tau_net_layout, both_net_layout])
def test_passes_on_two_row_counts_match_passes_on_fresh_networks(make, rng):
    # a sampler iteration's z pass on all rows, w pass on a minibatch and next
    # z pass share one set of pass arrays per network; each must give what
    # the same pass gives on networks that never ran, bit for bit
    layout = make(d=2)
    data = random_dataset(rng, n=30)
    scaler = Standardizer.fit(data)
    spec = MlpSpec((5, 8, 6, layout.theta_dim), seed=17)
    w = MlpParams(spec, mlp_init(spec).flat + 0.3 * rng.normal(size=param_count(spec)))
    rows = solve_rows(data, layout, scaler)
    z1, z2 = rng.normal(size=(2, 30))
    idx = rng.choice(30, size=10, replace=False)
    passes = (
        (rows, z1, True, False),
        (rows.take(idx), z1[idx], False, True),
        (rows, z2, True, False),
    )
    for pass_rows, z, need_z, need_w in passes:
        got = energy_gradients(w, pass_rows, z, 5.0, layout, need_z, need_w)
        fresh_w, fresh_layout = MlpParams(spec, w.flat.copy()), make(d=2)
        want = energy_gradients(fresh_w, pass_rows, z, 5.0, fresh_layout, need_z, need_w)
        assert got.total == want.total
        for name in ("theta_bar", "z_grad", "w_grad"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


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


def test_standardizer_zero_variance_guard():
    data = Dataset(x=np.ones((4, 2)), t=np.array([0, 1, 0, 1]), y=np.ones(4))
    s = Standardizer.fit(data)
    np.testing.assert_array_equal(s.x_std, 1.0)
    assert s.y_std == 1.0
