import math

import numpy as np
import pytest

from fidte.nn import MlpParams, MlpSpec, mlp_backward_batch, mlp_forward_batch, mlp_init, param_count

from conftest import assert_grad_close, central_diff


def test_param_count_matches_formula():
    # sum over layers of d_l * (d_{l-1} + 1)
    assert param_count(MlpSpec((4, 90, 30, 6))) == 3366
    assert param_count(MlpSpec((1, 1, 1))) == 4
    assert param_count(MlpSpec((2, 10, 10, 1))) == 151
    assert param_count(MlpSpec((5, 10, 10, 1))) == 181


def test_forward_tiny_tanh_by_hand():
    # 1-1-1 net, hidden weight 1 bias 0, output weight 2 bias 0
    spec = MlpSpec((1, 1, 1))
    params = MlpParams(spec, np.array([1.0, 0.0, 2.0, 0.0]))
    out = mlp_forward_batch(params, np.array([[0.5]]))[-1]
    assert out.shape == (1, 1)
    assert out[0, 0] == pytest.approx(2.0 * math.tanh(0.5), abs=1e-15)


def test_output_layer_is_linear():
    # output must not be squashed: scale the output weights, output scales too
    spec = MlpSpec((2, 3, 1), seed=3)
    p1 = mlp_init(spec)
    p2 = MlpParams(spec, p1.flat.copy())
    w_slice = slice(2 * 3 + 3, 2 * 3 + 3 + 3)  # output layer weights
    p2.flat[w_slice] *= 10.0
    x = np.array([[0.3, -0.7]])
    np.testing.assert_allclose(
        mlp_forward_batch(p2, x)[-1], 10.0 * mlp_forward_batch(p1, x)[-1], rtol=1e-12
    )


def test_init_glorot_bounds_and_zero_biases():
    spec = MlpSpec((4, 90, 30, 6), seed=11)
    params = mlp_init(spec)
    widths = spec.layer_widths
    for (W, b), l in zip(params.layers(), range(1, len(widths))):
        bound = math.sqrt(6.0 / (widths[l - 1] + widths[l]))
        assert np.abs(W).max() <= bound
        assert np.abs(W).max() > 0.5 * bound  # actually spread out, not degenerate
        np.testing.assert_array_equal(b, 0.0)


def test_init_deterministic_in_seed():
    spec = MlpSpec((3, 5, 2), seed=7)
    np.testing.assert_array_equal(mlp_init(spec).flat, mlp_init(spec).flat)
    other = MlpSpec((3, 5, 2), seed=8)
    assert not np.array_equal(mlp_init(spec).flat, mlp_init(other).flat)


def test_forward_deterministic():
    spec = MlpSpec((3, 8, 2), seed=0)
    params = mlp_init(spec)
    x = np.array([[0.1, -2.0, 0.7]])
    for a, b in zip(mlp_forward_batch(params, x), mlp_forward_batch(params, x), strict=True):
        np.testing.assert_array_equal(a, b)


def test_batch_matches_stacked_singles(rng):
    spec = MlpSpec((4, 7, 5, 3), seed=21)
    params = mlp_init(spec)
    x = rng.normal(size=(6, 4))
    batch = mlp_forward_batch(params, x)[-1]
    singles = np.concatenate([mlp_forward_batch(params, row[None, :])[-1] for row in x])
    np.testing.assert_allclose(batch, singles, rtol=1e-13, atol=1e-15)


def test_backward_param_grad_matches_fd(rng):
    spec = MlpSpec((3, 6, 4, 2), seed=5)
    params = mlp_init(spec)
    x = rng.normal(size=(1, 3))
    out_grad = rng.normal(size=(1, 2))

    def loss(flat):
        return float(np.sum(mlp_forward_batch(MlpParams(spec, flat), x)[-1] * out_grad))

    analytic, _ = mlp_backward_batch(params, mlp_forward_batch(params, x), out_grad)
    assert_grad_close(analytic, central_diff(loss, params.flat))


def test_backward_input_grad_matches_fd(rng):
    spec = MlpSpec((5, 6, 3), seed=9)
    params = mlp_init(spec)
    x = rng.normal(size=5)
    out_grad = rng.normal(size=(1, 3))

    def loss(xv):
        return float(np.sum(mlp_forward_batch(params, xv[None, :])[-1] * out_grad))

    _, analytic = mlp_backward_batch(params, mlp_forward_batch(params, x[None, :]), out_grad)
    assert analytic.shape == (1, 5)
    assert_grad_close(analytic[0], central_diff(loss, x))


def test_backward_batch_sums_per_row_grads(rng):
    spec = MlpSpec((3, 5, 2), seed=4)
    params = mlp_init(spec)
    x = rng.normal(size=(7, 3))
    gout = rng.normal(size=(7, 2))
    pg_batch, ig_batch = mlp_backward_batch(params, mlp_forward_batch(params, x), gout)
    pg_sum = np.zeros_like(params.flat)
    for i in range(7):
        acts_i = mlp_forward_batch(params, x[i : i + 1])
        pg_i, ig_i = mlp_backward_batch(params, acts_i, gout[i : i + 1])
        pg_sum += pg_i
        np.testing.assert_allclose(ig_batch[i], ig_i[0], rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(pg_batch, pg_sum, rtol=1e-12, atol=1e-13)


def headed_net(rng):
    spec = MlpSpec((3, 5, 4, 6), seed=7, out_scale=0.3)
    params = mlp_init(spec)
    params.flat[:] += 0.1 * rng.normal(size=params.flat.size)
    return params


def test_headless_forward_feeds_the_output_layer(rng):
    params = headed_net(rng)
    x = rng.normal(size=(9, 3))
    headless = mlp_forward_batch(params, x, head=False)
    full = mlp_forward_batch(params, x)
    assert [a.shape for a in headless] == [(9, 3), (9, 5), (9, 4)]
    for a, b in zip(headless, full[:-1], strict=True):
        np.testing.assert_array_equal(a, b)
    W, b = params.layers()[-1]
    np.testing.assert_array_equal(full[-1], (headless[-1] @ W.T) * 0.3 + b)


def test_headless_backward_matches_full_backward_below_the_head(rng):
    # out_grads O at the output are s * O @ W at the last hidden layer
    params = headed_net(rng)
    x = rng.normal(size=(9, 3))
    gout = rng.normal(size=(9, 6))
    W, _ = params.layers()[-1]
    pg_full, ig_full = mlp_backward_batch(params, mlp_forward_batch(params, x), gout)
    headless = mlp_forward_batch(params, x, head=False)
    pg, ig = mlp_backward_batch(params, headless, (gout @ W) * 0.3, head=False)
    head = param_count(params.spec) - 6 * (4 + 1)
    np.testing.assert_array_equal(pg[:head], pg_full[:head])
    np.testing.assert_array_equal(pg[head:], 0.0)
    np.testing.assert_array_equal(ig, ig_full)


@pytest.mark.parametrize("head", [True, False])
def test_backward_skips_what_is_not_needed_with_the_same_result(head, rng):
    params = headed_net(rng)
    acts = mlp_forward_batch(params, rng.normal(size=(9, 3)), head=head)
    gout = rng.normal(size=(9, 6 if head else 4))
    pg_full, ig_full = mlp_backward_batch(params, acts, gout, head=head)
    pg, ig = mlp_backward_batch(params, acts, gout, head=head, need_params=False)
    assert pg is None
    np.testing.assert_array_equal(ig, ig_full)
    pg, ig = mlp_backward_batch(params, acts, gout, head=head, need_input=False)
    assert ig is None
    np.testing.assert_array_equal(pg, pg_full)


def test_layer_views_follow_in_place_updates(rng):
    params = headed_net(rng)
    layers = params.layers()
    params.flat -= 0.5
    assert params.layers() is layers
    np.testing.assert_array_equal(layers[-1][1], params.flat[-6:])
    params.flat = params.flat + 1.0  # a new vector gets its own views
    np.testing.assert_array_equal(params.layers()[-1][1], params.flat[-6:])


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        MlpSpec((3, 0, 1))
    with pytest.raises(ValueError):
        MlpSpec((3, 1))  # no hidden layer


def test_dimension_errors():
    spec = MlpSpec((3, 4, 2))
    params = mlp_init(spec)
    with pytest.raises(ValueError):
        mlp_forward_batch(params, np.zeros((1, 4)))
    with pytest.raises(ValueError):
        mlp_forward_batch(params, np.zeros(3))  # a row must come as a one-row batch
    acts = mlp_forward_batch(params, np.zeros((1, 3)))
    with pytest.raises(ValueError):
        mlp_backward_batch(params, acts, np.zeros((1, 3)))
    # headless out_grads are last-hidden-layer gradients, 4 wide here
    with pytest.raises(ValueError, match=r"out_grads shape \(1, 2\) != \(1, 4\)"):
        mlp_backward_batch(params, acts[:-1], np.zeros((1, 2)), head=False)
    with pytest.raises(ValueError, match=r"out_grads shape \(1, 4\) != \(1, 2\)"):
        mlp_backward_batch(params, acts, np.zeros((1, 4)))
    # the backward needs the input and every hidden activation
    with pytest.raises(ValueError, match="hidden activations"):
        mlp_backward_batch(params, acts[:1], np.zeros((1, 4)), head=False)
    with pytest.raises(ValueError):
        MlpParams(spec, np.zeros(10))
    with pytest.raises(ValueError):
        MlpParams(spec, np.full(param_count(spec), np.nan))
