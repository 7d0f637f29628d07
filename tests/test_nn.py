import math

import numpy as np
import pytest

from fidte.nn import (
    MlpParams,
    MlpSpec,
    hidden_grad_array,
    mlp_backward_batch,
    mlp_forward_batch,
    mlp_init,
    param_count,
)

from conftest import assert_grad_close, central_diff, sum_param_grad


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
    # the second pass overwrites the first one's hidden arrays, so keep copies
    first = [a.copy() for a in mlp_forward_batch(params, x)]
    for a, b in zip(first, mlp_forward_batch(params, x), strict=True):
        np.testing.assert_array_equal(a, b)


def test_passes_on_as_many_rows_reuse_the_hidden_arrays(rng):
    params = headed_net(rng)
    x1, x2 = rng.normal(size=(2, 9, 3))
    first = mlp_forward_batch(params, x1)
    second = mlp_forward_batch(params, x2)
    assert all(a is b for a, b in zip(first[1:-1], second[1:-1], strict=True))
    assert second[-1] is not first[-1]  # the output is a new array
    # the reused arrays hold the values a network that never ran computes
    fresh = mlp_forward_batch(MlpParams(params.spec, params.flat.copy()), x2)
    for a, b in zip(second, fresh, strict=True):
        np.testing.assert_array_equal(a, b)
    # a pass on fewer rows writes the leading rows of the same storage
    fewer = mlp_forward_batch(params, x1[:4])
    for a, b in zip(fewer[1:-1], second[1:-1], strict=True):
        assert a.shape[0] == 4 and np.shares_memory(a, b)
    fresh = mlp_forward_batch(MlpParams(params.spec, params.flat.copy()), x1[:4])
    for a, b in zip(fewer, fresh, strict=True):
        np.testing.assert_array_equal(a, b)


def test_backward_stays_correct_after_a_pass_on_another_row_count(rng):
    params = headed_net(rng)
    x, gout = rng.normal(size=(9, 3)), rng.normal(size=(9, 6))
    x4, gout4 = rng.normal(size=(4, 3)), rng.normal(size=(4, 6))
    oracle = MlpParams(params.spec, params.flat.copy())
    want_pg, want_ig = mlp_backward_batch(oracle, mlp_forward_batch(oracle, x), gout)
    oracle4 = MlpParams(params.spec, params.flat.copy())
    want_pg4, want_ig4 = mlp_backward_batch(oracle4, mlp_forward_batch(oracle4, x4), gout4)
    # a forward on 9 rows sets the row capacity; a full pass on 4 rows then
    # writes the leading rows of the arrays the pass on 9 rows writes whole,
    # the gradient scratch included, and leaves it nothing to read
    mlp_forward_batch(params, x)
    pg4, ig4 = mlp_backward_batch(params, mlp_forward_batch(params, x4), gout4)
    np.testing.assert_array_equal(pg4, want_pg4)
    np.testing.assert_array_equal(ig4, want_ig4)
    pg, ig = mlp_backward_batch(params, mlp_forward_batch(params, x), gout)
    assert np.shares_memory(ig4, ig)
    np.testing.assert_array_equal(pg, want_pg)
    np.testing.assert_array_equal(ig, want_ig)


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
    ig_batch = ig_batch.copy()  # the one-row passes write the same scratch
    pg_sum = np.zeros_like(params.flat)
    for i in range(7):
        acts_i = mlp_forward_batch(params, x[i : i + 1])
        pg_i, ig_i = mlp_backward_batch(params, acts_i, gout[i : i + 1])
        pg_sum += pg_i
        np.testing.assert_allclose(ig_batch[i], ig_i[0], rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(pg_batch, pg_sum, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("width", [1, 2, 10, 30, 90])
@pytest.mark.parametrize("head", [True, False])
def test_param_grad_is_bitwise_the_summed_reference(head, width, rng):
    # width sets the hidden layers and the output, so the bias sums run at
    # one column (the data-model heads) and at every width the package uses
    params = mlp_init(MlpSpec((3, width, width, width), seed=2))
    params.flat[:] += 0.1 * rng.normal(size=params.flat.size)
    for n in (1, 2, 3, 7, 125, 250, 1000):
        acts = mlp_forward_batch(params, rng.normal(size=(n, 3)), head=head)
        gout = rng.normal(size=(n, width))
        # the reference reads the activations, which the backward spends
        want = sum_param_grad(params, acts, gout, head=head)
        pg, _ = mlp_backward_batch(params, acts, gout, head=head, need_input=False)
        np.testing.assert_array_equal(pg, want)


def test_einsum_column_sums_add_rows_in_the_order_sum_does(rng):
    # mlp_backward_batch relies on this for C-ordered arrays wider than one
    # column; a numpy whose einsum reorders the rows fails here first
    for width in (2, 10, 30, 90):
        for n in (*range(1, 260), 500, 1000, 4096):
            a = rng.normal(size=(n, width))
            assert np.array_equal(np.einsum("ij->j", a), a.sum(axis=0)), (n, width)
    # one column: sum adds pairwise and einsum in order, so the backward keeps
    # sum there; if this starts to pass, einsum could take that case too
    a = rng.normal(size=(1000, 1))
    assert not np.array_equal(np.einsum("ij->j", a), a.sum(axis=0))


def test_param_grad_is_a_new_array_on_every_pass(rng):
    params = mlp_init(MlpSpec((3, 10, 10, 2), seed=6))
    x, gout = rng.normal(size=(2, 9, 3)), rng.normal(size=(2, 9, 2))
    first, _ = mlp_backward_batch(params, mlp_forward_batch(params, x[0]), gout[0])
    kept = first.copy()
    second, _ = mlp_backward_batch(params, mlp_forward_batch(params, x[1]), gout[1])
    assert second is not first and not np.shares_memory(first, second)
    np.testing.assert_array_equal(first, kept)
    assert not np.array_equal(first, second)


def headed_net(rng):
    spec = MlpSpec((3, 5, 4, 6), seed=7)
    params = mlp_init(spec)
    params.flat[:] += 0.1 * rng.normal(size=params.flat.size)
    return params


def test_headless_forward_feeds_the_output_layer(rng):
    params = headed_net(rng)
    x = rng.normal(size=(9, 3))
    headless = [a.copy() for a in mlp_forward_batch(params, x, head=False)]
    full = mlp_forward_batch(params, x)
    assert [a.shape for a in headless] == [(9, 3), (9, 5), (9, 4)]
    for a, b in zip(headless, full[:-1], strict=True):
        np.testing.assert_array_equal(a, b)
    W, b = params.layers()[-1]
    np.testing.assert_array_equal(full[-1], headless[-1] @ W.T + b)


def test_headless_backward_matches_full_backward_below_the_head(rng):
    # out_grads O at the output are O @ W at the last hidden layer
    params = headed_net(rng)
    x = rng.normal(size=(9, 3))
    gout = rng.normal(size=(9, 6))
    W, _ = params.layers()[-1]
    pg_full, ig_full = mlp_backward_batch(params, mlp_forward_batch(params, x), gout)
    ig_full = ig_full.copy()  # the next backward on 9 rows writes the same array
    headless = mlp_forward_batch(params, x, head=False)
    pg, ig = mlp_backward_batch(params, headless, gout @ W, head=False)
    head = param_count(params.spec) - 6 * (4 + 1)
    np.testing.assert_array_equal(pg[:head], pg_full[:head])
    np.testing.assert_array_equal(pg[head:], 0.0)
    np.testing.assert_array_equal(ig, ig_full)
    # out_grads formed in the network's own slot for them give the same pass
    ig = ig.copy()
    headless = mlp_forward_batch(params, x, head=False)
    slot = np.matmul(gout, W, out=hidden_grad_array(params, 9))
    pg_slot, ig_slot = mlp_backward_batch(params, headless, slot, head=False)
    np.testing.assert_array_equal(pg_slot, pg)
    np.testing.assert_array_equal(ig_slot, ig)


@pytest.mark.parametrize("head", [True, False])
def test_backward_skips_what_is_not_needed_with_the_same_result(head, rng):
    params = headed_net(rng)
    x = rng.normal(size=(9, 3))
    gout = rng.normal(size=(9, 6 if head else 4))
    # each backward spends its forward's activations, so each takes a fresh one
    acts = mlp_forward_batch(params, x, head=head)
    pg_full, ig_full = mlp_backward_batch(params, acts, gout, head=head)
    ig_full = ig_full.copy()  # the next backward on 9 rows writes the same array
    acts = mlp_forward_batch(params, x, head=head)
    pg, ig = mlp_backward_batch(params, acts, gout, head=head, need_params=False)
    assert pg is None
    np.testing.assert_array_equal(ig, ig_full)
    acts = mlp_forward_batch(params, x, head=head)
    pg, ig = mlp_backward_batch(params, acts, gout, head=head, need_input=False)
    assert ig is None
    np.testing.assert_array_equal(pg, pg_full)


@pytest.mark.parametrize("head", [True, False])
def test_backward_writes_the_deltas_over_the_hidden_activations(head, rng):
    # delta_l = (1 - a_l^2) * g_l, g_l the gradient at a_l: g_{L-1} comes
    # from the output layer (or is out_grads without the head) and g_l is
    # delta_{l+1} @ W_{l+1} below it
    params = mlp_init(MlpSpec((3, 7, 5, 4, 6), seed=8))
    params.flat[:] += 0.1 * rng.normal(size=params.flat.size)
    acts = mlp_forward_batch(params, rng.normal(size=(11, 3)), head=head)
    before = [a.copy() for a in acts]
    gout = rng.normal(size=(11, 6 if head else 4))
    mlp_backward_batch(params, acts, gout, head=head)
    layers = params.layers()
    g = gout @ layers[-1][0] if head else gout
    for l in range(3, 0, -1):
        delta = (1.0 - before[l] * before[l]) * g
        np.testing.assert_array_equal(acts[l], delta)
        g = delta @ layers[l - 1][0]
    # the input and the output are not written
    np.testing.assert_array_equal(acts[0], before[0])
    if head:
        np.testing.assert_array_equal(acts[-1], before[-1])


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
    with pytest.raises(ValueError):
        MlpParams(spec, np.zeros(10))
    with pytest.raises(ValueError):
        MlpParams(spec, np.full(param_count(spec), np.nan))
