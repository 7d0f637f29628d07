import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from fidte.engine import RESCALE
from fidte.prior import RHO, SIGMA0, SIGMA1, log_prior_grad

from conftest import assert_grad_close, central_diff, lse_log_prior_grad, slices_mask


def mixture_logpdf(w):
    # independent oracle: direct density sum via scipy, valid where it does not underflow
    dens = RHO * norm.pdf(w, scale=SIGMA1) + (1 - RHO) * norm.pdf(w, scale=SIGMA0)
    return float(np.sum(np.log(dens)))


def log_prior(w, scale=None):
    """Reference log density of the weight vector, summed over elements.

    Combines the weighted component log densities with log-sum-exp, so it
    stays finite far in the tails where mixture_logpdf underflows.  With
    scale the mixture is taken over w / scale, change-of-variables term
    included; log_prior_grad is checked against its finite differences.
    """
    w = np.asarray(w, dtype=np.float64)
    jac = 0.0
    if scale is not None:
        s = np.broadcast_to(np.asarray(scale, dtype=np.float64), w.shape)
        w = w / s
        jac = float(np.sum(np.log(s)))
    a1 = np.log(RHO) + norm.logpdf(w, scale=SIGMA1)
    a0 = np.log1p(-RHO) + norm.logpdf(w, scale=SIGMA0)
    return float(np.sum(np.logaddexp(a1, a0))) - jac


def test_value_at_zero():
    got = log_prior(np.array([0.0]))
    assert got == pytest.approx(mixture_logpdf(np.array([0.0])), rel=1e-12)
    assert got == pytest.approx(3.6762827, abs=1e-6)


def test_value_in_tail_dominant_component():
    # at w = 5 the narrow component has mass e^-125000, so the wide one carries
    # the density: log(0.01 * phi(5; 1))
    want = np.log(0.01) + norm.logpdf(5.0)
    got = log_prior(np.array([5.0]))
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(-18.0241087, abs=1e-6)


def test_matches_scipy_oracle_where_direct_sum_is_safe(rng):
    for _ in range(25):
        w = rng.uniform(-0.05, 0.05, size=rng.integers(1, 8))
        assert log_prior(w) == pytest.approx(mixture_logpdf(w), rel=1e-10)


def test_finite_far_in_tail():
    # naive density ratio overflows around |w| ~ 0.06; log-sum-exp must not
    for w in (0.06, 0.5, 5.0, 40.0, -40.0):
        val = log_prior(np.array([w]))
        assert np.isfinite(val)
        g = log_prior_grad(np.array([w]))
        assert np.all(np.isfinite(g))


def test_empty_vector_gives_zero():
    assert log_prior(np.array([])) == 0.0
    assert log_prior_grad(np.array([])).shape == (0,)


@settings(max_examples=50, deadline=None)
@given(
    a=st.lists(st.floats(-30, 30, allow_nan=False), min_size=1, max_size=5),
    b=st.lists(st.floats(-30, 30, allow_nan=False), min_size=1, max_size=5),
)
def test_separability(a, b):
    whole = log_prior(np.array(a + b))
    parts = log_prior(np.array(a)) + log_prior(np.array(b))
    assert whole == pytest.approx(parts, rel=1e-12, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(w=st.lists(st.floats(-30, 30, allow_nan=False), min_size=1, max_size=6))
def test_gradient_is_odd(w):
    w = np.array(w)
    np.testing.assert_allclose(log_prior_grad(-w), -log_prior_grad(w), atol=1e-12)


def test_gradient_matches_fd(rng):
    # cover the spike zone, the crossover near 0.04, and the slab tail
    for scale in (0.005, 0.03, 0.2, 3.0):
        w = rng.normal(scale=scale, size=6)
        analytic = log_prior_grad(w)
        numeric = central_diff(lambda v: log_prior(v), w, h=1e-7)
        assert_grad_close(analytic, numeric, rtol=2e-4, atol=1e-5)


def test_slab_pull_in_tail():
    # far from zero only the wide component acts: gradient ~ -w / sigma1^2
    g = log_prior_grad(np.array([5.0]))
    assert g[0] == pytest.approx(-5.0, rel=1e-6)


def test_scaled_density_identity(rng):
    # reading w in natural units w / s, s = RESCALE on the head slices and 1
    # off them, must match evaluating the plain mixture there, up to the
    # change-of-variables constant
    w = rng.normal(scale=2.0, size=8)
    head = (slice(0, 2), slice(5, 8))
    s = np.where(slices_mask(8, head), RESCALE, 1.0)
    want = log_prior(w / s) - float(np.sum(np.log(s)))
    assert log_prior(w, scale=s) == pytest.approx(want, rel=1e-12)
    np.testing.assert_allclose(
        log_prior_grad(w, head),
        log_prior_grad(w / s) / s,
        rtol=1e-12,
    )


def test_scaled_gradient_matches_fd(rng):
    w = rng.normal(scale=5.0, size=6)
    s = np.full(6, RESCALE)
    analytic = log_prior_grad(w, (slice(0, 6),))
    numeric = central_diff(lambda v: log_prior(v, scale=s), w, h=1e-6)
    assert_grad_close(analytic, numeric, rtol=2e-4, atol=1e-6)


def test_empty_head_equals_the_unmasked_path(rng):
    w = rng.normal(size=5)
    np.testing.assert_array_equal(log_prior_grad(w, (slice(2, 2), slice(5, 5))), log_prior_grad(w))


# spike (|w| << SIGMA0), the spike/slab crossover near 0.043, the slab
# below the exp overflow at ~0.379, and the slab past it
PRIOR_RANGES = [
    pytest.param(np.linspace(-0.02, 0.02, 41), id="spike"),
    pytest.param(np.linspace(0.035, 0.052, 35), id="crossover"),
    pytest.param(np.linspace(0.1, 0.379, 30), id="slab"),
    pytest.param(np.geomspace(0.38, 1e150, 60), id="overflow"),
]


@pytest.mark.parametrize("w", PRIOR_RANGES)
def test_one_exp_form_matches_log_sum_exp(w):
    w = np.concatenate([w, -w])
    np.testing.assert_allclose(log_prior_grad(w), lse_log_prior_grad(w), rtol=1e-12, atol=0)


def test_one_exp_form_matches_log_sum_exp_scaled(rng):
    # the head rows' path: natural units w / RESCALE, chain factor 1 / RESCALE;
    # one head slice at each end of w
    head = (slice(0, 70), slice(130, 200))
    s = np.where(slices_mask(200, head), RESCALE, 1.0)
    for spread in (0.005, 0.043, 0.3, 5.0, 1e3):
        w = rng.normal(scale=spread, size=200) * s
        np.testing.assert_allclose(
            log_prior_grad(w, head), lse_log_prior_grad(w, scale=s), rtol=1e-12, atol=0
        )


def test_slab_limit_where_squares_overflow():
    # w * w overflows past ~1e154, beyond the reference's own range; r0 is 0
    # there and the gradient is the slab's -w / SIGMA1^2, as the reference
    # gives it exactly from |w| 0.38 up
    w = np.array([1e150, 1e154, 1e155, 1e200, -1e200, 1e308])
    np.testing.assert_array_equal(log_prior_grad(w), -w / SIGMA1**2)
    np.testing.assert_array_equal(log_prior_grad(w, (slice(0, 6),)),
                                  -(w / RESCALE) / SIGMA1**2 / RESCALE)
    assert lse_log_prior_grad(np.array([0.38, 1e150]))[1] == -1e150 / SIGMA1**2


def test_overflow_is_silent():
    # the exp and square overflows are the exact slab limit, so they raise no
    # warning, and no division or invalid operation occurs on the way (an
    # underflowing square is 0, which numpy never reports by default)
    w = np.array([0.0, 1e-300, 0.043, 0.38, 5.0, 1e154, 1e200, -1e300])
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        assert np.all(np.isfinite(log_prior_grad(w)))
        assert np.all(np.isfinite(log_prior_grad(w, (slice(0, 3), slice(5, 8)))))
        assert np.all(np.isfinite(log_prior_grad(w, (slice(0, 8),))))


def test_input_is_left_unchanged_and_result_is_new(rng):
    w = rng.normal(scale=0.1, size=50)
    w0 = w.copy()
    for head in ((), (slice(0, 10), slice(30, 50))):
        g = log_prior_grad(w, head)
        assert not np.shares_memory(g, w)
        np.testing.assert_array_equal(w, w0)
    assert log_prior_grad(0.3).shape == ()
