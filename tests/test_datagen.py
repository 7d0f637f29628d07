import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson
from scipy.stats import beta as beta_dist

from fidte.datagen import (
    LINEAR_ATE_D,
    S_MEAN,
    GenSpec,
    beta_cdf,
    example2_c,
    generate,
    nonlinear_propensity,
    nonlinear_tau,
    s_curve,
    save_dataset_csv,
)
from fidte.runner import load_csv_dataset


# ---------------------------------------------------------------- beta_cdf


def test_beta_cdf_half_point():
    # I_{1/2}(2, 4) = (C(5,2)+C(5,3)+C(5,4)+C(5,5)) / 32 = 26/32
    assert beta_cdf(0.5, 2, 4) == pytest.approx(0.8125, abs=1e-15)


def test_beta_cdf_uniform_is_identity():
    x = np.linspace(0.0, 1.0, 17)
    np.testing.assert_allclose(beta_cdf(x, 1, 1), x, atol=1e-15)


def test_beta_cdf_endpoints():
    for a, b in [(1, 1), (2, 4), (7, 3)]:
        assert beta_cdf(0.0, a, b) == 0.0
        assert beta_cdf(1.0, a, b) == pytest.approx(1.0, abs=1e-15)


def test_beta_cdf_matches_scipy_oracle(rng):
    for _ in range(20):
        a = int(rng.integers(1, 9))
        b = int(rng.integers(1, 9))
        x = rng.random(50)
        np.testing.assert_allclose(
            beta_cdf(x, a, b), beta_dist.cdf(x, a, b), rtol=0, atol=1e-12
        )


@settings(max_examples=60, deadline=None)
@given(
    a=st.integers(1, 10),
    b=st.integers(1, 10),
    x1=st.floats(0.0, 1.0),
    x2=st.floats(0.0, 1.0),
)
def test_beta_cdf_monotone(a, b, x1, x2):
    lo, hi = sorted((x1, x2))
    assert beta_cdf(lo, a, b) <= beta_cdf(hi, a, b) + 1e-12


def test_beta_cdf_rejects_bad_inputs():
    with pytest.raises(ValueError):
        beta_cdf(0.5, 0, 2)
    with pytest.raises(ValueError):
        beta_cdf(0.5, 2.5, 2)
    with pytest.raises(ValueError):
        beta_cdf(1.5, 2, 2)
    with pytest.raises(ValueError):
        beta_cdf(-0.1, 2, 2)


# ------------------------------------------------------- effect primitives


def test_s_curve_center_and_symmetry():
    assert s_curve(0.5) == 1.0
    a = np.linspace(0.0, 1.0, 101)
    np.testing.assert_allclose(s_curve(a) + s_curve(1.0 - a), 2.0, atol=1e-12)


def test_s_curve_range_and_monotonicity():
    a = np.linspace(-2.0, 3.0, 501)
    v = s_curve(a)
    assert np.all(v > 0.0) and np.all(v < 2.0)
    assert np.all(np.diff(v) > 0.0)


def test_s_mean_is_one():
    # symmetry makes the uniform mean exactly 1; quadrature only adds rounding
    assert S_MEAN == 1.0
    grid = np.linspace(0.0, 1.0, 10001)
    assert simpson(s_curve(grid), x=grid) == pytest.approx(S_MEAN, abs=1e-10)


def test_nonlinear_tau_center_value():
    # s(1/2) = 1 and E[s]^2 = 1, so tau(1/2, 1/2) = 1
    assert nonlinear_tau(np.array([[0.5, 0.5]]))[0] == pytest.approx(1.0, abs=1e-10)


def test_nonlinear_tau_bounds(rng):
    x = rng.random((500, 2))
    tau = nonlinear_tau(x)
    assert np.all(tau > 0.0) and np.all(tau < 4.0)


def test_propensity_bounds_and_endpoints(rng):
    x = rng.random((500, 2))
    p = nonlinear_propensity(x)
    assert np.all(p >= 0.25) and np.all(p <= 0.5)
    assert nonlinear_propensity(np.array([[0.0, 0.3]]))[0] == pytest.approx(0.25)
    assert nonlinear_propensity(np.array([[1.0, 0.3]]))[0] == pytest.approx(0.5)


def test_example2_surface_value():
    # 2 * 0.5 / (1 + 5 * 1^2) = 1/6
    x = np.array([[0.5, 1.0, 0.2, 0.9, 0.4]])
    assert example2_c(x)[0] == pytest.approx(1.0 / 6.0, abs=1e-15)


# ------------------------------------------------------------- generators


LINEAR_COEF = np.array([-1.0, 1.0, -1.0, 1.0])

# control surface c(x) of each design, written out from its definition
CONTROL = {
    "linear_ate": lambda x: 1.0 + x @ LINEAR_COEF,
    "example1": lambda x: 1.0 + x[:, 0] + x[:, 1],
    "example2": example2_c,
}


@pytest.mark.parametrize("design", ["linear_ate", "example1", "example2"])
def test_construction_identity(design):
    data = generate(GenSpec(design, 400, seed=3))
    rebuilt = CONTROL[design](data.x) + data.tau_true * data.t + data.z_true
    assert np.array_equal(data.y, rebuilt)
    assert np.array_equal(data.y, np.where(data.t == 1, data.y1, data.y0))


def test_linear_ate_structure():
    data = generate(GenSpec("linear_ate", 300, seed=5))
    assert data.d == LINEAR_ATE_D == 4
    np.testing.assert_allclose(data.tau_true, 1.0)
    np.testing.assert_allclose(
        data.y - data.tau_true * data.t - data.z_true, 1.0 + data.x @ LINEAR_COEF, atol=1e-12
    )
    # replay the generator's stream: t is a uniform draw below the
    # propensity logistic(1 + x xi), xi = beta
    rng = np.random.default_rng(5)
    x = rng.standard_normal((300, 4))
    propensity = 1.0 / (1.0 + np.exp(-(1.0 + x @ LINEAR_COEF)))
    np.testing.assert_array_equal(x, data.x)
    np.testing.assert_array_equal(data.t, rng.random(300) < propensity)


def test_example_designs_fixed_width():
    assert generate(GenSpec("example1", 40, seed=2)).d == 2
    assert generate(GenSpec("example2", 40, seed=2)).d == 5
    data = generate(GenSpec("example1", 200, seed=9))
    assert np.all(data.x >= 0.0) and np.all(data.x <= 1.0)
    np.testing.assert_allclose(
        data.y - data.tau_true * data.t - data.z_true,
        1.0 + data.x[:, 0] + data.x[:, 1],
        atol=1e-12,
    )
    np.testing.assert_allclose(data.tau_true, nonlinear_tau(data.x), atol=1e-12)
    # the treatment draw follows the design's propensity
    rng = np.random.default_rng(9)
    rng.random((200, 2))
    np.testing.assert_array_equal(data.t, rng.random(200) < nonlinear_propensity(data.x))


def test_arm_noises_are_independent_standard_normal():
    data = generate(GenSpec("example1", 4000, seed=13))
    c = CONTROL["example1"](data.x)
    z1 = data.y1 - c - data.tau_true
    z0 = data.y0 - c
    for z in (z0, z1):
        assert abs(z.mean()) < 0.06
        assert abs(z.std() - 1.0) < 0.05
    assert abs(np.corrcoef(z0, z1)[0, 1]) < 0.05
    # t = 1 rows expose the treated arm's draw (subtraction reorders the
    # float sums, so compare with a last-ulp tolerance)
    np.testing.assert_allclose(data.z_true, np.where(data.t == 1, z1, z0), atol=1e-12)


def test_generation_is_deterministic_in_seed():
    a = generate(GenSpec("example2", 64, seed=21))
    b = generate(GenSpec("example2", 64, seed=21))
    c = generate(GenSpec("example2", 64, seed=22))
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y) and np.array_equal(a.t, b.t)
    assert not np.array_equal(a.y, c.y)


def test_genspec_validation():
    with pytest.raises(ValueError):
        GenSpec("unknown", 10)
    with pytest.raises(ValueError):
        GenSpec("linear_ate", 0)


# -------------------------------------------------------------------- csv


SCHEMA = {"y": "y", "t": "t", "x": ["x1", "x2"]}


def test_csv_roundtrip_exact(tmp_path):
    data = generate(GenSpec("example1", 37, seed=8))
    path = tmp_path / "d.csv"
    save_dataset_csv(data, path)
    back = load_csv_dataset(str(path), SCHEMA)
    assert np.array_equal(back.x, data.x)
    assert np.array_equal(back.t, data.t)
    assert np.array_equal(back.y, data.y)
    # truth columns come back exactly too, by name and as ordinary columns
    for name in ("y0", "y1", "tau_true", "z_true"):
        assert np.array_equal(getattr(back, name), getattr(data, name))
    truth = load_csv_dataset(str(path), {"y": "tau_true", "t": "t", "x": ["y0", "y1", "z_true"]})
    assert np.array_equal(truth.y, data.tau_true)
    assert np.array_equal(truth.x, np.column_stack([data.y0, data.y1, data.z_true]))


def test_csv_load_without_truth_columns(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("x1,x2,t,y\n0.1,0.2,1,1.5\n0.3,0.4,0,0.7\n")
    data = load_csv_dataset(str(path), SCHEMA)
    assert data.n == 2 and data.d == 2
    assert data.z_true is None and data.y1 is None
    np.testing.assert_allclose(data.y, [1.5, 0.7])


def test_csv_load_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x1,x2,t\n0.1,0.2,1\n")
    with pytest.raises(ValueError, match="missing columns \\['y'\\]"):
        load_csv_dataset(str(bad), SCHEMA)
    mangled = tmp_path / "mangled.csv"
    mangled.write_text("x1,x2,t,y\n0.1,0.2,1,oops\n")
    with pytest.raises(ValueError, match="line 2"):
        load_csv_dataset(str(mangled), SCHEMA)
    with pytest.raises(ValueError, match="binary"):
        load_csv_dataset(str(mangled), {"y": "x1", "t": "x2", "x": ["x1"]})
