import csv
import re

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.stats import beta as beta_dist

from fidte.config import DESIGN_SURFACES, ExperimentConfig
from fidte.datagen import (
    LINEAR_ATE_D,
    GENERATORS,
    S_MEAN,
    example2_c,
    generate,
    nonlinear_propensity,
    nonlinear_tau,
    s_curve,
)
from fidte.runner import _replication_data, load_csv_dataset, save_dataset_csv


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


# The propensity is (1 + I_x1(2, 4)) / 4, so 4 p - 1 recovers the Beta(2, 4) CDF.


def test_beta_cdf_half_point():
    # I_{1/2}(2, 4) = (C(5,2)+C(5,3)+C(5,4)+C(5,5)) / 32 = 26/32
    p = nonlinear_propensity(np.array([[0.5, 0.3]]))[0]
    assert p == (1.0 + 26.0 / 32.0) / 4.0


def test_beta_cdf_endpoints():
    p = nonlinear_propensity(np.array([[0.0, 0.3], [1.0, 0.3]]))
    assert p.tolist() == [0.25, 0.5]


def test_beta_cdf_matches_scipy_oracle(rng):
    x = rng.random((2000, 2))
    np.testing.assert_allclose(
        nonlinear_propensity(x), (1.0 + beta_dist.cdf(x[:, 0], 2, 4)) / 4.0, rtol=0, atol=1e-15
    )


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
    data = generate(design, 400, seed=3)
    rebuilt = CONTROL[design](data.x) + data.tau_true * data.t + data.z_true
    assert np.array_equal(data.y, rebuilt)
    assert np.array_equal(data.y, np.where(data.t == 1, data.y1, data.y0))


def test_linear_ate_structure():
    data = generate("linear_ate", 300, seed=5)
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
    assert generate("example1", 40, seed=2).d == 2
    assert generate("example2", 40, seed=2).d == 5
    data = generate("example1", 200, seed=9)
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
    data = generate("example1", 4000, seed=13)
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
    a = generate("example2", 64, seed=21)
    b = generate("example2", 64, seed=21)
    c = generate("example2", 64, seed=22)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y) and np.array_equal(a.t, b.t)
    assert not np.array_equal(a.y, c.y)


def test_genspec_validation():
    # generate takes its design and row count as given: the config rejects an
    # unknown design and fewer than two training rows, and a replication
    # draws no test set when n_test is 0
    with pytest.raises(ValueError, match=re.escape(
            "design: unknown design 'unknown', expected one of "
            "('linear_ate', 'example1', 'example2')")):
        ExperimentConfig(design="unknown")
    with pytest.raises(ValueError, match="^n_train: must be >= 2, got 1$"):
        ExperimentConfig(design="linear_ate", n_train=1, n_batches=1)
    train, test = _replication_data(ExperimentConfig(design="linear_ate", n_test=0), [1, 2])
    assert train.n == 250 and test is None


def test_every_design_has_a_model_and_a_generator():
    # config.DESIGN_SURFACES and GENERATORS name the same designs
    assert list(DESIGN_SURFACES) == list(GENERATORS)


# -------------------------------------------------------------------- csv


SCHEMA = {"y": "y", "t": "t", "x": ["x1", "x2"]}


def test_csv_roundtrip_exact(tmp_path):
    data = generate("example1", 37, seed=8)
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
    # the file is what csv.writer writes, repr(float) per cell, t included
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["x1", "x2", "t", "y", "y0", "y1", "tau_true", "z_true"])
        for i in range(data.n):
            wr.writerow([repr(float(v)) for v in (*data.x[i], data.t[i], data.y[i], data.y0[i],
                                                   data.y1[i], data.tau_true[i], data.z_true[i])])
    assert path.read_bytes() == ref.read_bytes()


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
