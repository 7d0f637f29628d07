import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fidte.runner
from fidte.config import preset_config
from fidte.engine import Dataset, Standardizer, ThetaLayout, draw_surfaces
from fidte.inference import (
    _BLOCK_VALUES,
    _linear_quantiles,
    IntervalError,
    Intervals,
    assign_cases,
    ate_interval,
    ite_intervals,
    pehe,
)
from fidte.nn import MlpSpec
from fidte.runner import InputFileError, rescore, score_rows, summarize, write_rows_csv
from fidte.sampler import FiducialChain

from conftest import IDENTITY_SCALER, per_draw_chain_surfaces, per_subject_ite_intervals

LINEAR = ThetaLayout(5)  # linear_ate with d = 4


def make_chain(draws: np.ndarray, scaler=IDENTITY_SCALER, layout=LINEAR) -> FiducialChain:
    draws = np.atleast_2d(draws)
    return FiducialChain(
        draws=draws,
        energies=np.zeros(draws.shape[0]),
        scaler=scaler,
        layout=layout,
    )


def const_chain(theta: np.ndarray, m: int) -> FiducialChain:
    return make_chain(np.tile(np.asarray(theta, dtype=np.float64), (m, 1)))


def surfaces(chain: FiducialChain, test: Dataset):
    return draw_surfaces(chain.draws, chain.layout, test.x, chain.scaler)


def toy_test_set(n: int, seed: int = 0, d: int = 4) -> Dataset:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    t = (rng.random(n) < 0.5).astype(np.int64)
    y0 = rng.standard_normal(n)
    y1 = y0 + 1.0
    return Dataset(
        x=x, t=t, y=np.where(t == 1, y1, y0),
        tau_true=np.ones(n), y1=y1, y0=y0,
    )


# ----------------------------------------------------------------- quantile


def ate_chain(samples) -> FiducialChain:
    """A chain whose ATE draws (2 tau', identity scaler) are exactly `samples`."""
    samples = np.asarray(samples, dtype=np.float64)
    draws = np.zeros((samples.size, LINEAR.theta_dim))
    draws[:, 0] = samples / 2.0
    return make_chain(draws)


def ate_bounds(chain, alpha):
    """(lower, upper) of ate_interval's block, which has one row."""
    iv = ate_interval(chain, alpha=alpha)
    return iv.lower.item(), iv.upper.item()


def test_quantile_median_of_ranks():
    # endpoints interpolate linearly between ranks: the 1/4 and 3/4 points of
    # 1..100 sit at positions 24.75 and 74.25
    lower, upper = ate_bounds(ate_chain(np.arange(1.0, 101.0)), alpha=0.5)
    assert (lower, upper) == (pytest.approx(25.75), pytest.approx(75.25))


def test_quantile_extremes_are_min_max(rng):
    s = rng.standard_normal(31)
    chain = ate_chain(s)
    for alpha in (0.05, 0.5):
        lower, upper = ate_bounds(chain, alpha=alpha)
        assert s.min() <= lower <= upper <= s.max()
    lower, upper = ate_bounds(chain, alpha=1e-12)
    assert lower == pytest.approx(s.min()) and upper == pytest.approx(s.max())


def test_quantile_matches_sort_oracle(rng):
    s = rng.standard_normal(137)
    v = np.sort(s)
    lower, upper = ate_bounds(ate_chain(s), alpha=0.05)
    for q, got in ((0.025, lower), (0.975, upper)):
        pos = q * (len(s) - 1)
        lo = int(np.floor(pos))
        want = v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
        assert got == pytest.approx(want, rel=1e-12)


def test_quantile_rejects_bad_input():
    with pytest.raises(ValueError):
        ate_interval(ate_chain([1.0, 2.0]), alpha=1.5)


@settings(max_examples=40, deadline=None)
@given(
    qa=st.floats(0.001, 0.999),
    qb=st.floats(0.001, 0.999),
    seed=st.integers(0, 1000),
)
def test_quantile_monotone_in_q(qa, qb, seed):
    # a smaller alpha reaches further into both tails
    chain = ate_chain(np.random.default_rng(seed).standard_normal(25))
    small, large = (ate_bounds(chain, alpha=a) for a in sorted((qa, qb)))
    assert small[0] <= large[0] and large[1] <= small[1]


# levels: the endpoints' own, the extremes, and any in between
LEVELS = st.lists(
    st.one_of(st.sampled_from([0.0, 1.0, 0.025, 0.975, 0.5]), st.floats(0.0, 1.0)),
    min_size=1, max_size=3,
)


def rounded_draws(seed, shape, decimals):
    # rounding makes ties, and -0.0 next to 0.0, common
    return np.round(np.random.default_rng(seed).standard_normal(shape), decimals)


@settings(max_examples=150, deadline=None)
@given(m=st.integers(1, 200), decimals=st.integers(0, 3), levels=LEVELS,
       seed=st.integers(0, 2**32 - 1))
def test_kernel_is_bitwise_np_quantile_on_a_draw_vector(m, decimals, levels, seed):
    # the ATE path: one vector, partitioned in place the way numpy does it
    got_in = rounded_draws(seed, m, decimals)
    want_in = got_in.copy()
    got = _linear_quantiles(got_in, tuple(levels))
    want = np.quantile(want_in, tuple(levels), method="linear", overwrite_input=True)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert got_in.tobytes() == want_in.tobytes()


@settings(max_examples=150, deadline=None)
@given(m=st.integers(1, 200), rows=st.integers(1, 6), decimals=st.integers(0, 3),
       levels=LEVELS, seed=st.integers(0, 2**32 - 1))
def test_kernel_is_bitwise_np_quantile_on_a_block(m, rows, decimals, levels, seed):
    # the ITE path: one row of draws per subject, partitioned in place
    got_in = rounded_draws(seed, (rows, m), decimals)
    want_in = got_in.copy()
    got = _linear_quantiles(got_in, tuple(levels))
    want = np.quantile(want_in, tuple(levels), axis=1, method="linear", overwrite_input=True)
    assert got.shape == want.shape == (len(levels), rows)
    assert got.tobytes() == want.tobytes()
    assert got_in.tobytes() == want_in.tobytes()


@pytest.mark.parametrize("m", [1, 2, 37])
def test_kernel_gives_nan_on_a_slice_holding_nan(m, rng):
    block = rng.standard_normal((3, m))
    block[1, m // 2] = np.nan
    want = np.quantile(block, (0.0, 0.025, 1.0), axis=1, method="linear")
    got = _linear_quantiles(block, (0.0, 0.025, 1.0))
    assert np.isnan(got[:, 1]).all() and not np.isnan(got[:, [0, 2]]).any()
    assert got.tobytes() == want.tobytes()
    vector = block[1].copy()
    assert np.isnan(_linear_quantiles(vector, (0.5, 0.975))).all()


# ---------------------------------------------------------------- intervals


def test_ate_interval_constant_draws():
    # tau' = 0.5 means a 0-to-1 contrast of exactly 1
    theta = np.array([0.5, 1.0, 0.0, 0.0, 0.0, 0.0, np.log(0.5)])
    iv = ate_interval(const_chain(theta, 200), alpha=0.05)
    assert iv.lower.item() == iv.upper.item() == pytest.approx(1.0)
    assert (iv.subject_id.tolist(), iv.case.tolist()) == ([-1], ["ATE"])


def test_prediction_interval_validation():
    # every rule names the first row that breaks it and that row's column
    def fault(case=("Im", "Im", "Im"), lower=(0.0, 0.0, 0.0), upper=(1.0, 1.0, 1.0), alpha=0.05):
        with pytest.raises(IntervalError) as exc:
            Intervals([0, 1, 2], case, lower, upper, alpha)
        return str(exc.value), exc.value.row, exc.value.column

    message, row, column = fault(lower=(0.0, 2.0, 3.0))
    assert "lower <= upper" in message and (row, column) == (1, "upper")
    assert fault(upper=(1.0, 1.0, np.nan))[1:] == (2, "upper")
    assert fault(lower=(np.nan, 0.0, 0.0))[1:] == (0, "lower")
    assert fault(upper=(1.0, np.inf, 1.0))[1:] == (1, "upper")
    message, row, column = fault(alpha=-0.05)
    assert "alpha" in message and (row, column) == (0, "alpha")
    assert fault(alpha=1.0)[1:] == (0, "alpha")
    message, row, column = fault(case=("Im", "Ic", "nope"))
    assert "case" in message and (row, column) == (2, "case")
    block = Intervals([0, 1], ["Im", "ATE"], [0.0, -1.0], [0.0, 1.0], 0.05)
    assert block.subject_id.dtype == np.int64 and block.lower.dtype == np.float64


def test_im_interval_matches_gaussian_predictive_law():
    # constant chain: the Im predictive draw is tau0 + sqrt(2) sigma0 Z, so at
    # alpha = 0.05 the interval converges on tau0 -+ 1.96 sqrt(2) sigma0
    tau0, sigma0 = 1.0, 0.7
    theta = np.array([tau0 / 2.0, 0.3, 0.0, 0.0, 0.0, 0.0, np.log(sigma0)])
    chain = const_chain(theta, 30000)
    test = toy_test_set(3, seed=4)
    ivs = ite_intervals(surfaces(chain, test), test, alpha=0.05,
                        seed=9, cases=["Im"] * 3)
    half = 1.959964 * np.sqrt(2.0) * sigma0
    for lower, upper in zip(ivs.lower, ivs.upper):
        assert lower == pytest.approx(tau0 - half, abs=0.08)
        assert upper == pytest.approx(tau0 + half, abs=0.08)


def test_ic_interval_is_shifted_treated_prediction():
    theta = np.array([0.5, 1.0, 0.1, -0.2, 0.3, 0.0, np.log(0.5)])
    chain = const_chain(theta, 5000)
    test = toy_test_set(4, seed=5)
    ivs = ite_intervals(surfaces(chain, test), test, alpha=0.1,
                        seed=11, cases=["Ic"] * 4)
    # rebuild the treated-arm prediction interval with the same subject streams
    streams = np.random.default_rng(11).spawn(4)
    for i, (lower, upper) in enumerate(zip(ivs.lower, ivs.upper)):
        z = streams[i].standard_normal(5000)
        (c,), (tau,), _ = draw_surfaces(theta[None, :], LINEAR, test.x[i : i + 1], IDENTITY_SCALER)
        y1_hat = c[0] + tau[0] + 0.5 * z
        assert lower == pytest.approx(np.quantile(y1_hat, 0.05) - test.y[i], rel=1e-12)
        assert upper == pytest.approx(np.quantile(y1_hat, 0.95) - test.y[i], rel=1e-12)


def test_translation_equivariance_of_cases():
    rng_draws = np.random.default_rng(3)
    draws = np.column_stack(
        [
            0.4 + 0.05 * rng_draws.standard_normal(400),
            1.0 + 0.10 * rng_draws.standard_normal(400),
            np.zeros(400), np.zeros(400), np.zeros(400), np.zeros(400),
            np.log(0.6) * np.ones(400),
        ]
    )
    shift = 2.5
    shifted = draws.copy()
    shifted[:, 1] += shift  # moves every c-hat draw by +shift
    test = toy_test_set(6, seed=6)
    cases = np.array(["Ic", "It", "Im", "Ic", "It", "Im"], dtype=object)
    base = ite_intervals(surfaces(make_chain(draws), test), test, 0.05, 7, cases)
    moved = ite_intervals(surfaces(make_chain(shifted), test), test, 0.05, 7, cases)
    assert base.case.tolist() == moved.case.tolist() == cases.tolist()
    for case, dl, du in zip(cases, moved.lower - base.lower, moved.upper - base.upper):
        want = {"Ic": shift, "It": -shift, "Im": 0.0}[case]
        assert dl == pytest.approx(want, abs=1e-9)
        assert du == pytest.approx(want, abs=1e-9)


def test_ite_intervals_ordered_bounds_and_tags(rng):
    draws = rng.standard_normal((300, 7)) * 0.1
    draws[:, -1] = np.log(0.5)
    test = toy_test_set(20, seed=8)
    cases = np.where(test.t == 1, "It", "Ic")
    ivs = ite_intervals(surfaces(make_chain(draws), test), test, 0.05, 1, cases)
    assert ivs.subject_id.tolist() == list(range(20))
    assert np.all(ivs.lower <= ivs.upper)
    assert ivs.case.tolist() == cases[ivs.subject_id].tolist()


def test_ite_intervals_validation(monkeypatch):
    # ite_intervals takes its level and case tags as given: a replication
    # passes each configured level and one Ic/It/Im tag per test row
    seen = []
    real = fidte.runner.ite_intervals

    def recorded(surfaces, test, alpha, seed, cases):
        seen.append((alpha, cases))
        return real(surfaces, test, alpha, seed, cases)

    monkeypatch.setattr(fidte.runner, "ite_intervals", recorded)
    cfg = preset_config("example1", n_train=30, n_test=12, init_iters=2, k_burn=2, m_keep=3,
                        thin=1, n_batches=1, alphas=(0.1, 0.2), methods=("efi",))
    fidte.runner.run_replication(cfg, 0, None)
    assert [alpha for alpha, _ in seen] == [0.1, 0.2]
    for _, cases in seen:
        assert cases.shape == (12,) and set(cases.tolist()) <= {"Ic", "It", "Im"}


def endpoint_bits(ivs):
    return [(i, case, lo.hex(), hi.hex(), ivs.alpha) for i, case, lo, hi in zip(
        ivs.subject_id.tolist(), ivs.case.tolist(), ivs.lower.tolist(), ivs.upper.tolist())]


# m = _BLOCK_VALUES // 7 + 3 puts 6 subjects in a block: 16 Ic subjects make
# blocks of 6, 6 and 4
@pytest.mark.parametrize("m", [1, 30, _BLOCK_VALUES // 7 + 3])
def test_ite_intervals_equal_the_per_subject_loop(m):
    rng = np.random.default_rng(m)
    test = toy_test_set(40, seed=13)
    draws = 0.3 * rng.standard_normal((m, 7))
    draws[:, -1] = np.log(0.5) + 0.2 * rng.standard_normal(m)
    sf = surfaces(make_chain(draws), test)
    mixed = np.array(["Ic", "It", "Im", "Im", "Ic"] * 8)
    no_it = np.where(test.t == 1, "Im", "Ic")
    for cases in (mixed, no_it, ["Im"] * 40):
        for alpha in (0.05, 0.1):
            got = ite_intervals(sf, test, alpha, 21, cases)
            want = per_subject_ite_intervals(sf, test, alpha, np.random.default_rng(21), cases)
            assert endpoint_bits(got) == endpoint_bits(want)


def test_ite_intervals_build_the_streams_rng_spawn_gives():
    # each subject's stream is built as its block fills, and it is the one
    # default_rng(seed).spawn(test.n) gives, at a seed of the form
    # run_replication passes
    rng = np.random.default_rng(30)
    test = toy_test_set(40, seed=13)
    draws = 0.3 * rng.standard_normal((30, 7))
    draws[:, -1] = np.log(0.5) + 0.2 * rng.standard_normal(30)
    sf = surfaces(make_chain(draws), test)
    cases = np.array(["Ic", "It", "Im", "Im", "Ic"] * 8)
    got = ite_intervals(sf, test, 0.1, [21, 1], cases)
    want = per_subject_ite_intervals(sf, test, 0.1, np.random.default_rng([21, 1]), cases)
    assert endpoint_bits(got) == endpoint_bits(want)


SURFACE_LAYOUTS = {
    "linear_ate": ThetaLayout(5),
    "dnn_tau_linear_c": ThetaLayout(5, MlpSpec((4, 6, 1), seed=5)),
    "dnn_both": ThetaLayout(MlpSpec((4, 5, 3, 1), seed=6), MlpSpec((4, 6, 1), seed=5)),
}


@pytest.mark.parametrize("kind", sorted(SURFACE_LAYOUTS))
def test_chain_surfaces_equal_per_draw_surfaces(kind):
    layout = SURFACE_LAYOUTS[kind]
    rng = np.random.default_rng(14)
    scaler = Standardizer(x_mean=rng.standard_normal(4), x_std=0.5 + rng.random(4),
                          y_mean=1.3, y_std=2.1)
    # network blocks hold weights times 25, so these weights are O(1)
    chain = make_chain(10.0 * rng.standard_normal((40, layout.theta_dim)), scaler, layout)
    x = rng.standard_normal((17, 4))
    got = draw_surfaces(chain.draws, chain.layout, x, chain.scaler)
    want = per_draw_chain_surfaces(chain, layout, x)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_assign_cases_distribution():
    test = toy_test_set(6000, seed=10)
    cases = assign_cases(test, np.random.default_rng(2))
    frac_m = np.mean(cases == "Im")
    assert abs(frac_m - 1.0 / 3.0) < 0.03
    by_arm = cases[cases != "Im"]
    arms = test.t[cases != "Im"]
    assert np.all((by_arm == "It") == (arms == 1))


# --------------------------------------------------------------------- pehe


def test_pehe_zero_when_surface_matches():
    # tau' = 0.5 reproduces the constant truth tau = 1 exactly
    theta = np.array([0.5, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    test = toy_test_set(30, seed=1)
    assert pehe(surfaces(const_chain(theta, 50), test), test) == 0.0


def test_pehe_constant_offset_squares():
    theta = np.array([0.5 + 0.15, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    test = toy_test_set(30, seed=1)
    got = pehe(surfaces(const_chain(theta, 50), test), test)
    assert got == pytest.approx(0.3**2, rel=1e-10)


def test_pehe_draw_order_invariant(rng):
    draws = rng.standard_normal((60, 7)) * 0.2
    test = toy_test_set(25, seed=2)
    a = pehe(surfaces(make_chain(draws), test), test)
    b = pehe(surfaces(make_chain(draws[::-1]), test), test)
    assert a == pytest.approx(b, rel=1e-12)


def test_pehe_scores_treated_rows_only():
    # the surface matches the truth on treated rows and misses by 3 on the
    # control rows, which PEHE leaves out
    test = toy_test_set(40, seed=3)
    test.tau_true = np.where(test.t == 1, 1.0, 4.0)
    sf = surfaces(const_chain(np.array([0.5, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]), 5), test)
    assert pehe(sf, test) == 0.0


# ------------------------------------------------------------------ scoring


def test_score_intervals_huge_bounds_cover():
    rep = score_rows(np.full(5, -1e12), np.full(5, 1e12), np.arange(5.0))
    assert rep == {"n": 5, "mean_length": 2e12, "coverage": 1.0}


def test_score_intervals_points_at_truth(tmp_path):
    # degenerate intervals at the truth cover it, through a written file
    truth = np.linspace(-1.0, 1.0, 7)
    path = tmp_path / "iv.csv"
    write_rows_csv([("efi", Intervals(np.arange(7), ["Ic"] * 7, truth, truth, 0.05), truth)], path)
    assert rescore(str(path))["efi"]["0.05"]["Ic"] == {"n": 7, "mean_length": 0.0, "coverage": 1.0}


def test_score_intervals_hand_fixture(tmp_path):
    # 10 subjects with truth 0; seven unit-radius intervals centered at 0
    # cover, three centered at 5 miss; every interval has length 2
    block = Intervals(np.arange(10), ["Im"] * 7 + ["It"] * 3, [-1.0] * 7 + [4.0] * 3,
                      [1.0] * 7 + [6.0] * 3, 0.05)
    rows = [("efi", block, np.zeros(10))]
    path = tmp_path / "iv.csv"
    write_rows_csv(rows, path)
    per_case = rescore(str(path))["efi"]["0.05"]
    assert per_case["Im"] == {"n": 7, "mean_length": 2.0, "coverage": 1.0}
    assert per_case["It"] == {"n": 3, "mean_length": 2.0, "coverage": 0.0}
    cfg = preset_config("example1", R=1, alphas=(0.05,), methods=("efi",))
    summary = summarize(cfg, [{"r": 0, "rows": rows, "pehe": None}])
    block = summary["methods"]["efi"]["alphas"]["0.05"]
    assert block["coverage"]["mean"] == pytest.approx(0.7)
    assert block["length"]["mean"] == pytest.approx(2.0)
    assert block["per_case"]["It"]["coverage"]["mean"] == 0.0


def test_write_intervals_csv_roundtrip(tmp_path):
    ite = Intervals([0, 1], ["Im", "Ic"], [0.0, -1.0], [1.0, 2.0], 0.05)
    ate = Intervals([-1], ["ATE"], [0.5], [1.5], 0.05)
    path = tmp_path / "iv.csv"
    write_rows_csv([("efi", ite, np.array([0.5, 3.0])), ("efi", ate, None)], path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "method,alpha,subject_id,case,lower,upper,truth,covered"
    assert rows[1].split(",") == ["efi", "0.05", "0", "Im", "0.0", "1.0", "0.5", "1"]
    assert rows[2].split(",") == ["efi", "0.05", "1", "Ic", "-1.0", "2.0", "3.0", "0"]
    assert rows[3].split(",") == ["efi", "0.05", "-1", "ATE", "0.5", "1.5", "", ""]
    back = rescore(str(path))["efi"]["0.05"]
    assert (back["Im"]["coverage"], back["Ic"]["coverage"]) == (1.0, 0.0)
    assert back["ATE"] == {"n": 1, "mean_length": 1.0, "coverage": None}


def test_blocks_longer_than_a_write_chunk_are_what_csv_writer_writes(tmp_path):
    # write_rows_csv converts _CSV_ROWS rows at a time; across the chunk
    # boundaries each line is csv.writer's line of the same row
    n = 2 * fidte.runner._CSV_ROWS + 5
    rng = np.random.default_rng(3)
    lower = rng.normal(size=n)
    upper = lower + rng.exponential(size=n)
    truth = rng.normal(size=n)
    cases = rng.choice(["Ic", "It", "Im"], size=n)
    block = Intervals(np.arange(n), cases, lower, upper, 0.1)
    path = tmp_path / "iv.csv"
    write_rows_csv([("efi", block, truth), ("cqr-naive", block, None)], path)
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(fidte.runner.INTERVAL_COLUMNS)
    for method, t in (("efi", truth), ("cqr-naive", None)):
        for k in range(n):
            cells = ["", ""] if t is None else [repr(float(t[k])), int(lower[k] <= t[k] <= upper[k])]
            writer.writerow([method, 0.1, k, cases[k], repr(float(lower[k])), repr(float(upper[k])),
                             *cells])
    assert path.read_bytes() == want.getvalue().encode()


def test_interval_of_numpy_scalars_reads_back(tmp_path):
    # endpoints taken from an array are numpy scalars; the file holds plain numbers
    lower, upper = np.array([-1.0, 1.0])
    path = tmp_path / "iv.csv"
    write_rows_csv([("efi", Intervals([0], ["Im"], [lower], [upper], np.float64(0.05)),
                     np.array([0.5]))], path)
    assert path.read_text().splitlines()[1].split(",")[4:6] == ["-1.0", "1.0"]
    assert rescore(str(path))["efi"]["0.05"]["Im"] == {"n": 1, "mean_length": 2.0, "coverage": 1.0}


def test_rescore_rejects_a_malformed_file(tmp_path):
    path = tmp_path / "iv.csv"
    header = "method,alpha,subject_id,case,lower,upper,truth,covered\n"
    path.write_text(header + "efi,0.05,-1,ATE,0.5,1.5,1.0,1\nefi,0.05,-1,ATE,abc,1.5,1.0,1\n")
    with pytest.raises(ValueError, match=r"^non-numeric value 'abc' at line 3, column 'lower'$"):
        rescore(str(path))
    path.write_text(header)
    with pytest.raises(ValueError, match=r"^intervals file .*iv\.csv holds no interval rows$"):
        rescore(str(path))
    path.write_text("method,alpha,case,lower\nefi,0.05,ATE,0.5\n")
    with pytest.raises(ValueError, match=r"^intervals file is missing columns "
                                         r"\['subject_id', 'truth', 'upper'\]$"):
        rescore(str(path))
    # each bad row after a good one of the same block is named by its line and column
    for row, message in BAD_INTERVAL_ROWS.items():
        path.write_text(header + "efi,0.05,0,Im,0.5,1.5,1.0,1\n" + row + "\n")
        with pytest.raises(InputFileError) as exc:
            rescore(str(path))
        assert str(exc.value) == message


# a malformed intervals.csv row, read at line 3, and the error it gives
BAD_INTERVAL_ROWS = {
    "efi,0.05,1,XX,0.5,1.5,1.0,1":
        "unknown case 'XX', expected one of ('Ic', 'It', 'Im', 'ATE') at line 3, column 'case'",
    "efi,abc,1,Im,0.5,1.5,1.0,1": "non-numeric value 'abc' at line 3, column 'alpha'",
    "efi,1.5,1,Im,0.5,1.5,1.0,1": "alpha must lie in (0, 1), got 1.5 at line 3, column 'alpha'",
    "efi,nan,1,Im,0.5,1.5,1.0,1": "non-finite value 'nan' at line 3, column 'alpha'",
    "efi,0.05,1,Im,2.0,1.0,1.0,1": "interval must have finite endpoints with lower <= upper, "
                                   "got (2.0, 1.0) at line 3, column 'upper'",
    "efi,0.05,1,Im,nan,1.0,1.0,1": "non-finite value 'nan' at line 3, column 'lower'",
    "efi,0.05,1,Im,0.0,inf,1.0,1": "non-finite value 'inf' at line 3, column 'upper'",
    "efi,0.05,1,Im,0.5,1.5,nan,0": "non-finite value 'nan' at line 3, column 'truth'",
    "efi,0.05,1,Im,0.5,1.5,-inf,0": "non-finite value '-inf' at line 3, column 'truth'",
    "efi,0.05,x,Im,0.5,1.5,1.0,1": "non-numeric value 'x' at line 3, column 'subject_id'",
    "efi,0.05,99999999999999999999,Im,0.5,1.5,1.0,1":
        "out-of-range value '99999999999999999999' at line 3, column 'subject_id'",
}
