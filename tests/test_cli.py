import csv
import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import fidte.cqr
import fidte.runner
from fidte import cli
from fidte.config import PRESETS, ExperimentConfig, preset_config
from fidte.datagen import generate
from fidte.engine import ThetaLayout
from fidte.runner import (
    _CSV_ROWS,
    _rep_worker,
    _replication_data,
    load_csv_dataset,
    read_csv_rows,
    read_rows_csv,
    replication_ints,
    rescore,
    save_dataset_csv,
    score_rows,
    write_rows_csv,
)
from fidte.sampler import FiducialChain

from conftest import IDENTITY_SCALER

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
BURN, KEEP, THIN = 20, 20, 2


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def count_efi_calls(monkeypatch):
    calls = []
    real = fidte.runner.run_efi

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(fidte.runner, "run_efi", counted)
    return calls


def test_simulate_csv_fit_benchmark_report(tmp_path, monkeypatch, capsys):
    sim = tmp_path / "sim"
    assert cli.main(["simulate", "--config", "linear_ate_n250", "--seed", "3", "--out", str(sim)]) == 0
    train_csv = sim / "train.csv"
    assert read_rows(train_csv)[0] == ["x1", "x2", "x3", "x4", "t", "y", "y0", "y1", "tau_true", "z_true"]
    assert not (sim / "test.csv").exists()  # linear_ate_n250 has no test set

    # the schema reader gets back exactly what the generator drew
    schema = {"y": "y", "t": "t", "x": ["x1", "x2", "x3", "x4"]}
    back = load_csv_dataset(str(train_csv), schema)
    drawn, _ = _replication_data(preset_config("linear_ate_n250", seed=3), replication_ints(3, 0))
    assert np.array_equal(back.x, drawn.x)
    assert np.array_equal(back.t, drawn.t)
    assert np.array_equal(back.y, drawn.y)
    for name in ("y0", "y1", "tau_true", "z_true"):
        assert np.array_equal(getattr(back, name), getattr(drawn, name))

    cfg = tmp_path / "csv.yaml"
    cfg.write_text(
        f"csv: {json.dumps(str(train_csv))}\n"
        f"csv_schema: {json.dumps(schema)}\n"
        f"R: 2\nk_burn: {BURN}\nm_keep: {KEEP}\nthin: {THIN}\ntrace: true\nseed: 3\n"
    )
    calls = count_efi_calls(monkeypatch)

    fit = tmp_path / "fit"
    assert cli.main(["fit", "--config", str(cfg), "--out", str(fit)]) == 0
    assert len(calls) == 1  # chain and intervals come from one sampler run
    assert capsys.readouterr().err == ""  # an efi-only config skips nothing
    chain = read_rows(fit / "chain.csv")
    assert chain[0][-2:] == ["sigma", "energy"] and len(chain) == 1 + KEEP // THIN
    assert len(read_rows(fit / "trace_efi.csv")) == 1 + BURN + KEEP
    fit_rows = read_rows(fit / "intervals.csv")
    assert [r[:4] for r in fit_rows[1:]] == [["efi", "0.05", "-1", "ATE"]]
    assert fit_rows[1][6] == "1.0"  # the constant effect of linear_ate, from tau_true

    bench = tmp_path / "bench"
    assert cli.main(["benchmark", "--config", str(cfg), "--out", str(bench)]) == 0
    assert len(calls) == 3
    summary = json.loads((bench / "summary.json").read_text())
    assert summary["replications"] == 2 and summary["config"]["thin"] == THIN
    # train.csv carries tau_true, so the ATE intervals are scored
    coverage = summary["methods"]["efi"]["alphas"]["0.05"]["coverage"]
    assert isinstance(coverage["mean"], float) and 0.0 <= coverage["mean"] <= 1.0
    for rep in summary["methods"]["efi"]["alphas"]["0.05"]["per_replication"]:
        assert rep["coverage"] in (0.0, 1.0)
    for r in range(2):
        rep = bench / f"rep_{r:03d}"
        assert len(read_rows(rep / "intervals.csv")) == 2
        assert len(read_rows(rep / "trace_efi.csv")) == 1 + BURN + KEEP
    # fit is replication 0 of the same run
    assert read_rows(bench / "rep_000" / "intervals.csv") == fit_rows

    report = tmp_path / "report"
    intervals = str(bench / "rep_001" / "intervals.csv")
    assert cli.main(["report", "--out", str(report), intervals]) == 0
    scores = json.loads((report / "report.json").read_text())
    assert scores == rescore(intervals)
    assert scores["efi"]["0.05"]["ATE"]["n"] == 1


def test_simulate_writes_the_test_draw_with_its_truth(tmp_path):
    sim = tmp_path / "sim"
    assert cli.main(["simulate", "--config", "example1", "--seed", "5", "--out", str(sim)]) == 0
    _, drawn = _replication_data(preset_config("example1", seed=5), replication_ints(5, 0))
    back = load_csv_dataset(str(sim / "test.csv"), {"y": "y", "t": "t", "x": ["x1", "x2"]})
    assert back.n == drawn.n == PRESETS["example1"]["n_test"]
    for name in ("x", "t", "y", "y0", "y1", "tau_true", "z_true"):
        assert np.array_equal(getattr(back, name), getattr(drawn, name))


def test_simulate_rejects_a_csv_config(tmp_path, capsys):
    # a csv config has no design to draw from: one error line, exit status 2
    cfg = tmp_path / "csv.yaml"
    cfg.write_text(f"csv: {tmp_path / 'd.csv'}\ncsv_schema: {{y: y, t: t, x: [x1]}}\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "fidte: error: simulate needs a design-based config, not a csv one\n"
    )
    assert not (tmp_path / "out").exists()


def test_cqr_rejects_a_csv_config(tmp_path, capsys):
    # the cqr modes need a test set, which a csv config lacks: one error
    # line, exit status 2, before any output directory is made
    cfg = tmp_path / "csv.yaml"
    cfg.write_text(f"csv: {tmp_path / 'd.csv'}\ncsv_schema: {{y: y, t: t, x: [x1]}}\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["cqr", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "fidte: error: methods: ['cqr-naive', 'cqr-exact', 'cqr-inexact'] need a test set, "
        "which a csv config lacks\n"
    )
    assert not (tmp_path / "out").exists()


def test_truth_less_csv_run_scores_length_only(tmp_path):
    # a csv file without the simulation's truth columns: nothing to cover
    full = tmp_path / "full.csv"
    save_dataset_csv(generate("linear_ate", 40, seed=4), full)
    rows = read_rows(full)
    keep = [j for j, name in enumerate(rows[0]) if name not in ("tau_true", "y0", "y1", "z_true")]
    data = tmp_path / "observed.csv"
    with open(data, "w", newline="") as fh:
        csv.writer(fh).writerows([[row[j] for j in keep] for row in rows])
    cfg = tmp_path / "observed.yaml"
    cfg.write_text(f"csv: {json.dumps(str(data))}\n"
                   'csv_schema: {"y": "y", "t": "t", "x": ["x1", "x2", "x3", "x4"]}\n'
                   f"R: 2\nk_burn: {BURN}\nm_keep: {KEEP}\nthin: {THIN}\nn_batches: 1\n")
    out = tmp_path / "out"
    assert cli.main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 0
    block = json.loads((out / "summary.json").read_text())["methods"]["efi"]["alphas"]["0.05"]
    assert block["coverage"] == {"mean": None, "sd": None}
    assert [rep["coverage"] for rep in block["per_replication"]] == [None, None]
    assert block["length"]["mean"] > 0.0
    ate = rescore(str(out / "rep_001" / "intervals.csv"))["efi"]["0.05"]["ATE"]
    assert ate["coverage"] is None and ate["mean_length"] > 0.0


def test_fit_runs_the_sampler_once(tmp_path, monkeypatch, capsys):
    calls = count_efi_calls(monkeypatch)
    cfg = tmp_path / "fit.yaml"
    cfg.write_text(
        "preset: example1\nn_train: 30\nn_test: 12\ninit_iters: 2\n"
        "k_burn: 2\nm_keep: 3\nthin: 1\nn_batches: 1\n"
    )
    assert cli.main(["fit", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1
    # example1 also configures the three cqr baselines, which fit does not run
    assert capsys.readouterr().err == (
        "fit runs efi only; skipping cqr-naive, cqr-exact, cqr-inexact "
        "(run them with `fidte cqr` or `fidte benchmark`)\n"
    )
    assert len(read_rows(tmp_path / "out" / "chain.csv")) == 1 + 3
    assert len(read_rows(tmp_path / "out" / "intervals.csv")) == 1 + 12


def test_pool_results_carry_no_chain(tmp_path):
    cfg = preset_config("linear_ate_n250", n_train=20, k_burn=2, m_keep=2, thin=1, n_batches=1)
    rep = _rep_worker((cfg, 0, None, str(tmp_path / "rep_000")))
    assert set(rep) == {"r", "rows", "pehe"}
    assert (tmp_path / "rep_000" / "intervals.csv").is_file()


def test_finished_replications_keep_their_files_when_a_later_one_fails(tmp_path, monkeypatch):
    # each replication writes its intervals.csv where it ran, as it finishes
    real = fidte.runner.run_replication

    def failing_second(config, r, *args):
        if r == 1:
            raise RuntimeError("replication 1: energy diverged at iteration 3: inf")
        return real(config, r, *args)

    monkeypatch.setattr(fidte.runner, "run_replication", failing_second)
    cfg = preset_config("linear_ate_n250", R=3, n_train=20, k_burn=2, m_keep=2, thin=1,
                        n_batches=1, outdir=str(tmp_path / "out"))
    with pytest.raises(RuntimeError, match="^replication 1: "):
        fidte.runner.run_experiment(cfg)
    alone = tmp_path / "alone.csv"
    write_rows_csv(real(cfg, 0, None)["rows"], alone)
    assert (tmp_path / "out" / "rep_000" / "intervals.csv").read_bytes() == alone.read_bytes()
    assert not (tmp_path / "out" / "rep_001" / "intervals.csv").exists()
    assert not (tmp_path / "out" / "summary.json").exists()


def cli_import_loads(module, then=""):
    # whether importing fidte.cli, then running the statements then, in a
    # fresh interpreter imports module
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    code = f"import sys, fidte.cli\n{then}\nsys.exit(int({module!r} in sys.modules))"
    return subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode != 0


def test_cli_import_leaves_scipy_out():
    assert not cli_import_loads("scipy")


def test_cli_import_leaves_multiprocessing_out():
    # only a run pooled over workers imports it
    assert not cli_import_loads("multiprocessing")


def test_generated_dataset_leaves_numpy_ma_out():
    # np.unique imports numpy.ma, and np.quantile calls it; the intervals
    # take their quantiles without it, so the treatment check's message is
    # its only caller
    assert cli_import_loads("numpy.ma", "np = fidte.cli.np; np.quantile(np.zeros(3), 0.5)")
    assert not cli_import_loads(
        "numpy.ma", "from fidte.datagen import generate; generate('example1', 50)"
    )


@pytest.mark.parametrize(
    "command, config",
    [
        ("benchmark", "preset: linear_ate_n250\nR: 1\nk_burn: 3\nm_keep: 4\nthin: 1\n"),
        ("fit", "preset: example1\nn_train: 30\nn_test: 12\ninit_iters: 2\n"
                "k_burn: 2\nm_keep: 3\nthin: 1\nn_batches: 1\n"),
    ],
    ids=["benchmark-linear_ate_n250", "fit-example1"],
)
def test_efi_commands_leave_numpy_ma_out(command, config, tmp_path):
    # both take ATE or ITE quantiles of the draws (about 1 MB resident)
    cfg = tmp_path / "tiny.yaml"
    cfg.write_text(config)
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    assert not cli_import_loads("numpy.ma", f"assert fidte.cli.main({argv!r}) == 0")
    assert (tmp_path / "out").is_dir()


def test_chain_csv_is_what_csv_writer_writes(tmp_path):
    # enough draws to cross two of the writer's chunk boundaries
    m = 2 * _CSV_ROWS + 5
    rng = np.random.default_rng(3)
    draws = rng.standard_normal((m, 6)) * np.logspace(-300, 300, 6)
    draws[:, -1] = rng.standard_normal(m)
    draws[0, :3] = (-0.0, 1.0, 1e16)
    chain = FiducialChain(draws=draws, energies=1e5 * rng.random(m), scaler=IDENTITY_SCALER,
                          layout=ThetaLayout(4))  # theta_dim 6, log sigma last
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow([f"theta_{j}" for j in range(6)] + ["sigma", "energy"])
        for k in range(chain.n_draws):
            wr.writerow(
                [repr(float(v)) for v in chain.draws[k]]
                + [repr(float(chain.sigmas[k])), repr(float(chain.energies[k]))]
            )
    cli.write_chain_csv(chain, str(tmp_path / "chain.csv"))
    assert (tmp_path / "chain.csv").read_bytes() == ref.read_bytes()


def short_cqr_fits(monkeypatch, adam_steps):
    # 20-step CQR fits; returns the pinball_fit calls
    adam_steps(20, 0.02)
    real_fit = fidte.cqr.pinball_fit
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(fidte.cqr, "pinball_fit", counted)
    return calls


def run_cqr(tmp_path, name, methods, extra=""):
    cfg = tmp_path / f"{name}.yaml"
    cfg.write_text(f"preset: example1\nn_train: 400\nn_test: 15\nalphas: [0.1, 0.2]\n{extra}"
                   f"methods: {json.dumps(methods)}\n")
    out = tmp_path / name
    assert cli.main(["cqr", "--config", str(cfg), "--out", str(out)]) == 0
    return out


def test_cqr_fits_each_replication_in_two_stages(tmp_path, monkeypatch, adam_steps):
    calls = short_cqr_fits(monkeypatch, adam_steps)
    run_cqr(tmp_path, "all", ["cqr-naive", "cqr-exact", "cqr-inexact"], extra="R: 2\n")
    # per replication: the arm bands of naive and fold 1 at both levels, then
    # inexact's endpoints at both levels
    assert len(calls) == 2 * 2


def test_cqr_rows_do_not_depend_on_method_order(tmp_path, monkeypatch, adam_steps):
    short_cqr_fits(monkeypatch, adam_steps)
    rows = {}
    for name, methods in (("ei", ["cqr-exact", "cqr-inexact"]),
                          ("ie", ["cqr-inexact", "cqr-exact"]),
                          ("e", ["cqr-exact"]), ("i", ["cqr-inexact"])):
        rows[name] = read_rows(run_cqr(tmp_path, name, methods) / "rep_000" / "intervals.csv")
    assert len(rows["ei"]) == 1 + 2 * 2 * 15
    assert sorted(rows["ei"][1:]) == sorted(rows["ie"][1:]) == sorted(rows["e"][1:] + rows["i"][1:])


@pytest.mark.parametrize(
    "methods, err",
    [
        (["efi", "cqr-naive"], "cqr runs the conformal baselines only; skipping efi "
                               "(run it with `fidte fit` or `fidte benchmark`)\n"),
        (["cqr-naive", "cqr-exact"], ""),
    ],
)
def test_cqr_says_it_skips_efi(methods, err, tmp_path, monkeypatch, capsys, adam_steps):
    calls = count_efi_calls(monkeypatch)
    short_cqr_fits(monkeypatch, adam_steps)
    out = run_cqr(tmp_path, "skip", methods, extra="R: 1\n")
    assert capsys.readouterr().err == err
    assert calls == []
    assert {row[0] for row in read_rows(out / "rep_000" / "intervals.csv")[1:]} == set(methods) - {"efi"}


def test_cqr_band_too_fine_for_the_rows_names_replication_and_alpha(tmp_path, monkeypatch, adam_steps):
    # 120 rows leave too few fold-1 calibration rows per arm for alpha / 2 = 0.025
    short_cqr_fits(monkeypatch, adam_steps)
    cfg = tmp_path / "fine.yaml"
    cfg.write_text('preset: example1\nn_train: 120\nR: 2\nmethods: ["cqr-naive", "cqr-inexact"]\n')
    with pytest.raises(ValueError, match=r"^replication 0: calibration at alpha 0\.05 returned an "
                                         r"infinite band"):
        cli.main(["cqr", "--config", str(cfg), "--out", str(tmp_path / "out")])


def test_seed_flag_is_checked_as_a_config_seed(tmp_path, capsys):
    # --seed replaces the loaded config's seed, and the config's checks run
    # again; a config that fails to load or check is one stderr line and
    # exit status 2, not a traceback
    bad_eta = tmp_path / "eta.yaml"
    bad_eta.write_text("preset: linear_ate_n250\neta: abc\n")
    out = tmp_path / "out"
    for args, message in [
        (["--config", "linear_ate_n250", "--seed", "-1"], "seed: must be nonnegative"),
        (["--config", str(bad_eta)], "eta: expected float, got 'abc'"),
        ([], "a --config file or preset name is required"),
        (["--config", "nope"], f"--config 'nope' is neither a file nor one of {sorted(PRESETS)}"),
    ]:
        with pytest.raises(SystemExit) as exc:
            cli.main(["benchmark", *args, "--out", str(out)])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"fidte: error: {message}\n"
        assert not out.exists()


def test_report_takes_only_its_path_and_out(tmp_path, capsys):
    intervals = tmp_path / "intervals.csv"
    intervals.write_text("method,alpha,subject_id,case,lower,upper,truth,covered\n"
                         "efi,0.05,-1,ATE,0.5,1.5,1.0,1\n")
    for option in (["--config", "linear_ate_n250"], ["--seed", "3"], ["--workers", "9"],
                   ["--paper-scale"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["report", *option, str(intervals)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    assert cli.main(["report", str(intervals)]) == 0
    assert json.loads(capsys.readouterr().out)["efi"]["0.05"]["ATE"]["coverage"] == 1.0


def test_single_replication_commands_say_they_ignore_workers(tmp_path, capsys):
    cfg = tmp_path / "one.yaml"
    cfg.write_text("preset: linear_ate_n250\nn_train: 20\nk_burn: 2\nm_keep: 2\nthin: 1\n"
                   "n_batches: 1\n")
    for command in ("simulate", "fit"):
        out = str(tmp_path / command)
        assert cli.main([command, "--config", str(cfg), "--out", out, "--workers", "2"]) == 0
        assert capsys.readouterr().err == (
            f"{command} handles one replication; ignoring --workers 2\n"
        )
        assert cli.main([command, "--config", str(cfg), "--out", out, "--workers", "1"]) == 0
        assert capsys.readouterr().err == ""


def test_commands_without_a_sampler_say_they_ignore_paper_scale(tmp_path, capsys, adam_steps):
    adam_steps(2, 0.02)
    cfg = tmp_path / "one.yaml"
    cfg.write_text("preset: example1\nn_train: 80\nn_test: 5\nk_burn: 2\nm_keep: 2\nthin: 1\n"
                   "init_iters: 2\nn_batches: 1\nR: 1\nalphas: [0.5]\n")
    # the flag adds its line to what a command says without it (fit and cqr
    # name the preset's methods they skip)
    for command, line in (("simulate", "simulate runs no sampler; ignoring --paper-scale\n"),
                          ("cqr", "cqr runs no sampler; ignoring --paper-scale\n"),
                          ("fit", ""), ("benchmark", "")):
        out = str(tmp_path / command)
        assert cli.main([command, "--config", str(cfg), "--out", out]) == 0
        err = capsys.readouterr().err
        assert "paper-scale" not in err
        assert cli.main([command, "--config", str(cfg), "--out", out, "--paper-scale"]) == 0
        assert capsys.readouterr().err == line + err


def test_summary_carries_per_case_blocks(tmp_path, monkeypatch, adam_steps):
    # EFI scores Ic, It and Im, CQR only Im; the summary keeps each case apart
    short_cqr_fits(monkeypatch, adam_steps)
    cfg = tmp_path / "cases.yaml"
    cfg.write_text("preset: example1\nR: 2\nn_train: 60\nn_test: 30\nalphas: [0.2]\n"
                   "init_iters: 2\nk_burn: 2\nm_keep: 4\nthin: 1\nn_batches: 1\n"
                   'methods: ["efi", "cqr-naive"]\n')
    out = tmp_path / "out"
    assert cli.main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert "paper_scale" not in summary["config"]  # a load directive, not a field
    efi = summary["methods"]["efi"]["alphas"]["0.2"]["per_case"]
    cqr = summary["methods"]["cqr-naive"]["alphas"]["0.2"]["per_case"]
    assert set(efi) == {"Ic", "It", "Im"} and set(cqr) == {"Im"}
    for block in (efi["Im"], cqr["Im"]):
        assert set(block) == {"coverage", "length"}
        assert 0.0 <= block["coverage"]["mean"] <= 1.0 and block["length"]["mean"] > 0.0
        assert block["coverage"]["sd"] is not None
    # the per-case numbers are those of the replications' interval files
    for method, cases in (("efi", efi), ("cqr-naive", cqr)):
        scores = [rescore(str(out / f"rep_{r:03d}" / "intervals.csv"))[method]["0.2"]["Im"]
                  for r in range(2)]
        assert cases["Im"]["length"]["mean"] == np.mean([sc["mean_length"] for sc in scores])
        assert cases["Im"]["coverage"]["mean"] == np.mean([sc["coverage"] for sc in scores])


def test_summary_scores_equal_the_rescored_files(tmp_path, monkeypatch, adam_steps):
    # summary.json and `fidte report` score through one score_rows: each
    # replication's pooled score, its cases' rows concatenated in the order
    # the cases first appear, and each case's mean and sd across
    # replications are, bit for bit, those of the written intervals.csv files
    short_cqr_fits(monkeypatch, adam_steps)
    cfg = tmp_path / "ex1.yaml"
    cfg.write_text("preset: example1\nR: 2\nn_train: 400\nn_test: 30\nalphas: [0.1, 0.2]\n"
                   "init_iters: 2\nk_burn: 2\nm_keep: 4\nthin: 1\nn_batches: 1\n")
    out = tmp_path / "out"
    assert cli.main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    files = [str(out / f"rep_{r:03d}" / "intervals.csv") for r in range(2)]
    pooled = []
    for path in files:
        pooled.append({})
        for method, block, truth in read_rows_csv(path):
            order = np.concatenate([np.flatnonzero(block.case == case)
                                    for case in dict.fromkeys(block.case.tolist())])
            pooled[-1][method, repr(block.alpha)] = score_rows(
                block.lower[order], block.upper[order], truth[order])
    rescored = [rescore(path) for path in files]
    spread = lambda values: {"mean": float(np.mean(values)), "sd": float(np.std(values, ddof=1))}
    checked = 0
    for method in PRESETS["example1"]["methods"]:
        for key in ("0.1", "0.2"):
            got = summary["methods"][method]["alphas"][key]
            assert got["per_replication"] == [
                {"r": r, "coverage": pooled[r][method, key]["coverage"],
                 "mean_length": pooled[r][method, key]["mean_length"]} for r in range(2)]
            cases = sorted(rescored[0][method][key])
            assert sorted(got["per_case"]) == cases == (["Im"] if method != "efi" else
                                                        ["Ic", "Im", "It"])
            for case in cases:
                scores = [rescored[r][method][key][case] for r in range(2)]
                assert got["per_case"][case] == {
                    "coverage": spread([sc["coverage"] for sc in scores]),
                    "length": spread([sc["mean_length"] for sc in scores])}
                checked += 1
    assert checked == 2 * (3 + 3)


def test_compare_cqr_child_scores_the_replication_rows(monkeypatch, adam_steps):
    # validate/compare_cqr.py's child reads run_replication's rows; a change
    # of their shape fails here, not when the script is next run
    path = os.path.join(os.path.dirname(SRC), "validate", "compare_cqr.py")
    spec = importlib.util.spec_from_file_location("compare_cqr", path)
    compare_cqr = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare_cqr)
    short_cqr_fits(monkeypatch, adam_steps)
    real, reps = fidte.runner.run_replication, []
    monkeypatch.setattr(fidte.runner, "run_replication",
                        lambda *args: reps.append(real(*args)) or reps[-1])
    got = compare_cqr.run_seeds(1, 1)
    expected = {}
    for method, block, truth in reps[0]["rows"]:
        s = score_rows(block.lower, block.upper, truth)
        expected.setdefault(method[len("cqr-"):], {})[repr(block.alpha)] = [
            s["mean_length"], s["coverage"]]
    assert got == {1: expected}
    assert sorted(expected) == sorted(compare_cqr.MODES)
    # rows of one interval per subject, as trees before interval blocks keep
    # them, score the same
    per_subject = [(method, SimpleNamespace(lower=lo, upper=hi, alpha=block.alpha), t)
                   for method, block, truth in reps[0]["rows"]
                   for lo, hi, t in zip(block.lower.tolist(), block.upper.tolist(), truth.tolist())]
    monkeypatch.setattr(fidte.runner, "run_replication", lambda *args: {"rows": per_subject})
    assert compare_cqr.run_seeds(1, 1) == got
    rows, skipped = compare_cqr.compare(got, got)
    assert skipped == [] and len(rows) == len(compare_cqr.MODES) * len(compare_cqr.ALPHAS)
    assert all(r["rel_length_change"] == r["coverage_change_diff"] == 0.0 for r in rows)


def test_replication_computes_chain_surfaces_once(monkeypatch):
    # every level's ITE intervals and the PEHE read one set of surfaces
    calls = []
    real = fidte.runner.draw_surfaces

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(fidte.runner, "draw_surfaces", counted)
    cfg = preset_config("example1", n_train=30, n_test=12, init_iters=2, k_burn=2, m_keep=3,
                        thin=1, n_batches=1, alphas=(0.1, 0.2), methods=("efi",))
    rep = fidte.runner.run_replication(cfg, 0, None)
    assert len(calls) == 1
    assert {repr(block.alpha) for _, block, _ in rep["rows"]} == {"0.1", "0.2"}
    assert rep["pehe"] >= 0.0


@pytest.mark.parametrize("command", ["simulate", "fit", "cqr", "benchmark"])
def test_workers_below_one_are_rejected(command, capsys):
    parser = cli.build_parser()
    assert parser.parse_args([command, "--workers", "2"]).workers == 2
    for value in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([command, "--workers", value])
        assert exc.value.code == 2
        assert f"--workers: must be >= 1, got {value}" in capsys.readouterr().err


def test_csv_n_batches_is_checked_against_the_file_rows(tmp_path, monkeypatch, capsys):
    data = tmp_path / "d.csv"
    save_dataset_csv(generate("linear_ate", 25, seed=1), data)
    csv_keys = dict(csv=str(data), csv_schema={"y": "y", "t": "t", "x": ["x1", "x2", "x3", "x4"]},
                    k_burn=2, m_keep=2, thin=1)
    # a csv run ignores n_train, so the config does not check n_batches against it
    ExperimentConfig(n_train=5, n_batches=25, **csv_keys)
    with pytest.raises(ValueError, match=r"n_batches: must be in \[1, training rows\], got 6"):
        preset_config("linear_ate_n250", n_train=5, n_batches=6)
    assert read_csv_rows(ExperimentConfig(n_batches=25, **csv_keys)).n == 25
    # more batches than the file has rows fails after the read, before any sampling
    calls = count_efi_calls(monkeypatch)
    cfg = tmp_path / "csv.yaml"
    cfg.write_text("".join(f"{k}: {json.dumps(v)}\n" for k, v in csv_keys.items())
                   + "n_batches: 1000\n")
    for command in ("fit", "benchmark"):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            f"fidte: error: n_batches: must be in [1, 25], the row count of {data}, got 1000\n"
        )
    assert calls == []
    assert not (tmp_path / "out").exists()


def test_csv_file_is_read_once_per_run(tmp_path, monkeypatch):
    data = tmp_path / "d.csv"
    save_dataset_csv(generate("linear_ate", 30, seed=2), data)
    schema = {"y": "y", "t": "t", "x": ["x1", "x2", "x3", "x4"]}
    cfg = ExperimentConfig(csv=str(data), csv_schema=schema, R=3, k_burn=4, m_keep=6, thin=2,
                           n_batches=1, seed=5, outdir=str(tmp_path / "out"))
    reads = []
    real = fidte.runner.load_csv_dataset

    def counted(*args, **kwargs):
        reads.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(fidte.runner, "load_csv_dataset", counted)
    fidte.runner.run_experiment(cfg)
    assert len(reads) == 1
    # each replication writes what it writes on rows read for it alone
    for r in range(3):
        alone = tmp_path / f"alone_{r}.csv"
        write_rows_csv(fidte.runner.run_replication(cfg, r, real(str(data), schema))["rows"], alone)
        shared = tmp_path / "out" / f"rep_{r:03d}" / "intervals.csv"
        assert alone.read_text() == shared.read_text()


def test_pooled_run_writes_what_a_serial_run_writes(tmp_path):
    # replication r draws everything from (seed, r), so two workers write the
    # serial run's interval files byte for byte and the same scores
    cfg = preset_config("linear_ate_n250", R=2, n_train=20, k_burn=4, m_keep=6, thin=2,
                        n_batches=1, seed=5)
    serial = fidte.runner.run_experiment(replace(cfg, outdir=str(tmp_path / "serial")))
    pooled = fidte.runner.run_experiment(replace(cfg, outdir=str(tmp_path / "pooled")), workers=2)
    for r in range(2):
        rep = f"rep_{r:03d}/intervals.csv"
        assert (tmp_path / "pooled" / rep).read_bytes() == (tmp_path / "serial" / rep).read_bytes()
    assert pooled["methods"] == serial["methods"]
    written = json.loads((tmp_path / "pooled" / "summary.json").read_text())
    assert written["methods"] == json.loads((tmp_path / "serial" / "summary.json").read_text())["methods"]


# a csv data file fidte cannot use: its text (None for no file, "dir" for a
# directory in its place) and the error line it gives
UNUSABLE_DATA = {
    "missing": (None, "csv file {path}: No such file or directory"),
    "directory": ("dir", "csv file {path}: Is a directory"),
    "missing-column": ("x1,t\n0.1,1\n", "csv file {path} is missing columns ['y']"),
    "non-numeric": ("x1,t,y\n0.1,1,1.5\n0.2,0,oops\n",
                    "non-numeric value 'oops' at line 3, column 'y'"),
    "non-binary-t": ("x1,t,y\n0.1,1,1.5\n0.2,2,0.5\n",
                     "treatment column 't' must be binary 0/1, got 2.0 at line 3"),
    "non-finite": ("x1,t,y\n0.1,1,1.5\n0.2,0,nan\n",
                   "non-finite value 'nan' at line 3, column 'y'"),
    "non-finite-x": ("x1,t,y\n0.1,1,1.5\n-inf,0,0.5\n",
                     "non-finite value '-inf' at line 3, column 'x1'"),
    "non-finite-t": ("x1,t,y\n0.1,1,1.5\n0.2,nan,0.5\n",
                     "non-finite value 'nan' at line 3, column 't'"),
    # a nan truth cell would drop the run's ATE truth (a constant tau_true)
    "non-finite-truth": ("x1,t,y,tau_true\n0.1,1,1.5,1\n0.2,0,0.5,nan\n0.3,1,0.2,1\n",
                         "non-finite value 'nan' at line 3, column 'tau_true'"),
    # no control row: the effect is not identified
    "one-arm": ("x1,t,y\n0.1,1,1.5\n0.2,1,0.5\n",
                "csv file {path}: treatment column 't' holds arm 1 only; an effect needs both arms"),
    "no-rows": ("x1,t,y\n", "csv file {path} holds no data rows"),
}


@pytest.mark.parametrize("command", ["fit", "benchmark"])
@pytest.mark.parametrize("case", list(UNUSABLE_DATA))
def test_unusable_csv_data_file_is_one_error_line(tmp_path, capsys, monkeypatch, command, case):
    data = tmp_path / "d.csv"
    text, message = UNUSABLE_DATA[case]
    if text == "dir":
        data.mkdir()
    elif text is not None:
        data.write_text(text)
    cfg = tmp_path / "csv.yaml"
    cfg.write_text(f"csv: {json.dumps(str(data))}\ncsv_schema: {{y: y, t: t, x: [x1]}}\n"
                   "k_burn: 2\nm_keep: 2\nthin: 1\nn_batches: 1\n")
    calls = count_efi_calls(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"fidte: error: {message.format(path=data)}\n"
    assert not (tmp_path / "out").exists() and calls == []


@pytest.mark.parametrize("case", ["missing", "directory", "missing-columns", "crossed-row"])
def test_unusable_intervals_file_is_one_error_line(tmp_path, capsys, case):
    path = tmp_path / "intervals.csv"
    message = {
        "missing": f"intervals file {path}: No such file or directory",
        "directory": f"intervals file {path}: Is a directory",
        "missing-columns": "intervals file is missing columns ['subject_id', 'truth', 'upper']",
        "crossed-row": "interval must have finite endpoints with lower <= upper, got (2.0, 1.0) "
                       "at line 2, column 'upper'",
    }[case]
    if case == "directory":
        path.mkdir()
    elif case == "missing-columns":
        path.write_text("method,alpha,case,lower\nefi,0.05,ATE,0.5\n")
    elif case == "crossed-row":
        # it would report a negative mean length
        path.write_text("method,alpha,subject_id,case,lower,upper,truth,covered\n"
                        "efi,0.05,0,Im,2.0,1.0,1.5,0\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["report", "--out", str(tmp_path / "out"), str(path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"fidte: error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_test_set_without_a_treated_row_fails_before_any_fit(tmp_path, monkeypatch):
    # the PEHE of example1's effect surface is taken over the treated test
    # rows; a one-row test set of a control fails before the CQR fits and
    # the sampler run, not after them
    seed = next(s for s in range(20)
                if generate("example1", 1, seed=replication_ints(s, 0)[1]).t[0] == 0)
    calls = count_efi_calls(monkeypatch)
    fits = []
    monkeypatch.setattr(fidte.runner, "fit_cqr", lambda *args: fits.append(1))
    cfg = tmp_path / "one.yaml"
    cfg.write_text(f"preset: example1\nn_train: 30\nn_test: 1\ninit_iters: 2\nk_burn: 2\n"
                   f"m_keep: 4\nthin: 1\nseed: {seed}\n")
    with pytest.raises(ValueError, match="^replication 0: no treated test units$"):
        cli.main(["benchmark", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert calls == [] and fits == []


def test_training_set_of_one_arm_fails_before_any_fit(tmp_path, monkeypatch):
    # a drawn training set of treated rows only cannot identify an effect;
    # it fails in the csv check's words before the CQR fits and the sampler
    seed = next(s for s in range(50)
                if generate("linear_ate", 4, seed=replication_ints(s, 0)[0]).t.sum() in (0, 4))
    arm = int(generate("linear_ate", 4, seed=replication_ints(seed, 0)[0]).t[0])
    calls = []
    monkeypatch.setattr(fidte.runner, "run_efi", lambda *args, **kw: calls.append(1))
    monkeypatch.setattr(fidte.runner, "fit_cqr", lambda *args: calls.append(1))
    cfg = tmp_path / "one.yaml"
    cfg.write_text(f"preset: linear_ate_n250\nn_train: 4\nn_batches: 1\nk_burn: 20\n"
                   f"m_keep: 40\nseed: {seed}\n")
    message = f"^replication 0: training set holds arm {arm} only; an effect needs both arms$"
    for command in ("fit", "benchmark"):
        with pytest.raises(ValueError, match=message):
            cli.main([command, "--config", str(cfg), "--out", str(tmp_path / command)])
    assert calls == []


@pytest.mark.parametrize("command", ["fit", "benchmark"])
def test_replication_that_fails_its_data_check_leaves_no_output_directory(tmp_path, command):
    # seed 4 draws four treated training rows; each directory is made at its
    # first write, so the failed check leaves none, trace file included
    cfg = tmp_path / "one.yaml"
    cfg.write_text("preset: linear_ate_n250\nn_train: 4\nn_batches: 1\nseed: 4\ntrace: true\n")
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="^replication 0: training set holds arm 1 only"):
        cli.main([command, "--config", str(cfg), "--out", str(out)])
    assert not out.exists()


def test_sampler_divergence_names_its_replication(monkeypatch):
    # run_efi reports a divergence as a RuntimeError; the replication that
    # ran it prefixes its index
    def diverging(*args, **kwargs):
        raise RuntimeError("energy diverged at iteration 3: inf")

    monkeypatch.setattr(fidte.runner, "run_efi", diverging)
    cfg = preset_config("linear_ate_n250", n_train=20, k_burn=2, m_keep=2, thin=1, n_batches=1)
    with pytest.raises(RuntimeError, match="^replication 1: energy diverged at iteration 3: inf$"):
        fidte.runner.run_replication(cfg, 1, None)


def test_error_inside_a_replication_keeps_its_traceback(tmp_path, monkeypatch):
    # only a file the command cannot use is one error line; a failing
    # replication raises as it did
    def failing(*args, **kwargs):
        raise ValueError("no draws")

    monkeypatch.setattr(fidte.runner, "run_efi", failing)
    with pytest.raises(ValueError, match="^replication 0: no draws$"):
        cli.main(["benchmark", "--config", "linear_ate_n250", "--out", str(tmp_path / "out")])
