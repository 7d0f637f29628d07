import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import fidte.cqr
import fidte.runner
from fidte import cli
from fidte.config import ExperimentConfig, preset_config
from fidte.cqr import TrainConfig
from fidte.datagen import GenSpec, generate, save_dataset_csv
from fidte.runner import (
    _rep_worker,
    _replication_data,
    load_csv_dataset,
    read_csv_rows,
    replication_ints,
    rescore,
    write_rows_csv,
)

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


def test_truth_less_csv_run_scores_length_only(tmp_path):
    # a csv file without the simulation's truth columns: nothing to cover
    full = tmp_path / "full.csv"
    save_dataset_csv(generate(GenSpec("linear_ate", 40, seed=4)), full)
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


def test_pool_results_carry_no_chain():
    cfg = preset_config("linear_ate_n250", n_train=20, k_burn=2, m_keep=2, thin=1, n_batches=1)
    rep = _rep_worker((cfg, 0, None, None))
    assert set(rep) == {"r", "rows", "pehe"}


def test_cli_import_leaves_scipy_out():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    code = "import sys, fidte.cli; sys.exit(int('scipy' in sys.modules))"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def short_cqr_fits(monkeypatch):
    # the runner's cqr_ite with 20-step fits; returns the pinball_fit calls
    real_ite, real_fit = fidte.runner.cqr_ite, fidte.cqr.pinball_fit
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(
        fidte.runner, "cqr_ite", lambda *a, **k: real_ite(*a, config=TrainConfig(iters=20), **k)
    )
    monkeypatch.setattr(fidte.cqr, "pinball_fit", counted)
    return calls


def run_cqr(tmp_path, name, methods, extra=""):
    cfg = tmp_path / f"{name}.yaml"
    cfg.write_text(f"preset: example1\nn_train: 400\nn_test: 15\nalphas: [0.1, 0.2]\n{extra}"
                   f"methods: {json.dumps(methods)}\n")
    out = tmp_path / name
    assert cli.main(["cqr", "--config", str(cfg), "--out", str(out)]) == 0
    return out


def test_cqr_fits_fold_one_once_for_exact_and_inexact(tmp_path, monkeypatch):
    calls = short_cqr_fits(monkeypatch)
    run_cqr(tmp_path, "all", ["cqr-naive", "cqr-exact", "cqr-inexact"], extra="R: 2\n")
    # per replication and level: naive's fit and one fold-1 fit, not two
    assert len(calls) == 2 * 2 * 2


def test_cqr_rows_do_not_depend_on_method_order(tmp_path, monkeypatch):
    short_cqr_fits(monkeypatch)
    rows = {}
    for name, methods in (("ei", ["cqr-exact", "cqr-inexact"]),
                          ("ie", ["cqr-inexact", "cqr-exact"]),
                          ("e", ["cqr-exact"]), ("i", ["cqr-inexact"])):
        rows[name] = read_rows(run_cqr(tmp_path, name, methods) / "rep_000" / "intervals.csv")
    assert len(rows["ei"]) == 1 + 2 * 2 * 15
    assert sorted(rows["ei"][1:]) == sorted(rows["ie"][1:]) == sorted(rows["e"][1:] + rows["i"][1:])


def test_cqr_band_too_fine_for_the_rows_names_replication_and_alpha(tmp_path, monkeypatch):
    # 120 rows leave too few fold-1 calibration rows per arm for alpha / 2 = 0.025
    short_cqr_fits(monkeypatch)
    cfg = tmp_path / "fine.yaml"
    cfg.write_text('preset: example1\nn_train: 120\nR: 2\nmethods: ["cqr-naive", "cqr-inexact"]\n')
    with pytest.raises(ValueError, match=r"^replication 0: calibration at alpha 0\.05 returned an "
                                         r"infinite band"):
        cli.main(["cqr", "--config", str(cfg), "--out", str(tmp_path / "out")])


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


def test_summary_carries_per_case_blocks(tmp_path, monkeypatch):
    # EFI scores Ic, It and Im, CQR only Im; the summary keeps each case apart
    short_cqr_fits(monkeypatch)
    cfg = tmp_path / "cases.yaml"
    cfg.write_text("preset: example1\nR: 2\nn_train: 60\nn_test: 30\nalphas: [0.2]\n"
                   "init_iters: 2\nk_burn: 2\nm_keep: 4\nthin: 1\nn_batches: 1\n"
                   'methods: ["efi", "cqr-naive"]\n')
    out = tmp_path / "out"
    assert cli.main(["benchmark", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
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


def test_replication_computes_chain_surfaces_once(monkeypatch):
    # every level's ITE intervals and the PEHE read one set of surfaces
    calls = []
    real = fidte.runner.chain_surfaces

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(fidte.runner, "chain_surfaces", counted)
    cfg = preset_config("example1", n_train=30, n_test=12, init_iters=2, k_burn=2, m_keep=3,
                        thin=1, n_batches=1, alphas=(0.1, 0.2), methods=("efi",))
    rep = fidte.runner.run_replication(cfg, 0, None)
    assert len(calls) == 1
    assert {repr(iv.alpha) for _, iv, _ in rep["rows"]} == {"0.1", "0.2"}
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


def test_csv_n_batches_is_checked_against_the_file_rows(tmp_path, monkeypatch):
    data = tmp_path / "d.csv"
    save_dataset_csv(generate(GenSpec("linear_ate", 25, seed=1)), data)
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
    with pytest.raises(ValueError, match=r"^n_batches: must be in \[1, 25\], "
                                         r"the row count of .*d\.csv, got 1000$"):
        cli.main(["fit", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert calls == []


def test_csv_file_is_read_once_per_run(tmp_path, monkeypatch):
    data = tmp_path / "d.csv"
    save_dataset_csv(generate(GenSpec("linear_ate", 30, seed=2)), data)
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
