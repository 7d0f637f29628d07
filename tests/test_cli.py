import csv
import json
import os
import subprocess
import sys

import numpy as np

import fidte.cqr
import fidte.runner
from fidte import cli
from fidte.config import preset_config
from fidte.cqr import TrainConfig
from fidte.runner import _rep_worker, _replication_data, load_csv_dataset, replication_ints, rescore

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
    assert summary["replications"] == 2 and summary["config"]["gamma_map"] == {"rest": 1e6}
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
    assert cli.main(["report", "--config", str(cfg), "--out", str(report), intervals]) == 0
    scores = json.loads((report / "report.json").read_text())
    assert scores == rescore(intervals)
    assert scores["efi"]["0.05"]["ATE"]["n"] == 1


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
    rep = _rep_worker((cfg, 0, None))
    assert set(rep) == {"r", "metrics", "rows"}


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
