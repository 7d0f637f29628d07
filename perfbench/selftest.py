"""Tests of the benchmark's own pieces at tiny budgets.

Run with:  python3 -m pytest -q perfbench/selftest.py
(The file name keeps it out of the repository's default test collection.)
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

from checks import check_chain, check_intervals, digest  # noqa: E402
from run import (  # noqa: E402
    E2E_UNITS, Workload, aggregate, child_env, run_command, unit_of, write_config,
)
from tracer import FULL_POINTS, Tracer, layer_metrics, nn_role, summarize  # noqa: E402

import child  # noqa: E402
import fidte.cli  # noqa: E402
from fidte.nn import MlpSpec, mlp_init  # noqa: E402


def _run_traced(tmp_path, subcommand, config: dict):
    cfg = tmp_path / "config.yaml"
    write_config(Workload("tiny", subcommand, config), 3, str(cfg))
    tracer = Tracer()
    tracer.install(FULL_POINTS)
    try:
        rc = fidte.cli.main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "out")])
    finally:
        tracer.restore()
    assert rc == 0
    return summarize(tracer.spans)


def test_tracer_restores_every_wrapped_name():
    originals = {}
    for mod_name, attr, _, _ in FULL_POINTS:
        module = importlib.import_module(mod_name)
        originals[(mod_name, attr)] = getattr(module, attr)
    tracer = Tracer()
    tracer.install(FULL_POINTS)
    try:
        for (mod_name, attr), fn in originals.items():
            wrapped = getattr(importlib.import_module(mod_name), attr)
            assert wrapped is not fn and wrapped.__wrapped__ is fn
    finally:
        tracer.restore()
    for (mod_name, attr), fn in originals.items():
        assert getattr(importlib.import_module(mod_name), attr) is fn


def test_self_time_subtracts_direct_children():
    spans = [
        ("sampler.run_efi", 0.0, 10.0, -1, 4),
        ("engine.z_pass", 1.0, 5.0, 0, None),
        ("nn.inv_forward", 2.0, 3.0, 1, None),
        ("engine.z_pass", 6.0, 8.0, 0, None),
        ("inference.ite", 11.0, 12.0, -1, None),
    ]
    s = summarize(spans)
    assert s["sampler.run_efi"]["self_s"] == pytest.approx(4.0)
    assert s["engine.z_pass"]["count"] == 2
    assert s["engine.z_pass"]["self_s"] == pytest.approx(5.0)
    assert s["engine.z_pass"]["efi_count"] == 2
    assert s["inference.ite"]["efi_count"] == 0
    m = layer_metrics(s)
    assert m["engine.z_pass_ms"] == pytest.approx(3000.0)
    assert m["sampler.self_ms_per_iter"] == pytest.approx(1000.0)
    assert m["engine.passes_per_iter"] == pytest.approx(0.5)
    assert m["nn.calls_per_iter"] == pytest.approx(0.25)


def test_reported_metrics_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == E2E_UNITS
    layers = set(layer_metrics({})) | {"setup.import_s", "io.bytes_written", "trace.overhead_s"}
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {n: unit_of(n) for n in layers}


def test_nn_roles_follow_output_width():
    def params(width):
        return mlp_init(MlpSpec((3, 4, width)))

    assert [nn_role(params(w)) for w in (1, 2, 7, 363)] == ["model", "q", "inv", "inv"]


def test_linear_benchmark_counts_are_exact(tmp_path):
    burn, keep, thin = 4, 6, 2
    s = _run_traced(tmp_path, "benchmark", {
        "preset": "linear_ate_n250", "R": 2, "n_train": 40, "k_burn": burn,
        "m_keep": keep, "thin": thin,
    })
    m = layer_metrics(s)
    assert m["runner.efi_calls"] == 2
    # per iteration: a z pass and a w pass; plus one record per kept draw
    assert m["engine.passes_per_iter"] == pytest.approx((2 * (burn + keep) + keep // thin) / (burn + keep))
    # each pass is one inverse forward and one backward; a record one forward
    assert m["nn.calls_per_iter"] == pytest.approx((4 * (burn + keep) + keep // thin) / (burn + keep))
    assert s["inference.ate"]["count"] == 2
    assert m["nn.model_forward_ms"] == 0.0 and m["nn.q_forward_ms"] == 0.0


def test_fit_labels_inverse_and_data_model_calls(tmp_path):
    s = _run_traced(tmp_path, "fit", {
        "preset": "example2", "n_train": 30, "n_test": 12, "init_iters": 1,
        "k_burn": 1, "m_keep": 2, "thin": 1, "n_batches": 1,
    })
    m = layer_metrics(s)
    for name in ("nn.inv_forward_ms", "nn.inv_backward_ms",
                 "nn.model_forward_ms", "nn.model_backward_ms",
                 "engine.z_pass_ms", "engine.w_pass_ms", "inference.ite_ms"):
        assert m[name] > 0.0, name
    assert m["nn.q_forward_ms"] == 0.0
    assert s["sampler.run_efi"]["meta"] == m["runner.efi_calls"] * 4


def _write_intervals(path, rows):
    lines = ["method,alpha,subject_id,case,lower,upper,truth,covered"]
    lines += [f"{m},0.05,{i},{c},{lo},{hi},0.0,1" for m, i, c, lo, hi in rows]
    path.write_text("\n".join(lines) + "\n")


GOOD = [("cqr-naive", 0, "Im", -1.0, 1.0), ("cqr-naive", 1, "Im", -2.0, 0.5),
        ("cqr-exact", 0, "Im", -1.5, 1.0), ("cqr-exact", 1, "Im", 0.0, 0.0)]
METHODS = ["cqr-naive", "cqr-exact"]


def test_checks_accept_good_intervals(tmp_path):
    path = tmp_path / "intervals.csv"
    _write_intervals(path, GOOD)
    assert check_intervals(str(path), METHODS, n_test=2) == []
    _write_intervals(path, [("efi", -1, "ATE", 0.1, 0.4)])
    assert check_intervals(str(path), ["efi"], n_test=0) == []


@pytest.mark.parametrize("corrupt", [
    lambda rows: [rows[0][:3] + (1.0, -1.0)] + rows[1:],        # lower > upper
    lambda rows: [rows[0][:3] + ("nan", 1.0)] + rows[1:],       # non-finite
    lambda rows: [rows[0][:4] + ("inf",)] + rows[1:],           # non-finite
    lambda rows: rows[:-1],                                     # missing row
    lambda rows: rows + rows[:1],                               # duplicate row
    lambda rows: [("cqr-naive", 5, "Im", 0.0, 1.0)] + rows[1:],  # unknown subject
])
def test_checks_reject_corrupted_intervals(tmp_path, corrupt):
    path = tmp_path / "intervals.csv"
    _write_intervals(path, corrupt(list(GOOD)))
    assert check_intervals(str(path), METHODS, n_test=2)


def test_checks_reject_bad_chain(tmp_path):
    path = tmp_path / "chain.csv"
    path.write_text("theta_0,sigma,energy\n0.1,0.5,3.0\n0.2,0.7,2.0\n")
    assert check_chain(str(path), 2) == []
    assert check_chain(str(path), 3)
    path.write_text("theta_0,sigma,energy\n0.1,0.0,3.0\n0.2,0.7,nan\n")
    assert len(check_chain(str(path), 2)) == 2


def test_digest_ignores_digits_beyond_rounding(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    _write_intervals(a, GOOD)
    _write_intervals(b, [r[:3] + (r[3] * (1 + 1e-13), r[4]) for r in GOOD])
    assert digest([str(a)]) == digest([str(b)])
    _write_intervals(b, [r[:3] + (r[3] * (1 + 1e-6), r[4]) for r in GOOD])
    assert digest([str(a)]) != digest([str(b)])


def test_run_refuses_a_directory_without_fidte(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "ate_n250",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_child_turns_divergence_into_exit_code(tmp_path, monkeypatch):
    def diverge(argv):
        raise RuntimeError("energy diverged at iteration 7: nan")

    monkeypatch.setattr(fidte.cli, "main", diverge)
    out = tmp_path / "result.json"
    assert child.main([str(out), "0", "--", "fit"]) == child.DIVERGED
    assert json.loads(out.read_text())["error"].startswith("RuntimeError: energy diverged")


def test_failed_commands_add_no_timings(tmp_path):
    root = os.path.dirname(HERE)
    bad = Workload("bad", "benchmark", {"preset": "linear_ate_n250", "R": 1, "n_test": 0,
                                        "methods": ["no-such-method"]})
    cfg = tmp_path / "config.yaml"
    write_config(bad, 0, str(cfg))
    rec = run_command(bad, root, str(tmp_path), str(cfg), 0, False, child_env(root), timeout=60)
    assert rec["failure"].startswith("exit ")
    good = {"traced": False, "wall_s": 2.0, "setup_s": 1.0, "peak_rss_mb": 80.0}
    assert aggregate([rec, good], trace=False)["wall_s"] == 2.0
    assert aggregate([rec], trace=False) == {}
