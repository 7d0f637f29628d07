import re

import pytest

from fidte import cli
from fidte.config import PRESETS, ExperimentConfig, load_config, preset_config


def write_yaml(tmp_path, text):
    path = tmp_path / "config.yaml"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("paper_scale", [False, True])
def test_every_preset_loads(paper_scale):
    for name in PRESETS:
        cfg = preset_config(name, paper_scale=paper_scale)
        assert cfg.k_burn == PRESETS[name]["k_burn"] // (1 if paper_scale else 2)


def test_gamma_map_groups_must_match_layout(tmp_path):
    # the sampler needs a decay constant for every group of the layout and reads no other
    with pytest.raises(ValueError, match=r"needs groups \['c_head', 'rest', 'tau_head'\]"):
        preset_config("example2", gamma_map={"rest": 200000.0, "tau_head": 1e6})
    path = write_yaml(tmp_path, "preset: example1\ngamma_map: {rest: 200000, tau_haed: 20000}\n")
    with pytest.raises(ValueError, match="gamma_map: layout dnn_tau_linear_c needs groups"):
        load_config(path)
    with pytest.raises(ValueError, match="gamma_map"):
        preset_config("linear_ate_n250", gamma_map={"rest": 1e6, "tau_head": 1e6})
    with pytest.raises(ValueError, match="layout_kind"):
        preset_config("linear_ate_n250", layout_kind="dnn_three")


def test_schedule_multipliers_are_rejected_with_reason(tmp_path):
    pair = write_yaml(tmp_path, "preset: linear_ate_n250\ngamma_map: {rest: [54000, 1000000]}\n")
    with pytest.raises(ValueError, match="multipliers C were removed.*C cancels"):
        load_config(pair)
    upsilon = write_yaml(tmp_path, "preset: linear_ate_n250\nC_upsilon: 200000\n")
    with pytest.raises(ValueError, match="C_upsilon: the step-size multipliers C were removed"):
        load_config(upsilon)
    with pytest.raises(ValueError, match="removed"):
        ExperimentConfig(design="linear_ate", gamma_map={"rest": (54000.0, 1e6)})


def test_csv_config_without_test_set_is_rejected(tmp_path):
    csv_keys = dict(csv=str(tmp_path / "d.csv"), csv_schema={"y": "y", "t": "t", "x": ["x1"]})
    ExperimentConfig(**csv_keys)  # EFI on the linear layout needs no test set
    with pytest.raises(ValueError, match=r"\['cqr-naive'\] need a test set"):
        ExperimentConfig(methods=("efi", "cqr-naive"), **csv_keys)
    with pytest.raises(ValueError, match="csv config supports linear_ate only"):
        ExperimentConfig(
            layout_kind="dnn_tau_linear_c",
            gamma_map={"rest": 2e5, "tau_head": 2e4},
            **csv_keys,
        )


def test_efi_config_recording_no_draws_is_rejected(monkeypatch):
    with pytest.raises(ValueError, match="m_keep: 3 kept iterations at thin 5 record no draws"):
        preset_config("linear_ate_n250", m_keep=3, thin=5)
    # the budget is checked after desk-scale halving: 9 // 2 = 4 < 5
    monkeypatch.setitem(PRESETS, "tiny", dict(PRESETS["linear_ate_n250"], m_keep=9, thin=5))
    preset_config("tiny", paper_scale=True)
    with pytest.raises(ValueError, match="m_keep: 4 kept"):
        preset_config("tiny")
    # a baseline-only config never samples, so its chain budget is not checked
    preset_config("example1", methods=("cqr-naive",), m_keep=0)


def test_yaml_numbers_without_a_dot_load_as_numbers(tmp_path):
    # PyYAML reads 5e2 and 1e-1 as strings; the config parses them at load
    path = write_yaml(
        tmp_path,
        "preset: linear_ate_n250\neta: 5e2\neps: 1e-1\nk_burn: 1e2\nalphas: [5e-2]\n"
        "gamma_map: {rest: 1e6}\nclip_norm: null\n",
    )
    cfg = load_config(path)
    assert (cfg.eta, cfg.eps, cfg.k_burn, cfg.alphas) == (500.0, 0.1, 100, (0.05,))
    assert cfg.gamma_map == {"rest": 1e6} and cfg.clip_norm is None
    assert type(cfg.eta) is float and type(cfg.k_burn) is int


@pytest.mark.parametrize(
    "line, message",
    [
        ("eta: abc", "eta: expected float, got 'abc'"),
        ("k_burn: 2.5", "k_burn: expected int, got 2.5"),
        ("R: true", "R: expected int, got True"),
        ("trace: 1", "trace: expected bool, got 1"),
        ("alphas: [0.05, x]", "alphas: expected float, got 'x'"),
        ("gamma_map: {rest: fast}", "gamma_map.rest: expected float, got 'fast'"),
        ("paper_scale: 'no'", "paper_scale: expected bool, got 'no'"),
        ("eta: .nan", "eta: expected a finite number, got nan"),
        ("eps: inf", "eps: expected a finite number, got 'inf'"),
    ],
)
def test_scalar_that_does_not_convert_is_rejected_at_load(tmp_path, line, message):
    path = write_yaml(tmp_path, f"preset: linear_ate_n250\n{line}\n")
    with pytest.raises(ValueError, match=re.escape(message)):
        load_config(path)


@pytest.mark.parametrize(
    "line, message",
    [
        ("eps: 0", "eps: must be positive, got 0.0"),
        ("eta: -1", "eta: must be nonnegative, got -1.0"),
        ("varpi: 0", "varpi: must be in (0, 1], got 0.0"),
        ("varpi: 1.5", "varpi: must be in (0, 1], got 1.5"),
        ("alpha_exp: 1.5", "alpha_exp: must be in (0, 1), got 1.5"),
        ("c_upsilon: 0", "c_upsilon: must be positive, got 0.0"),
        ("clip_norm: 0", "clip_norm: must be positive or null, got 0.0"),
        ("clip_norm: -5", "clip_norm: must be positive or null, got -5.0"),
        ("out_scale: 0", "out_scale: must be positive, got 0.0"),
        ("inverse_widths: []", "inverse_widths: need hidden layers of width >= 1, got []"),
        ("tau_widths: [10, 0]", "tau_widths: need hidden layers of width >= 1, got [10, 0]"),
    ],
)
def test_sampler_value_out_of_range_is_rejected_at_load(tmp_path, line, message):
    # the sampler reads these fields; every subcommand that loads the config
    # rejects them before any data is drawn
    path = write_yaml(tmp_path, f"preset: example1\n{line}\n")
    with pytest.raises(ValueError, match=re.escape(message)):
        load_config(path)
    for command in ("fit", "cqr", "benchmark"):
        with pytest.raises(ValueError, match=re.escape(message)):
            cli.main([command, "--config", path, "--out", str(tmp_path / command)])
        assert not (tmp_path / command).exists()


def test_individual_effect_layout_without_test_set_is_rejected():
    # ITE intervals are built on the test set; without one the run would
    # sample and then fail
    with pytest.raises(ValueError, match="n_test: covariates-only methods and individual-effect"):
        preset_config("example1", methods=("efi",), n_test=0)
    with pytest.raises(ValueError, match="n_test"):
        preset_config("example1", methods=("cqr-naive",), n_test=0)
    preset_config("linear_ate_n250", n_test=0)  # one ATE interval needs no test set


def test_csv_schema_needs_y_t_and_x(tmp_path):
    for schema in (None, {"y": "y", "t": "t"}):
        with pytest.raises(ValueError, match="csv_schema: a csv config needs .* keys y, t and x"):
            ExperimentConfig(csv=str(tmp_path / "d.csv"), csv_schema=schema)
