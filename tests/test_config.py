import re

import pytest

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
