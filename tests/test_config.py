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
