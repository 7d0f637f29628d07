import importlib.util
import re
from dataclasses import fields
from pathlib import Path

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


def test_paper_scale_is_a_load_directive_not_a_field(tmp_path, capsys):
    # paper_scale chooses a preset's budgets at load; the config keeps the
    # budgets it chose, not the directive
    names = [f.name for f in fields(ExperimentConfig)]
    assert len(names) == 19 and "paper_scale" not in names
    with pytest.raises(TypeError, match="paper_scale"):
        ExperimentConfig(design="linear_ate", paper_scale=True)
    full = PRESETS["linear_ate_n250"]["k_burn"]
    assert load_config(write_yaml(tmp_path, "preset: linear_ate_n250\npaper_scale: true\n")).k_burn == full
    path = write_yaml(tmp_path, "preset: linear_ate_n250\npaper_scale: false\n")
    assert load_config(path).k_burn == full // 2
    assert load_config(path, paper_scale=True).k_burn == full
    # a config without a preset has no preset budgets, so the key or the
    # flag would be ignored; each fails at load instead
    for text, flag in [("paper_scale: true\n", None), ("paper_scale: false\n", None), ("", True)]:
        path = write_yaml(tmp_path, f"design: linear_ate\nk_burn: 4\n{text}")
        with pytest.raises(ValueError, match=r"^paper_scale: .*config\.yaml names no preset"):
            load_config(path, paper_scale=flag)
    with pytest.raises(SystemExit) as exc:
        cli.main(["fit", "--config", path, "--paper-scale", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        f"fidte: error: paper_scale: {path} names no preset, so it has no budgets to scale\n"
    )
    assert not (tmp_path / "out").exists()


def test_step_schedule_keys_are_unknown(tmp_path):
    # the sampler holds its steps at their start-state anchors; no key sets them
    for name, value in [
        ("c_upsilon", "1000000"), ("gamma_map", "{rest: 200000}"),
        ("alpha_exp", "0.1428"), ("C_upsilon", "200000"),
    ]:
        path = write_yaml(tmp_path, f"preset: example1\n{name}: {value}\n")
        with pytest.raises(ValueError, match=f"^{name}: unknown config field$"):
            load_config(path)


def test_out_scale_is_an_unknown_field(tmp_path):
    # the inverse network's head scale is the engine constant OUT_SCALE, and
    # the latent momentum and early weight clip are sampler constants
    for name, value in [("out_scale", 0.04), ("varpi", 0.1), ("clip_norm", 5000.0),
                        ("clip_iters", 100)]:
        for head in ("preset: example1\n", "design: linear_ate\n"):
            path = write_yaml(tmp_path, f"{head}{name}: {value}\n")
            with pytest.raises(ValueError, match=f"^{name}: unknown config field$"):
                load_config(path)
        # a Python caller's keyword override gets the same check as a file key
        with pytest.raises(ValueError, match=f"^{name}: unknown config field$"):
            preset_config("example1", **{name: value})


def test_inverse_widths_is_an_unknown_field(tmp_path, capsys):
    # every run's inverse network has the hidden widths sampler.INVERSE_WIDTHS
    for head in ("preset: example1\n", "design: linear_ate\n"):
        path = write_yaml(tmp_path, f"{head}inverse_widths: [90, 30]\n")
        with pytest.raises(ValueError, match="^inverse_widths: unknown config field$"):
            load_config(path)
    with pytest.raises(ValueError, match="^inverse_widths: unknown config field$"):
        preset_config("example1", inverse_widths=(90, 30))
    with pytest.raises(SystemExit) as exc:
        cli.main(["fit", "--config", path, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert capsys.readouterr().err == "fidte: error: inverse_widths: unknown config field\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["yaml-syntax", "directory"])
def test_config_file_that_cannot_be_read_or_parsed_is_one_error_line(tmp_path, capsys, case):
    # a YAML syntax error or a path that is no readable file is named on one
    # stderr line with exit status 2, not a traceback
    if case == "yaml-syntax":
        path = write_yaml(tmp_path, "eta: [1")
        message = f"config file {path} is not valid YAML: while parsing a flow sequence"
    else:
        path = str(tmp_path)
        message = f"config file {path}: Is a directory"
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        load_config(path)
    for command in ("simulate", "fit", "benchmark"):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", path, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"fidte: error: {message}") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, value", [("layout_kind", "dnn_both"), ("c_widths", [10, 10])],
                         ids=["layout_kind", "c_widths"])
def test_model_choice_keys_are_unknown_fields(tmp_path, capsys, name, value):
    # the design chooses the model, and a c network has the widths sampler.C_WIDTHS
    for head in ("preset: example2\n", "design: example2\nn_test: 5\n"):
        path = write_yaml(tmp_path, f"{head}{name}: {value}\n")
        with pytest.raises(ValueError, match=f"^{name}: unknown config field$"):
            load_config(path)
    with pytest.raises(ValueError, match=f"^{name}: unknown config field$"):
        preset_config("example2", **{name: value})
    with pytest.raises(SystemExit) as exc:
        cli.main(["fit", "--config", path, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"fidte: error: {name}: unknown config field\n"
    assert not (tmp_path / "out").exists()


def test_csv_config_without_test_set_is_rejected(tmp_path):
    csv_keys = dict(csv=str(tmp_path / "d.csv"), csv_schema={"y": "y", "t": "t", "x": ["x1"]})
    ExperimentConfig(**csv_keys)  # EFI on the linear model needs no test set
    with pytest.raises(ValueError, match=r"\['cqr-naive'\] need a test set"):
        ExperimentConfig(methods=("efi", "cqr-naive"), **csv_keys)


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
        "csv: null\n",
    )
    cfg = load_config(path)
    assert (cfg.eta, cfg.eps, cfg.k_burn, cfg.alphas) == (500.0, 0.1, 100, (0.05,))
    assert cfg.csv is None
    assert type(cfg.eta) is float and type(cfg.k_burn) is int
    # a Python caller's keyword overrides are coerced as file keys are
    cfg = preset_config("example1", eta="5e2", tau_widths=[20, 20], R=2.0)
    assert (cfg.eta, cfg.tau_widths, cfg.R) == (500.0, (20, 20), 2)
    assert type(cfg.R) is int
    with pytest.raises(ValueError, match="^R: expected int, got 2.5$"):
        preset_config("example1", R=2.5)


@pytest.mark.parametrize(
    "line, message",
    [
        ("eta: abc", "eta: expected float, got 'abc'"),
        ("k_burn: 2.5", "k_burn: expected int, got 2.5"),
        ("R: true", "R: expected int, got True"),
        ("trace: 1", "trace: expected bool, got 1"),
        ("alphas: [0.05, x]", "alphas: expected float, got 'x'"),
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
        ("tau_widths: [10, 0]", "tau_widths: need hidden layers of width >= 1, got [10, 0]"),
        ("seed: -1", "seed: must be nonnegative"),
        # a repeat would write its rows twice, and the summary would score them as one
        ("alphas: [0.1, 0.10]", "alphas: repeated entry in [0.1, 0.1]"),
        ("methods: [efi, cqr-naive, cqr-naive]",
         "methods: repeated entry in ['efi', 'cqr-naive', 'cqr-naive']"),
    ],
)
def test_sampler_value_out_of_range_is_rejected_at_load(tmp_path, capsys, line, message):
    # every subcommand that loads the config rejects these values before any
    # data is drawn, with the message on one stderr line and exit status 2
    path = write_yaml(tmp_path, f"preset: example1\n{line}\n")
    with pytest.raises(ValueError, match=re.escape(message)):
        load_config(path)
    for command in ("fit", "cqr", "benchmark"):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", path, "--out", str(tmp_path / command)])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"fidte: error: {message}\n"
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


def test_csv_config_reads_no_n_train(tmp_path):
    # a csv run's rows are the file's, so n_train is checked on design configs only
    csv_keys = dict(csv=str(tmp_path / "d.csv"), csv_schema={"y": "y", "t": "t", "x": ["x1"]})
    assert ExperimentConfig(n_train=1, **csv_keys).n_train == 1
    with pytest.raises(ValueError, match="n_train: must be >= 2, got 1"):
        ExperimentConfig(design="linear_ate", n_train=1, n_batches=1)


def test_csv_config_rejects_given_row_counts(tmp_path):
    # a csv run's rows are its file's, so a given n_train or n_test would be ignored
    csv_lines = f"csv: {tmp_path / 'd.csv'}\ncsv_schema: {{y: y, t: t, x: [x1]}}\n"
    for key in ("n_train", "n_test"):
        path = write_yaml(tmp_path, csv_lines + f"{key}: 100\n")
        with pytest.raises(ValueError, match=f"^{key}: a csv config takes its rows from its file"):
            load_config(path)
        with pytest.raises(ValueError, match=f"^{key}: a csv config"):
            preset_config("linear_ate_n250", design=None, csv=str(tmp_path / "d.csv"),
                          csv_schema={"y": "y", "t": "t", "x": ["x1"]}, **{key: 100})
    # without them the config loads, as does a design config that gives both
    assert load_config(write_yaml(tmp_path, csv_lines)).csv == str(tmp_path / "d.csv")
    assert preset_config("linear_ate_n250", design=None, csv=str(tmp_path / "d.csv"),
                         csv_schema={"y": "y", "t": "t", "x": ["x1"]}).csv is not None
    design = write_yaml(tmp_path, "design: linear_ate\nn_train: 100\nn_test: 5\n")
    assert load_config(design).n_test == 5


def test_widths_of_a_network_the_layout_lacks_are_rejected(tmp_path, capsys):
    # tau_widths on a model with no tau network fails at load, naming the data source
    message = "tau_widths: the model of design linear_ate has no tau network"
    with pytest.raises(ValueError, match=f"^{message}$"):
        preset_config("linear_ate_n250", tau_widths=(3,))
    bare = write_yaml(tmp_path, "design: linear_ate\ntau_widths: [4]\n")
    with pytest.raises(ValueError, match=f"^{message}$"):
        load_config(bare)
    data = tmp_path / "d.csv"
    path = write_yaml(tmp_path, f"csv: {data}\ncsv_schema: {{y: y, t: t, x: [x1]}}\n"
                                "tau_widths: [4]\n")
    csv_message = f"tau_widths: the model of csv file {data} has no tau network"
    with pytest.raises(ValueError, match=f"^{re.escape(csv_message)}$"):
        load_config(path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["fit", "--config", path, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"fidte: error: {csv_message}\n"
    assert not (tmp_path / "out").exists()
    # the widths of a model's own tau network load, and the default stays as it is
    assert preset_config("example1", tau_widths=(5,)).tau_widths == (5,)
    assert preset_config("example2", tau_widths=(5,)).tau_widths == (5,)
    assert preset_config("example2").tau_widths == (10, 10)


def test_csv_schema_lone_x_column_is_a_one_item_list(tmp_path):
    # a lone name is one column, as a lone value of a tuple field is one item
    path = write_yaml(tmp_path, f"csv: {tmp_path / 'd.csv'}\ncsv_schema: {{y: y, t: t, x: x1}}\n")
    assert load_config(path).csv_schema == {"y": "y", "t": "t", "x": ["x1"]}
    cfg = preset_config("linear_ate_n250", design=None, csv=str(tmp_path / "d.csv"),
                        csv_schema={"y": "y", "t": "t", "x": ("x1", "x2")})
    assert cfg.csv_schema["x"] == ["x1", "x2"]


@pytest.mark.parametrize(
    "schema, message",
    [
        ("{y: [y], t: t, x: [x1]}", "csv_schema: y must be a column name, got ['y']"),
        ("{y: y, t: 1, x: [x1]}", "csv_schema: t must be a column name, got 1"),
        ("{y: y, t: t, x: [x1, 2]}", "csv_schema: x must be one or more column names, got ['x1', 2]"),
        ("{y: y, t: t, x: {a: b}}", "csv_schema: x must be one or more column names, got {'a': 'b'}"),
        ("{y: y, t: t, x: []}", "csv_schema: x must be one or more column names, got []"),
        ("{y: y, t: t}", "csv_schema: expected a mapping with keys y, t and x, got {'y': 'y', 't': 't'}"),
        ("{y: y, t: t, x: [x1], w: w}",
         "csv_schema: expected a mapping with keys y, t and x, got {'y': 'y', 't': 't', 'x': ['x1'], 'w': 'w'}"),
        ("[y, t, x]", "csv_schema: expected a mapping with keys y, t and x, got ['y', 't', 'x']"),
    ],
    ids=["y-list", "t-number", "x-number", "x-mapping", "x-empty", "missing-key", "extra-key",
         "list"],
)
def test_csv_schema_that_names_no_columns_is_rejected_at_load(tmp_path, capsys, schema, message):
    # each fails at load, before any file is read: one error line, exit status 2
    path = write_yaml(tmp_path, f"csv: {tmp_path / 'd.csv'}\ncsv_schema: {schema}\n")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_config(path)
    for command in ("fit", "benchmark"):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", path, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"fidte: error: {message}\n"
        assert not (tmp_path / "out").exists()


def test_validate_script_configs_load(tmp_path):
    # validate/same_outputs.py writes its configs with write_config; a field
    # removal that breaks one fails here, not when the script is next run
    path = Path(__file__).resolve().parents[1] / "validate" / "same_outputs.py"
    spec = importlib.util.spec_from_file_location("same_outputs", path)
    same_outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(same_outputs)
    for name, _, keys in same_outputs.COMMANDS:
        cfg_path = tmp_path / f"{name}.yaml"
        same_outputs.write_config(str(cfg_path), keys, seed=1)
        cfg = load_config(str(cfg_path))
        assert cfg.seed == 1
        for key, value in keys.items():
            if key != "preset":
                assert getattr(cfg, key) == (tuple(value) if isinstance(value, list) else value)
