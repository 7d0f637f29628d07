"""Experiment configuration: presets, config files, validation.

ExperimentConfig is the one description of a run: the data source
(simulation design or CSV), the model layout, the sampler's eps, eta and
budgets, the methods to run, and the output location.  The runner hands it
to sampler.run_efi as it is; no second config is derived from it.  Presets
carry the published constants for the simulation studies except the
step-size schedules: the sampler holds each step constant at an anchor it
measures at its start state, so no step size is settable.  What no run
varies is a constant: the sampler's momentum and early weight clip, and the
CQR fits' Adam steps and rate (see sampler and cqr).  Iteration budgets
are halved at load time unless paper scale is requested, so a default run
finishes on a desk machine while --paper-scale runs the full budgets.  Every
check on a config value is made when the config is built, so a bad value
fails under every subcommand before any data is drawn or sampler run, with a
message naming its field.  LAYOUT_GROUPS is the table of layout kinds and
the surfaces each learns with a network; runner.build_layout turns a kind
into the engine.ThetaLayout it stands for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

import yaml

VALID_METHODS = ("efi", "cqr-naive", "cqr-exact", "cqr-inexact")
VALID_DESIGNS = ("linear_ate", "example1", "example2")

# iteration-budget fields subject to desk-scale halving
_BUDGET_FIELDS = ("k_burn", "m_keep", "init_iters")

# The surfaces, tau(x) and c(x), each layout_kind learns with a network; a
# surface not named is linear (c) or constant (tau).
LAYOUT_GROUPS = {
    "linear_ate": (),
    "dnn_tau_linear_c": ("tau",),
    "dnn_both": ("tau", "c"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark run, fully specified.

    Either design (with n_train / n_test) or csv + csv_schema must be set;
    a csv config has no test set, so it runs EFI on the linear_ate layout
    only, and its rows are the file's (a config file or preset override that
    gives it n_train or n_test is rejected).  k_burn / m_keep / init_iters
    are the counts actually run; presets fill them at the requested scale.
    n_batches is the weight-update minibatch count per epoch (batch size =
    rows // n_batches, rows being n_train or the csv file's; 1 = full
    batch).  eps is the noise budget and eta the consensus weight; the
    step sizes, the latent momentum and the weight clip are not fields (see
    sampler).  tau_widths and c_widths are the hidden widths of the
    effect and control networks, read only by a layout that has them.
    """

    design: Optional[str] = None
    csv: Optional[str] = None
    csv_schema: Optional[dict] = None
    R: int = 1
    n_train: int = 250
    n_test: int = 0
    layout_kind: str = "linear_ate"
    tau_widths: tuple = (10, 10)
    c_widths: tuple = (10, 10)
    inverse_widths: tuple = (90, 30)
    eta: float = 500.0
    eps: float = 0.1
    k_burn: int = 5000
    m_keep: int = 50000
    thin: int = 5
    n_batches: int = 5
    init_iters: int = 0
    alphas: tuple = (0.05,)
    methods: tuple = ("efi",)
    seed: int = 0
    outdir: str = "out"
    paper_scale: bool = False
    trace: bool = False

    def __post_init__(self):
        if (self.design is None) == (self.csv is None):
            raise ValueError("config needs exactly one of design or csv")
        if self.design is not None and self.design not in VALID_DESIGNS:
            raise ValueError(
                f"design: unknown design {self.design!r}, expected one of {VALID_DESIGNS}"
            )
        if self.csv is not None and not {"y", "t", "x"} <= set(self.csv_schema or {}):
            raise ValueError("csv_schema: a csv config needs a mapping with keys y, t and x")
        if self.layout_kind not in LAYOUT_GROUPS:
            raise ValueError(
                f"layout_kind: unknown layout {self.layout_kind!r}, "
                f"expected one of {sorted(LAYOUT_GROUPS)}"
            )
        if not self.eps > 0:
            raise ValueError(f"eps: must be positive, got {self.eps}")
        if self.eta < 0:
            raise ValueError(f"eta: must be nonnegative, got {self.eta}")
        for name in ("tau_widths", "c_widths", "inverse_widths"):
            widths = list(getattr(self, name))
            if not widths or min(widths) < 1:
                raise ValueError(f"{name}: need hidden layers of width >= 1, got {widths}")
        if self.R < 1:
            raise ValueError(f"R: must be >= 1, got {self.R}")
        if not self.methods:
            raise ValueError("methods: must not be empty")
        for m in self.methods:
            if m not in VALID_METHODS:
                raise ValueError(f"methods: unknown method {m!r}, expected subset of {VALID_METHODS}")
        needs_test = self.layout_kind != "linear_ate" or any(m != "efi" for m in self.methods)
        if needs_test and self.n_test < 1 and self.design is not None:
            raise ValueError(
                "n_test: covariates-only methods and individual-effect layouts "
                "need a test set (n_test >= 1)"
            )
        if self.csv is not None:
            # a csv file is the training set; nothing supplies a test set
            cqr = [m for m in self.methods if m != "efi"]
            if cqr:
                raise ValueError(f"methods: {cqr} need a test set, which a csv config lacks")
            if self.layout_kind != "linear_ate":
                raise ValueError(
                    f"layout_kind: {self.layout_kind} gives individual-effect intervals, "
                    "which need a test set; a csv config supports linear_ate only"
                )
        if not self.alphas or any(not 0.0 < a < 1.0 for a in self.alphas):
            raise ValueError(f"alphas: levels must lie in (0, 1), got {self.alphas}")
        for name in ("alphas", "methods"):
            # a repeat would write the same rows twice and score them as one
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ValueError(f"{name}: repeated entry in {list(values)}")
        # a csv run's rows are the file's; it reads neither n_train nor n_test
        if self.design is not None and self.n_train < 2:
            raise ValueError(f"n_train: must be >= 2, got {self.n_train}")
        # the runner checks a csv run's n_batches once it has read the file
        if self.n_batches < 1 or (self.design is not None and self.n_batches > self.n_train):
            raise ValueError(f"n_batches: must be in [1, training rows], got {self.n_batches}")
        for name in ("k_burn", "m_keep", "init_iters", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name}: must be nonnegative")
        if self.thin < 1:
            raise ValueError(f"thin: must be >= 1, got {self.thin}")
        if "efi" in self.methods and self.m_keep < self.thin:
            raise ValueError(
                f"m_keep: {self.m_keep} kept iterations at thin {self.thin} record no draws"
            )


# Published constants per study (no step sizes, see the module docstring).
# Budgets here are the full-schedule values; load-time halving produces the
# desk-scale defaults.
PRESETS = {
    **{
        f"linear_ate_n{n}": dict(
            design="linear_ate", R=20, n_train=n, n_test=0,
            layout_kind="linear_ate",
            eta=500.0, eps=0.1, k_burn=5000, m_keep=50000, n_batches=5,
            init_iters=0, methods=("efi",),
        )
        for n in (250, 500, 1000)
    },
    "example1": dict(
        design="example1", R=20, n_train=500, n_test=1000,
        layout_kind="dnn_tau_linear_c", tau_widths=(10, 10),
        eta=10.0, eps=0.1, k_burn=20000, m_keep=50000, n_batches=5,
        init_iters=5000,
        methods=("efi", "cqr-naive", "cqr-exact", "cqr-inexact"),
    ),
    "example2": dict(
        design="example2", R=20, n_train=1000, n_test=1000,
        layout_kind="dnn_both", tau_widths=(10, 10), c_widths=(10, 10),
        eta=10.0, eps=0.1, k_burn=20000, m_keep=50000, n_batches=5,
        init_iters=5000,
        methods=("efi", "cqr-naive", "cqr-exact", "cqr-inexact"),
    ),
}

# element type of each list field
_TUPLE_FIELDS = {
    "tau_widths": int, "c_widths": int, "inverse_widths": int, "alphas": float, "methods": str,
}
_FIELD_TYPES = {f.name: f for f in fields(ExperimentConfig)}
_SCALAR_TYPES = {"int": int, "float": float, "bool": bool, "str": str}


def _parse_number(text: str):
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return None


def _scalar(name: str, kind: type, value):
    """value as the declared scalar type, or a ValueError naming the field.

    PyYAML reads numbers written without a dot, such as 5e2, as strings, so
    numeric strings are parsed here; an int field takes only whole numbers,
    and a number must be finite (a nan eta diverges at the first step).
    """
    v = value
    if isinstance(v, str) and kind in (int, float):
        v = _parse_number(v)
    if kind is int and isinstance(v, float) and v.is_integer():
        v = int(v)
    if kind is float and type(v) is int:
        v = float(v)
    if kind is str and type(v) in (int, float):
        v = str(v)
    if type(v) is float and not math.isfinite(v):
        raise ValueError(f"{name}: expected a finite number, got {value!r}")
    if type(v) is kind:
        return v
    raise ValueError(f"{name}: expected {kind.__name__}, got {value!r}")


def _coerce(name: str, value):
    """A YAML key's or keyword override's value on its field's type, or a
    ValueError naming the field."""
    if name not in _FIELD_TYPES:
        raise ValueError(f"{name}: unknown config field")
    if name in _TUPLE_FIELDS:
        if isinstance(value, (str, int, float)):
            value = [value]
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{name}: expected a list, got {type(value).__name__}")
        return tuple(_scalar(name, _TUPLE_FIELDS[name], v) for v in value)
    if name == "csv_schema":
        if not isinstance(value, dict):
            raise ValueError(f"{name}: expected a mapping with keys y, t, x")
        return value
    declared = _FIELD_TYPES[name].type
    if declared.startswith("Optional["):
        if value is None:
            return None
        declared = declared[len("Optional[") : -1]
    return _scalar(name, _SCALAR_TYPES[declared], value)


def _reject_unread_keys(cfg: ExperimentConfig, given) -> ExperimentConfig:
    """cfg, unless one of the given keys sets a value its run never reads: a
    width field for a network its layout lacks, or a row count of a csv
    config, whose rows are its file's."""
    for surface in ("tau", "c"):
        if f"{surface}_widths" in given and surface not in LAYOUT_GROUPS[cfg.layout_kind]:
            raise ValueError(f"{surface}_widths: layout {cfg.layout_kind} has no {surface} network")
    if cfg.csv is not None:
        for name in ("n_train", "n_test"):
            if name in given:
                raise ValueError(
                    f"{name}: a csv config takes its rows from its file and reads no {name}"
                )
    return cfg


def preset_config(name: str, paper_scale: bool = False, **overrides) -> ExperimentConfig:
    """Expand a named preset into a config at the requested scale; each
    override is coerced as a YAML key is, and one that names no config field
    fails, as does one the run would ignore: a width for a network the
    layout lacks, or n_train or n_test on a csv config."""
    if name not in PRESETS:
        raise ValueError(f"preset: unknown preset {name!r}, expected one of {sorted(PRESETS)}")
    values = dict(PRESETS[name])
    if not paper_scale:
        for f in _BUDGET_FIELDS:
            values[f] = values[f] // 2
    values["paper_scale"] = paper_scale
    overrides = {key: _coerce(key, value) for key, value in overrides.items()}
    values.update(overrides)
    return _reject_unread_keys(ExperimentConfig(**values), overrides)


def load_config(path: str, paper_scale: Optional[bool] = None) -> ExperimentConfig:
    """Read a YAML config file, expanding its preset if one is named.

    File keys override preset values; a tau_widths or c_widths key for a
    network the layout lacks, and an n_train or n_test key on a csv config,
    are rejected.  paper_scale, when not None, overrides
    the file's own setting (the --paper-scale flag).
    """
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ValueError(f"config file {path} must hold a mapping at top level")
    preset = raw.pop("preset", None)
    scale = _coerce("paper_scale", raw.pop("paper_scale", False))
    if paper_scale is not None:
        scale = paper_scale
    overrides = {}
    for key, value in raw.items():
        overrides[str(key)] = _coerce(str(key), value)
    if preset is not None:
        return preset_config(str(preset), paper_scale=bool(scale), **overrides)
    overrides["paper_scale"] = bool(scale)
    return _reject_unread_keys(ExperimentConfig(**overrides), overrides)
