"""Experiment configuration: presets, config files, validation.

ExperimentConfig is the one description of a run: the data source
(simulation design or CSV), the effect network's widths, the sampler's eps,
eta and budgets, the methods to run, and the output location.  The runner
hands it to sampler.run_efi as it is; no second config is derived from it.
The model follows the data source: DESIGN_SURFACES names the surfaces each
design's model learns with a network, a csv config fits the linear_ate
model, and sampler.build_layout turns config.surfaces into an
engine.ThetaLayout.  Presets carry the published constants for the
simulation studies except the step-size schedules: the sampler holds each
step constant at an anchor it measures at its start state.  What no run
varies is a constant: the sampler's momentum and early weight clip, the
inverse and control networks' hidden widths (sampler.INVERSE_WIDTHS and
sampler.C_WIDTHS), and the CQR fits' Adam steps and rate.  A preset's
iteration budgets are halved at load time unless paper_scale, a load
directive and not a field, asks for the full budgets (--paper-scale).  Every
check on a config value is made when the config is built, so a bad value
fails under every subcommand before any data is drawn or sampler run, with a
message naming its field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

import yaml

VALID_METHODS = ("efi", "cqr-naive", "cqr-exact", "cqr-inexact")

# iteration-budget fields subject to desk-scale halving
_BUDGET_FIELDS = ("k_burn", "m_keep", "init_iters")

# The surfaces, tau(x) and c(x), each design's model learns with a network;
# a surface not named is linear (c) or constant (tau).  The keys are the
# designs datagen.generate draws from.
DESIGN_SURFACES = {"linear_ate": (), "example1": ("tau",), "example2": ("tau", "c")}


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark run, fully specified.

    Either design (with n_train / n_test) or csv + csv_schema must be set.
    The data source chooses the model (surfaces).  A csv config has no test
    set, so it fits the linear_ate model, and its rows are the file's (a
    config file or preset override that gives it n_train or n_test is
    rejected).  k_burn / m_keep / init_iters are the counts actually run;
    presets fill them at the requested scale.  n_batches is the
    weight-update minibatch count per epoch (batch size = rows // n_batches,
    rows being n_train or the csv file's; 1 = full batch).  eps is the noise
    budget and eta the consensus weight; the step sizes, the latent momentum
    and the weight clip are not fields (see sampler).  tau_widths are the
    hidden widths of the effect network, read only by a model that has one;
    the control and inverse networks' are sampler.C_WIDTHS and
    sampler.INVERSE_WIDTHS, not fields.
    """

    design: Optional[str] = None
    csv: Optional[str] = None
    csv_schema: Optional[dict] = None
    R: int = 1
    n_train: int = 250
    n_test: int = 0
    tau_widths: tuple = (10, 10)
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
    trace: bool = False

    def __post_init__(self):
        if (self.design is None) == (self.csv is None):
            raise ValueError("config needs exactly one of design or csv")
        if self.design is not None and self.design not in DESIGN_SURFACES:
            raise ValueError(f"design: unknown design {self.design!r}, "
                             f"expected one of {tuple(DESIGN_SURFACES)}")
        if self.csv is not None and not {"y", "t", "x"} <= set(self.csv_schema or {}):
            raise ValueError("csv_schema: a csv config needs a mapping with keys y, t and x")
        if not self.eps > 0:
            raise ValueError(f"eps: must be positive, got {self.eps}")
        if self.eta < 0:
            raise ValueError(f"eta: must be nonnegative, got {self.eta}")
        if not self.tau_widths or min(self.tau_widths) < 1:
            raise ValueError(f"tau_widths: need hidden layers of width >= 1, "
                             f"got {list(self.tau_widths)}")
        if self.R < 1:
            raise ValueError(f"R: must be >= 1, got {self.R}")
        if not self.methods:
            raise ValueError("methods: must not be empty")
        for m in self.methods:
            if m not in VALID_METHODS:
                raise ValueError(f"methods: unknown method {m!r}, expected subset of {VALID_METHODS}")
        cqr = [m for m in self.methods if m != "efi"]
        if cqr and self.csv is not None:
            # a csv file is the training set; nothing supplies a test set
            raise ValueError(f"methods: {cqr} need a test set, which a csv config lacks")
        if (cqr or self.surfaces) and self.design is not None and self.n_test < 1:
            raise ValueError("n_test: covariates-only methods and individual-effect models "
                             "need a test set (n_test >= 1)")
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
            raise ValueError(f"m_keep: {self.m_keep} kept iterations at thin {self.thin} "
                             "record no draws")

    @property
    def surfaces(self) -> tuple:
        """The surfaces this run's model learns with a network: its design's
        DESIGN_SURFACES entry, or none for a csv config."""
        return () if self.design is None else DESIGN_SURFACES[self.design]


# Published constants per study (no step sizes, see the module docstring).
# Budgets here are the full-schedule values; load-time halving produces the
# desk-scale defaults.
PRESETS = {
    **{
        f"linear_ate_n{n}": dict(
            design="linear_ate", R=20, n_train=n, n_test=0,
            eta=500.0, eps=0.1, k_burn=5000, m_keep=50000, n_batches=5,
            init_iters=0, methods=("efi",),
        )
        for n in (250, 500, 1000)
    },
    # the two nonlinear studies differ in their design and n_train only
    **{
        design: dict(
            design=design, R=20, n_train=n_train, n_test=1000, tau_widths=(10, 10),
            eta=10.0, eps=0.1, k_burn=20000, m_keep=50000, n_batches=5,
            init_iters=5000, methods=VALID_METHODS,
        )
        for design, n_train in (("example1", 500), ("example2", 1000))
    },
}

# element type of each list field
_TUPLE_FIELDS = {"tau_widths": int, "alphas": float, "methods": str}
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
        return _csv_schema(value)
    declared = _FIELD_TYPES[name].type
    if declared.startswith("Optional["):
        if value is None:
            return None
        declared = declared[len("Optional[") : -1]
    return _scalar(name, _SCALAR_TYPES[declared], value)


def _csv_schema(value) -> dict:
    """A csv_schema value as {y: column, t: column, x: [columns]}, or a
    ValueError; a lone x column is a one-item list, as for the tuple fields."""
    if not isinstance(value, dict) or set(value) != {"y", "t", "x"}:
        raise ValueError(f"csv_schema: expected a mapping with keys y, t and x, got {value!r}")
    for key in ("y", "t"):
        if not isinstance(value[key], str):
            raise ValueError(f"csv_schema: {key} must be a column name, got {value[key]!r}")
    x = [value["x"]] if isinstance(value["x"], str) else value["x"]
    if not (isinstance(x, (list, tuple)) and x and all(isinstance(c, str) for c in x)):
        raise ValueError(f"csv_schema: x must be one or more column names, got {value['x']!r}")
    return {"y": value["y"], "t": value["t"], "x": list(x)}


def _reject_unread_keys(cfg: ExperimentConfig, given) -> ExperimentConfig:
    """cfg, unless one of the given keys sets a value its run never reads:
    tau_widths for a model with no tau network, or a row count of a csv
    config, whose rows are its file's."""
    if "tau_widths" in given and "tau" not in cfg.surfaces:
        source = f"design {cfg.design}" if cfg.csv is None else f"csv file {cfg.csv}"
        raise ValueError(f"tau_widths: the model of {source} has no tau network")
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
    fails, as does one the run would ignore: tau_widths for a model with no
    tau network, or n_train or n_test on a csv config."""
    if name not in PRESETS:
        raise ValueError(f"preset: unknown preset {name!r}, expected one of {sorted(PRESETS)}")
    values = dict(PRESETS[name])
    if not paper_scale:
        for f in _BUDGET_FIELDS:
            values[f] = values[f] // 2
    overrides = {key: _coerce(key, value) for key, value in overrides.items()}
    values.update(overrides)
    return _reject_unread_keys(ExperimentConfig(**values), overrides)


def load_config(path: str, paper_scale: Optional[bool] = None) -> ExperimentConfig:
    """Read a YAML config file, expanding its preset if one is named.

    File keys override preset values; a tau_widths key for a model with no
    tau network, and an n_train or n_test key on a csv config, are rejected,
    as is a file that cannot be read or is not valid YAML.
    paper_scale, when not None, overrides the file's own (the --paper-scale
    flag); a file with no preset rejects either.
    """
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as e:
        raise ValueError(f"config file {path}: {e.strerror}") from None
    except yaml.YAMLError as e:  # pyyaml's message spans lines
        raise ValueError(f"config file {path} is not valid YAML: {' '.join(str(e).split())}") from None
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ValueError(f"config file {path} must hold a mapping at top level")
    preset = raw.pop("preset", None)
    if "paper_scale" in raw:
        scale = _scalar("paper_scale", bool, raw.pop("paper_scale"))
        paper_scale = scale if paper_scale is None else paper_scale
    overrides = {str(key): _coerce(str(key), value) for key, value in raw.items()}
    if preset is not None:
        return preset_config(str(preset), paper_scale=bool(paper_scale), **overrides)
    if paper_scale is not None:
        raise ValueError(f"paper_scale: {path} names no preset, so it has no budgets to scale")
    return _reject_unread_keys(ExperimentConfig(**overrides), overrides)
