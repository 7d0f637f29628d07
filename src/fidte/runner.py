"""Replication harness behind the command line.

One experiment = R independent replications.  Each replication draws its own
dataset (or reuses the CSV one, read once per run), runs every configured
method (every CQR fit first, so that a calibration shortfall raises before
any fit or EFI run), and returns its interval rows, each with the
simulation truth it should cover, and the PEHE, both read off one
engine.draw_surfaces call per EFI chain.  The model follows the data source: build_layout turns
config.surfaces into the chain's layout, and the layout decides between ATE
and ITE intervals.  Each replication writes its own intervals.csv as it
finishes, so a failure keeps the files of those before it.  score_rows is
the one scorer of interval rows: summary.json is a function of the
replications' rows and PEHEs, and `fidte report` rescores an intervals.csv
with the same code.  A csv data file or intervals file that cannot be read
as one, or a csv data file with fewer rows than n_batches, raises
InputFileError, which the command line reports on one line.
Replication r derives all of its randomness from a splittable seed sequence
keyed by (seed, r), so any single replication can be re-run in isolation and
workers can run them in any order without changing results.
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import nullcontext
from dataclasses import asdict
from typing import Optional

import numpy as np

from .config import ExperimentConfig
from .cqr import cqr_ite, fit_cqr
from .datagen import generate
from .engine import TRUTH_COLUMNS, Dataset, ThetaLayout, draw_surfaces
from .inference import (
    PredictionInterval,
    assign_cases,
    ate_interval,
    ite_intervals,
    ite_truth,
    pehe,
)
from .nn import MlpSpec
from .sampler import run_efi

# fixed init seeds for the data-model networks: the warm-start blocks are
# part of the model family, not of the per-replication randomness
TAU_NET_SEED = 5
C_NET_SEED = 6
# the hidden widths of the inverse network and of a c network, the same in
# every run that has one
INVERSE_WIDTHS = (90, 30)
C_WIDTHS = (10, 10)


class InputFileError(ValueError):
    """A csv data file or intervals file that cannot be read as one, or a
    csv data file too short for the config's n_batches."""


def _cell(row: dict, col: str, line: int) -> float:
    """A csv cell as a float; a bad cell is named by its line and column."""
    raw = row[col]
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise InputFileError(f"non-numeric value {raw!r} at line {line}, column {col!r}") from None


def _open(path: str, kind: str):
    """path opened for reading, or an InputFileError naming it."""
    try:
        return open(path, newline="")
    except OSError as e:
        raise InputFileError(f"{kind} file {path}: {e.strerror}") from None


def load_csv_dataset(path: str, schema: dict) -> Dataset:
    """Read (x, t, y) columns from a CSV file per the given schema.

    schema maps "y" and "t" to column names and "x" to a list of column
    names, the keys ExperimentConfig requires of a csv_schema.  The
    treatment column must be binary 0/1.  Truth columns a simulated file
    carries (engine.TRUTH_COLUMNS) are read too, by those names.  A file
    that does not hold such data raises InputFileError.
    """
    x_cols = list(schema["x"])
    with _open(path, "csv") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in [schema["y"], schema["t"], *x_cols] if c not in header]
        if missing:
            raise InputFileError(f"csv file {path} is missing columns {missing}")
        truth = {name: [] for name in TRUTH_COLUMNS if name in header}
        xs, ts, ys = [], [], []
        for i, row in enumerate(reader, start=2):  # header is line 1
            tv = _cell(row, schema["t"], i)
            if tv not in (0.0, 1.0):
                raise InputFileError(
                    f"treatment column {schema['t']!r} must be binary 0/1, "
                    f"got {tv} at line {i}"
                )
            xs.append([_cell(row, c, i) for c in x_cols])
            ts.append(tv)
            ys.append(_cell(row, schema["y"], i))
            for name, col in truth.items():
                col.append(_cell(row, name, i))
    if not ys:
        raise InputFileError(f"csv file {path} holds no data rows")
    try:
        return Dataset(
            x=np.array(xs, dtype=np.float64),
            t=np.array(ts, dtype=np.float64),
            y=np.array(ys, dtype=np.float64),
            **{name: np.array(col, dtype=np.float64) for name, col in truth.items()},
        )
    except ValueError as e:  # e.g. a nan or inf cell
        raise InputFileError(f"csv file {path}: {e}") from None


def read_csv_rows(config: ExperimentConfig) -> Optional[Dataset]:
    """A csv config's rows, read once per run and checked against n_batches
    before any replication starts; None for a design config."""
    if config.csv is None:
        return None
    rows = load_csv_dataset(config.csv, config.csv_schema)
    if config.n_batches > rows.n:
        raise InputFileError(f"n_batches: must be in [1, {rows.n}], the row count of "
                             f"{config.csv}, got {config.n_batches}")
    return rows


def build_layout(config: ExperimentConfig, d: int) -> ThetaLayout:
    """The ThetaLayout of config's model on d covariates: a network for each
    surface in config.surfaces, a linear c and a constant tau otherwise."""
    nets = config.surfaces
    c_spec = MlpSpec((d, *C_WIDTHS, 1), seed=C_NET_SEED) if "c" in nets else d + 1
    tau_spec = MlpSpec((d, *config.tau_widths, 1), seed=TAU_NET_SEED) if "tau" in nets else None
    return ThetaLayout(c_spec, tau_spec)


def replication_ints(seed: int, r: int) -> list[int]:
    """Four independent 32-bit seeds for replication r of a run."""
    ss = np.random.SeedSequence(seed, spawn_key=(r,))
    return [int(v) for v in ss.generate_state(4)]


def _replication_data(config: ExperimentConfig, ints) -> tuple[Dataset, Optional[Dataset]]:
    # a design config's training and test sets
    train = generate(config.design, config.n_train, seed=ints[0])
    test = generate(config.design, config.n_test, seed=ints[1]) if config.n_test > 0 else None
    return train, test


def _efi_results(config, train, ints, rep_dir):
    layout = build_layout(config, train.d)
    inv_spec = MlpSpec((train.d + 3, *INVERSE_WIDTHS, layout.theta_dim), seed=ints[2])
    trace = nullcontext()
    if config.trace and rep_dir is not None:
        trace = open(os.path.join(rep_dir, "trace_efi.csv"), "w", newline="")
    with trace as trace_fh:
        return run_efi(train, layout, inv_spec, config, ints[2], trace=trace_fh)


def _truth_for(iv: PredictionInterval, truth_vec, ate_truth) -> Optional[float]:
    if iv.case == "ATE":
        return ate_truth
    return None if truth_vec is None else float(truth_vec[iv.subject_id])


def run_replication(
    config: ExperimentConfig, r: int, csv_rows: Optional[Dataset], rep_dir: Optional[str] = None
) -> dict:
    """All methods on replication r's data.

    csv_rows is read_csv_rows(config), the training set of a csv config.
    Returns the interval rows (method, interval, truth), the PEHE of the
    EFI effect surface (None without one or without tau_true) and the EFI
    chain (None without efi).  With config.trace set, the sampler trace
    goes to rep_dir.
    """
    ints = replication_ints(config.seed, r)
    try:
        train, test = _replication_data(config, ints) if config.csv is None else (csv_rows, None)
        truth_vec = ate_truth = None
        if test is not None and test.y1 is not None and test.y0 is not None:
            truth_vec = ite_truth(test)
        # a constant effect is the ATE an ATE interval should cover
        if train.tau_true is not None and np.all(train.tau_true == train.tau_true[0]):
            ate_truth = float(train.tau_true[0])

        # every CQR fit first: a calibration shortfall raises before any fit
        # or EFI run, and the fits share two lockstep stages
        modes = [m.split("-", 1)[1] for m in config.methods if m != "efi"]
        cqr_fits = fit_cqr(train, config.alphas, modes, ints[3]) if modes else {}

        chain = surfaces = cases = pehe_value = None
        if "efi" in config.methods:
            chain = _efi_results(config, train, ints, rep_dir)
            # a constant effect gives ATE intervals, an effect surface ITE ones
            if chain.layout.tau_spec is not None:
                # every level's intervals and the PEHE read the same surfaces
                surfaces = draw_surfaces(chain.draws, chain.layout, test.x, chain.scaler)
                cases = assign_cases(test, np.random.default_rng(ints[3]))
                if test.tau_true is not None:
                    pehe_value = pehe(surfaces, test)

        rows = []
        for method in config.methods:
            for a_idx, alpha in enumerate(config.alphas):
                if method == "efi":
                    if surfaces is None:
                        ivs = [ate_interval(chain, alpha=alpha)]
                    else:
                        ivs = ite_intervals(surfaces, test, alpha,
                                            np.random.default_rng([ints[3], a_idx]), cases)
                else:
                    ivs = cqr_ite(cqr_fits, test, alpha=alpha, mode=method.split("-", 1)[1])
                rows.extend((method, iv, _truth_for(iv, truth_vec, ate_truth)) for iv in ivs)
        return {"r": r, "rows": rows, "pehe": pehe_value, "chain": chain}
    except RuntimeError as e:
        raise RuntimeError(f"replication {r}: {e}") from e
    except ValueError as e:  # e.g. a CQR level too fine for the calibration rows
        raise ValueError(f"replication {r}: {e}") from e


def write_rows_csv(rows, path) -> None:
    """Interval rows of one replication, one line per interval."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["method", "alpha", "subject_id", "case", "lower", "upper", "truth", "covered"])
        for method, iv, tv in rows:
            base = [method, repr(float(iv.alpha)), iv.subject_id, iv.case,
                    repr(float(iv.lower)), repr(float(iv.upper))]
            if tv is None:
                wr.writerow(base + ["", ""])
            else:
                wr.writerow(base + [repr(float(tv)), int(iv.contains(float(tv)))])


def _mean_sd(values) -> dict:
    arr = np.array([v for v in values if v is not None], dtype=np.float64)
    if arr.size == 0:
        return {"mean": None, "sd": None}
    sd = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
    return {"mean": float(np.mean(arr)), "sd": sd}


def score_rows(triples) -> dict:
    """Count, mean length and coverage of (lower, upper, truth) triples.

    Coverage is the share of triples with truth whose interval holds it, or
    None when no triple has truth.
    """
    covered = [lo <= tv <= hi for lo, hi, tv in triples if tv is not None]
    return {
        "n": len(triples),
        "mean_length": float(np.mean([hi - lo for lo, hi, _ in triples])),
        "coverage": float(np.mean(covered)) if covered else None,
    }


def summarize(config: ExperimentConfig, reps: list[dict]) -> dict:
    """Cross-replication summary: per method and level, mean and sd.

    It is a function of each replication's interval rows and PEHE alone:
    score_rows scores a replication's rows of one method and level pooled
    over cases, and each case Ic/It/Im apart for per_case, which holds the
    mean and sd across replications of that case's coverage and length, so
    methods that score different cases can be compared on a shared one.
    """
    grouped = []  # per replication: (method, level key) -> {case: triples}
    for rep in reps:
        groups = {}
        for method, iv, tv in rep["rows"]:
            groups.setdefault((method, repr(float(iv.alpha))), {}).setdefault(iv.case, []).append(
                (iv.lower, iv.upper, tv))
        grouped.append(groups)
    methods = {}
    for method in config.methods:
        blocks = {}
        for alpha in config.alphas:
            key = repr(float(alpha))
            pooled, by_case = [], []
            for groups in grouped:
                cases = groups[method, key]
                # pooled case after case, in the order the cases first appear
                pooled.append(score_rows([triple for ts in cases.values() for triple in ts]))
                by_case.append({case: score_rows(ts) for case, ts in cases.items() if case != "ATE"})
            blocks[key] = {
                "coverage": _mean_sd(s["coverage"] for s in pooled),
                "length": _mean_sd(s["mean_length"] for s in pooled),
                "per_case": {
                    case: {
                        "coverage": _mean_sd(sc[case]["coverage"] for sc in by_case if case in sc),
                        "length": _mean_sd(sc[case]["mean_length"] for sc in by_case if case in sc),
                    }
                    for case in sorted({case for sc in by_case for case in sc})
                },
                "per_replication": [
                    {"r": rep["r"], "coverage": s["coverage"], "mean_length": s["mean_length"]}
                    for rep, s in zip(reps, pooled)
                ],
            }
        entry = {"alphas": blocks}
        if method == "efi" and any(rep["pehe"] is not None for rep in reps):
            entry["pehe"] = _mean_sd(rep["pehe"] for rep in reps)
            entry["pehe"]["per_replication"] = [{"r": rep["r"], "pehe": rep["pehe"]} for rep in reps]
        methods[method] = entry
    return {"config": asdict(config), "replications": config.R, "methods": methods}


def _rep_worker(args):
    """Replication r, which writes its intervals.csv to rep_dir."""
    config, r, csv_rows, rep_dir = args
    os.makedirs(rep_dir, exist_ok=True)
    rep = run_replication(config, r, csv_rows, rep_dir)
    write_rows_csv(rep["rows"], os.path.join(rep_dir, "intervals.csv"))
    del rep["chain"]  # summaries need only rows and the PEHE; keep draws out of pickling
    return rep


def run_experiment(config: ExperimentConfig, workers: int = 1) -> dict:
    """Run all replications (each writes its intervals.csv), then the summary JSON."""
    csv_rows = read_csv_rows(config)
    jobs = [(config, r, csv_rows, os.path.join(config.outdir, f"rep_{r:03d}"))
            for r in range(config.R)]
    if workers > 1 and config.R > 1:
        from multiprocessing import get_context  # only a pooled run pays its import

        with get_context("fork").Pool(min(workers, config.R)) as pool:
            reps = pool.map(_rep_worker, jobs)
    else:
        reps = [_rep_worker(job) for job in jobs]
    summary = summarize(config, reps)
    with open(os.path.join(config.outdir, "summary.json"), "w") as fh:
        fh.write(json.dumps(summary, sort_keys=True, indent=2))
        fh.write("\n")
    return summary


def rescore(intervals_path: str) -> dict:
    """Re-read an intervals.csv and score each (method, level, case) block.

    The covered flag is recomputed from (lower, upper, truth); rows without
    truth contribute to lengths only.  A bad file raises InputFileError.
    """
    groups = {}
    with _open(intervals_path, "intervals") as fh:
        reader = csv.DictReader(fh)
        needed = {"method", "alpha", "case", "lower", "upper", "truth"}
        have = set(reader.fieldnames or [])
        if not needed <= have:
            raise InputFileError(f"intervals file is missing columns {sorted(needed - have)}")
        for i, row in enumerate(reader, start=2):  # header is line 1
            tv = _cell(row, "truth", i) if row["truth"] != "" else None
            groups.setdefault((row["method"], row["alpha"], row["case"]), []).append(
                (_cell(row, "lower", i), _cell(row, "upper", i), tv)
            )
    if not groups:
        raise InputFileError(f"intervals file {intervals_path} holds no interval rows")
    out = {}
    for (method, alpha, case), triples in sorted(groups.items()):
        out.setdefault(method, {}).setdefault(alpha, {})[case] = score_rows(triples)
    return out
