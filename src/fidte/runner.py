"""Replication harness behind the command line.

One experiment = R independent replications.  Each replication draws its own
dataset (or reuses the CSV one, read once per run), runs every configured
method (every CQR fit first, so that a calibration shortfall raises before
any fit or EFI run), and returns one inference.Intervals block per method
and level with the simulation truth of its rows, and the PEHE; the EFI
results read one engine.draw_surfaces call per chain.  The chain's layout,
which sampler.run_efi builds from config.surfaces, decides between ATE and
ITE intervals.  Each replication writes its intervals.csv as it finishes, so
a failure keeps the files of those before it.  A data csv file has one
codec, save_dataset_csv and load_csv_dataset, and write_float_csv writes
it and the command line's chain.csv.  intervals.csv has one codec,
write_rows_csv and read_rows_csv, and score_rows is the one scorer:
summary.json is a function of the replications' blocks and PEHEs, and
`fidte report` rescores the blocks read back with the same code.  A csv
data file or intervals file that cannot be read as one, or a csv data file
with one treatment arm or fewer rows than n_batches, raises InputFileError,
which the command line reports on one line.  Replication r derives all of
its randomness from a seed sequence keyed by (seed, r), so any replication
can be re-run alone and workers can run them in any order without changing
results.

Each input is checked once, where it enters, and the code it flows into
takes it as checked:
  * a config value, when its ExperimentConfig is built (config);
  * a csv data file, by load_csv_dataset (columns, each cell a finite
    number by _cell, a binary treatment, some rows) and read_csv_rows (both
    arms, rows for n_batches), once per run, before any replication;
  * a generated training set, for both arms, as each replication draws it,
    before any fit;
  * a replication's test set, for a treated row when the PEHE of an effect
    surface is taken, and the CQR bands' calibration rows (cqr.fit_cqr),
    before any fit;
  * an intervals file's rows, line by line as read_rows_csv reads them:
    each numeric cell a finite number by _cell (an empty truth cell is no
    truth), then the row's alpha, case and endpoints.
What fidte builds itself from these (network specs and weights, a
ThetaLayout, a drawn engine.Dataset, an inference.Intervals block) is not
checked again, and what a run computes is checked only for divergence: the
sampler's energy, latent step, weight gradient, weight step and recorded
draws, and the CQR fits' Adam steps.
"""

from __future__ import annotations

import csv
import json
import math
import os
from contextlib import nullcontext
from dataclasses import asdict
from typing import Optional

import numpy as np

from .config import ExperimentConfig
from .cqr import cqr_ite, fit_cqr
from .datagen import generate
from .engine import TRUTH_COLUMNS, Dataset, draw_surfaces
from .inference import CASES, Intervals, assign_cases, ate_interval, ite_intervals, pehe
from .sampler import run_efi


class InputFileError(ValueError):
    """A csv data file or intervals file that cannot be read as one, or a
    csv data file with one treatment arm or too short for the config's
    n_batches."""


def _cell(row: dict, col: str, line: int, kind=float):
    """A csv cell as a finite kind; a bad cell is named by its line and column."""
    raw = row[col]
    try:
        value = kind(raw)
    except (TypeError, ValueError, OverflowError) as e:
        what = "out-of-range" if isinstance(e, OverflowError) else "non-numeric"
        raise InputFileError(f"{what} value {raw!r} at line {line}, column {col!r}") from None
    if not math.isfinite(value):
        raise InputFileError(f"non-finite value {raw!r} at line {line}, column {col!r}")
    return value


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
    that does not hold such data, or holds a cell that is not a finite
    number, raises InputFileError.
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
    return Dataset(
        x=np.array(xs, dtype=np.float64),
        t=np.array(ts, dtype=np.float64),
        y=np.array(ys, dtype=np.float64),
        **{name: np.array(col, dtype=np.float64) for name, col in truth.items()},
    )


def read_csv_rows(config: ExperimentConfig) -> Optional[Dataset]:
    """A csv config's rows, read once per run and checked for both treatment
    arms and against n_batches before any replication starts; None for a
    design config."""
    if config.csv is None:
        return None
    rows = load_csv_dataset(config.csv, config.csv_schema)
    if np.all(rows.t == rows.t[0]):
        raise InputFileError(f"csv file {config.csv}: treatment column {config.csv_schema['t']!r} "
                             f"holds arm {rows.t[0]} only; an effect needs both arms")
    if config.n_batches > rows.n:
        raise InputFileError(f"n_batches: must be in [1, {rows.n}], the row count of "
                             f"{config.csv}, got {config.n_batches}")
    return rows


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
    trace = nullcontext()
    if config.trace and rep_dir is not None:
        os.makedirs(rep_dir, exist_ok=True)
        trace = open(os.path.join(rep_dir, "trace_efi.csv"), "w", newline="")
    with trace as trace_fh:
        return run_efi(train, config, ints[2], trace=trace_fh)


def run_replication(
    config: ExperimentConfig, r: int, csv_rows: Optional[Dataset], rep_dir: Optional[str] = None
) -> dict:
    """All methods on replication r's data.

    csv_rows is read_csv_rows(config), the training set of a csv config.
    Returns the interval rows, a (method, block, truth) per method and
    level, truth being each block row's simulation truth or None; the PEHE
    of the EFI effect surface (None without one) and the EFI chain (None
    without efi).  With config.trace set, the sampler trace goes to rep_dir.
    """
    ints = replication_ints(config.seed, r)
    try:
        train, test = _replication_data(config, ints) if config.csv is None else (csv_rows, None)
        # read_csv_rows checked a csv training set for both arms; a drawn
        # one of one arm fails here, before any fit.  Both checks compare
        # rather than sum: a first int64 sum raised cqr_ex1's peak ~0.1 MB
        if config.csv is None and np.all(train.t == train.t[0]):
            raise ValueError(f"training set holds arm {train.t[0]} only; an effect needs both arms")
        # a generated test set holds the realized individual effects
        truth_vec = None if test is None else test.y1 - test.y0
        # a constant effect is the ATE an ATE interval should cover
        ate_truth = None
        if train.tau_true is not None and np.all(train.tau_true == train.tau_true[0]):
            ate_truth = train.tau_true[:1]
        # the PEHE of an EFI effect surface is taken over the treated test
        # rows, so a test set without one fails here, before any fit
        if "efi" in config.methods and "tau" in config.surfaces and not np.any(test.t == 1):
            raise ValueError("no treated test units")

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
                pehe_value = pehe(surfaces, test)

        # every ITE block holds the test rows in order, so truth_vec is its truth
        rows = []
        for method in config.methods:
            for a_idx, alpha in enumerate(config.alphas):
                if method != "efi":
                    mode = method.split("-", 1)[1]
                    row = cqr_ite(cqr_fits, test, alpha=alpha, mode=mode), truth_vec
                elif surfaces is None:
                    row = ate_interval(chain, alpha=alpha), ate_truth
                else:
                    row = ite_intervals(surfaces, test, alpha, [ints[3], a_idx], cases), truth_vec
                rows.append((method, *row))
        return {"r": r, "rows": rows, "pehe": pehe_value, "chain": chain}
    except RuntimeError as e:
        raise RuntimeError(f"replication {r}: {e}") from e
    except ValueError as e:  # e.g. a CQR level too fine for the calibration rows
        raise ValueError(f"replication {r}: {e}") from e


INTERVAL_COLUMNS = ("method", "alpha", "subject_id", "case", "lower", "upper", "truth", "covered")


# rows a csv writer turns into Python objects at a time
_CSV_ROWS = 256


def write_float_csv(path, header, columns) -> None:
    """A table of floats: the header line, then one line per row of the
    columns (1-d arrays and 2-d blocks of them, as np.column_stack takes
    them), each cell repr(float), CRLF-terminated.  Made from .tolist()
    _CSV_ROWS rows at a time, so the table's Python floats never all exist
    at once; a float's repr holds no comma, quote or line break, so each
    line is what csv.writer writes."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for k in range(0, columns[0].shape[0], _CSV_ROWS):
            rows = np.column_stack([col[k : k + _CSV_ROWS] for col in columns])
            fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rows.tolist())


def save_dataset_csv(data: Dataset, path) -> None:
    """Write x1..xd, t, y and whatever truth columns are present, by
    write_float_csv; load_csv_dataset reads the file back with the schema
    {y: y, t: t, x: [x1, ..., xd]}."""
    truth = [name for name in TRUTH_COLUMNS if getattr(data, name) is not None]
    write_float_csv(
        path,
        [f"x{j + 1}" for j in range(data.d)] + ["t", "y"] + truth,
        [data.x, data.t, data.y] + [getattr(data, name) for name in truth],
    )


def write_rows_csv(rows, path) -> None:
    """run_replication's rows, one line per block row (a None truth leaves
    truth and covered empty), made from .tolist() columns _CSV_ROWS rows at
    a time, so a block's Python objects never all exist at once; no cell
    holds a comma, quote or line break, so each line is what csv.writer
    writes."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(INTERVAL_COLUMNS) + "\r\n")
        for method, block, truth in rows:
            head = f"{method},{block.alpha!r},"
            for k in range(0, block.lower.size, _CSV_ROWS):
                part = slice(k, k + _CSV_ROWS)
                lo, hi = block.lower[part], block.upper[part]
                empty = [""] * lo.size
                truths = empty if truth is None else map(repr, truth[part].tolist())
                covers = (empty if truth is None
                          else ((lo <= truth[part]) & (truth[part] <= hi)).view(np.int8).tolist())
                fh.writelines(
                    f"{head}{i},{case},{a!r},{b!r},{t},{c}\r\n" for i, case, a, b, t, c in zip(
                        block.subject_id[part].tolist(), block.case[part].tolist(), lo.tolist(),
                        hi.tolist(), truths, covers))


def _mean_sd(values) -> dict:
    arr = np.array([v for v in values if v is not None], dtype=np.float64)
    if arr.size == 0:
        return {"mean": None, "sd": None}
    sd = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
    return {"mean": float(np.mean(arr)), "sd": sd}


def _spread(scores) -> dict:
    """Mean and sd of score_rows results' coverage and mean length."""
    return {"coverage": _mean_sd(s["coverage"] for s in scores),
            "length": _mean_sd(s["mean_length"] for s in scores)}


def score_rows(lower, upper, truth=None) -> dict:
    """Count, mean length and coverage of the intervals [lower, upper]; truth
    is None or one value per row, NaN where a row has none, and coverage is
    the share of rows with a truth whose interval holds it, or None."""
    coverage = None
    if truth is not None:
        has = ~np.isnan(truth)
        if has.any():
            lo, hi, tv = lower[has], upper[has], truth[has]
            coverage = float(np.mean((lo <= tv) & (tv <= hi)))
    return {"n": lower.size, "mean_length": float(np.mean(upper - lower)), "coverage": coverage}


def _case_scores(block: Intervals, truth) -> tuple[dict, dict]:
    """score_rows of a block's rows pooled, case after case in the order the
    cases first appear, and of each case's rows apart."""
    parts = {case: np.flatnonzero(block.case == case) for case in dict.fromkeys(block.case.tolist())}
    def score(idx):
        return score_rows(block.lower[idx], block.upper[idx], None if truth is None else truth[idx])
    return score(np.concatenate(list(parts.values()))), {c: score(idx) for c, idx in parts.items()}


def summarize(config: ExperimentConfig, reps: list[dict]) -> dict:
    """Cross-replication summary: per method and level, mean and sd.

    It is a function of each replication's interval rows and PEHE alone:
    score_rows scores a replication's block of one method and level pooled
    over cases, and each case Ic/It/Im apart for per_case, which holds the
    mean and sd across replications of that case's coverage and length, so
    methods that score different cases can be compared on a shared one.
    """
    # per replication: (method, level key) -> (pooled score, {case: score})
    scored = [{(method, repr(block.alpha)): _case_scores(block, truth)
               for method, block, truth in rep["rows"]} for rep in reps]
    methods = {}
    for method in config.methods:
        blocks = {}
        for alpha in config.alphas:
            key = repr(float(alpha))
            pooled = [scores[method, key][0] for scores in scored]
            by_case = [{case: s for case, s in scores[method, key][1].items() if case != "ATE"}
                       for scores in scored]
            blocks[key] = {
                **_spread(pooled),
                "per_case": {case: _spread([sc[case] for sc in by_case if case in sc])
                             for case in sorted({case for sc in by_case for case in sc})},
                "per_replication": [{"r": rep["r"], "coverage": s["coverage"],
                                     "mean_length": s["mean_length"]} for rep, s in zip(reps, pooled)],
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
    rep = run_replication(config, r, csv_rows, rep_dir)
    os.makedirs(rep_dir, exist_ok=True)
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


def read_rows_csv(intervals_path: str) -> list:
    """An intervals.csv as write_rows_csv's rows, a (method, block, truth)
    per method and level, truth NaN where its cell is empty.  Each row is
    checked as it is read, in file order: each numeric cell by _cell, then
    alpha in (0, 1), a case from inference.CASES and lower <= upper.  The
    first bad row raises InputFileError naming its line and column."""
    groups = {}  # (method, alpha) -> subject ids, cases, lowers, uppers, truths
    with _open(intervals_path, "intervals") as fh:
        reader = csv.DictReader(fh)
        missing = set(INTERVAL_COLUMNS[:-1]) - set(reader.fieldnames or [])
        if missing:
            raise InputFileError(f"intervals file is missing columns {sorted(missing)}")
        for i, row in enumerate(reader, start=2):  # header is line 1
            tv = _cell(row, "truth", i) if row["truth"] != "" else math.nan  # NaN: no truth
            alpha, sid = _cell(row, "alpha", i), _cell(row, "subject_id", i, np.int64)
            case, lo, hi = row["case"], _cell(row, "lower", i), _cell(row, "upper", i)
            if not 0.0 < alpha < 1.0:
                raise InputFileError(f"alpha must lie in (0, 1), got {alpha} at line {i}, "
                                     "column 'alpha'")
            if case not in CASES:
                raise InputFileError(f"unknown case {case!r}, expected one of {CASES} "
                                     f"at line {i}, column 'case'")
            if lo > hi:
                raise InputFileError("interval must have finite endpoints with lower <= upper, "
                                     f"got ({lo}, {hi}) at line {i}, column 'upper'")
            cols = groups.setdefault((row["method"], alpha), ([], [], [], [], []))
            for col, value in zip(cols, (sid, case, lo, hi, tv)):
                col.append(value)
    if not groups:
        raise InputFileError(f"intervals file {intervals_path} holds no interval rows")
    return [(method, Intervals(*map(np.array, cols), alpha), np.array(truth))
            for (method, alpha), (*cols, truth) in groups.items()]


def rescore(intervals_path: str) -> dict:
    """Score each (method, level, case) of an intervals.csv as summarize
    scores a replication's rows; rows without truth count in lengths only."""
    out = {}
    for method, block, truth in read_rows_csv(intervals_path):
        out.setdefault(method, {})[repr(block.alpha)] = _case_scores(block, truth)[1]
    return out
