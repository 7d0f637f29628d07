"""Output checks and behaviour digest for one benchmark command.

The checks read the files a command wrote, independently of fidte's own
code: every interval is finite with lower <= upper, there is exactly one
row per (method, test subject) or one ATE row per replication, and a chain
file has the expected number of finite rows with sigma > 0.  Each check
returns a list of problems; an empty list means the output passed.

The digest is a SHA-256 over the draws and interval endpoints rounded to 9
significant digits.  It lets a later change show that its output did not
move; it is informational and never fails a run.
"""

from __future__ import annotations

import csv
import hashlib
import math

_INTERVAL_COLUMNS = ("method", "alpha", "subject_id", "case", "lower", "upper")


def _round(text: str) -> str:
    return format(float(text), ".9g")


def check_intervals(path: str, methods, n_test: int) -> list[str]:
    """Problems in one intervals.csv; n_test 0 means one ATE row per method."""
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            missing = set(_INTERVAL_COLUMNS) - set(reader.fieldnames or [])
            if missing:
                return [f"{path}: missing columns {sorted(missing)}"]
            rows = list(reader)
    except OSError as e:
        return [f"{path}: {e}"]
    problems = []
    keys = []
    for line, row in enumerate(rows, start=2):
        try:
            lo, hi = float(row["lower"]), float(row["upper"])
        except ValueError:
            problems.append(f"{path}:{line}: non-numeric endpoint")
            continue
        if not (math.isfinite(lo) and math.isfinite(hi)):
            problems.append(f"{path}:{line}: non-finite interval [{lo}, {hi}]")
        elif lo > hi:
            problems.append(f"{path}:{line}: lower {lo} > upper {hi}")
        keys.append((row["method"], row["subject_id"], row["case"] == "ATE"))
    if n_test:
        want = sorted((m, str(i), False) for m in methods for i in range(n_test))
    else:
        want = sorted((m, "-1", True) for m in methods)
    if sorted(keys) != want:
        problems.append(
            f"{path}: {len(keys)} rows do not match one row per method and "
            f"{'test subject' if n_test else 'replication'} ({len(want)} expected)"
        )
    return problems


def check_chain(path: str, n_draws: int) -> list[str]:
    """Problems in a chain.csv: n_draws rows, all finite, sigma > 0."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            rows = list(reader)
    except OSError as e:
        return [f"{path}: {e}"]
    if "sigma" not in header:
        return [f"{path}: no sigma column"]
    problems = []
    if len(rows) != n_draws:
        problems.append(f"{path}: {len(rows)} draws, expected {n_draws}")
    s_col = header.index("sigma")
    for line, row in enumerate(rows, start=2):
        try:
            vals = [float(v) for v in row]
        except ValueError:
            problems.append(f"{path}:{line}: non-numeric value")
            continue
        if len(vals) != len(header) or not all(math.isfinite(v) for v in vals):
            problems.append(f"{path}:{line}: short or non-finite row")
        elif vals[s_col] <= 0.0:
            problems.append(f"{path}:{line}: sigma {vals[s_col]} <= 0")
    return problems


def digest(interval_paths, chain_path=None) -> str:
    """SHA-256 of rounded chain draws and interval rows, in a fixed order."""
    h = hashlib.sha256()
    if chain_path is not None:
        with open(chain_path, newline="") as fh:
            reader = csv.reader(fh)
            next(reader, None)
            for row in reader:
                h.update((",".join(_round(v) for v in row) + "\n").encode())
    for path in interval_paths:
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                fields = [row["method"], row["alpha"], row["subject_id"], row["case"],
                          _round(row["lower"]), _round(row["upper"])]
                h.update((",".join(fields) + "\n").encode())
    return h.hexdigest()
