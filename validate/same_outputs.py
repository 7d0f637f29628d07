"""Check that two source trees write the same output files, byte for byte.

    python3 validate/same_outputs.py PARENT CHANGE [--seed S]

PARENT and CHANGE are checkouts of this repository (each holds src/fidte).
Each tree runs seven commands at seed S (default 1), each command in its
own interpreter with BLAS on one thread:

  fit        example2, n_train 1000, n_test 1000, init 5 / burn 10 / keep 30
             / thin 1, efi (the perfbench ite_ex2_fit workload's config);
  benchmark  example1, R 2, init 20 / burn 50 / keep 200 / thin 2, alphas
             0.05 and 0.10, efi and the three cqr-* modes, with trace on, so
             each replication's trace_efi.csv is compared across the end of
             the initial phase;
  benchmark  linear_ate_n250, R 2, burn 100, keep 300;
  cqr        example1, R 1, n_train 500, n_test 1000, the three cqr-* modes
             (the perfbench cqr_ex1 workload's config);
  simulate   example1 and example2 at their preset sizes, so the generated
             train.csv and test.csv are compared;
  fit        a csv config, burn 100 / keep 300 / thin 5, on a 200-row file
             of three covariates and both arms that this script writes from
             seed S with its own numpy code into the directory the commands
             run in, so the csv reader and the linear_ate model's ATE
             interval are compared.

After each command that writes an intervals.csv, each tree runs `fidte
report --out OUT/report` on its own copy of the first one, so report.json is
compared too.  Every file a command writes is compared byte for byte with
the other tree's.
summary.json is compared after one mask: its config.outdir, which names each
tree's own output directory, is dropped.  A config key that only one tree
writes (a field one of them added or removed) is listed as a note and left
out of the comparison.  A difference names what differs: the methods whose
rows differ in an intervals.csv, and the method blocks (and other top-level
keys) that differ in summary.json, so a change that should move one method
shows that the others did not move.  A command that fails in both trees
with the same last stderr line is a note; one that fails in one tree only
is a difference.  The run exits 1 on any difference, 0 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

# (name, subcommand, config keys); the seed is added per run
COMMANDS = (
    ("ite_ex2_fit", "fit",
     {"preset": "example2", "n_train": 1000, "n_test": 1000, "init_iters": 5, "k_burn": 10,
      "m_keep": 30, "thin": 1, "methods": ["efi"]}),
    ("example1", "benchmark",
     {"preset": "example1", "R": 2, "init_iters": 20, "k_burn": 50, "m_keep": 200, "thin": 2,
      "alphas": [0.05, 0.10], "methods": ["efi", "cqr-naive", "cqr-exact", "cqr-inexact"],
      "trace": True}),
    ("linear_ate_n250", "benchmark",
     {"preset": "linear_ate_n250", "R": 2, "k_burn": 100, "m_keep": 300}),
    ("cqr_ex1", "cqr",
     {"preset": "example1", "R": 1, "n_train": 500, "n_test": 1000,
      "methods": ["cqr-naive", "cqr-exact", "cqr-inexact"]}),
    ("simulate_example1", "simulate", {"preset": "example1"}),
    ("simulate_example2", "simulate", {"preset": "example2"}),
    ("csv_fit", "fit",
     {"csv": "data.csv", "csv_schema": {"y": "y", "t": "t", "x": ["x1", "x2", "x3"]},
      "k_burn": 100, "m_keep": 300, "thin": 5}),
)


def write_csv_data(path: str, seed: int) -> None:
    """The csv_fit command's data file: 200 rows of x1..x3, t and y, half of
    them treated, y = 1 + x1 - x2 + x3 / 2 + t + N(0, 1)."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((200, 3))
    t = rng.permutation(np.arange(200) % 2)
    y = 1.0 + x @ np.array([1.0, -1.0, 0.5]) + t + rng.standard_normal(200)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "x3", "t", "y"])
        writer.writerows([*map(repr, row)] for row in np.column_stack([x, t, y]).tolist())


def start(root: str, args: list, cwd: str) -> subprocess.Popen:
    """`python -m fidte.cli ARGS` on root's src in cwd, BLAS on one thread."""
    src = os.path.join(os.path.abspath(root), "src")
    if not os.path.isdir(os.path.join(src, "fidte")):
        raise SystemExit(f"{root}: no src/fidte here")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.Popen([sys.executable, "-m", "fidte.cli", *args], env=env, cwd=cwd,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)


def finish(procs: list) -> list:
    """(exit status, last stderr line) of each process, once it has ended."""
    tails = []
    for proc in procs:
        _, err = proc.communicate()
        lines = err.strip().splitlines()
        tails.append((proc.returncode, lines[-1] if lines else ""))
    return tails


def files_under(root: str) -> set:
    if not os.path.isdir(root):
        return set()
    return {os.path.relpath(os.path.join(d, f), root) for d, _, fs in os.walk(root) for f in fs}


def masked_summary(path: str) -> dict:
    with open(path) as fh:
        summary = json.load(fh)
    summary["config"].pop("outdir", None)
    return summary


def summary_differences(a_path: str, b_path: str, notes: list) -> list:
    """The parts of two summary.json files that differ once masked: a
    "method X" per differing method block, else the top-level key; one-sided
    config keys go to notes."""
    a, b = masked_summary(a_path), masked_summary(b_path)
    for key in sorted(set(a["config"]) ^ set(b["config"])):
        side = "parent" if key in a["config"] else "change"
        notes.append(f"config key {key!r} only in the {side} tree's summary.json")
        a["config"].pop(key, None)
        b["config"].pop(key, None)
    dump = lambda s: json.dumps(s, sort_keys=True, indent=2)
    parts = []
    for key in sorted(set(a) | set(b)):
        if key == "methods":
            parts += [f"method {m}" for m in sorted(set(a[key]) | set(b[key]))
                      if dump(a[key].get(m)) != dump(b[key].get(m))]
        elif dump(a.get(key)) != dump(b.get(key)):
            parts.append(key)
    return parts


def first_differing_line(a_path: str, b_path: str) -> str:
    with open(a_path, "rb") as fa, open(b_path, "rb") as fb:
        for i, (la, lb) in enumerate(zip(fa, fb), start=1):
            if la != lb:
                return f"line {i}"
    return "length"


def rows_by_method(path: str) -> tuple[list, dict]:
    """An intervals.csv's header and its rows grouped by their first column,
    the method."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    groups = {}
    for row in rows[1:]:
        groups.setdefault(row[0], []).append(row)
    return rows[:1], groups


def interval_differences(a_path: str, b_path: str) -> str:
    """Which methods' rows differ in two intervals.csv files."""
    (a_head, a_rows), (b_head, b_rows) = rows_by_method(a_path), rows_by_method(b_path)
    moved = sorted(m for m in set(a_rows) | set(b_rows) if a_rows.get(m) != b_rows.get(m))
    same = sorted(set(a_rows) & set(b_rows) - set(moved))
    parts = [] if a_head == b_head else ["header"]
    if moved:
        parts.append(f"rows of {', '.join(moved)}")
    if not parts:  # the same cells written differently
        return f"differs at {first_differing_line(a_path, b_path)}"
    return f"differs in {'; '.join(parts)}" + (f" (same: {', '.join(same)})" if same else "")


def compare_outputs(a_dir: str, b_dir: str) -> tuple[list, list, int]:
    """(differences, notes, files compared) of two output directories."""
    diffs, notes = [], []
    a_files, b_files = files_under(a_dir), files_under(b_dir)
    for rel in sorted(a_files ^ b_files):
        diffs.append(f"{rel}: only in the {'parent' if rel in a_files else 'change'} tree")
    both = sorted(a_files & b_files)
    for rel in both:
        a_path, b_path = os.path.join(a_dir, rel), os.path.join(b_dir, rel)
        if os.path.basename(rel) == "summary.json":
            parts = summary_differences(a_path, b_path, notes)
            if parts:
                diffs.append(f"{rel}: differs after masking config.outdir, in {', '.join(parts)}")
            continue
        with open(a_path, "rb") as fa, open(b_path, "rb") as fb:
            if fa.read() == fb.read():
                continue
        if os.path.basename(rel) == "intervals.csv":
            diffs.append(f"{rel}: {interval_differences(a_path, b_path)}")
        else:
            diffs.append(f"{rel}: differs at {first_differing_line(a_path, b_path)}")
    return diffs, notes, len(both)


def write_config(path: str, keys: dict, seed: int) -> None:
    """A command's config file: its keys plus the seed, one JSON value each."""
    with open(path, "w") as fh:
        fh.writelines(f"{k}: {json.dumps(v)}\n" for k, v in {**keys, "seed": seed}.items())


def run_command(name, subcommand, keys, seed, trees, work) -> tuple[list, list, int]:
    cfg_path = os.path.join(work, f"{name}.yaml")
    write_config(cfg_path, keys, seed)
    outdirs = [os.path.join(work, side, name) for side in ("parent", "change")]
    args = [subcommand, "--config", cfg_path, "--workers", "1"]
    steps = [(subcommand, finish([start(root, args + ["--out", out], work)
                                  for root, out in zip(trees, outdirs)]))]
    written = sorted(rel for rel in files_under(outdirs[0])
                     if os.path.basename(rel) == "intervals.csv")
    if written:
        steps.append(("report", finish([
            start(root, ["report", "--out", os.path.join(out, "report"),
                         os.path.join(out, written[0])], work)
            for root, out in zip(trees, outdirs)])))
    diffs, notes, compared = compare_outputs(*outdirs)
    for step, ((a_code, a_tail), (b_code, b_tail)) in steps:
        if (a_code != 0 or b_code != 0) and (a_code, a_tail) == (b_code, b_tail):
            notes.append(f"{step}: both trees exited {a_code}: {a_tail}")
        elif a_code != 0 or b_code != 0:
            diffs.append(f"{step}: exit status parent {a_code} ({a_tail}), "
                         f"change {b_code} ({b_tail})")
    return diffs, notes, compared


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--seed", type=int, default=1, help="seed of every command (default 1)")
    args = ap.parse_args(argv)

    total = 0
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as work:
        write_csv_data(os.path.join(work, "data.csv"), args.seed)
        for name, subcommand, keys in COMMANDS:
            diffs, notes, compared = run_command(
                name, subcommand, keys, args.seed, (args.parent, args.change), work)
            total += len(diffs)
            print(f"{name} ({subcommand}, seed {args.seed}): {compared} files compared, "
                  f"{len(diffs)} differ")
            for line in diffs:
                print(f"  DIFF {line}")
            for line in notes:
                print(f"  note {line}")
    print("same outputs" if total == 0 else f"{total} differences")
    return 0 if total == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
