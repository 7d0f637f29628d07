"""Command line for dataset simulation, fitting, baselines, and benchmarks.

Subcommands:
  simulate   draw one dataset from a configured design and write it as CSV
  fit        one EFI run on replication 0's data; writes chain and intervals
  cqr        the conformal baselines only, full replication loop; it says on
             stderr that it skips efi when the config lists it
  benchmark  every configured method, full replication loop, summary JSON
  report     re-score an existing intervals.csv

simulate, fit, cqr and benchmark accept --config (a YAML file or a preset
name), --seed, --out, --paper-scale and --workers.  The config's data source
chooses the model: a design fits its own, a csv file the linear_ate model.
simulate and fit handle one replication, so they say on stderr that they
ignore --workers above 1.  report takes the intervals.csv path and --out
only, and keys a level by its alpha as a number (0.10 and 1e-1 are 0.1).
A bad config, a config file that cannot be read or parsed, a csv config
given to simulate or cqr, a csv data file or intervals.csv that cannot be
read as one (for report, a malformed row, named by its line and column),
a csv data file whose treatment column holds one arm only, and a csv data
file with fewer rows than n_batches each exit 2 with one stderr line,
"fidte: error: <message>", before any output directory is made; an error
raised inside a replication keeps its traceback.  Each output directory is
made at its first write, so a replication that fails before writing leaves
no directory behind.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .config import PRESETS, VALID_METHODS, ExperimentConfig, load_config, preset_config
from .runner import (
    InputFileError,
    _replication_data,
    read_csv_rows,
    replication_ints,
    rescore,
    run_experiment,
    run_replication,
    save_dataset_csv,
    write_float_csv,
    write_rows_csv,
)


def _fail(message: str):
    """A config or input-file error: one stderr line, exit status 2."""
    print(f"fidte: error: {message}", file=sys.stderr)
    raise SystemExit(2) from None


def _resolve_config(args) -> ExperimentConfig:
    try:
        if args.config is None:
            raise ValueError("a --config file or preset name is required")
        if os.path.exists(args.config):
            cfg = load_config(args.config, paper_scale=args.paper_scale or None)
        elif args.config in PRESETS:
            cfg = preset_config(args.config, paper_scale=bool(args.paper_scale))
        else:
            raise ValueError(
                f"--config {args.config!r} is neither a file nor one of {sorted(PRESETS)}"
            )
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if args.out is not None:
            cfg = replace(cfg, outdir=args.out)
    except ValueError as e:
        _fail(str(e))
    return cfg


def _worker_count(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _ignore_workers(args) -> None:
    if args.workers > 1:
        print(
            f"{args.command} handles one replication; ignoring --workers {args.workers}",
            file=sys.stderr,
        )


def cmd_simulate(args) -> int:
    _ignore_workers(args)
    cfg = _resolve_config(args)
    if cfg.design is None:
        _fail("simulate needs a design-based config, not a csv one")
    train, test = _replication_data(cfg, replication_ints(cfg.seed, 0))
    os.makedirs(cfg.outdir, exist_ok=True)
    save_dataset_csv(train, os.path.join(cfg.outdir, "train.csv"))
    if test is not None:
        save_dataset_csv(test, os.path.join(cfg.outdir, "test.csv"))
    print(f"wrote train.csv ({train.n} rows) to {cfg.outdir}")
    return 0


def cmd_fit(args) -> int:
    _ignore_workers(args)
    cfg = _resolve_config(args)
    skipped = [m for m in cfg.methods if m != "efi"]
    if skipped:
        print(
            f"fit runs efi only; skipping {', '.join(skipped)} "
            "(run them with `fidte cqr` or `fidte benchmark`)",
            file=sys.stderr,
        )
    cfg = replace(cfg, methods=("efi",))
    csv_rows = read_csv_rows(cfg)
    rep = run_replication(cfg, 0, csv_rows, rep_dir=cfg.outdir)
    chain = rep["chain"]
    os.makedirs(cfg.outdir, exist_ok=True)
    write_chain_csv(chain, os.path.join(cfg.outdir, "chain.csv"))
    write_rows_csv(rep["rows"], os.path.join(cfg.outdir, "intervals.csv"))
    print(f"wrote chain.csv ({chain.n_draws} draws) and intervals.csv to {cfg.outdir}")
    return 0


def write_chain_csv(chain, path: str) -> None:
    """One row per draw: theta, sigma and energy, each as repr(float).

    theta and sigma are in the solve's standardized units, not data units:
    theta is the draw's theta_bar as the sampler records it, and sigma is
    exp of its log-sigma slot, the noise scale of the standardized outcome
    (multiply by the train set's outcome sd for data units).  energy is U
    at the draw.

    Written by runner.write_float_csv."""
    header = [f"theta_{j}" for j in range(chain.draws.shape[1])] + ["sigma", "energy"]
    write_float_csv(path, header, [chain.draws, chain.sigmas, chain.energies])


def cmd_cqr(args) -> int:
    cfg = _resolve_config(args)
    cqr_modes = lambda methods: tuple(m for m in methods if m.startswith("cqr-"))
    try:  # a csv config has no test set for them
        cqr_cfg = replace(cfg, methods=cqr_modes(cfg.methods) or cqr_modes(VALID_METHODS))
    except ValueError as e:
        _fail(str(e))
    if "efi" in cfg.methods:
        print(
            "cqr runs the conformal baselines only; skipping efi "
            "(run it with `fidte fit` or `fidte benchmark`)",
            file=sys.stderr,
        )
    run_experiment(cqr_cfg, workers=args.workers)
    print(f"wrote summary.json to {cfg.outdir}")
    return 0


def cmd_benchmark(args) -> int:
    cfg = _resolve_config(args)
    run_experiment(cfg, workers=args.workers)
    print(f"wrote summary.json to {cfg.outdir}")
    return 0


def cmd_report(args) -> int:
    scores = rescore(args.intervals)
    text = json.dumps(scores, sort_keys=True, indent=2)
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "report.json"), "w") as fh:
            fh.write(text)
            fh.write("\n")
    print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fidte", description="fiducial treatment-effect experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="YAML config file or preset name")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the config output directory")
        p.add_argument(
            "--paper-scale", action="store_true",
            help="use full published iteration budgets instead of desk-scale halves",
        )
        p.add_argument("--workers", type=_worker_count, default=1, help="parallel replications")

    p = sub.add_parser("simulate", help="write one replication's datasets as CSV")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "fit",
        help="single EFI run: chain draws plus intervals",
        description="One EFI run on replication 0's data.  chain.csv holds one row per "
        "draw: theta and sigma in the solve's standardized units (sigma is the noise "
        "scale of the standardized outcome, not of y) and the energy.  intervals.csv "
        "holds the intervals in data units.",
    )
    common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("cqr", help="conformal baselines only")
    common(p)
    p.set_defaults(func=cmd_cqr)

    p = sub.add_parser("benchmark", help="all configured methods, all replications")
    common(p)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("report", help="re-score an intervals.csv")
    p.add_argument("--out", default=None, help="directory to write report.json to")
    p.add_argument("intervals", help="path to an intervals.csv written by this tool")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputFileError as e:
        _fail(str(e))


if __name__ == "__main__":
    sys.exit(main())
