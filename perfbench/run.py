"""fidte benchmark: seeded CLI workloads, end-to-end metrics, per-layer trace.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding ``src/fidte``).
One parent process generates the load: a closed loop that starts one fresh
``fidte`` CLI child at a time (``perfbench/child.py``, ``--workers 1``) on a
YAML config built from a preset, a short budget and the seed, until the next
command would overrun ``--seconds`` (at least ``MIN_COMMANDS``).  Each
command's output is checked (``checks.py``) and read back with fidte's public
``runner.rescore``.

--trace 0 reports the end-to-end metrics, as medians over the commands:
  wall_s       command wall time, spawn to exit
  setup_s      spawn until the YAML config is resolved (interpreter start,
               ``import fidte``, config load)
  peak_rss_mb  peak resident memory of the child
The table above the result line also prints sampler_ms_per_iter, the mean
interval length and the coverage at alpha 0.05, and failed_frac.
--trace 1 alternates traced and untraced commands and reports the per-layer
metrics of ``tracer.layer_metrics`` plus the tracing overhead.

``--workload all`` runs every workload in turn and prints each one's table.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed command (non-
zero exit, sampler divergence or a failed output check) adds no timings and is
counted in ``failed``.  See perfbench/README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import check_chain, check_intervals, digest  # noqa: E402
from tracer import layer_metrics, ms_per_iter, summarize  # noqa: E402

# Seed kept out of every tuning run; a later performance claim must also hold
# on it (see README.md).
HELDOUT_SEED = 20250503
MIN_COMMANDS = 3
ALPHA = "0.05"
# A run must end within 180 s: each workload's loop, warm-up included, stops
# every child by this many seconds after it starts.
LIMIT_S = 165.0
WORK_DIR = ".perfbench_work"
# One BLAS thread: within any core count, and it fixes the summation order,
# so the digest does not depend on the machine (see README.md).
BLAS_THREADS = 1


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    config: dict

    @property
    def methods(self) -> list:
        return self.config["methods"]

    def interval_files(self) -> list:
        if self.subcommand == "fit":
            return ["intervals.csv"]
        return [f"rep_{r:03d}/intervals.csv" for r in range(self.config["R"])]

    def chain_draws(self):
        if self.subcommand != "fit":
            return None
        return self.config["m_keep"] // self.config["thin"]


# Why each workload exists, and which layer metric each should move, is in
# README.md.  Budgets are short so that a run holds several commands.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ate_n250",
            "benchmark",
            {"preset": "linear_ate_n250", "R": 2, "n_train": 250, "n_test": 0,
             "k_burn": 100, "m_keep": 300, "thin": 5, "methods": ["efi"]},
        ),
        Workload(
            "ite_ex2_fit",
            "fit",
            {"preset": "example2", "n_train": 1000, "n_test": 1000,
             "init_iters": 5, "k_burn": 10, "m_keep": 30, "thin": 1, "methods": ["efi"]},
        ),
        Workload(
            "cqr_ex1",
            "cqr",
            {"preset": "example1", "R": 1, "n_train": 500, "n_test": 1000,
             "methods": ["cqr-naive", "cqr-exact", "cqr-inexact"]},
        ),
    )
}

E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("_ms") or name.endswith("ms_per_iter"):
        return "ms"
    if name.endswith("_s") or ".ite_s." in name:
        return "s"
    if name == "io.bytes_written":
        return "bytes"
    return "count"


def child_env(root: str) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def write_config(workload: Workload, seed: int, path: str) -> None:
    lines = [f"{key}: {json.dumps(value)}" for key, value in workload.config.items()]
    lines.append(f"seed: {seed}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def dir_bytes(path: str) -> int:
    total = 0
    for base, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


def score(outdir: str, workload: Workload) -> tuple:
    """Pooled (mean length, coverage) at ALPHA via fidte's runner.rescore."""
    from fidte.runner import rescore

    n = length = covered = 0.0
    for rel in workload.interval_files():
        for alphas in rescore(os.path.join(outdir, rel)).values():
            for block in alphas.get(ALPHA, {}).values():
                n += block["n"]
                length += block["n"] * block["mean_length"]
                covered += block["n"] * (block["coverage"] or 0.0)
    return length / n, covered / n


def check_outputs(outdir: str, workload: Workload) -> list:
    problems = []
    if workload.subcommand != "fit" and not os.path.exists(os.path.join(outdir, "summary.json")):
        problems.append("summary.json missing")
    for rel in workload.interval_files():
        problems += check_intervals(
            os.path.join(outdir, rel), workload.methods, workload.config["n_test"]
        )
    if workload.chain_draws() is not None:
        problems += check_chain(os.path.join(outdir, "chain.csv"), workload.chain_draws())
    return problems


def run_command(workload, root, work, cfg_path, i, traced, env, timeout) -> dict:
    """One fresh child command; returns its timings or its failure reason."""
    outdir = os.path.join(work, f"out_{i}")
    result_path = os.path.join(work, f"result_{i}.json")
    argv = [sys.executable, os.path.join(HERE, "child.py"), result_path,
            "1" if traced else "0", "--", workload.subcommand,
            "--config", cfg_path, "--out", outdir, "--workers", "1"]
    start = time.monotonic()
    proc = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"traced": traced, "failure": f"timed out after {timeout:.0f} s"}
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    wall = time.monotonic() - start
    rec = {"traced": traced, "wall_s": wall}
    if not os.path.exists(result_path):
        tail = err.strip().splitlines()[-1:] or ["no result file"]
        rec["failure"] = f"exit {proc.returncode}: {tail[0]}"
        return rec
    with open(result_path) as fh:
        res = json.load(fh)
    if res["error"] is not None:
        rec["failure"] = f"diverged: {res['error']}"
        return rec
    if proc.returncode != 0:
        rec["failure"] = f"exit {proc.returncode}"
        return rec
    problems = check_outputs(outdir, workload)
    if problems:
        rec["failure"] = "check: " + "; ".join(problems[:3])
        return rec
    names = res["names"]
    spans = [(names[s[0]], s[1], s[2], s[3], s[4]) for s in res["spans"]]
    resolved_at = [s[2] for s in spans if s[0] == "config.resolve"]
    if not resolved_at:
        rec["failure"] = "config was never resolved"
        return rec
    summary = summarize(spans)
    rec["setup_s"] = resolved_at[0] - start
    rec["peak_rss_mb"] = res["maxrss_kb"] / 1024.0
    rec["ms_per_iter"] = ms_per_iter(summary)
    rec["interval_len"], rec["coverage"] = score(outdir, workload)
    rec["digest"] = digest(
        [os.path.join(outdir, rel) for rel in workload.interval_files()],
        os.path.join(outdir, "chain.csv") if workload.chain_draws() is not None else None,
    )
    if traced:
        layers = layer_metrics(summary)
        layers["setup.import_s"] = res["import_s"]
        layers["io.bytes_written"] = dir_bytes(outdir)
        rec["layers"] = layers
    shutil.rmtree(outdir, ignore_errors=True)
    return rec


def run_workload(workload: Workload, root: str, seed: int, seconds: float, trace: bool) -> list:
    """Closed loop of fresh commands for about `seconds`; returns their records."""
    deadline = time.monotonic() + LIMIT_S
    work = os.path.join(root, WORK_DIR, f"{workload.name}-{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    env = child_env(root)
    try:
        cfg_path = os.path.join(work, "config.yaml")
        write_config(workload, seed, cfg_path)
        # compile fidte's bytecode and warm the page cache outside the timings
        subprocess.run([sys.executable, "-c", "import fidte.cli"], cwd=root, env=env,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60)
        t0 = time.monotonic()
        recs = []
        while True:
            now = time.monotonic()
            walls = [r["wall_s"] for r in recs if "wall_s" in r]
            typical = statistics.median(walls) if walls else 0.0
            done = [r for r in recs if "failure" not in r]
            enough = sum(not r["traced"] for r in done) >= MIN_COMMANDS and (
                not trace or sum(r["traced"] for r in done) >= MIN_COMMANDS)
            if enough and now - t0 + typical > seconds:
                break
            if deadline - now < 5.0 or (len(recs) >= 4 * MIN_COMMANDS and not done):
                break
            traced = trace and len(recs) % 2 == 1
            recs.append(run_command(workload, root, work, cfg_path, len(recs), traced, env,
                                    timeout=deadline - now))
        return recs
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run is still using it


def _median(recs, key):
    vals = [r[key] for r in recs]
    return statistics.median(vals) if vals else None


def aggregate(recs: list, trace: bool) -> dict:
    ok = [r for r in recs if "failure" not in r]
    plain = [r for r in ok if not r["traced"]]
    if not plain:
        return {}
    if not trace:
        return {k: _median(plain, k) for k in E2E_UNITS}
    traced = [r for r in ok if r["traced"]]
    if not traced:
        return {}
    metrics = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
    metrics["trace.overhead_s"] = _median(traced, "wall_s") - _median(plain, "wall_s")
    return metrics


def environment_record(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "heldout_seed": HELDOUT_SEED,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
    }


def report(workload: Workload, recs: list, metrics: dict, trace: bool, env_rec: dict) -> None:
    ok = [r for r in recs if "failure" not in r]
    plain = [r for r in ok if not r["traced"]]
    print(f"== {workload.name} ({workload.subcommand}, seed {env_rec['seed']}, "
          f"trace {int(trace)}): {len(recs)} commands, {len(recs) - len(ok)} failed")
    for r in recs:
        if "failure" in r:
            print(f"   failed: {r['failure']}")
    for name, value in metrics.items():
        print(f"   {name:28s} {value:12.6g} {unit_of(name)}")
    if not trace and plain:
        efi = workload.subcommand != "cqr"
        cov = _median(plain, "coverage") if workload.config["n_test"] else None
        print(f"   {'sampler_ms_per_iter':28s} "
              + (f"{_median(plain, 'ms_per_iter'):12.6g} ms" if efi else "         n/a (no sampler)"))
        print(f"   {'interval_len':28s} {_median(plain, 'interval_len'):12.6g} at alpha {ALPHA}")
        print(f"   {'coverage':28s} "
              + (f"{cov:12.6g} at alpha {ALPHA}" if cov is not None else "         n/a (ATE, R=2)"))
    print(f"   {'failed_frac':28s} {(len(recs) - len(ok)) / max(1, len(recs)):12.6g}")
    digests = sorted({r["digest"] for r in ok})
    print("record " + json.dumps(dict(env_rec, workload=workload.name, digests=digests)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its child and removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fidte", "cli.py")):
        print(f"no fidte source under {root}/src; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    env_rec = environment_record(args.seed)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    attempted = failed = 0
    complete = True
    merged = {}
    for name in names:
        workload = WORKLOADS[name]
        recs = run_workload(workload, root, args.seed, args.seconds, trace)
        metrics = aggregate(recs, trace)
        report(workload, recs, metrics, trace, env_rec)
        attempted += len(recs)
        failed += sum("failure" in r for r in recs)
        complete = complete and bool(metrics)
        prefix = f"{name}." if args.workload == "all" else ""
        for key, value in metrics.items():
            merged[prefix + key] = {"value": value, "unit": unit_of(key)}
    result = {"correct": failed == 0 and complete, "attempted": attempted,
              "failed": failed, "metrics": merged}
    print(json.dumps(result))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
