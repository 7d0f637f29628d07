"""Compare the peak resident memory of each benchmark command in two trees.

    python3 validate/peak_rss.py PARENT CHANGE [--seed S] [--repeats N] [--workload W]

PARENT and CHANGE are checkouts of this repository (each holds src/fidte).
For each perfbench workload (or only W), each tree runs the workload's
command N times (default 20), alternating which tree goes first: the YAML
config that perfbench/run.py writes for seed S (default 1), `--workers 1`,
BLAS on one thread, from the tree's root.  The command runs in a small
wrapper around fidte.cli.main that reads its own VmHWM, the high-water mark
of its resident memory, from /proc/self/status as it exits.

perfbench reports the child's ru_maxrss instead.  subprocess starts a child
with vfork, and at exec Linux folds the memory the child shared with its
parent into the child's ru_maxrss, so a command that stays smaller than the
perfbench parent reads the parent's peak.  VmHWM counts the command's own
memory only.  This launcher imports no numpy, so it stays small anyway.

A command's own VmHWM still varies by about 0.2 MB from run to run, and
the moves this script is used to judge are about 0.1 MB, so 5 runs a tree
give quartiles too coarse to tell them apart; hence 20 by default.

The script prints, per workload, each tree's quartiles (q1, median, q3) in
MB and every run in order, then the change's median minus the parent's, the
parent's quartile distance (q3 - q1) and the count of pairs in which the
change is lower (pair i is each tree's i-th run; a tie counts for neither).
These are the numbers a claimed gain is judged by: the change lower in at
least nine tenths of the pairs, and the medians apart by more than the
parent's quartile distance.  It exits 1 if a command fails, 0 otherwise.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))

from run import WORKLOADS, child_env, write_config  # noqa: E402

# argv: VMHWM_FILE, then fidte's arguments; the file gets VmHWM in kB
WRAPPER = """
import sys
import fidte.cli
try:
    rc = fidte.cli.main(sys.argv[2:])
finally:
    with open("/proc/self/status") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    with open(sys.argv[1], "w") as fh:
        fh.write(kb)
sys.exit(rc)
"""


def peak_mb(root: str, workload, cfg_path: str, work: str) -> float:
    """One command of workload in the tree root; its own peak in MB."""
    hwm_path = os.path.join(work, "vmhwm")
    out = os.path.join(work, "out")
    argv = [sys.executable, "-c", WRAPPER, hwm_path, workload.subcommand,
            "--config", cfg_path, "--out", out, "--workers", "1"]
    proc = subprocess.run(argv, cwd=root, env=child_env(root), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no message"]
        raise RuntimeError(f"{workload.name} in {root}: exit {proc.returncode}: {tail[0]}")
    with open(hwm_path) as fh:
        return int(fh.read()) / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeats", type=int, default=20)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), default=None)
    args = ap.parse_args(argv)
    if args.repeats < 2:
        ap.error("--repeats: quartiles need at least 2 runs per tree")
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    names = [args.workload] if args.workload else list(WORKLOADS)
    work = tempfile.mkdtemp(prefix="peak_rss_")
    try:
        print(f"{'workload':<12} {'tree':<7} {'q1 MB':>8} {'median':>8} {'q3 MB':>8}  runs")
        for name in names:
            workload = WORKLOADS[name]
            cfg_path = os.path.join(work, f"{name}.yaml")
            write_config(workload, args.seed, cfg_path)
            runs = {tree: [] for tree in trees}
            for i in range(args.repeats):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for tree in order:
                    runs[tree].append(peak_mb(trees[tree], workload, cfg_path, work))
            quart = {tree: statistics.quantiles(v, n=4) for tree, v in runs.items()}
            for tree in trees:
                q1, med, q3 = quart[tree]
                listed = " ".join(f"{v:.3f}" for v in runs[tree])
                print(f"{name:<12} {tree:<7} {q1:>8.3f} {med:>8.3f} {q3:>8.3f}  {listed}")
            lower = sum(c < p for p, c in zip(runs["parent"], runs["change"]))
            print(f"{name:<12} change-parent {quart['change'][1] - quart['parent'][1]:+.3f} MB, "
                  f"parent q3-q1 {quart['parent'][2] - quart['parent'][0]:.3f} MB, "
                  f"change lower in {lower}/{args.repeats} pairs")
    except RuntimeError as e:
        print(f"peak_rss: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
