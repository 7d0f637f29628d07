"""Check that two source trees give CQR intervals equal in distribution.

    python3 validate/compare_cqr.py PARENT CHANGE --seeds S [--seed BASE]

PARENT and CHANGE are checkouts of this repository (each holds src/fidte).
For each seed s in BASE .. BASE + S - 1, each tree runs replication 0 of
`fidte cqr` on the example1 preset at seed s (R 1, n_train 500, n_test
1000, alpha 0.05 and 0.10, modes naive, exact and inexact) in its own
interpreter, with BLAS on one thread.  Per mode and level the script prints
the mean over seeds of the paired relative change in mean interval length,
(change - parent) / parent, and of the change in coverage of the realized
effects, each with a two-sided sign-flip permutation p-value.

A seed on which both trees raise the calibration shortfall (an arm with too
few calibration rows for its level) is reported and skipped; a seed on which
only one tree raises fails the run.  The run passes when every p-value is at
least P_MIN, and exits 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import numpy as np

MODES = ("naive", "exact", "inexact")
ALPHAS = (0.05, 0.10)
# Bonferroni over 24 tests: 3 modes x 2 levels x 2 statistics, each run at
# two seed sets (BASE 1 and BASE 20250503)
P_MIN = 0.05 / 24
FLIPS = 20000


def run_seeds(base: int, count: int) -> dict:
    """Per seed, {mode: {alpha: [mean length, coverage]}} or {"shortfall": msg}."""
    # imported here, in the child, whose PYTHONPATH names one tree's src
    from fidte.config import preset_config
    from fidte.runner import run_replication

    out = {}
    for seed in range(base, base + count):
        config = preset_config(
            "example1", R=1, n_train=500, n_test=1000, alphas=ALPHAS, seed=seed,
            methods=tuple(f"cqr-{m}" for m in MODES),
        )
        try:
            rows = run_replication(config, 0, None)["rows"]
        except ValueError as e:
            if "infinite band" not in str(e):
                raise
            out[seed] = {"shortfall": str(e)}
            continue
        # a row is one block of intervals per method and level, or, in trees
        # before interval blocks, one interval per test subject
        cells = {}
        for method, iv, truth in rows:
            cells.setdefault((method[len("cqr-"):], iv.alpha), []).append(
                [np.atleast_1d(v) for v in (iv.lower, iv.upper, truth)]
            )
        out[seed] = {mode: {str(a): length_and_coverage(cells[(mode, a)]) for a in ALPHAS}
                     for mode in MODES}
    return out


def length_and_coverage(parts) -> list:
    """Mean length and coverage of (lower, upper, truth) arrays taken together."""
    lower, upper, truth = map(np.concatenate, zip(*parts))
    return [float(np.mean(upper - lower)), float(np.mean((lower <= truth) & (truth <= upper)))]


def start_tree(root: str, base: int, count: int) -> subprocess.Popen:
    src = os.path.join(os.path.abspath(root), "src")
    if not os.path.isdir(os.path.join(src, "fidte")):
        raise SystemExit(f"{root}: no src/fidte here")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, os.path.abspath(__file__), "--run-seeds", str(base), str(count)]
    return subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)


def sign_flip_p(diffs: np.ndarray, rng: np.random.Generator) -> float:
    """Two-sided p of mean(diffs) = 0 against random sign flips of each pair."""
    observed = abs(diffs.mean())
    signs = rng.choice((-1.0, 1.0), size=(FLIPS, diffs.size))
    flipped = np.abs(signs @ diffs) / diffs.size
    return float((1 + np.count_nonzero(flipped >= observed - 1e-15)) / (1 + FLIPS))


def compare(parent: dict, change: dict) -> tuple[list, list]:
    """The table rows, and the seeds both trees skipped."""
    skipped, kept = [], []
    for seed in sorted(parent, key=int):
        a, b = "shortfall" in parent[seed], "shortfall" in change[seed]
        if a != b:
            side = "parent" if a else "change"
            raise SystemExit(f"seed {seed}: only the {side} tree raised: "
                             f"{(parent if a else change)[seed]['shortfall']}")
        (skipped if a else kept).append(seed)
    if not kept:
        raise SystemExit("every seed raised the calibration shortfall on both trees")
    rng = np.random.default_rng(0)
    rows = []
    for mode in MODES:
        for a in map(str, ALPHAS):
            p_vals = np.array([parent[s][mode][a] for s in kept])
            c_vals = np.array([change[s][mode][a] for s in kept])
            rel_len = (c_vals[:, 0] - p_vals[:, 0]) / p_vals[:, 0]
            d_cov = c_vals[:, 1] - p_vals[:, 1]
            rows.append({
                "mode": mode, "alpha": float(a), "seeds": len(kept),
                "length_parent": float(p_vals[:, 0].mean()),
                "length_change": float(c_vals[:, 0].mean()),
                "rel_length_change": float(rel_len.mean()),
                "max_abs_rel_length_change": float(np.abs(rel_len).max()),
                "p_length": sign_flip_p(rel_len, rng),
                "coverage_parent": float(p_vals[:, 1].mean()),
                "coverage_change": float(c_vals[:, 1].mean()),
                "coverage_change_diff": float(d_cov.mean()),
                "p_coverage": sign_flip_p(d_cov, rng),
            })
    return rows, skipped


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["--run-seeds"]:
        json.dump(run_seeds(int(argv[1]), int(argv[2])), sys.stdout)
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--seeds", type=int, required=True, help="number of seeds")
    ap.add_argument("--seed", type=int, default=1, help="first seed (default 1)")
    ap.add_argument("--json", help="also write the table and skipped seeds here")
    args = ap.parse_args(argv)
    if args.seeds < 2:
        ap.error("--seeds must be at least 2")

    procs = [start_tree(root, args.seed, args.seeds) for root in (args.parent, args.change)]
    results = []
    for proc in procs:
        out, _ = proc.communicate()
        if proc.returncode != 0:
            raise SystemExit(f"a tree's run exited with status {proc.returncode}")
        results.append(json.loads(out))
    rows, skipped = compare(*results)

    for seed in skipped:
        print(f"seed {seed}: skipped, both trees raised: {results[0][seed]['shortfall']}")
    print(f"{'mode':8s} {'alpha':>5s} {'len parent':>10s} {'len change':>10s} {'rel len':>8s} "
          f"{'p':>7s} {'cov parent':>10s} {'cov change':>10s} {'d cov':>8s} {'p':>7s}")
    for r in rows:
        print(f"{r['mode']:8s} {r['alpha']:5.2f} {r['length_parent']:10.4f} "
              f"{r['length_change']:10.4f} {r['rel_length_change']:+8.4f} {r['p_length']:7.4f} "
              f"{r['coverage_parent']:10.4f} {r['coverage_change']:10.4f} "
              f"{r['coverage_change_diff']:+8.4f} {r['p_coverage']:7.4f}")
    p_low = min(min(r["p_length"], r["p_coverage"]) for r in rows)
    passed = p_low >= P_MIN
    print(f"seeds {args.seed}..{args.seed + args.seeds - 1}: {rows[0]['seeds']} "
          f"compared, {len(skipped)} skipped; smallest p {p_low:.4f} against {P_MIN:.5f}: "
          f"{'pass' if passed else 'FAIL'}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"seed": args.seed, "seeds": args.seeds, "p_min": P_MIN,
                       "passed": passed, "skipped": skipped, "rows": rows}, fh, indent=1)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
