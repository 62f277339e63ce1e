"""Compare two checkouts on the benchmark, in alternating pairs of runs.

Pair i, for i = 1 ... N, runs

    python3 perfbench/run.py --workload W --seed BASE+i --seconds S --trace 0

once in the parent checkout and once in the change checkout, one process
at a time, the parent first when i is odd.  Each run's last line of
stdout is its JSON result.  A run that exits non-zero, or reports
failed > 0, stops the script with exit 1.

For each end-to-end metric of BENCHMARK.json (read, never written), it
prints each side's median and quartiles, the change's wins (pairs where it
reads better; ties count for neither) and a verdict:

* gain       - wins in at least 9 of 10 pairs, and the medians differ, in
               the better direction, by more than the parent's
               interquartile range;
* worse      - the change's median is worse than the parent's by more than
               the metric's bound, a share of the parent's median;
* unresolved - the parent's interquartile range is wider than the bound,
               unless every run of the change reads better than every run
               of the parent;
* within     - none of these.

Run from the root of the change checkout, with a parent checkout made by
`git archive` or `git clone`:

    python scripts/bench_pairs.py PARENT CHANGE [--workload W] [--pairs 10]
        [--seed-base 400] [--seconds 30]

Without --workload every workload of BENCHMARK.json runs, one after another.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float]:
    q1, _, q3 = quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(
    parent: list[float], change: list[float], bound: float, better: str
) -> dict:
    """The comparison of one metric over pairs of runs, parent[i] against
    change[i]: medians, quartiles, wins, the change's relative move and the
    verdict described in the module docstring."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p_med, c_med = median(parent), median(change)
    p_q, c_q = quartiles(parent), quartiles(change)
    spread = p_q[1] - p_q[0]
    gained = sign * (p_med - c_med)  # > 0 when the change reads better
    if 10 * wins >= 9 * len(parent) and gained > spread:
        verdict = "gain"
    elif -gained > bound * abs(p_med):
        verdict = "worse"
    elif spread > bound * abs(p_med) and not all(
        sign * (p - c) > 0 for p in parent for c in change
    ):
        verdict = "unresolved"
    else:
        verdict = "within"
    return {
        "parent": (p_med, *p_q),
        "change": (c_med, *c_q),
        "wins": wins,
        "pairs": len(parent),
        "move": (c_med - p_med) / p_med if p_med else 0.0,
        "verdict": verdict,
    }


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in `checkout`; its JSON result.  Exits 1 when the
    run fails or reports a failed operation."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    where = f"{workload} seed {seed} in {checkout}"
    if proc.returncode != 0:
        sys.exit(f"{where} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if result["failed"] > 0:
        sys.exit(f"{where} failed {result['failed']} of {result['attempted']}")
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=400)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")

    for workload in [args.workload] if args.workload else names:
        runs = {"parent": [], "change": []}
        for i in range(1, args.pairs + 1):
            order = ("parent", "change") if i % 2 else ("change", "parent")
            for side in order:
                checkout = getattr(args, side)
                runs[side].append(run_once(checkout, workload, args.seed_base + i, args.seconds))
        print(f"{workload}: {args.pairs} pairs, seeds {args.seed_base + 1}-"
              f"{args.seed_base + args.pairs}, {args.seconds:g} s runs")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {
                side: [r["metrics"][name]["value"] for r in results]
                for side, results in runs.items()
            }
            s = summarize(values["parent"], values["change"], metric["bound"], metric["better"])
            parent, change = s["parent"], s["change"]
            print(
                f"  {name:12s} parent {parent[0]:.4f} [{parent[1]:.4f}, {parent[2]:.4f}]"
                f"  change {change[0]:.4f} [{change[1]:.4f}, {change[2]:.4f}]"
                f"  wins {s['wins']}/{s['pairs']}  {100 * s['move']:+.1f}%  {s['verdict']}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
