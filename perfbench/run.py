"""
Benchmark of the geen-garside pipeline, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Repetitions of the workload run one after another, each in a fresh
interpreter (rep.py), because cached_interval, cached_garside and
cached_complex are process-wide caches: a repeat in the same process would
time cache hits.  Repetitions continue while the next one is expected to
end within S seconds, with a floor of MIN_REPS.  With --trace 1 untraced
and traced repetitions alternate; the traced ones give the per-layer
metrics and the pair gives the tracing overhead.

stdout: one line per metric (name, value, unit, sample count), a line of
run environment, and last the JSON result
{"correct", "attempted", "failed", "metrics"}.  --out writes the full
report, spans included, as JSON.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import signal
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "geen_garside")
WORKLOADS = ("word-problem", "build-n5", "grid-sweep")

# Duration of rep.probe_kernel at reference speed: the fast state of the
# 2-vCPU Xeon VM the benchmark was written on.  Times are reported scaled
# to this speed; see README.md, "Speed normalization".
REF_KERNEL_S = 45e-6
MIN_PHASE_SAMPLES = 10
# Repetitions per untraced run at least; a traced run has at least
# MIN_TRACED_REPS of each kind.
MIN_REPS = 2
MIN_TRACED_REPS = 1
# A run must end within 180 s; a repetition still going past this is killed.
RUN_LIMIT_S = 170.0

# The end-to-end metrics of the result line.  query_s is reported but not
# gated: on build-n5 the query phase is a few milliseconds of homology.
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")
# The per-layer metrics of the result line, in BENCHMARK.json order.
PER_LAYER = (
    "garside.normalize_pair_calls",
    "garside.pair_changed_ratio",
    "garside.pair_distinct_ratio",
    "garside.normalize_factors_calls",
    "garside.factors_out",
    "garside.normal_form_pct",
    "garside.nf_product_calls",
    "garside.nf_product_pct",
    "garside.tables_s",
    "core.multiply_calls.garside",
    "core.inverse_calls.garside",
    "core.multiply_calls.interval",
    "core.enumerate_group_s",
    "interval.build_s",
    "interval.divisor_scan_s",
    "interval.divisor_scan_calls",
    "interval.lattice_s",
    "interval.members",
    "words.length_calls",
    "words.length_s",
    "words.length_decreases_calls",
    "words.length_decreases_s",
    "homology.generic_pct",
    "homology.closed_pct",
    "homology.cells",
    "homology.cells_pct",
    "snf.smith_calls",
    "snf.smith_pct",
    "snf.max_cells",
    "trace.overhead_pct",
)
# Layer times that some workload never reaches are gated as a share of the
# traced wall time: a time that is 0 on every run of a workload is no
# measurement.  Their seconds are printed in the report.
SHARE_OF_WALL = (
    "garside.normal_form_s",
    "garside.nf_product_s",
    "homology.generic_s",
    "homology.closed_s",
    "homology.cells_s",
    "snf.smith_s",
)


def percentile(samples, q: float):
    """Nearest-rank q-th percentile of a list of numbers."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def run_rep(workload: str, seed: int, traced: bool, deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned_at = time.monotonic()
    command = [
        sys.executable, "-s", os.path.join(HERE, "rep.py"),
        workload, str(seed), "1" if traced else "0", repr(spawned_at),
    ]
    proc = subprocess.run(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
        timeout=max(1.0, deadline - time.monotonic()), check=True,
    )
    rep = json.loads(proc.stdout.decode().splitlines()[-1])
    rep["elapsed_s"] = time.monotonic() - spawned_at
    return rep


def environment() -> dict:
    info = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": None,
        "dirty": None,
    }
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            info["commit"] = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
            status = subprocess.run(
                ["git", "-C", ROOT, "status", "--porcelain"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout
            info["dirty"] = bool(status.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return info


def normalize(rep: dict) -> None:
    """Add the repetition's phase times at reference speed.

    The probe's own time is taken out of each phase, and what is left is
    scaled by REF_KERNEL_S over the probe kernel's mean duration in that
    phase: the time the phase would have taken at reference speed.  A phase
    too short for MIN_PHASE_SAMPLES samples uses the whole repetition's.
    """
    whole = rep["probe"]["kernel_s"]
    rep["speed"] = REF_KERNEL_S / whole
    for phase in ("setup", "query"):
        probe = rep[f"{phase}_probe"]
        kernel = probe["kernel_s"] if probe["samples"] >= MIN_PHASE_SAMPLES else whole
        rep[f"{phase}_speed"] = REF_KERNEL_S / kernel
        rep[f"ref_{phase}_s"] = (rep[f"{phase}_s"] - probe["probe_busy_s"]) * rep[f"{phase}_speed"]
    rep["ref_wall_s"] = rep["ref_setup_s"] + rep["ref_query_s"]


def faster_half(reps: list[dict]) -> list[dict]:
    """The ceil(n/2) repetitions that ran at the highest probe speed.

    The residual error of a normalized time grows with the correction: in
    some slow states the probe slows more than the workload.  Medians are
    taken over the repetitions that needed the least correction.
    """
    ranked = sorted(reps, key=lambda r: r["probe"]["kernel_s"])
    return ranked[: (len(ranked) + 1) // 2]


def end_to_end(workload: str, reps: list[dict]) -> dict:
    """Every end-to-end metric of the untraced repetitions: value, unit, n."""
    steady = faster_half(reps)
    n = len(steady)

    def med(key, among=steady):
        return median([r[key] for r in among])

    out = {
        "setup_s": (med("ref_setup_s"), "s", n),
        "wall_s": (med("ref_wall_s"), "s", n),
        "query_s": (med("ref_query_s"), "s", n),
        "peak_rss_mb": (med("peak_rss_mb", reps), "MB", len(reps)),
        "raw_setup_s": (med("setup_s", reps), "s", len(reps)),
        "raw_wall_s": (median([r["setup_s"] + r["query_s"] for r in reps]), "s", len(reps)),
        "raw_query_s": (med("query_s", reps), "s", len(reps)),
        "speed": (med("speed", reps), "ratio", len(reps)),
    }
    if workload == "word-problem":
        short = [ns * r["query_speed"] for r in steady for ns in r["detail"]["short_ns"]]
        long = [ns * r["query_speed"] for r in steady for ns in r["detail"]["long_ns"]]
        # p99 needs 1000 samples to keep ten beyond it; p90 needs 100.
        out["nf_short_p50_us"] = (percentile(short, 50) / 1e3, "us", len(short))
        out["nf_short_p99_us"] = (percentile(short, 99) / 1e3, "us", len(short))
        out["nf_long_p50_ms"] = (percentile(long, 50) / 1e6, "ms", len(long))
        out["nf_long_p90_ms"] = (percentile(long, 90) / 1e6, "ms", len(long))
        rate = median([r["detail"]["letters"] / r["ref_query_s"] for r in steady])
        out["nf_letters_per_s"] = (rate, "1/s", n)
    if workload == "grid-sweep":
        out["homology_s"] = (med("ref_query_s"), "s", n)
    return out


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    """Per-layer metrics: medians over the faster half of the traced reps.

    Layer times are scaled by the repetition's speed; the probe's own time
    stays inside whichever span it interrupted.
    """
    steady = faster_half(traced)
    n = len(steady)
    out = {}
    for name in steady[0]["layers"]:
        if name == "trace.self_sum_s":
            continue
        values = [r["layers"][name] * (r["speed"] if name.endswith("_s") else 1) for r in steady]
        out[name] = (median(values), layer_unit(name), n)
    for name in SHARE_OF_WALL:
        share = median(
            [100 * r["layers"][name] / (r["setup_s"] + r["query_s"]) for r in steady]
        )
        out[name[: -len("_s")] + "_pct"] = (share, "%", n)
    # the self times of all spans against the raw phase times they cover
    unaccounted = median(
        [r["setup_s"] + r["query_s"] - r["layers"]["trace.self_sum_s"] for r in steady]
    )
    out["trace.unaccounted_s"] = (unaccounted, "s", n)
    wall = median([r["ref_wall_s"] for r in steady])
    base = median([r["ref_wall_s"] for r in faster_half(plain)])
    out["trace.wall_s"] = (wall, "s", n)
    out["trace.overhead_pct"] = (100 * (wall - base) / base, "%", len(plain) + len(traced))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full report as JSON to this path")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"no package source at {PACKAGE}", file=sys.stderr)
        return 2
    compileall.compile_dir(PACKAGE, quiet=1)

    began = time.monotonic()
    deadline = began + RUN_LIMIT_S
    load_start = os.getloadavg()
    plain: list[dict] = []
    tracedreps: list[dict] = []
    # SIGTERM becomes SystemExit, so that subprocess.run kills and reaps
    # the repetition in flight instead of leaving it behind.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        while True:
            traced = bool(args.trace) and len(plain) > len(tracedreps)
            rep = run_rep(args.workload, args.seed, traced, deadline)
            normalize(rep)
            (tracedreps if traced else plain).append(rep)
            if args.trace:
                enough = min(len(plain), len(tracedreps)) >= MIN_TRACED_REPS
            else:
                enough = len(plain) >= MIN_REPS
            longest = max(r["elapsed_s"] for r in plain + tracedreps)
            if enough and time.monotonic() + longest > began + args.seconds:
                break
    except subprocess.TimeoutExpired:
        print(f"a repetition ran past the {RUN_LIMIT_S:.0f} s limit", file=sys.stderr)
        return 1
    except subprocess.CalledProcessError as exc:
        print(f"a repetition failed with exit code {exc.returncode}", file=sys.stderr)
        return 1

    reps = plain + tracedreps
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "load_average_start": load_start,
        "load_average_end": os.getloadavg(),
        "run_s": time.monotonic() - began,
        "end_to_end": end_to_end(args.workload, plain),
        "error_rate": {"value": failed / attempted, "failed": failed,
                       "attempted": attempted, "base": reps[0]["base"]},
    }
    if args.trace:
        report["per_layer"] = per_layer(plain, tracedreps)

    for section in ("end_to_end", "per_layer"):
        for name, (value, unit, count) in report.get(section, {}).items():
            print(f"{args.workload:13s} {name:34s} {value:14.6g} {unit:6s} n={count}")
    rate = report["error_rate"]
    print(f"{args.workload:13s} {'error_rate':34s} {rate['value']:14.6g} "
          f"{'ratio':6s} n={attempted} ({failed} failed of {attempted} {rate['base']})")
    env = report["environment"]
    print(f"# python {env['python']}, nproc {env['nproc']}, load "
          f"{load_start[0]:.2f} -> {report['load_average_end'][0]:.2f}, commit "
          f"{env['commit']} dirty {env['dirty']}, {len(plain)} plain + "
          f"{len(tracedreps)} traced reps in {report['run_s']:.1f} s")
    if args.out:
        report["reps"] = reps
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1)

    section = report["per_layer"] if args.trace else report["end_to_end"]
    wanted = {name: section[name] for name in (PER_LAYER if args.trace else END_TO_END)}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in wanted.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
