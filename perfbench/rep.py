"""
One repetition of one workload, in a fresh interpreter started by run.py.

    python3 perfbench/rep.py WORKLOAD SEED TRACE SPAWNED_AT

SPAWNED_AT is the parent's time.monotonic() just before it started this
process; CLOCK_MONOTONIC is system-wide, so setup_s counts interpreter
start and import.  Prints one JSON object on stdout: the phase times, the
speed probe's reading, peak RSS, the workload's timing details, the
untimed check and, when TRACE is 1, the per-layer metrics and the spans.
"""

import json
import os
import resource
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

clock = time.monotonic

# The probe runs a fixed loop every SAMPLE_INTERVAL_S of wall time.
# On a shared 2-vCPU VM the speed of the whole process swings by up to 1.6x
# over 5-30 s as neighbours load the host; the loop slows by the same
# factor, so its mean duration over a repetition measures the speed that
# repetition ran at (see README.md, "Speed normalization").
SAMPLE_INTERVAL_S = 0.02
PROBE_LOOPS = 200


def _step(x: int) -> int:
    return (x * 1103515245 + 12345) & 0xFFFFFFFF


def probe_kernel() -> int:
    """Integer arithmetic and Python calls: of the loops tried, the pair
    whose duration tracked normal forms, the lattice scan, interval
    construction and the generic differential most closely."""
    x = 12345
    for _ in range(PROBE_LOOPS):
        x = _step(x)
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
    return x


class SpeedProbe:
    """Samples the duration of probe_kernel from a wall-clock timer signal."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)

    def _tick(self, signum, frame) -> None:
        start = clock()
        probe_kernel()
        self.samples.append((start, clock() - start))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def reading(self, windows) -> dict:
        """Probe time spent and trimmed-mean kernel duration in the windows."""
        inside = sorted(
            d for t, d in self.samples if any(lo <= t < hi for lo, hi in windows)
        )
        # An interrupt that lands in one sample can multiply it tenfold;
        # drop the slowest and fastest 5 % before averaging.
        cut = len(inside) // 20
        kept = inside[cut: len(inside) - cut] or inside
        return {
            "probe_busy_s": sum(inside),
            "kernel_s": sum(kept) / len(kept) if kept else None,
            "samples": len(inside),
        }


def main(argv: list[str]) -> int:
    workload, seed, trace, spawned_at = argv[0], int(argv[1]), argv[2] == "1", float(argv[3])
    probe = SpeedProbe()
    probe.start()
    sys.path.insert(0, SRC)
    import geen_garside

    if not os.path.abspath(geen_garside.__file__).startswith(SRC + os.sep):
        print(f"geen_garside imported from {geen_garside.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    work = workloads.WORKLOADS[workload](seed)
    imported = clock()
    if tracer:
        tracer.record("rep.start", spawned_at, imported)
        tracer.enter("rep.setup")
    work.setup()
    if tracer:
        tracer.exit()
    ready = clock()
    work.prepare()
    query_start = clock()
    if tracer:
        tracer.enter("rep.queries")
    detail = work.queries()
    if tracer:
        tracer.exit()
    query_end = clock()
    probe.stop()
    if tracer:
        tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    attempted, failed, base = work.check()
    out = {
        "traced": trace,
        "start_s": imported - spawned_at,
        "setup_s": ready - spawned_at,
        "query_s": query_end - query_start,
        "setup_probe": probe.reading([(spawned_at, ready)]),
        "query_probe": probe.reading([(query_start, query_end)]),
        "probe": probe.reading([(spawned_at, ready), (query_start, query_end)]),
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "base": base,
        "detail": detail,
    }
    if tracer:
        out["layers"] = tracer.layer_metrics()
        out["spans"] = [record[:5] for record in tracer.spans]
    json.dump(out, sys.stdout, separators=(",", ":"))
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
