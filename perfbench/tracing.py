"""
Per-layer tracing, installed from the benchmark on the package's own names.

`install` replaces the module-level names through which one layer calls
the next (``geen_garside.interval.left_divides``, ``geen_garside.garside.
verify_lattice``, ...) and, on every new GarsideStructure, the instance
methods of the normal-form layer.  `Tracer.restore` puts every original back.
Untraced repetitions never import this module.

Three kinds of wrapper, by how hot the call is:

* span    - coarse calls (interval build, lattice check, homology).  Each
            call is kept in memory with its parent span, start and end.
* timed   - calls made up to ~10^5 times per repetition.  Calls, busy time
            and self time are summed per name; no record per call.
* counted - the hottest calls (multiply, inverse, normalize_pair): a count
            only, so that they keep close to their untraced cost.

Timed and span wrappers sit on one stack; each adds its duration to the
child time of the frame it returns to, so every self time (duration minus
the time covered by wrapped callees) is exact and the self times of all
records sum to the durations of the top-level phases.
"""

from __future__ import annotations

import time
from collections import Counter

from geen_garside import cli, garside, homology, interval

clock = time.monotonic


class Tracer:
    """Spans, per-name totals and counts of one traced repetition."""

    def __init__(self):
        # [name, parent span, start, end, child_s, span index seen by callees]
        self.spans: list[list] = []
        self.stack: list[list] = []  # open spans and timed frames, same layout
        self.timed_totals: dict[str, list] = {}  # name -> [calls, busy_s, self_s]
        self.counts: Counter = Counter()
        self.pair_stats = [0, 0, 0]  # normalize_pair calls, changed, distinct
        self.cell_counts: dict[tuple, int] = {}
        self.max_cells = 0
        self._patched: list[tuple[object, str, object]] = []
        self._instances: list[garside.GarsideStructure] = []

    # -- records -------------------------------------------------------------

    def record(self, name: str, start: float, end: float) -> None:
        """A top-level span with given times, such as interpreter start-up."""
        self.spans.append([name, -1, start, end, 0.0, len(self.spans)])

    def enter(self, name: str) -> None:
        parent = self.stack[-1][5] if self.stack else -1
        record = [name, parent, clock(), 0.0, 0.0, len(self.spans)]
        self.spans.append(record)
        self.stack.append(record)

    def exit(self) -> None:
        record = self.stack.pop()
        record[3] = clock()
        if self.stack:
            self.stack[-1][4] += record[3] - record[2]

    # -- wrappers ------------------------------------------------------------

    def span(self, name: str, fn, after=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            parent = stack[-1][5] if stack else -1
            record = [name, parent, clock(), 0.0, 0.0, len(spans)]
            spans.append(record)
            stack.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[3] = clock()
                if stack:
                    stack[-1][4] += record[3] - record[2]
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def timed(self, name: str, fn, after=None):
        stack = self.stack
        totals = self.timed_totals.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            parent = stack[-1][5] if stack else -1
            frame = [name, parent, clock(), 0.0, 0.0, parent]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                duration = clock() - frame[2]
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[4]
                if stack:
                    stack[-1][4] += duration
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    # -- installation ----------------------------------------------------------

    def patch(self, module, attr: str, wrapper) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def instrument(self, g) -> None:
        """Wrap the normal-form methods of one GarsideStructure instance."""
        stats = self.pair_stats
        size = len(g.interval)
        seen: set[int] = set()
        normalize_pair = g.normalize_pair

        def pair(a, b):
            out = normalize_pair(a, b)
            stats[0] += 1
            if out[0] != a:
                stats[1] += 1
            key = a * size + b
            if key not in seen:
                seen.add(key)
                stats[2] += 1
            return out

        counts = self.counts
        normalize_factors = g.normalize_factors

        def factors(fs):
            nf = normalize_factors(fs)
            counts["garside.normalize_factors_calls"] += 1
            counts["garside.factors_out"] += len(nf.factors)
            return nf

        g.normalize_pair = pair
        g.normalize_factors = factors
        g.normal_form = self.timed("garside.normal_form", g.normal_form)
        g.nf_product = self.timed("garside.nf_product", g.nf_product)
        self._instances.append(g)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        for g in self._instances:
            for attr in ("normalize_pair", "normalize_factors", "normal_form", "nf_product"):
                del g.__dict__[attr]
        self._instances.clear()

    # -- results -----------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of this repetition, named as in BENCHMARK.json."""
        busy: Counter = Counter()
        self_s: Counter = Counter()
        for record in self.spans:
            duration = record[3] - record[2]
            busy[record[0]] += duration
            self_s[record[0]] += duration - record[4]
        for name, (_, total, own) in self.timed_totals.items():
            busy[name] += total
            self_s[name] += own
        calls = {name: totals[0] for name, totals in self.timed_totals.items()}
        pair_calls, pair_changed, pair_distinct = self.pair_stats
        c = self.counts
        return {
            "garside.normalize_pair_calls": pair_calls,
            "garside.pair_changed_ratio": pair_changed / pair_calls if pair_calls else 0.0,
            "garside.pair_distinct_ratio": pair_distinct / pair_calls if pair_calls else 0.0,
            "garside.normalize_factors_calls": c["garside.normalize_factors_calls"],
            "garside.factors_out": c["garside.factors_out"],
            "garside.normal_form_calls": calls.get("garside.normal_form", 0),
            "garside.normal_form_s": busy["garside.normal_form"],
            "garside.nf_product_calls": calls.get("garside.nf_product", 0),
            "garside.nf_product_s": busy["garside.nf_product"],
            "garside.tables_s": self_s["garside.build"],
            "core.multiply_calls.garside": c["core.multiply_calls.garside"],
            "core.inverse_calls.garside": c["core.inverse_calls.garside"],
            "core.multiply_calls.interval": c["core.multiply_calls.interval"],
            "core.enumerate_group_s": busy["core.enumerate_group"],
            "interval.build_s": self_s["interval.build"],
            "interval.divisor_scan_s": busy["interval.divisor_scan"],
            "interval.divisor_scan_calls": calls.get("interval.divisor_scan", 0),
            "interval.lattice_s": busy["interval.lattice"],
            "interval.members": c["interval.members"],
            "words.length_calls": calls.get("words.length", 0),
            "words.length_s": busy["words.length"],
            "words.length_decreases_calls": calls.get("words.length_decreases", 0),
            "words.length_decreases_s": busy["words.length_decreases"],
            "homology.generic_s": busy["homology.generic"],
            "homology.closed_s": busy["homology.closed"],
            "homology.cells": sum(self.cell_counts.values()),
            "homology.cells_s": busy["homology.cells"],
            "snf.smith_calls": calls.get("snf.smith", 0),
            "snf.smith_s": busy["snf.smith"],
            "snf.max_cells": self.max_cells,
            "trace.self_sum_s": sum(self_s.values()),
        }


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of the package for one traced repetition."""
    t = tracer
    counts = t.counts

    def count_members(args, result):
        counts["interval.members"] += len(result)

    def count_cells(args, result):
        g, r = args
        t.cell_counts[(g.params, r)] = len(result)

    def matrix_size(args, result):
        matrix = args[0]
        t.max_cells = max(t.max_cells, len(matrix), len(matrix[0]) if matrix else 0)

    structure = garside.GarsideStructure

    def new_structure(iv):
        g = structure(iv)
        t.instrument(g)
        return g

    t.patch(interval, "enumerate_group", t.span("core.enumerate_group", interval.enumerate_group))
    t.patch(interval, "length", t.timed("words.length", interval.length))
    t.patch(
        interval,
        "length_decreases",
        t.timed("words.length_decreases", interval.length_decreases),
    )
    t.patch(interval, "left_divides", t.timed("interval.divisor_scan", interval.left_divides))
    t.patch(interval, "multiply", t.counted("core.multiply_calls.interval", interval.multiply))
    t.patch(
        interval,
        "build_interval",
        t.span("interval.build", interval.build_interval, after=count_members),
    )
    t.patch(garside, "verify_lattice", t.span("interval.lattice", garside.verify_lattice))
    t.patch(garside, "build_garside", t.span("garside.build", garside.build_garside))
    t.patch(garside, "multiply", t.counted("core.multiply_calls.garside", garside.multiply))
    t.patch(garside, "inverse", t.counted("core.inverse_calls.garside", garside.inverse))
    t.patch(garside, "GarsideStructure", new_structure)
    group = t.span("homology.group", homology.homology_group)
    t.patch(homology, "homology_group", group)
    t.patch(cli, "homology_group", group)
    t.patch(
        homology,
        "differential_closed_form",
        t.span("homology.closed", homology.differential_closed_form),
    )
    t.patch(
        homology,
        "differential_generic",
        t.span("homology.generic", homology.differential_generic),
    )
    t.patch(
        homology,
        "enumerate_cells",
        t.timed("homology.cells", homology.enumerate_cells, after=count_cells),
    )
    t.patch(
        homology,
        "smith_normal_form",
        t.timed("snf.smith", homology.smith_normal_form, after=matrix_size),
    )
