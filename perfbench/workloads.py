"""
The three benchmark workloads: seeded inputs, timed work, untimed checks.

Every workload runs in one fresh interpreter per repetition (see rep.py)
and is split into three steps:

* ``setup()``  builds the structures the workload needs (timed: setup_s);
* ``queries()`` does the fixed query work on them (timed: query_s);
* ``check()``  verifies every output by a route independent of the code
  being timed (untimed) and returns ``(attempted, failed, base)``.

Structures are built through ``cached_interval``/``cached_garside``, the
process-wide caches that the CLI and the homology layer use, so that later
queries hit the copy that setup built instead of building a second one.
"""

from __future__ import annotations

import json
import math
import os
import random
import time

from geen_garside import cli, core, garside, homology, interval
from geen_garside.snf import AbelianGroup
from geen_garside.words import length

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_RECORDS = os.path.join(HERE, "golden", "grid_records.jsonl")

# word-problem: the (6,4,2) structure has |D| = 960 simples.
WORD_POINT = (6, 4, 2)
SHORT_WORDS = 5000
SHORT_MAX_LETTERS = 13
LONG_WORDS = 100
LONG_LETTERS = 64

# build-n5: the two n = 5 points whose construction finishes in seconds.
BUILD_POINTS = ((2, 5, 1), (3, 5, 1))
# Seeded pairs per point whose left meet and join are recomputed from
# left_divides over all members, independently of the bitset tables.
LATTICE_SPOT_PAIRS = 3


def random_words(seed: int) -> tuple[list, list]:
    """Short (0..13 letters) and long (64 letters) signed words over the atoms."""
    params = core.GroupParams(*WORD_POINT)
    gens = core.atoms(params)
    rng = random.Random(seed)

    def word(letters: int):
        return [(rng.choice(gens), rng.choice((1, -1))) for _ in range(letters)]

    short = [word(rng.randrange(0, SHORT_MAX_LETTERS + 1)) for _ in range(SHORT_WORDS)]
    long = [word(LONG_LETTERS) for _ in range(LONG_WORDS)]
    return short, long


def word_image(word, params) -> core.GroupElement:
    """The word's matrix product through core.multiply and core.inverse."""
    image = core.identity(params)
    for gen, sign in word:
        mat = core.generator_matrix(gen, params)
        image = core.multiply(image, mat if sign > 0 else core.inverse(mat))
    return image


def interval_size(e: int, n: int) -> int:
    """|[1, lambda^k]| = prod_{i=1}^{n-1} (e + 2i), independent of k."""
    return math.prod(e + 2 * i for i in range(1, n))


class WordProblem:
    """Normalize seeded signed words at (6,4,2), one after another."""

    name = "word-problem"

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        self.g = garside.cached_garside(*WORD_POINT)

    def prepare(self) -> None:
        self.short, self.long = random_words(self.seed)

    def queries(self) -> dict:
        normal_form = self.g.normal_form
        clock = time.perf_counter_ns
        out = {}
        for label, words in (("short", self.short), ("long", self.long)):
            forms = []
            latencies = []
            for word in words:
                start = clock()
                nf = normal_form(word)
                latencies.append(clock() - start)
                forms.append(nf)
            out[label] = (forms, latencies)
        self.results = out
        return {
            "short_ns": out["short"][1],
            "long_ns": out["long"][1],
            "letters": sum(map(len, self.short)) + sum(map(len, self.long)),
        }

    def check(self) -> tuple[int, int, str]:
        """Greedy form and evaluation against an independent matrix product."""
        g = self.g
        attempted = failed = 0
        for label, words in (("short", self.short), ("long", self.long)):
            for word, nf in zip(words, self.results[label][0]):
                attempted += 1
                image = word_image(word, g.params)
                if not g.is_left_greedy(nf) or g.evaluate_nf(nf) != image:
                    failed += 1
        return attempted, failed, "words normalized"


class BuildN5:
    """Build and check the (2,5,1) and (3,5,1) structures; H_1/H_2 closed form."""

    name = "build-n5"

    def __init__(self, seed: int, points=BUILD_POINTS):
        self.seed = seed
        self.points = points

    def setup(self) -> None:
        self.structures = [garside.cached_garside(*p) for p in self.points]

    def prepare(self) -> None:
        rng = random.Random(self.seed)
        self.pairs = [
            [
                (rng.randrange(len(g.interval)), rng.randrange(len(g.interval)))
                for _ in range(LATTICE_SPOT_PAIRS)
            ]
            for g in self.structures
        ]

    def queries(self) -> dict:
        self.groups = [
            (homology.homology_group(g, 1), homology.homology_group(g, 2))
            for g in self.structures
        ]
        return {}

    def check(self) -> tuple[int, int, str]:
        """|D| formula, lattice spot checks, H_1 = Z and H_2 = predicted_h2.

        The full LatticeReport is computed during setup: build_garside
        raises LatticeViolationError unless ``all_ok``, so reaching this
        point means it held.  Rerunning it here would double the run.
        """
        attempted = failed = 0
        for point, g, (h1, h2), pairs in zip(
            self.points, self.structures, self.groups, self.pairs
        ):
            attempted += 1
            e, n, k = point
            ok = (
                len(g.interval) == interval_size(e, n)
                and all(_spot_lattice(g.interval, a, b) for a, b in pairs)
                and h1 == AbelianGroup(1, ())
                and h2 == homology.predicted_h2(e, n, k)
            )
            failed += not ok
        return attempted, failed, "structures built"


def _spot_lattice(iv, a: int, b: int) -> bool:
    """Left meet and join of two members, recomputed with left_divides."""
    members = iv.members
    x, y = members[a], members[b]
    lower = [c for c in members if interval.left_divides(c, x) and interval.left_divides(c, y)]
    upper = [c for c in members if interval.left_divides(x, c) and interval.left_divides(y, c)]
    meet = max(lower, key=length)
    join = min(upper, key=length)
    if not all(interval.left_divides(c, meet) for c in lower):
        return False
    if not all(interval.left_divides(join, c) for c in upper):
        return False
    return members[iv.meet("left", a, b)] == meet and members[iv.join("left", a, b)] == join


class GridSweep:
    """All default-grid structures, their regression records, then H_2 both ways."""

    name = "grid-sweep"

    def __init__(self, seed: int, golden_path: str = GOLDEN_RECORDS):
        self.seed = seed
        self.golden_path = golden_path

    def setup(self) -> None:
        self.grid = cli.default_grid()
        for c in self.grid:
            if c.n >= 3:
                garside.cached_garside(c.e, c.n, c.k)
            else:
                interval.cached_interval(c.e, c.n, c.k)

    def prepare(self) -> None:
        pass

    def queries(self) -> dict:
        self.lines = [r.line() for c in self.grid for r in cli.regression_records(c)]
        self.h2_both = []
        for c in self.grid:
            if c.n < 3:
                continue
            g = garside.cached_garside(c.e, c.n, c.k)
            try:
                group = homology.homology_group(g, 2, method="both")
            except interval.TheoremViolationError as exc:
                group = exc
            self.h2_both.append((c, group))
        return {}

    def check(self) -> tuple[int, int, str]:
        """Records line by line against the golden copy; H_2 both against them."""
        with open(self.golden_path) as handle:
            golden = handle.read().splitlines()
        attempted = max(len(golden), len(self.lines))
        failed = sum(1 for old, new in zip(golden, self.lines) if old != new)
        failed += abs(len(golden) - len(self.lines))
        recorded = {}
        for line in golden:
            record = json.loads(line)
            recorded[record["key"]] = record["value"]
        for c, group in self.h2_both:
            attempted += 1
            key = f"homology-h2 e={c.e} n={c.n} k={c.k}"
            if not isinstance(group, AbelianGroup) or (
                group.to_json_dict() != recorded.get(key)
            ):
                failed += 1
        return attempted, failed, "records plus H_2 (method=both) results"


WORKLOADS = {w.name: w for w in (WordProblem, BuildN5, GridSweep)}
