"""Tests of the benchmark itself: its correctness gates, tracer and contract.

Run from the repository root with `python3 -m pytest perfbench/tests -q`.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads
from conftest import BENCH, ROOT
from geen_garside import cli, core, garside, homology, interval


def test_word_problem_gate_counts_a_wrong_image(monkeypatch):
    monkeypatch.setattr(workloads, "SHORT_WORDS", 40)
    monkeypatch.setattr(workloads, "LONG_WORDS", 3)
    work = workloads.WordProblem(seed=5)
    work.setup()
    work.prepare()
    detail = work.queries()
    assert len(detail["short_ns"]) == 40 and len(detail["long_ns"]) == 3
    assert work.check() == (43, 0, "words normalized")
    # corrupt the expected image of one word
    target = work.long[0]
    image = workloads.word_image
    monkeypatch.setattr(
        workloads,
        "word_image",
        lambda word, params: core.identity(params) if word is target else image(word, params),
    )
    attempted, failed, _ = work.check()
    assert (attempted, failed) == (43, 1)


def test_build_gate_counts_a_wrong_size(monkeypatch):
    work = workloads.BuildN5(seed=5, points=((3, 3, 1), (4, 3, 2)))
    work.setup()
    work.prepare()
    work.queries()
    assert work.check() == (2, 0, "structures built")
    # corrupt the expected size of the e = 4 interval
    size = workloads.interval_size
    monkeypatch.setattr(workloads, "interval_size", lambda e, n: size(e, n) + (e == 4))
    attempted, failed, _ = work.check()
    assert (attempted, failed) == (2, 1)


def test_interval_size_formula_matches_small_points():
    for e, n, k in ((3, 3, 1), (4, 3, 2), (2, 4, 1), (3, 4, 2)):
        assert len(interval.cached_interval(e, n, k)) == workloads.interval_size(e, n)


def test_grid_gate_counts_a_changed_golden_line(tmp_path, monkeypatch):
    grid = [c for c in cli.default_grid() if c.e <= 3 and c.n <= 3]
    monkeypatch.setattr(cli, "default_grid", lambda: grid)
    lines = [r.line() for c in grid for r in cli.regression_records(c)]
    golden = tmp_path / "golden.jsonl"
    golden.write_text("\n".join(lines) + "\n")
    work = workloads.GridSweep(seed=5, golden_path=str(golden))
    work.setup()
    work.prepare()
    work.queries()
    n3 = sum(1 for c in grid if c.n >= 3)
    assert work.check() == (len(lines) + n3, 0, "records plus H_2 (method=both) results")

    h2 = next(i for i, line in enumerate(lines) if line.startswith('{"key":"homology-h2'))
    record = json.loads(lines[h2])
    record["value"]["free_rank"] += 1
    lines[h2] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    golden.write_text("\n".join(lines) + "\n")
    attempted, failed, _ = work.check()
    # the changed line, and the H_2 (both) result that no longer matches it
    assert (attempted, failed) == (len(lines) + n3, 2)


def test_shipped_golden_records_cover_the_default_grid():
    with open(workloads.GOLDEN_RECORDS) as handle:
        keys = [json.loads(line)["key"] for line in handle]
    n3 = sum(1 for c in cli.default_grid() if c.n >= 3)
    assert len(keys) == 3 * len(cli.default_grid()) + 2 * n3 == 195


def test_tracer_restores_every_name_and_accounts_all_time():
    names = [
        (interval, "build_interval"), (interval, "left_divides"), (interval, "length"),
        (interval, "length_decreases"), (interval, "multiply"), (interval, "enumerate_group"),
        (garside, "verify_lattice"), (garside, "build_garside"), (garside, "multiply"),
        (garside, "inverse"), (garside, "GarsideStructure"), (homology, "homology_group"),
        (homology, "differential_closed_form"), (homology, "differential_generic"),
        (homology, "enumerate_cells"), (homology, "smith_normal_form"), (cli, "homology_group"),
    ]
    originals = [getattr(module, attr) for module, attr in names]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.enter("rep.setup")
    # a fresh structure, not a cached one, so that every wrapper fires
    g = garside.build_garside(interval.build_interval(core.GroupParams(3, 3, 2)))
    tracer.exit()
    tracer.enter("rep.queries")
    g.normal_form("t0 t1^-1 s3 t2")
    homology.differential_closed_form(g, 2)
    tracer.exit()
    tracer.restore()
    assert [getattr(module, attr) for module, attr in names] == originals
    assert not {"normalize_pair", "normal_form", "nf_product"} & set(vars(g))

    layers = tracer.layer_metrics()
    phases = sum(r[3] - r[2] for r in tracer.spans if r[1] == -1)
    assert layers["trace.self_sum_s"] == pytest.approx(phases, rel=1e-9)
    assert layers["interval.members"] == workloads.interval_size(3, 3)
    assert layers["garside.normal_form_calls"] == 1
    assert layers["garside.normalize_pair_calls"] > 0
    assert layers["interval.divisor_scan_calls"] == 2 * core.GroupParams(3, 3).order()
    assert 0 < layers["interval.lattice_s"] < phases
    parents = {r[1] for r in tracer.spans}
    assert parents <= {-1} | set(range(len(tracer.spans)))


def test_untraced_repetition_installs_nothing(tmp_path):
    script = tmp_path / "probe.py"
    script.write_text(
        "import contextlib, io, json, sys\n"
        f"sys.path.insert(0, {BENCH!r})\n"
        "import rep\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    rep.main(['word-problem', '1', '0', '0'])\n"
        "from geen_garside import core, garside, interval\n"
        "g = garside.cached_garside(6, 4, 2)\n"
        "print(json.dumps({\n"
        "    'tracing': 'tracing' in sys.modules,\n"
        "    'wrapped': garside.multiply is not core.multiply\n"
        "    or interval.left_divides.__module__ != 'geen_garside.interval'\n"
        "    or bool({'normalize_pair', 'normal_form'} & set(vars(g))),\n"
        "    'failed': json.loads(out.getvalue())['failed'],\n"
        "}))\n"
    )
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=120, check=True
    )
    assert json.loads(proc.stdout) == {"tracing": False, "wrapped": False, "failed": 0}


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert run.percentile(samples, 50) == 50
    assert run.percentile(samples, 90) == 90
    assert run.percentile(samples, 99) == 99
    assert run.percentile([7], 99) == 7


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["unit"] for m in bench["per_layer"]} <= {"s", "%", "ratio", "count"}
    for m in bench["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "word-problem",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
