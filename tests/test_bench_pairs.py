"""scripts/bench_pairs.py: its verdicts on fixed numbers, and its stop on a
failed run, without running the benchmark."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)
summarize = bench_pairs.summarize

PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def test_a_gain_wins_nine_of_ten_by_more_than_the_parent_spread():
    change = [0.90] * 9 + [1.05]
    s = summarize(PARENT, change, 0.15, "lower")
    assert s["wins"] == 9 and s["pairs"] == 10
    assert s["parent"] == pytest.approx((1.0, 0.9825, 1.0175))
    assert s["change"][0] == 0.90
    assert s["move"] == pytest.approx(-0.10)
    assert s["verdict"] == "gain"


def test_eight_wins_of_ten_is_no_gain():
    change = [0.90] * 8 + [1.05, 1.05]
    assert summarize(PARENT, change, 0.15, "lower")["verdict"] == "within"


def test_a_gain_must_pass_the_parent_spread():
    """Ten wins by 0.01 each: the medians differ by less than the parent's
    interquartile range of 0.035."""
    change = [p - 0.01 for p in PARENT]
    s = summarize(PARENT, change, 0.15, "lower")
    assert s["wins"] == 10
    assert s["verdict"] == "within"


def test_ties_count_for_neither_side():
    assert summarize(PARENT, PARENT, 0.15, "lower")["wins"] == 0


def test_worse_past_the_bound_as_a_share_of_the_parent_median():
    assert summarize(PARENT, [1.16] * 10, 0.15, "lower")["verdict"] == "worse"
    assert summarize(PARENT, [1.14] * 10, 0.15, "lower")["verdict"] == "within"


def test_higher_is_better_turns_every_comparison():
    rates = [10.0, 10.2, 9.8, 10.1, 9.9, 10.3, 9.7, 10.0, 10.2, 9.8]
    s = summarize(rates, [11.0] * 10, 0.15, "higher")
    assert s["wins"] == 10 and s["verdict"] == "gain"
    assert summarize(rates, [8.0] * 10, 0.15, "higher")["verdict"] == "worse"


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    """Parent quartiles 0.9775 and 1.075 are 9.75 % of the median apart,
    past a 5 % bound: a change 3 % slower cannot be told from it.  A change
    that reads better than every parent run is not unresolved, though its
    median gain of 0.06 is inside the parent's spread."""
    wide = [0.95, 1.2, 0.96, 1.0, 1.1, 0.97, 1.0, 1.3, 1.0, 1.0]
    assert summarize(wide, [1.03] * 10, 0.05, "lower")["verdict"] == "unresolved"
    assert summarize(wide, [0.94] * 10, 0.05, "lower")["verdict"] == "within"


def _fake_checkout(tmp_path, body):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    (bench / "run.py").write_text(body)
    return tmp_path


def test_a_failed_run_stops_the_script(tmp_path):
    checkout = _fake_checkout(
        tmp_path, 'print(\'{"correct": false, "attempted": 3, "failed": 1, "metrics": {}}\')\n'
    )
    with pytest.raises(SystemExit) as info:
        bench_pairs.run_once(checkout, "word-problem", 401, 1.0)
    assert "failed 1 of 3" in str(info.value.code)


def test_a_run_that_exits_non_zero_stops_the_script(tmp_path):
    checkout = _fake_checkout(tmp_path, "import sys\nsys.exit('no package source')\n")
    with pytest.raises(SystemExit) as info:
        bench_pairs.run_once(checkout, "word-problem", 401, 1.0)
    assert "exited 1: no package source" in str(info.value.code)


def test_a_good_run_gives_its_result(tmp_path):
    checkout = _fake_checkout(
        tmp_path,
        "print('word-problem wall_s 0.1 s n=2')\n"
        'print(\'{"correct": true, "attempted": 3, "failed": 0, '
        '"metrics": {"wall_s": {"value": 0.1, "unit": "s"}}}\')\n',
    )
    result = bench_pairs.run_once(checkout, "word-problem", 401, 1.0)
    assert result["metrics"]["wall_s"]["value"] == 0.1
