import json
import os
import re
import shlex
import time

import pytest

from geen_garside import CapExceededError, GroupParams
from geen_garside.cli import (
    EXIT_CAP,
    EXIT_FALSE,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    default_grid,
    freeze_regressions,
    regression_records,
    run,
)
from geen_garside.interval import TheoremViolationError, cached_interval
from conftest import right_rows

WORKED = '{"e":3,"n":4,"perm":[4,2,3,1],"exps":[0,2,1,0]}'


def test_reduce_worked_example(capsys):
    assert run(["reduce", "--e", "3", "--n", "4", "--element", WORKED]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "t0 s3 t1 t0 s4 s3 t0"


def test_reduce_cap_refuses_before_reducing(capsys, monkeypatch):
    """The longest reduced word at n = 4 has n(n-1) = 12 letters.  With
    MATSUMOTO_CAP at 12 the worked example reduces; at 11, reduce exits 3
    naming the count and the constant, and the loop is never entered."""
    from geen_garside import cli, garside

    def forbidden(w):
        raise AssertionError("reduced_expression was entered")

    monkeypatch.setattr(garside, "MATSUMOTO_CAP", 12)
    assert run(["reduce", "--e", "3", "--n", "4", "--element", WORKED]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "t0 s3 t1 t0 s4 s3 t0"
    monkeypatch.setattr(garside, "MATSUMOTO_CAP", 11)
    monkeypatch.setattr(cli, "reduced_expression", forbidden)
    assert run(["reduce", "--e", "3", "--n", "4", "--element", WORKED]) == EXIT_CAP
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n(n-1) letters = 12 exceeds the cap 11" in captured.err
    assert "MATSUMOTO_CAP" in captured.err


def test_length_worked_example(capsys):
    assert run(["length", "--e", "3", "--n", "4", "--element", WORKED]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "7"


def test_bfs_length_hidden_oracle(capsys):
    assert run(["bfs-length", "--e", "3", "--n", "2", "--element",
                '{"e":3,"n":2,"perm":[1,2],"exps":[1,2]}']) == EXIT_OK
    assert capsys.readouterr().out.strip() == "2"


@pytest.mark.parametrize("element", ["[]", '{"e":4,"n":2,"perm":[1,2],"exps":[1,3]}'])
def test_bfs_length_parses_the_element_before_the_search(capsys, monkeypatch, element):
    """A malformed element, or one of another group, is a usage error before
    the breadth-first search starts."""
    from geen_garside import cli

    def forbidden(params):
        raise AssertionError("cayley_length_table was called")

    monkeypatch.setattr(cli, "cayley_length_table", forbidden)
    assert run(["bfs-length", "--e", "3000", "--n", "2", "--element", element]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


def test_bfs_length_lists_every_element_sorted_by_its_json(capsys):
    """Without --element, one JSON line per element of G(3,3,3), 54 in all,
    in the order of the element's JSON, each with its length."""
    from geen_garside import GroupElement, length

    assert run(["bfs-length", "--e", "3", "--n", "3"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 54
    records = [json.loads(line) for line in lines]
    texts = [json.dumps(r["element"], separators=(",", ":")) for r in records]
    assert texts == sorted(texts) and len(set(texts)) == 54
    for text, record in zip(texts, records):
        assert record["length"] == length(GroupElement.from_json(text))


def test_bfs_length_is_bounded_by_its_products(capsys):
    """|G(100000,100000,2)| = 200,000 passes the default cap, but the search
    would form |G| |A| = 2 * 10^10 products: exit 3, naming GARSIDE_CAP,
    before any product is formed."""
    start = time.perf_counter()
    assert run(["bfs-length", "--e", "100000", "--n", "2"]) == EXIT_CAP
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "|G| |A| = 20000000000 exceeds" in err and "GARSIDE_CAP" in err


def test_interval_summary_and_exports(tmp_path, capsys):
    dot = tmp_path / "hasse.dot"
    code = run(
        ["interval", "--e", "3", "--n", "3", "--k", "1", "--verify-lattice",
         "--export", "dot", str(dot)]
    )
    assert code == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["members"] == 35
    assert summary["lattice"] == {
        "meet_left": True, "join_left": True,
        "meet_right": True, "join_right": True,
    }
    text = dot.read_text()
    assert text.startswith("digraph interval") and "->" in text

    blob = tmp_path / "interval.json"
    assert run(["interval", "--e", "3", "--n", "3", "--k", "1",
                "--export", "json", str(blob)]) == EXIT_OK
    capsys.readouterr()
    data = json.loads(blob.read_text())
    assert len(data["members"]) == 35
    assert len(data["left_divides"]) == 35


@pytest.mark.parametrize("e,n,k,digest", [
    (3, 3, 1, "c8d7ab4c0d738fb9e9eb9dda05a13abbd6f2a1053a2a4bfb46a104fdb4bcf3dd"),
    (4, 4, 2, "8f166c8f6c476c37a5ef1cab2d921d0ff2ca8e2affd2a6a2468a2146b977119b"),
])
def test_interval_json_export_is_golden(tmp_path, capsys, e, n, k, digest):
    """The exported bytes, the right_divides rows among them, are pinned."""
    import hashlib

    blob = tmp_path / "interval.json"
    assert run(["interval", "--e", str(e), "--n", str(n), "--k", str(k),
                "--export", "json", str(blob)]) == EXIT_OK
    capsys.readouterr()
    assert hashlib.sha256(blob.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("e,n,k", [(2, 5, 1), (3, 4, 2), (6, 3, 2), (8, 4, 2)])
def test_interval_json_right_rows_are_the_transposed_left_rows(tmp_path, capsys, e, n, k):
    """The exported right_divides rows, built by closure over the atom
    tables, decode to the rows read through the transpose."""
    import base64

    blob = tmp_path / "interval.json"
    assert run(["interval", "--e", str(e), "--n", str(n), "--k", str(k),
                "--export", "json", str(blob)]) == EXIT_OK
    capsys.readouterr()
    rows = json.loads(blob.read_text())["right_divides"]
    decoded = [int.from_bytes(base64.b64decode(row), "little") for row in rows]
    assert decoded == right_rows(cached_interval(e, n, k))


def test_interval_export_rejects_an_unknown_format(tmp_path, capsys, monkeypatch):
    import geen_garside.cli as cli

    def refuse(*args):
        raise AssertionError("the interval was built before the format was checked")

    monkeypatch.setattr(cli, "cached_interval", refuse)
    out = tmp_path / "out.txt"
    code = run(["interval", "--e", "2", "--n", "2", "--k", "1",
                "--export", "xml", str(out)])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'xml'" in captured.err
    assert not out.exists()


def test_nf_json_shape(capsys):
    assert run(["nf", "--e", "3", "--n", "3", "--k", "1",
                "--word", "t0 s3 t1^-1"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"delta_power", "factors"}
    for factor in data["factors"]:
        assert set(factor) == {"e", "n", "perm", "exps"}


def test_equal_exit_codes(capsys):
    assert run(["equal", "--e", "3", "--n", "2", "--k", "1",
                "--w1", "t1 t0", "--w2", "t2 t1"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "true"
    assert run(["equal", "--e", "3", "--n", "2", "--k", "1",
                "--w1", "t0 t1", "--w2", "t1 t0"]) == EXIT_FALSE
    assert capsys.readouterr().out.strip() == "false"


def test_presentation_output_and_dot(tmp_path, capsys):
    dot = tmp_path / "kite.dot"
    assert run(["presentation", "--e", "8", "--n", "2", "--k", "2",
                "--dot", str(dot)]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["t_cycle_components"] == 2
    assert data["isomorphic_to_cp"] is False
    assert len(data["generators"]) == 8
    assert len(data["relations"]) == 7
    text = dot.read_text()
    assert text.count("style=dashed") == 8  # two 4-cycles of dashed edges
    # the solid edges are the braiding pairs: every t_i with s_3, then the s-chain
    assert run(["presentation", "--e", "4", "--n", "5", "--k", "2",
                "--dot", str(dot)]) == EXIT_OK
    capsys.readouterr()
    edges = [
        line.strip() for line in dot.read_text().splitlines()
        if " -- " in line and "dashed" not in line
    ]
    assert edges == [f"t{i} -- s3;" for i in range(4)] + [
        f"s{j} -- s{j + 1};" for j in range(3, 5)
    ]


def test_presentation_cap(capsys, monkeypatch):
    """The relation count is checked before any relation is built.  With the
    cap at 20, (10,3) has 19 relations and (11,3) has 21."""
    from geen_garside import garside

    def forbidden(params):
        raise AssertionError("the generators were listed")

    with monkeypatch.context() as m:
        m.setattr(garside, "atoms", forbidden)
        assert run(["presentation", "--e", "200000", "--n", "3", "--k", "1"]) == EXIT_CAP
        err = capsys.readouterr().err
        assert "count = 399999 exceeds the cap 100000" in err and "MATSUMOTO_CAP" in err
    monkeypatch.setattr(garside, "MATSUMOTO_CAP", 20)
    assert run(["presentation", "--e", "10", "--n", "3", "--k", "1"]) == EXIT_OK
    assert len(json.loads(capsys.readouterr().out)["relations"]) == 19
    assert run(["presentation", "--e", "11", "--n", "3", "--k", "1"]) == EXIT_CAP
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "count = 21 exceeds the cap 20" in captured.err and "MATSUMOTO_CAP" in captured.err


def test_homology_output(capsys):
    assert run(["homology", "--e", "6", "--n", "3", "--k", "2",
                "--order", "2"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == '{"free_rank":1,"torsion":[3]}'


def test_homology_dump(tmp_path, capsys):
    path = tmp_path / "matrices.json"
    assert run(["homology", "--e", "3", "--n", "3", "--k", "1", "--order", "2",
                "--method", "both", "--dump-matrices", str(path)]) == EXIT_OK
    capsys.readouterr()
    dump = json.loads(path.read_text())
    assert len(dump["cells2"]) == 5 and len(dump["cells3"]) == 2


@pytest.mark.parametrize("method", ["closed", "generic", "both"])
@pytest.mark.parametrize("e,n,k,digest", [
    (3, 3, 1, "d1e42c95ba48cff6d9a96692510d43be99cefb677e54329dd412136eb2ab967a"),
    (4, 4, 2, "df4814d162ed4032d9296c1842b0afbedfff30bb8fd064fbc6c69e75cf2aa712"),
])
def test_homology_dump_is_golden_and_builds_two_generic_scopes(
    tmp_path, capsys, monkeypatch, method, e, n, k, digest
):
    """The dumped matrices are pinned bytes, the same for every method, and
    a generic or both call builds one _GenericDifferential memo scope,
    shared by H_2 and the dump's d2 and d3 (two before the dump shared the
    homology call's differentials, hence the name)."""
    import hashlib

    from geen_garside import homology

    scopes = []
    init = homology._GenericDifferential.__init__

    def init_spy(self, cx):
        init(self, cx)
        scopes.append(1)

    monkeypatch.setattr(homology._GenericDifferential, "__init__", init_spy)
    path = tmp_path / "matrices.json"
    assert run(["homology", "--e", str(e), "--n", str(n), "--k", str(k), "--order", "2",
                "--method", method, "--dump-matrices", str(path)]) == EXIT_OK
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    assert len(scopes) == (0 if method == "closed" else 1)


def test_verify_suites(capsys):
    for e, n, k in [(3, 3, 1), (3, 2, 1)]:
        for suite in ("lattice", "lcm", "balanced", "garside", "homology", "all"):
            assert run(["verify", "--e", str(e), "--n", str(n), "--k", str(k),
                        "--suite", suite]) == EXIT_OK
            capsys.readouterr()


def test_verify_suites_build_only_what_they_read(capsys, monkeypatch):
    """The balanced suite scans the group: it builds neither the interval
    nor the Garside tables."""
    from geen_garside import cli

    def forbidden(e, n, k):
        raise AssertionError("a structure was built")

    monkeypatch.setattr(cli, "cached_interval", forbidden)
    monkeypatch.setattr(cli, "cached_garside", forbidden)
    assert run(["verify", "--e", "3", "--n", "3", "--k", "1", "--suite", "balanced"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == '{"ok":true,"suite":"balanced"}'


def test_verify_theorem_violation_exits_4(capsys, monkeypatch):
    from geen_garside import cli

    def violated(interval):
        raise TheoremViolationError("atoms have no common multiple")

    monkeypatch.setattr(cli, "atom_lcm_table", violated)
    assert run(["verify", "--e", "3", "--n", "3", "--k", "1",
                "--suite", "lcm"]) == EXIT_VIOLATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("theorem violation: ")
    assert "atoms have no common multiple" in captured.err


def test_row_move_leaving_the_interval_exits_4(capsys, monkeypatch):
    """A build whose row move lands outside the interval is a theorem
    violation naming the atom and the member, not a usage error.  The
    s-descent rule is inverted, so s_j moves rows where it lengthens the
    member.  The build is fresh, so no cached interval hides the patch."""
    from geen_garside import cli, interval

    honest = interval.s_descent_row

    def inverted(perm, i):
        row, nonzero = honest(perm, i)
        return row, not nonzero

    monkeypatch.setattr(interval, "s_descent_row", inverted)
    monkeypatch.setattr(
        cli, "cached_interval",
        lambda e, n, k: interval.build_interval(GroupParams(e, n, k)),
    )
    assert run(["interval", "--e", "3", "--n", "3", "--k", "1"]) == EXIT_VIOLATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(
        r"theorem violation: the row move of [ts]\d+ on the member "
        r"GroupElement\(.*\) left the interval\n",
        captured.err,
    )


def test_verify_failed_suite_exits_4(capsys, monkeypatch):
    from geen_garside import cli

    monkeypatch.setattr(cli, "chain_condition_holds", lambda d_lo, d_hi: False)
    assert run(["verify", "--e", "3", "--n", "3", "--k", "1",
                "--suite", "homology"]) == EXIT_VIOLATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "homology: d2*d3 != 0"


def test_interval_lattice_violation_exits_4(capsys, monkeypatch):
    from geen_garside import cli
    from geen_garside.interval import LatticeReport, LatticeViolation

    violation = LatticeViolation("left", "meet", (1, 2), (3, 4))
    monkeypatch.setattr(
        cli, "verify_lattice", lambda interval: LatticeReport(False, violation)
    )
    assert run(["interval", "--e", "3", "--n", "3", "--k", "1",
                "--verify-lattice"]) == EXIT_VIOLATION
    captured = capsys.readouterr()
    summary = json.loads(captured.out)
    assert summary["members"] == 35
    assert summary["lattice"] == {
        "meet_left": False, "join_left": False,
        "meet_right": False, "join_right": False,
    }
    assert captured.err.startswith("lattice violation: ")
    assert "(1, 2)" in captured.err


def test_usage_error():
    assert run(["reduce", "--e", "3"]) == EXIT_USAGE
    assert run(["nonsense"]) == EXIT_USAGE
    assert run(["length", "--e", "3", "--n", "2", "--element", "not json"]) == EXIT_USAGE
    assert run(["nf", "--e", "3", "--n", "3", "--k", "1", "--word", "s+3"]) == EXIT_USAGE


@pytest.mark.parametrize(
    "command, element",
    [
        ("length", "[1,2]"),
        ("length", '"x"'),
        ("length", "null"),
        ("length", '{"e":3,"n":3,"perm":[1,2,3],"exps":[0,1.5,1.5]}'),
        ("reduce", '{"e":3,"n":3,"perm":[1,2,3],"exps":[1,true,true]}'),
        ("length", '{"e":3.7,"n":3,"perm":[1,2,3],"exps":[0,0,0]}'),
        ("length", '{"e":3,"n":true,"perm":[1],"exps":[0]}'),
        ("length", '{"e":3,"n":3,"perm":[1,2,3.0],"exps":[0,0,0]}'),
        ("length", '{"e":3,"n":3,"perm":[1,2,3]}'),
        ("length", '{"e":0,"n":0,"perm":[],"exps":[]}'),
    ],
)
def test_malformed_element_is_a_usage_error(command, element, capsys):
    assert run([command, "--e", "3", "--n", "3", "--element", element]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("order", ["0", "3"])
def test_homology_order_outside_the_resolution_is_a_usage_error(capsys, monkeypatch, order):
    """At n = 2 the cells end in degree 2, so orders 0 and n + 1 are refused
    from the built complex, before any differential, naming the order."""
    from geen_garside import cli

    def forbidden(*args):
        raise AssertionError("a differential was computed")

    monkeypatch.setattr(cli, "differentials", forbidden)
    args = ["homology", "--e", "3", "--n", "2", "--k", "1", "--order", order]
    assert run(args) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.endswith(f"not {order}\n")


def test_homology_reaches_every_degree(capsys, monkeypatch):
    """--order runs up to n, the last degree with cells: H_4 at (4,4,2) is
    Z^3 by the generic route; orders 0 and 5 are usage errors, 0 before
    any structure is built; the closed form covers degrees 1..3, so it
    refuses the 4-cells that H_3 at (4,4,2) needs, but gives H_3 at (3,3,1),
    whose complex ends in degree 3."""
    point = ["--e", "4", "--n", "4", "--k", "2"]
    assert run(["homology", *point, "--order", "4", "--method", "generic"]) == EXIT_OK
    assert capsys.readouterr().out == '{"free_rank":3,"torsion":[]}\n'
    for order, degrees in (("0", "from 1"), ("5", "1..4")):
        assert run(["homology", *point, "--order", order]) == EXIT_USAGE
        assert f"degrees {degrees}, not {order}" in capsys.readouterr().err
    assert run(["homology", *point, "--method", "closed", "--order", "3"]) == EXIT_USAGE
    assert "the closed form is written in degrees 1..3, not 4" in capsys.readouterr().err
    assert run(["homology", "--e", "3", "--n", "3", "--k", "1", "--method", "closed",
                "--order", "3"]) == EXIT_OK
    assert capsys.readouterr().out == '{"free_rank":0,"torsion":[]}\n'
    from geen_garside import cli

    def forbidden(*point):
        raise AssertionError("a structure was built")

    monkeypatch.setattr(cli, "cached_garside", forbidden)
    assert run(["homology", "--e", "6", "--n", "5", "--k", "1", "--order", "0"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: homology is computed in degrees from 1, not 0\n"


def test_cap_exceeded(capsys, monkeypatch):
    monkeypatch.setenv("GARSIDE_CAP", "10")
    assert run(["bfs-length", "--e", "6", "--n", "4", "--element",
                '{"e":6,"n":4,"perm":[1,2,3,4],"exps":[0,0,0,0]}']) == EXIT_CAP


def test_generic_op_cap_names_the_setting(capsys, monkeypatch):
    from geen_garside import homology

    args = ["homology", "--e", "3", "--n", "3", "--k", "1", "--order", "2",
            "--method", "generic"]
    assert run(args) == EXIT_OK
    assert capsys.readouterr().out.strip() == '{"free_rank":0,"torsion":[3]}'
    monkeypatch.setattr(homology, "GENERIC_OP_CAP", 5)
    assert run(args) == EXIT_CAP
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds the cap 5 (set by homology.GENERIC_OP_CAP)" in captured.err
    assert "actually computed" in captured.err


@pytest.mark.parametrize("value", ["abc", "0", "-5", "1.5"])
def test_unparsable_cap_names_the_setting(capsys, monkeypatch, value):
    monkeypatch.setenv("GARSIDE_CAP", value)
    assert run(["bfs-length", "--e", "3", "--n", "2", "--element",
                '{"e":3,"n":2,"perm":[1,2],"exps":[1,2]}']) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"GARSIDE_CAP={value!r}" in err


def test_cap_of_5001_digits_is_read(capsys, monkeypatch):
    """GARSIDE_CAP is read as ASCII digits at any length, past the 4,300
    digits that int() takes from a string."""
    monkeypatch.setenv("GARSIDE_CAP", "1" + "0" * 5000)
    assert run(["bfs-length", "--e", "3", "--n", "2", "--element",
                '{"e":3,"n":2,"perm":[1,2],"exps":[1,2]}']) == EXIT_OK
    assert capsys.readouterr().out.strip() == "2"


@pytest.mark.parametrize(
    "value",
    ["1_000", " 7 ", "+5", "\u0663", "x" * 10**5],
    ids=["underscore", "spaces", "sign", "arabic-indic-digit", "100000-chars"],
)
def test_cap_that_is_not_ascii_digits_is_refused_in_one_short_line(capsys, monkeypatch, value):
    """int() would take the first four; a long value is shown by its first
    40 characters and its length."""
    monkeypatch.setenv("GARSIDE_CAP", value)
    assert run(["bfs-length", "--e", "3", "--n", "2"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: GARSIDE_CAP=") and "is not a positive integer" in err
    assert len(err) < 120 and err.count("\n") == 1
    shown = repr(value) if len(value) <= 40 else f"({len(value)} characters)"
    assert shown in err


LONG = "x" * 100_000


def _one_short_usage_line(capsys, argv) -> str:
    """Run argv, which must exit 2 with nothing on stdout and one stderr
    line of under 300 bytes; return that line."""
    assert run(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and len(captured.err.encode()) < 300
    return captured.err


@pytest.mark.parametrize("argv", [
    ["nf", "--e", "\u0663", "--n", " 3 ", "--k", "+1", "--word", "t0"],
    ["nf", "--e", "11", "--n", "3", "--k", "1_0", "--word", "t0"],
    ["presentation", "--e", "3", "--n", "3.0", "--k", "1"],
    ["homology", "--e", "3", "--n", "3", "--k", "1", "--order", "+2"],
    ["freeze", "--out", os.devnull, "--e", "\u0663"],
    ["freeze", "--out", os.devnull, "--n", "-3"],
])
def test_integer_options_are_read_as_ascii_digits_only(capsys, argv):
    """--e, --n, --k and --order are read by `core.read_count`, as
    GARSIDE_CAP is: int() would take an Arabic-Indic digit, spaces, a sign
    and "_", so that `--k 1_0` ran as k = 10."""
    err = _one_short_usage_line(capsys, argv)
    assert re.match(r"error: --(e|n|k|order)=.* is not a positive integer\n", err)


@pytest.mark.parametrize("argv, shown", [
    (["nf", "--e", LONG, "--n", "3", "--k", "1", "--word", "t0"], "--e='xxx"),
    (["length", "--e", "3", "--n", "2", "--element", f'"{LONG}"'], "JSON object"),
    (["length", "--e", "3", "--n", "2", "--element",
      f'{{"e":"{LONG}","n":2,"perm":[1,2],"exps":[0,0]}}'], "e must be an integer"),
    (["length", "--e", "3", "--n", "2", "--element",
      f'{{"e":3,"n":2,"perm":["{LONG}"],"exps":[0,0]}}'], "perm must be a list"),
    (["nf", "--e", "3", "--n", "3", "--k", "1", "--word", LONG], "bad generator token"),
    (["nf", "--e", "3", "--n", "3", "--k", "1", "--word", "t0 s" + LONG], "s-index="),
    (["interval", "--e", "3", "--n", "3", "--k", "1", "--export", LONG, os.devnull],
     "unknown export format"),
])
def test_outside_text_is_echoed_by_at_most_40_characters(capsys, argv, shown):
    """A 100,000-character value, wherever it is refused, is shown by its
    first 40 characters and its length, in one short line."""
    err = _one_short_usage_line(capsys, argv)
    assert shown in err and re.search(r"['\"]\.\.\. \(100\d\d\d characters\)", err)


@pytest.mark.parametrize("argv, shown", [
    (["homology", "--e", "3", "--n", "3", "--k", "1", "--order", "2", "--method", LONG],
     "argument --method: invalid choice"),
    (["verify", "--e", "3", "--n", "3", "--k", "1", "--suite", LONG],
     "argument --suite: invalid choice"),
    ([LONG], "argument command: invalid choice"),
    (["nf", "--e", "3", "--n", "3", "--k", "1", "--word", "t0", LONG],
     "unrecognized arguments: xxx"),
    (["nf", "--e", "3", "--n", "3", "--k", "1", "--word", "t0", "--" + LONG],
     "unrecognized arguments: --xxx"),
])
def test_parser_errors_leave_through_run_in_one_short_line(capsys, argv, shown):
    """argparse's own refusals are run's "error:" lines, with no usage line;
    the value is cut as `core.shown` cuts it, alone for a bad --method or
    --suite, else with the text past 200 bytes.  They used to print the usage
    line and echo the value in full: 4 lines and 100,290 bytes for the
    --method case."""
    err = _one_short_usage_line(capsys, argv)
    assert err.startswith("error: ") and shown in err
    assert re.search(r"\.\.\. \(100\d\d\d characters\)", err)


@pytest.mark.parametrize("argv, choices", [
    (["homology", "--e", "3", "--n", "3", "--k", "1", "--order", "2", "--method", LONG],
     ("closed", "generic", "both")),
    (["verify", "--e", "3", "--n", "3", "--k", "1", "--suite", LONG],
     ("lattice", "lcm", "balanced", "garside", "homology", "all")),
])
def test_a_long_bad_choice_keeps_the_list_of_choices(capsys, argv, choices):
    """A bad --method or --suite value of 100,000 characters is cut alone,
    by `core.shown`, and the line still names every choice."""
    err = _one_short_usage_line(capsys, argv)
    value = f"{'x' * 40!r}... (100000 characters)"
    listed = ", ".join(map(repr, choices))
    assert err == f"error: argument {argv[-2]}: invalid choice: {value} (choose from {listed})\n"


@pytest.mark.parametrize("argv, choices", [
    (["homology", "--e", "3", "--n", "3", "--k", "1", "--order", "2", "--method"],
     ("closed", "generic", "both")),
    (["verify", "--e", "3", "--n", "3", "--k", "1", "--suite"],
     ("lattice", "lcm", "balanced", "garside", "homology", "all")),
])
def test_a_long_bad_choice_of_multibyte_characters_keeps_the_list(capsys, argv, choices):
    """`core.shown` and the parser both count bytes: 1,000 four-byte
    characters are shown by the first ten, and the line still names every
    choice.  Counted by characters, 40 of them passed the parser's 200
    bytes, and the whole message was cut, list and all."""
    smile = "\U0001F600"
    err = _one_short_usage_line(capsys, argv + [smile * 1000])
    value = repr(smile * 10) + "... (1000 characters)"
    listed = ", ".join(map(repr, choices))
    assert err == f"error: argument {argv[-1]}: invalid choice: {value} (choose from {listed})\n"


def test_an_element_outside_the_group_is_refused_in_one_line(capsys):
    argv = ["length", "--e", "3", "--n", "3", "--element",
            '{"e":3,"n":3,"perm":[3,1,2],"exps":[1,1,0]}']
    err = _one_short_usage_line(capsys, argv)
    assert err == "error: exponent sum of (1, 1, 0) is not 0 mod 3\n"


def test_a_missing_option_is_named_without_the_usage_line(capsys):
    argv = ["nf", "--e", "3", "--n", "3", "--k", "1"]
    err = _one_short_usage_line(capsys, argv)
    assert err == "error: the following arguments are required: --word\n"


def test_a_parser_message_with_a_newline_stays_one_line(capsys):
    argv = ["nf", "--e", "3", "--n", "3", "--k", "1", "--word", "t0", "x\ny"]
    err = _one_short_usage_line(capsys, argv)
    assert err == "error: 'unrecognized arguments: x\\ny'\n"


def test_an_argument_that_is_not_utf8_is_refused_in_argparse_words(capsys):
    """A byte that is not UTF-8 reaches argv as a lone surrogate.  The
    parser's message used to be measured by encoding it first, which
    raised, so the line gave the codec's complaint instead of the refusal."""
    argv = ["nf", "--e", "3", "--n", "3", "--k", "1", "--word", "t0", "ab\udcff"]
    err = _one_short_usage_line(capsys, argv)
    assert err == "error: 'unrecognized arguments: ab\\udcff'\n"


def test_help_and_version_exit_0(capsys):
    assert run(["--version"]) == EXIT_OK
    assert run(["nf", "--help"]) == EXIT_OK
    assert "--word" in capsys.readouterr().out


def test_an_os_error_shows_its_path_bounded(tmp_path, capsys):
    """An OSError gives its reason and its path as `core.shown` gives a
    value: a 5,000-character path used to make a 5,041-byte line."""
    long_path = str(tmp_path / ("y" * 5000))
    argv = ["interval", "--e", "3", "--n", "3", "--k", "1", "--export", "json", long_path]
    err = _one_short_usage_line(capsys, argv)
    assert err.startswith("error: File name too long: ")
    assert err.endswith(f"... ({len(long_path)} characters)\n")
    argv = ["presentation", "--e", "3", "--n", "3", "--k", "1", "--dot", "/nonexistent/dir/x.dot"]
    err = _one_short_usage_line(capsys, argv)
    assert err == "error: No such file or directory: '/nonexistent/dir/x.dot'\n"


@pytest.mark.parametrize("argv, message", [
    (["nf", "--e", "3", "--n", "3", "--k", "1" + "0" * 4000, "--word", "t0"],
     "got k=<about 4001 digits>"),
    (["homology", "--e", "3", "--n", "3", "--k", "1", "--order", "1" + "2" * 4999],
     "degrees 1..3, not <about 5000 digits>"),
    (["nf", "--e", "3", "--n", "3", "--k", "1", "--word", "t1" + "2" * 4999],
     "t-index <about 5000 digits> out of range for e=3"),
])
def test_an_integer_in_a_message_is_given_by_its_digit_count(capsys, argv, message):
    """A count of thousands of digits is read in full, past int()'s limit of
    4,300 digits, and a message names it by `format_count`."""
    assert message in _one_short_usage_line(capsys, argv)


def test_balanced_suite_admits_the_group_before_listing(capsys, monkeypatch):
    """|G(3,3,3)| = 54 is refused before any maximal-length element is listed."""
    from geen_garside import interval

    def forbidden(params):
        raise AssertionError("the maximal-length elements were listed")

    monkeypatch.setenv("GARSIDE_CAP", "53")
    monkeypatch.setattr(interval, "maximal_length_elements", forbidden)
    with pytest.raises(CapExceededError, match=r"\| = 54 exceeds .*GARSIDE_CAP"):
        interval.balanced_max_length(GroupParams(3, 3))
    assert run(["verify", "--e", "3", "--n", "3", "--k", "1", "--suite", "balanced"]) == EXIT_CAP
    assert "| = 54 exceeds" in capsys.readouterr().err


def test_balanced_census_is_bounded_before_any_scan(capsys, monkeypatch):
    """|G(3,3,3)| = 54 passes GARSIDE_CAP = 100, but the census scans G once
    per candidate, 54 (3-1)^2 = 216 elements, so it is refused before any
    candidate is tested."""
    from geen_garside import interval

    def forbidden(w):
        raise AssertionError("a candidate was scanned")

    monkeypatch.setenv("GARSIDE_CAP", "100")
    monkeypatch.setattr(interval, "is_balanced", forbidden)
    with pytest.raises(CapExceededError, match=r"= 216 exceeds the cap 100 .*GARSIDE_CAP"):
        interval.balanced_max_length(GroupParams(3, 3))
    assert run(["verify", "--e", "3", "--n", "3", "--k", "1", "--suite", "balanced"]) == EXIT_CAP
    err = capsys.readouterr().err
    assert "= 216 exceeds" in err and "GARSIDE_CAP" in err


@pytest.mark.parametrize("argv", [
    ["nf", "--e", "3", "--n", "1000", "--k", "1", "--word", "t0"],
    ["interval", "--e", "3", "--n", "1000", "--k", "1"],
    ["homology", "--e", "3", "--n", "1000", "--k", "1", "--order", "2"],
    ["bfs-length", "--e", "3", "--n", "2000"],
    ["verify", "--e", "3", "--n", "2000", "--k", "1", "--suite", "balanced"],
] + [
    [*command, "--e", "3", "--n", str(n), *rest]
    for n in (10**6, 10**7, 10**20)
    for command, rest in [
        (["nf"], ["--k", "1", "--word", "t0"]),
        (["interval"], ["--k", "1"]),
        (["homology"], ["--k", "1", "--order", "2"]),
        (["bfs-length"], []),
        (["verify"], ["--k", "1", "--suite", "balanced"]),
    ]
] + [
    ["presentation", "--e", "3", "--n", "1" + "0" * 3999, "--k", "1"],
    ["verify", "--e", "3", "--n", "1" + "0" * 4000, "--k", "1", "--suite", "balanced"],
])
def test_cap_message_of_a_huge_count_is_printed_by_its_digits(capsys, argv):
    """|D| and |G| at n = 1000 and beyond, and the relation count at
    n = 10^3999, have thousands of digits or more.  Each cap gives up
    multiplying once the size passes 10^30, and exits 3 within a second
    with one short line naming its knob and the size as more than that.
    An n - 1 past 2^63, the count of the e's in |G|, is counted too."""
    knob = {"bfs-length": "GARSIDE_CAP", "verify": "GARSIDE_CAP", "presentation": "MATSUMOTO_CAP"}
    start = time.perf_counter()
    assert run(argv) == EXIT_CAP
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("cap exceeded: ") and re.search(r"<about \d+ digits>", err)
    assert len(err) < 300 and err.count("\n") == 1
    assert knob.get(argv[0], "INTERVAL_TABLE_CAP_BYTES") in err


def test_balanced_census_of_a_huge_count_is_printed_by_its_digits(capsys, monkeypatch):
    """|G(1000,1000,600)|, about 10^3206, passes a cap of 10^3300, but the
    census product, of over 5,000 digits, is refused as more than the cap
    once its factors pass it, before it is formed."""
    monkeypatch.setenv("GARSIDE_CAP", "1" + "0" * 3300)
    assert run(["verify", "--e", "1000", "--n", "600", "--k", "1",
                "--suite", "balanced"]) == EXIT_CAP
    err = capsys.readouterr().err
    assert re.search(r"\(n-1\) = more than <about 330[12] digits> exceeds the cap <", err)


def test_interval_cap_refuses_before_enumerating(capsys, monkeypatch):
    """(2,7,1): |G| = 322,560 passes GARSIDE_CAP, but the bitset table
    of its 322,560 simples would take about 13 GB: |D| passes 92,681, the
    largest |D| whose table of |D|^2/8 bytes fits the cap."""
    from geen_garside import interval

    def forbidden(params):
        raise AssertionError("the group was enumerated")

    monkeypatch.setattr(interval, "admit_group", forbidden)
    assert run(["interval", "--e", "2", "--n", "7", "--k", "1"]) == EXIT_CAP
    err = capsys.readouterr().err
    assert "|D| of [1, lambda^k] = 322560 exceeds the cap 92681" in err
    assert "INTERVAL_TABLE_CAP_BYTES" in err


def test_determinism(capsys):
    args = ["interval", "--e", "4", "--n", "3", "--k", "2"]
    assert run(args) == EXIT_OK
    first = capsys.readouterr().out
    assert run(args) == EXIT_OK
    assert capsys.readouterr().out == first


def test_freeze_and_drift(tmp_path):
    path = tmp_path / "regressions.jsonl"
    grid = [GroupParams(3, 3, 1), GroupParams(3, 3, 2)]
    records = freeze_regressions(grid, str(path))
    assert any(
        r.key == "interval-cardinality e=3 n=3 k=1" and r.value == 35 for r in records
    )
    # rerun against the frozen file: must match byte for byte
    assert freeze_regressions(grid, str(path)) == records
    # tamper and expect drift detection
    lines = path.read_text().splitlines()
    lines[0] = lines[0].replace("35", "36")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TheoremViolationError):
        freeze_regressions(grid, str(path))


def test_freeze_drift_quotes_the_first_pair_that_differs(tmp_path, capsys):
    """A drifted file exits 4 quoting the first frozen line and line now
    that differ; a side that has ended is named as missing.  The file is
    read up to `cli.FROZEN_MARGIN` characters past the expected text, so an
    extra line is quoted whole."""
    path = tmp_path / "reg.jsonl"
    argv = ["freeze", "--out", str(path), "--e", "3", "--n", "2"]
    assert run(argv) == EXIT_OK
    capsys.readouterr()
    lines = path.read_text().splitlines()
    changed = lines[1].replace("census", "count")
    for frozen, old, new in [
        (lines[:1] + [changed] + lines[2:], changed, lines[1]),
        (lines[:-1], "(missing)", lines[-1]),
        (lines + ["xyz"], "xyz", "(missing)"),
    ]:
        path.write_text("\n".join(frozen) + "\n")
        assert run(argv) == EXIT_VIOLATION
        assert capsys.readouterr().err == (
            f"theorem violation: regression drift:\n  frozen: {old}\n  now:    {new}\n"
        )


def test_freeze_reads_a_padded_file_with_bounded_memory(tmp_path, capsys):
    """A frozen file holding the expected lines plus 8 MB more is drift, found
    without reading the padding: the check reads at most `cli.FROZEN_MARGIN`
    characters past the expected text."""
    import tracemalloc

    path = tmp_path / "reg.jsonl"
    argv = ["freeze", "--out", str(path), "--e", "3", "--n", "2"]
    assert run(argv) == EXIT_OK
    expected = path.read_bytes()
    path.write_bytes(expected + b"x" * (8 << 20))
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert run(argv) == EXIT_VIOLATION
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "regression drift" in capsys.readouterr().err
    assert peak < 1 << 20
    path.write_bytes(expected)
    assert run(argv) == EXIT_OK


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_freeze_refuses_an_out_that_is_not_a_regular_file(capsys):
    """An existing --out that is a device is a usage error, not an endless read."""
    assert run(["freeze", "--out", "/dev/zero", "--e", "2", "--n", "2"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "not a regular file" in captured.err


def test_freeze_empty_grid(tmp_path):
    path = tmp_path / "empty.jsonl"
    assert freeze_regressions([], str(path)) == []
    assert path.read_text() == ""


def test_default_grid_caps():
    grid = default_grid()
    assert GroupParams(6, 4, 5) in grid
    assert all(c.e ** (c.n - 1) * [1, 1, 2, 6, 24][c.n] <= 10**5 for c in grid)
    ks = {(c.e, c.n, c.k) for c in grid}
    assert (3, 3, 1) in ks and (3, 3, 2) in ks


def test_freeze_cli(tmp_path, capsys):
    path = tmp_path / "reg.jsonl"
    assert run(["freeze", "--out", str(path), "--e", "3", "--n", "2"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["records"] > 0
    assert path.exists()


@pytest.mark.parametrize("filters", [["--e", "9"], ["--n", "9"], ["--e", "2", "--n", "5"]])
def test_freeze_cli_filters_matching_nothing(tmp_path, capsys, filters):
    """An empty filtered grid is a usage error and writes no file, so a later
    unfiltered run cannot read it as drift."""
    path = tmp_path / "reg.jsonl"
    assert run(["freeze", "--out", str(path)] + filters) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert not path.exists()


def test_regression_records_match_benchmark_golden():
    """freeze over the default grid stays byte-identical to the golden copy."""
    path = os.path.join(
        os.path.dirname(__file__), os.pardir, "perfbench", "golden", "grid_records.jsonl"
    )
    with open(path) as handle:
        golden = handle.read().splitlines()
    lines = [r.line() for c in default_grid() for r in regression_records(c)]
    assert len(lines) == len(golden)
    for old, new in zip(golden, lines):
        assert new == old


def test_readme_command_examples(tmp_path, monkeypatch, capsys):
    """Every `geen-garside` line of the README's command block exits 0, and
    the file its `freeze` line writes is byte-identical to the golden copy."""
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    with open(os.path.join(root, "README.md")) as handle:
        readme = handle.read()
    with open(os.path.join(root, "perfbench", "golden", "grid_records.jsonl"), "rb") as handle:
        golden = handle.read()
    commands = [
        shlex.split(line)[1:]
        for line in readme.splitlines()
        if line.startswith("geen-garside ")
    ]
    assert ["freeze", "--out", "regressions.jsonl"] in commands
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert run(argv) == EXIT_OK, argv
        capsys.readouterr()
    assert (tmp_path / "regressions.jsonl").read_bytes() == golden
