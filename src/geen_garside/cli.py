"""
Command-line front end tying the modules together.

Machine-readable output goes to stdout, diagnostics to stderr.  Exit codes:
0 success, 1 a logical "false" answer (only from equal), 2 usage errors,
3 caps exceeded, 4 theorem-violation reports.  Identical invocations produce
byte-identical output; `freeze` writes a regression file of canonical JSON
lines and fails on any drift when rerun against an existing file.
"""

from __future__ import annotations

import json
import os
import stat
import sys
from itertools import zip_longest
from typing import NamedTuple

from . import __version__, garside
from .core import (
    CapExceededError,
    GroupElement,
    GroupParams,
    admit,
    atoms,
    braid_m,
    format_word,
    read_count,
    shown,
)
from .interval import (
    TheoremViolationError,
    atom_lcm_table,
    balanced_max_length,
    cached_interval,
    verify_lattice,
)
from .garside import (
    cached_garside,
    embedding_lcm_check,
    emit_presentation,
    is_isomorphic_to_CP,
    t_cycle_components,
)
from .homology import (
    METHODS,
    chain_condition_holds,
    check_homology_degree,
    differentials,
    enumerate_cells,
    homology_group,
    homology_of,
)
from .words import (
    cayley_length_table,
    length,
    maximal_length_elements,
    reduced_expression,
)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_VIOLATION = 4

# the suites of `verify`, in the order "all" runs them
SUITES = ("lattice", "lcm", "balanced", "garside", "homology")
# Characters read from a frozen regression file past the expected text.
FROZEN_MARGIN = 200


class RegressionRecord(NamedTuple):
    key: str
    value: object

    def line(self) -> str:
        return _canonical({"key": self.key, "value": self.value, "version": __version__})


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _element(args, params: GroupParams) -> GroupElement:
    w = GroupElement.from_json(args.element)
    if w.e != params.e or w.n != params.n:
        raise ValueError("element parameters disagree with --e/--n")
    return w


def _add_params(parser, with_k: bool):
    parser.add_argument("--e", required=True)
    parser.add_argument("--n", required=True)
    if with_k:
        parser.add_argument("--k", required=True)


def _interval_dot(interval, out) -> None:
    out.write("digraph interval {\n  rankdir=BT;\n")
    for i, w in enumerate(interval.members):
        word = format_word(reduced_expression(w)) or "1"
        out.write(f'  n{i} [label="{word}"];\n')
    for b in range(len(interval)):
        for a in interval.covers(b):
            out.write(f"  n{a} -> n{b};\n")
    out.write("}\n")


def _interval_json(interval, out) -> None:
    """Write the canonical JSON (sorted keys, no spaces) of the interval one
    row at a time, so neither table is held as text."""
    import base64

    width = (len(interval) + 7) // 8

    def rows(table):
        out.write("[")
        for b, mask in enumerate(table):
            text = base64.b64encode(mask.to_bytes(width, "little")).decode("ascii")
            out.write(f',"{text}"' if b else f'"{text}"')
        out.write("]")

    # a <= b on the right exactly when a = b or a <= c for some c with
    # b = x c, x an atom; down_left lists those c, all below b in ordinal order
    right: list[int] = []
    for b in range(len(interval)):
        row = 1 << b
        for down in interval.down_left:
            if down[b] >= 0:
                row |= right[down[b]]
        right.append(row)

    out.write(f'{{"e":{interval.e},"k":{interval.k},"left_divides":')
    rows(interval.div_left)
    out.write(',"members":[' + ",".join(w.to_json() for w in interval.members))
    out.write(f'],"n":{interval.n},"right_divides":')
    rows(right)
    out.write("}")


# the formats of `interval --export`, each with its writer
EXPORTS = {"dot": _interval_dot, "json": _interval_json}


def _presentation_dot(params: GroupParams) -> str:
    """Kite diagram: the t-cycle with dashed k-step edges, s-chain below."""
    e, n, k = params.e, params.n, params.k
    lines = ["graph presentation {", "  layout=circo;"]
    for i in range(e):
        lines.append(f'  t{i} [label="t{i}"];')
    for j in range(3, n + 1):
        lines.append(f'  s{j} [label="s{j}"];')
    seen = set()
    for i in range(e):
        edge = frozenset((i, (i - k) % e))
        if edge not in seen:
            seen.add(edge)
            a, b = sorted(edge)
            lines.append(f"  t{a} -- t{b} [style=dashed];")
    # solid edges join braiding pairs; two t's never braid, so y runs over the s's
    gens = atoms(params)
    for j in range(e, len(gens)):
        for x in gens[:j]:
            if braid_m(x, gens[j]) == 3:
                lines.append(f"  {x} -- {gens[j]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_reduce(args) -> int:
    params = GroupParams(args.e, args.n)
    w = _element(args, params)
    cap = garside.MATSUMOTO_CAP
    admit("a longest word's n(n-1) letters", (args.n, args.n - 1), cap, "garside.MATSUMOTO_CAP")
    print(format_word(reduced_expression(w)))
    return EXIT_OK


def _cmd_length(args) -> int:
    params = GroupParams(args.e, args.n)
    print(length(_element(args, params)))
    return EXIT_OK


def _cmd_bfs_length(args) -> int:
    params = GroupParams(args.e, args.n)
    # the element is parsed before the BFS, so a bad one costs no search
    element = None if args.element is None else _element(args, params)
    table = cayley_length_table(params)
    if element is not None:
        print(table[element])
        return EXIT_OK
    # "element" sorts before "length", so each line is its element's JSON
    for text, dist in sorted((w.to_json(), dist) for w, dist in table.items()):
        print(f'{{"element":{text},"length":{dist}}}')
    return EXIT_OK


def _cmd_interval(args) -> int:
    if args.export and args.export[0] not in EXPORTS:
        raise ValueError(
            f"unknown export format {shown(args.export[0])}; use {' or '.join(EXPORTS)}"
        )
    interval = cached_interval(args.e, args.n, args.k)
    summary = {
        "e": args.e,
        "n": args.n,
        "k": args.k,
        "members": len(interval),
        "atoms": len(atoms(interval.params)),
        "delta_length": interval.lengths[interval.delta_ordinal],
    }
    if args.verify_lattice:
        report = verify_lattice(interval)
        # one verdict: the right order is the left one read through the
        # transpose, and joins are complemented meets
        summary["lattice"] = dict.fromkeys(
            ("meet_left", "join_left", "meet_right", "join_right"), report.all_ok
        )
        if not report.all_ok:
            print(_canonical(summary))
            print(f"lattice violation: {report.counterexample}", file=sys.stderr)
            return EXIT_VIOLATION
    if args.export:
        kind, path = args.export
        with open(path, "w") as handle:
            EXPORTS[kind](interval, handle)
        summary["exported"] = kind
    print(_canonical(summary))
    return EXIT_OK


def _cmd_nf(args) -> int:
    g = cached_garside(args.e, args.n, args.k)
    nf = g.normal_form(args.word)
    # the canonical JSON of the form, with each factor's JSON as written
    factors = ",".join(g.interval.element(f).to_json() for f in nf.factors)
    print(f'{{"delta_power":{nf.delta_power},"factors":[{factors}]}}')
    return EXIT_OK


def _cmd_equal(args) -> int:
    g = cached_garside(args.e, args.n, args.k)
    equal = g.words_equal(args.w1, args.w2)
    print("true" if equal else "false")
    return EXIT_OK if equal else EXIT_FALSE


def _cmd_presentation(args) -> int:
    params = GroupParams(args.e, args.n, args.k)
    pres = emit_presentation(params)
    data = {
        "generators": [str(x) for x in pres.generators],
        "relations": [
            [format_word(lhs), format_word(rhs)] for lhs, rhs in pres.relations
        ],
        "t_cycle_components": t_cycle_components(args.e, args.k),
        "isomorphic_to_cp": is_isomorphic_to_CP(args.e, args.k, args.n)[0],
    }
    if args.dot:
        with open(args.dot, "w") as handle:
            handle.write(_presentation_dot(params))
    print(_canonical(data))
    return EXIT_OK


def _cmd_homology(args) -> int:
    r = args.order
    if r < 1:  # needs no structure; the top degree is read from its cells
        raise ValueError(f"homology is computed in degrees from 1, not {r}")
    g = cached_garside(args.e, args.n, args.k)
    check_homology_degree(g, r)
    # one differentials call, so one memo scope serves H_r and the dump
    degrees = sorted({r, r + 1} | ({2, 3} if args.dump_matrices else set()))
    d = dict(zip(degrees, differentials(g, degrees, args.method)))
    group = homology_of(r, d[r], d[r + 1])
    if args.dump_matrices:
        dump = {f"d{i}": d[i] for i in (2, 3)} | {
            f"cells{i}": [format_word(c) for c in enumerate_cells(g, i)] for i in (1, 2, 3)
        }
        with open(args.dump_matrices, "w") as handle:
            handle.write(_canonical(dump))
    print(_canonical(group.to_json_dict()))
    return EXIT_OK


def _verify_suite(args) -> list[str]:
    failures = []
    for suite in SUITES if args.suite == "all" else (args.suite,):
        if suite == "lattice":
            report = verify_lattice(cached_interval(args.e, args.n, args.k))
            if not report.all_ok:
                failures.append(f"lattice: {report.counterexample}")
        elif suite == "lcm":
            atom_lcm_table(cached_interval(args.e, args.n, args.k))
        elif suite == "balanced":
            balanced_max_length(GroupParams(args.e, args.n))
        elif suite == "garside":
            g = cached_garside(args.e, args.n, args.k)
            if not g.is_left_greedy(g.normal_form("t0 t1 t0^-1")):
                failures.append("garside: normal form not left-greedy")
            for lhs, rhs in emit_presentation(g.params).relations:
                if not g.words_equal([(x, 1) for x in lhs], [(x, 1) for x in rhs]):
                    failures.append(f"garside: relation {lhs} = {rhs} broken")
            if args.n >= 3 and not embedding_lcm_check(g):
                failures.append("garside: embedding lcm compatibility failed")
        elif suite == "homology":
            g = cached_garside(args.e, args.n, args.k)
            d2, d3 = differentials(g, (2, 3))
            if not chain_condition_holds(d2, d3):
                failures.append("homology: d2*d3 != 0")
    return failures


def _cmd_verify(args) -> int:
    failures = _verify_suite(args)
    if failures:
        for failure in failures:
            print(failure, file=sys.stderr)
        return EXIT_VIOLATION
    print(_canonical({"suite": args.suite, "ok": True}))
    return EXIT_OK


def default_grid() -> list[GroupParams]:
    """e in 2..6, n in 2..4, all k."""
    grid = []
    for e in range(2, 7):
        for n in range(2, 5):
            for k in range(1, e):
                grid.append(GroupParams(e, n, k))
    return grid


def regression_records(params: GroupParams) -> list[RegressionRecord]:
    e, n, k = params.e, params.n, params.k
    interval = cached_interval(e, n, k)
    tag = f"e={e} n={n} k={k}"
    records = [
        RegressionRecord(f"interval-cardinality {tag}", len(interval)),
        RegressionRecord(
            f"max-length-census e={e} n={n}", len(maximal_length_elements(params))
        ),
        RegressionRecord(
            f"t-cycle-components e={e} k={k}", t_cycle_components(e, k)
        ),
    ]
    if n >= 3:
        g = cached_garside(e, n, k)
        records.append(
            RegressionRecord(
                f"homology-h1 {tag}", homology_group(g, 1).to_json_dict()
            )
        )
        records.append(
            RegressionRecord(
                f"homology-h2 {tag}", homology_group(g, 2).to_json_dict()
            )
        )
    return records


def freeze_regressions(grid: list[GroupParams], path: str) -> list[RegressionRecord]:
    """Write (or check against) a canonical JSONL regression file.

    An existing path must be a regular file, and at most FROZEN_MARGIN
    characters more than the expected text are read from it, so no file or
    device is read without a bound, and an extra frozen line is quoted up
    to that many characters.
    """
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        raise ValueError(f"{path} exists and is not a regular file")
    records: list[RegressionRecord] = []
    for params in grid:
        records.extend(regression_records(params))
    lines = [record.line() for record in records]
    text = "\n".join(lines) + ("\n" if lines else "")
    if mode is None:
        with open(path, "w") as handle:
            handle.write(text)
        return records
    with open(path) as handle:
        frozen = handle.read(len(text) + FROZEN_MARGIN)
    for old, new in zip_longest(frozen.splitlines(), lines):
        if old != new:  # the first line that differs; a side that ended is missing
            old, new = ("(missing)" if line is None else line for line in (old, new))
            raise TheoremViolationError(f"regression drift:\n  frozen: {old}\n  now:    {new}")
    return records


def _cmd_freeze(args) -> int:
    grid = [c for c in default_grid() if args.e in (None, c.e) and args.n in (None, c.n)]
    if not grid:
        raise ValueError("--e/--n match no point of the default grid")
    records = freeze_regressions(grid, args.out)
    print(_canonical({"records": len(records), "path": args.out}))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    # imported here, so that library users of this module never load argparse
    import argparse

    class Parser(argparse.ArgumentParser):  # the subparsers inherit the class
        def error(self, message):
            # a refusal leaves through `run`'s one line; a message of over 200
            # bytes or unprintable, which may echo a value from outside, is cut
            # by `shown`, which counts bytes too, so a value it has cut fits.
            # Printability is asked first: an argument that is not UTF-8 comes
            # with lone surrogates, which are unprintable and do not encode.
            fits = message.isprintable() and len(message.encode()) <= 200
            raise ValueError(message if fits else shown(message))

    def choice(names: tuple[str, ...]):
        """An option type that takes one of `names`: another value is refused
        in argparse's words with the value alone cut by `shown`, so the
        message keeps its list of choices however long the value is."""
        choose = f"(choose from {', '.join(map(repr, names))})"

        def check(value: str) -> str:
            if value in names:
                return value
            raise argparse.ArgumentTypeError(f"invalid choice: {shown(value)} {choose}")
        return check

    parser = Parser(
        prog="geen-garside",
        description="Interval Garside structures on the reflection groups G(e,e,n)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="minimal word of a group element")
    _add_params(p, with_k=False)
    p.add_argument("--element", required=True, help="element as JSON")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("length", help="length of a group element")
    _add_params(p, with_k=False)
    p.add_argument("--element", required=True)
    p.set_defaults(func=_cmd_length)

    # regression-freezing oracle; deliberately undocumented
    p = sub.add_parser("bfs-length")
    _add_params(p, with_k=False)
    p.add_argument("--element")
    p.set_defaults(func=_cmd_bfs_length)

    p = sub.add_parser("interval", help="build and export an interval")
    _add_params(p, with_k=True)
    p.add_argument("--verify-lattice", action="store_true")
    p.add_argument(
        "--export",
        nargs=2,
        metavar=("FORMAT", "PATH"),
        help=f"FORMAT is {' or '.join(EXPORTS)}",
    )
    p.set_defaults(func=_cmd_interval)

    p = sub.add_parser("nf", help="Garside normal form of a signed word")
    _add_params(p, with_k=True)
    p.add_argument("--word", required=True)
    p.set_defaults(func=_cmd_nf)

    p = sub.add_parser("equal", help="word problem: are two words equal?")
    _add_params(p, with_k=True)
    p.add_argument("--w1", required=True)
    p.add_argument("--w2", required=True)
    p.set_defaults(func=_cmd_equal)

    p = sub.add_parser("presentation", help="defining relations and diagram")
    _add_params(p, with_k=True)
    p.add_argument("--dot", help="write a DOT diagram to this path")
    p.set_defaults(func=_cmd_presentation)

    p = sub.add_parser("homology", help="integral homology H_r")
    _add_params(p, with_k=True)
    p.add_argument("--order", required=True, help="the degree r, 1 <= r <= n")
    p.add_argument("--method", choices=METHODS, type=choice(METHODS), default="closed")
    p.add_argument("--dump-matrices", metavar="PATH")
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("verify", help="run a verification suite")
    _add_params(p, with_k=True)
    suites = SUITES + ("all",)
    p.add_argument("--suite", choices=suites, type=choice(suites), default="all")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("freeze", help="freeze or check regression values")
    p.add_argument("--out", required=True)
    p.add_argument("--e")
    p.add_argument("--n")
    p.set_defaults(func=_cmd_freeze)
    return parser


def run(argv: list[str]) -> int:
    try:
        args = build_parser().parse_args(argv)
        for name in ("e", "n", "k", "order"):  # integers are read here, once
            if getattr(args, name, None) is not None:
                setattr(args, name, read_count(getattr(args, name), f"--{name}"))
        return args.func(args)
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except TheoremViolationError as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # the path came from outside, so it is shown bounded
        where = "" if exc.filename is None else f": {shown(exc.filename)}"
        print(f"error: {exc.strerror}{where}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit:  # the parser exits only for --help and --version
        return EXIT_OK


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
