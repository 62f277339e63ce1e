"""A seeded grammar of command lines run through `cli.run` in process.

Every subcommand is drawn with small valid points (e, n <= 4), extreme
integers (n = 10^7, 10^20 and a 4,000-digit n, e = 10^20), integers that
are not ASCII digits, malformed JSON elements and malformed words, with a
100,000-character value of each kind, and of the subcommand, of an unknown
option and of each choice (--method, --suite, the export format), and
5,000-character output paths.  Whatever the arguments, `run` must return an
exit code of the CLI (1 only from `equal`), raise nothing, finish each case
within CASE_SECONDS, enforced by an interval timer, and write at most one
stderr line of under 300 bytes, unless it reports a violation.
"""

import random
import signal

from geen_garside.cli import EXIT_CAP, EXIT_FALSE, EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, run

SEED = 20171
CASES = 400
CASE_SECONDS = 1.0

HUGE_N = ["10000000", "100000000000000000000", "1" + "0" * 3999]
HUGE_E = ["100000000000000000000"]
LONG = "x" * 100_000
LONG_NAME = "y" * 5000
BAD_INTEGERS = ["0", "-1", "1.5", "x", "", "+1", " 3 ", "1_0", "\u0663", LONG, "1" + "0" * 4000]
BAD_ELEMENTS = [
    "", "[]", "{", "null", '"t0"', "[" * 5000 + "]" * 5000, '{"e":3}',
    '{"e":3,"n":2,"perm":[1,1],"exps":[0,0]}',
    '{"e":3,"n":2,"perm":[2,1],"exps":[1,1]}',
    '{"e":true,"n":2,"perm":[1,2],"exps":[0,0]}',
    '{"e":3,"n":2,"perm":[1,2],"exps":[1e400,2]}',
    '{"e":3,"n":2,"perm":[1,2],"exps":[' + "9" * 5000 + ",0]}",
    '"' + LONG + '"',
]
BAD_WORDS = ["t", "x1", "t-1", "t0^2", "s99", "t\u0663", "t" + "9" * 5000, "t_1", "t0 ^-1", LONG]


class CaseTimeout(Exception):
    pass


def _timeout(signum, frame):
    raise CaseTimeout


def _integer(rng, small, huge):
    roll = rng.random()
    if roll < 0.75:
        return str(rng.choice(small))
    return rng.choice(huge) if roll < 0.92 else rng.choice(BAD_INTEGERS)


def _small(e, n):
    """Whether e and n were drawn as a small valid point."""
    return e in ("2", "3", "4") and n in ("2", "3", "4")


def _element(rng, e, n):
    if rng.random() < 0.4 or not _small(e, n):
        return rng.choice(BAD_ELEMENTS)
    e, n = int(e), int(n)
    exps = [rng.randrange(e) for _ in range(n - 1)]
    perm = rng.sample(range(1, n + 1), n)
    return f'{{"e":{e},"n":{n},"perm":{perm},"exps":{exps + [-sum(exps) % e]}}}'


def _word(rng, e, n):
    if rng.random() < 0.3 or not _small(e, n):
        return rng.choice(BAD_WORDS)
    letters = [f"t{i}" for i in range(int(e))] + [f"s{j}" for j in range(3, int(n) + 1)]
    return " ".join(
        rng.choice(letters) + rng.choice(["", "^-1"]) for _ in range(rng.randrange(8))
    )


def _case(rng, path):
    """One command line: a subcommand with parameters drawn from the grammar."""
    e = _integer(rng, range(2, 5), HUGE_E)
    n = _integer(rng, range(2, 5), HUGE_N)
    k = _integer(rng, range(1, 4), HUGE_E)
    point = ["--e", e, "--n", n]
    command = rng.choice(
        ["reduce", "length", "bfs-length", "interval", "nf", "equal",
         "presentation", "homology", "verify", "freeze", LONG]
    )
    if command == LONG:
        argv = [command, *point]
    elif command in ("reduce", "length", "bfs-length"):
        argv = [command, *point, "--element", _element(rng, e, n)]
    elif command == "interval":
        argv = [command, *point, "--k", k]
        if rng.random() < 0.3:
            argv.append("--verify-lattice")
        if rng.random() < 0.3:
            kind = rng.choice(["dot", "json", "svg", LONG])
            out = rng.choice([path / f"iv.{kind[:4]}", path, path / LONG_NAME])
            argv += ["--export", kind, str(out)]
    elif command == "nf":
        argv = [command, *point, "--k", k, "--word", _word(rng, e, n)]
    elif command == "equal":
        argv = [command, *point, "--k", k, "--w1", _word(rng, e, n), "--w2", _word(rng, e, n)]
    elif command == "presentation":
        argv = [command, *point, "--k", k]
        if rng.random() < 0.3:
            argv += ["--dot", str(path / rng.choice(["presentation.dot", LONG_NAME]))]
    elif command == "homology":
        order = _integer(rng, range(0, 6), HUGE_E)
        argv = [command, *point, "--k", k, "--order", order,
                "--method", rng.choice(["closed", "generic", LONG])]
        if rng.random() < 0.2:
            argv += ["--dump-matrices", str(path / "matrices.json")]
    elif command == "verify":
        suite = rng.choice(["lattice", "lcm", "balanced", "garside", "homology", "all", LONG])
        argv = [command, *point, "--k", k, "--suite", suite]
    else:
        argv = [command, "--out", str(path / "freeze.jsonl"), "--e", e]
        if rng.random() < 0.5:
            argv += ["--n", n]
    if rng.random() < 0.05:  # a missing or unknown argument
        if rng.random() < 0.5:
            argv = argv[:-1]
        else:
            argv.append(rng.choice(["--bogus", LONG, "--" + LONG]))
    return argv


def test_cli_fuzz_exits_with_a_code_and_in_time(tmp_path, capsys):
    rng = random.Random(SEED)
    previous = signal.signal(signal.SIGALRM, _timeout)
    codes = {}
    try:
        for _ in range(CASES):
            argv = _case(rng, tmp_path)
            shown = [arg[:40] for arg in argv]
            signal.setitimer(signal.ITIMER_REAL, CASE_SECONDS)
            try:
                code = run(argv)
            except CaseTimeout:
                raise AssertionError(f"{shown} ran over {CASE_SECONDS} s") from None
            except Exception as exc:
                raise AssertionError(f"{shown} raised {exc!r:.200}") from exc
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            err = capsys.readouterr().err
            # a violation report (a drifted freeze file) quotes what differs
            if code != EXIT_VIOLATION:
                assert err.count("\n") <= 1 and len(err.encode()) < 300, (shown, err[:300])
            allowed = {EXIT_OK, EXIT_USAGE, EXIT_CAP, EXIT_VIOLATION}
            assert code in allowed | ({EXIT_FALSE} if argv[0] == "equal" else set()), shown
            codes[code] = codes.get(code, 0) + 1
    finally:
        signal.signal(signal.SIGALRM, previous)
    # the grammar reaches success, usage errors and caps alike
    assert {EXIT_OK, EXIT_USAGE, EXIT_CAP} <= codes.keys(), codes
