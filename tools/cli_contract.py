"""Print the CLI contract corpus: argv -> stdout, stderr and exit code.

Runs a fixed list of `balseq` requests in process, each through
`balseq.cli.main` of the `src/` tree beside this script, and prints one
tab-separated line per request: the argv, the sha256 of stdout, the sha256
of stderr and the exit code, and for an `--emit-errata` request the sha256
of the file it wrote (or "-" where it wrote none).  The list covers every
subcommand in every format, `table` windows from 0 and from 900, `verify
--threads 2` (the vajda rows, whose mirrored rows share their sides, among
them), `verify --max-listed 1`, whose listing keeps the first failure of
each pool, `bench --engines` values that name `all` beside another name
or with spaces, `--help` and `--version`, the usage errors of
`tests/test_cli.py`, and the requests whose stdout hashes that file's
tables pinned before the corpus held them: `term` at n = 20000 and 30000
on every engine, the `table` and `series` documents of a few thousand
digits, and the `verify` report at k 1..12, max-index 40.  `bench` timings are masked in stdout
before it is hashed, so two runs of one tree print the same lines.

Its first line names the Python minor version it ran on, since `--help`
text differs between argparse versions.  Run it on two trees and diff the
outputs to compare their CLI contracts:

    python tools/cli_contract.py > contract.txt

`tools/cli_contract.txt` is the committed corpus, and
`tests/test_cli_contract.py` imports this script and runs each committed
line's request in process through `run`, one test case per line.  A change
that moves a line regenerates the file and states the line and the reason
in CHANGES.md.

It imports only the standard library.  `main(argv)` is called once per
request in one process, as the library documents it may be; each request
runs in a temporary working directory, where `--emit-errata` writes its
file, with COLUMNS=80, so argparse wraps usage lines the same way on every
terminal.  Both are undone after the request.
"""

import contextlib
import hashlib
import io
import os
import re
import shlex
import sys
import tempfile
from pathlib import Path
from unittest import mock

SRC = Path(__file__).resolve().parent.parent / "src"
FORMATS = ("plain", "csv", "json")
ENGINES = ("iterative", "matrix", "binet", "doubling")

# a bench time: 0.000123 in plain and csv, 1.2e-05 or 0.0123 in json
TIMING = re.compile(r"\d+\.\d+(?:e[-+]?\d+)?")


def _requests() -> list[list[str]]:
    term = ["term", "--seq", "B", "--k", "5", "--n", "100"]
    table = ["table", "--k", "1..3", "--n", "0..6"]
    series = ["series", "--seq", "C", "--k", "5", "--N", "12"]
    verify = ["verify", "--k", "1..4", "--max-index", "8"]
    bench = ["bench", "--k", "2", "--n", "50,200", "--iterative-cap", "100", "--reps", "1"]
    requests = [["--help"], ["--version"]]
    for command in ("term", "table", "series", "verify", "bench"):
        requests.append([command, "--help"])
    for fmt in FORMATS:
        requests += [
            [*term, "--format", fmt],
            ["term", "--seq", "C", "--k", "3", "--n", "40", "--format", fmt],
            [*table, "--format", fmt],
            ["table", "--k", "5", "--n", "900..905", "--format", fmt],
            ["table", "--k", "2..4", "--n", "900..903", "--seq", "C", "--format", fmt],
            ["table", "--k", "12", "--n", "0..40", "--seq", "B", "--format", fmt],
            [*series, "--format", fmt],
            ["series", "--seq", "B", "--k", "3", "--N", "20", "--format", fmt],
            ["series", "--seq", "C", "--k", "2", "--N", "8", "--variant", "printed",
             "--format", fmt],
            [*verify, "--format", fmt],
            [*verify, "--identity", "catalan,strong-gcd", "--format", fmt],
            [*verify, "--max-listed", "1", "--format", fmt],
            ["verify", "--k", "1..6", "--max-index", "20", "--threads", "2", "--format", fmt],
            ["verify", "--identity", "vajda", "--k", "1..12", "--max-index", "20",
             "--threads", "2", "--format", fmt],
            [*bench, "--format", fmt],
            ["bench", "--k", "5", "--n", "1000", "--engines", "matrix,doubling",
             "--seq", "C", "--reps", "2", "--format", fmt],
        ]
    for engine in ENGINES:
        requests.append([*term, "--engine", engine])
    requests += [
        # --quiet
        [*term, "--quiet"],
        [*table, "--quiet"],
        [*series, "--quiet"],
        [*bench, "--quiet"],
        [*verify, "--quiet"],
        [*verify, "--quiet", "--format", "json"],
        ["verify", "--k", "2..2", "--max-index", "4", "--identity", "cassini-b",
         "--emit-errata", "E.md"],
        ["verify", "--k", "2..2", "--max-index", "4", "--identity", "cassini-b",
         "--emit-errata", "E.md", "--quiet"],
        # usage errors
        ["term", "--seq", "B", "--k", "0", "--n", "3"],
        ["term", "--seq", "B", "--k", "2", "--n", "-1"],
        ["term", "--seq", "B", "--k", "2", "--n", "60", "--engine", "iterative",
         "--iterative-cap", "50"],
        ["term", "--seq", "B", "--k", "2", "--n", "10", "--engine", "iterative",
         "--iterative-cap", "-5"],
        ["term", "--seq", "Q", "--k", "2", "--n", "3"],
        ["table", "--k", "2..x", "--n", "0..3"],
        ["table", "--k", "1..x", "--n", "0..3"],
        ["series", "--seq", "B", "--k", "2", "--N", "3", "--variant", "printed",
         "--format", "json"],
        ["series", "--seq", "B", "--k", "2", "--N", "-1"],
        ["verify", "--identity", "no-such-name"],
        ["verify", "--k", "2..3", "--threads", "0"],
        [*verify, "--max-listed", "0"],
        ["verify", "--k", "2..2", "--max-index", "4", "--emit-errata", "missing/E.md"],
        ["bench", "--k", "2", "--n", "10", "--reps", "0"],
        ["bench", "--k", "2", "--n", "10", "--engines", "iterative", "--iterative-cap", "-5"],
        ["bench", "--k", "2", "--n", "5", "--engines", "warp"],
        # two errors in one argv: which one is reported
        ["bench", "--k", "0", "--n", "10", "--iterative-cap", "-5"],
        ["bench", "--k", "2", "--n", "10", "--engines", "warp", "--iterative-cap", "-5"],
    ]
    for fmt in FORMATS:
        requests += [
            ["table", "--k", "0..3", "--n", "0..2", "--format", fmt],
            ["table", "--k", "1..2", "--n=-1..2", "--format", fmt],
        ]
    for value in ("0", "-3", "abc"):
        requests.append(["verify", "--k", "2..2", "--max-index", "3", "--threads", value])
    for value in ("abc", "5,,6", "3,-1"):
        requests.append(["bench", "--k", "2", "--n", value, "--reps", "1"])
    # The stdout hashes of these requests were first pinned by tests: `term`'s
    # from the int-only code, before the logarithmic engines computed in
    # Decimal (the odd n, where each log engine's last step takes its other
    # formula, from the code whose last step built the whole final state),
    # and `table`'s and `series`' from the code that computed in int and
    # wrote CSV through csv.writer.  The number type the CLI computes in must
    # not show in a single byte.
    for seq, k, n in (("B", "5", "30000"), ("C", "12", "20000"),
                      ("B", "5", "30001"), ("C", "12", "20001")):
        for engine in ENGINES:
            for fmt in FORMATS:
                requests.append(["term", "--seq", seq, "--k", k, "--n", n,
                                 "--engine", engine, "--format", fmt])
    for window in (["--k", "1..12", "--n", "0..300"],
                   ["--k", "5", "--n", "2990..3000", "--seq", "C"]):
        for fmt in FORMATS:
            requests.append(["table", *window, "--format", fmt])
    for variant in (["--seq", "B"], ["--seq", "C"], ["--seq", "C", "--variant", "printed"]):
        for fmt in FORMATS:
            requests.append(["series", *variant, "--k", "12", "--N", "400", "--format", fmt])
    for fmt in FORMATS:
        requests.append(["verify", "--k", "1..12", "--max-index", "40", "--format", fmt])
    # "all" among other names or padded with spaces in --engines
    for engines in (" all", "all,doubling", "doubling, all"):
        requests.append(["bench", "--k", "2", "--n", "50", "--engines", engines, "--reps", "1"])
    return requests


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def header() -> str:
    """The corpus's first line: the Python minor version it runs on."""
    return f"# python {sys.version_info.major}.{sys.version_info.minor}"


def load_cli():
    """Import balseq.cli from the src/ tree beside this script, never from
    elsewhere (the check of perfbench/run.py's load_balseq)."""
    sys.path.insert(0, str(SRC))
    import balseq.cli

    if not Path(balseq.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"balseq was imported from {balseq.cli.__file__}")
    return balseq.cli


@contextlib.contextmanager
def _request_dir():
    """A fresh temporary working directory with COLUMNS=80; the working
    directory and COLUMNS are restored on exit."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as cwd, mock.patch.dict(os.environ, COLUMNS="80"):
        os.chdir(cwd)
        try:
            yield Path(cwd)
        finally:
            os.chdir(home)


def run(cli, argv: list[str]) -> str:
    """The corpus line of one request, run through cli.main in process."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with _request_dir() as cwd:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(list(argv))
        written = []
        if "--emit-errata" in argv:
            path = cwd / argv[argv.index("--emit-errata") + 1]
            written.append(_sha256(path.read_bytes()) if path.is_file() else "-")
    out = stdout.getvalue()
    if argv[0] == "bench":
        out = TIMING.sub("T", out)
    return "\t".join([shlex.join(argv), _sha256(out.encode()),
                      _sha256(stderr.getvalue().encode()), str(code), *written])


def main() -> None:
    cli = load_cli()
    print(header())
    for argv in _requests():
        print(run(cli, argv))


if __name__ == "__main__":
    main()
