"""Print the CLI contract corpus: argv -> stdout, stderr and exit code.

Runs a fixed list of `balseq` requests, each in a fresh interpreter on the
`src/` tree beside this script, and prints one tab-separated line per
request: the argv, the sha256 of stdout, the sha256 of stderr and the exit
code, and for an `--emit-errata` request the sha256 of the file it wrote (or
"-" where it wrote none).  The list covers every subcommand in every
format, `table` windows from 0 and from 900, `verify --threads 2` (the
vajda rows, whose mirrored rows share their sides, among them), `verify
--max-listed 1`, whose listing keeps the first failure of each pool, `--help`
and `--version`, and the usage errors of `tests/test_cli.py`.  `bench`
timings are masked in stdout before it is hashed, so two runs of one tree
print the same lines.

Its first line names the Python minor version it ran on, since `--help`
text differs between argparse versions.  Run it on two trees and diff the
outputs to compare their CLI contracts:

    python tools/cli_contract.py > contract.txt

`tools/cli_contract.txt` is the committed corpus, and
`tests/test_cli_contract.py` runs this script and compares every line with
it.  A change that moves a line regenerates the file and states the line
and the reason in CHANGES.md.

It imports only the standard library.  Requests run with COLUMNS=80, so
argparse wraps usage lines the same way on every terminal, and in a
temporary working directory, where `--emit-errata` writes its file.
"""

import hashlib
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
FORMATS = ("plain", "csv", "json")

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
    for engine in ("iterative", "matrix", "binet", "doubling"):
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
    return requests


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> None:
    print(f"# python {sys.version_info.major}.{sys.version_info.minor}")
    env = {**os.environ, "PYTHONPATH": str(SRC), "COLUMNS": "80"}
    for argv in _requests():
        with tempfile.TemporaryDirectory() as cwd:
            proc = subprocess.run([sys.executable, "-m", "balseq.cli", *argv],
                                  capture_output=True, cwd=cwd, env=env)
            written = []
            if "--emit-errata" in argv:
                path = Path(cwd, argv[argv.index("--emit-errata") + 1])
                written.append(_sha256(path.read_bytes()) if path.is_file() else "-")
        out = proc.stdout
        if argv[0] == "bench":
            out = TIMING.sub("T", out.decode()).encode()
        print("\t".join([shlex.join(argv), _sha256(out), _sha256(proc.stderr),
                         str(proc.returncode), *written]))


if __name__ == "__main__":
    main()
