"""The CLI contract corpus: every request of tools/cli_contract.py keeps its
stdout, stderr and exit code.

tools/cli_contract.txt is the script's committed output: a first line that
names the Python minor version it ran on, then one line per request.  Each
committed line is one test case, named by its argv, that runs the request
in process through the script's `run` and asserts the line it prints is the
committed one.  The text argparse writes (`--help`, `--version` and the
usage errors, exit code 2) differs between its versions, so on another
Python minor version those cases skip and the rest run.  A guard asserts
that the committed argvs are the script's requests, in its order and each
once, so a request added to the script but not to the corpus fails on its
own.
"""

import shlex
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))
import cli_contract  # noqa: E402

HEADER, *LINES = (TOOLS / "cli_contract.txt").read_text(encoding="utf-8").splitlines()
ARGVS = [line.split("\t", 1)[0] for line in LINES]


def argparse_writes(line):
    """Whether the line's bytes are argparse's text: --help, --version or a
    usage error (exit code 2)."""
    argv, _, _, code, *_ = line.split("\t")
    return code == "2" or not {"--help", "--version"}.isdisjoint(shlex.split(argv))


@pytest.fixture(scope="module")
def cli():
    return cli_contract.load_cli()


def test_committed_argvs_are_the_requests_each_once():
    assert ARGVS == [shlex.join(argv) for argv in cli_contract._requests()]
    assert len(set(ARGVS)) == len(ARGVS)


@pytest.mark.parametrize("line", LINES, ids=ARGVS)
def test_every_request_keeps_its_committed_line(cli, line):
    if HEADER != cli_contract.header() and argparse_writes(line):
        pytest.skip(f"the corpus was recorded on {HEADER[2:]}, this is"
                    f" {cli_contract.header()[2:]}: argparse's text differs between versions")
    argv = shlex.split(line.split("\t", 1)[0])
    assert cli_contract.run(cli, argv) == line
