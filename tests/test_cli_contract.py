"""The CLI contract corpus: every request of tools/cli_contract.py keeps its
stdout, stderr and exit code.

tools/cli_contract.txt is the script's committed output: a first line that
names the Python minor version it ran on, then one line per request.  This
test runs the script (about 100 fresh interpreters, some 10 s) and asserts
that every line is the committed one.  `--help` text differs between
argparse versions, so on another minor version the test skips.
"""

import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_every_request_keeps_its_committed_line():
    header, *committed = (TOOLS / "cli_contract.txt").read_text(encoding="utf-8").splitlines()
    running = f"# python {sys.version_info.major}.{sys.version_info.minor}"
    if header != running:
        pytest.skip(f"the corpus was recorded on {header[2:]}, this is {running[2:]}:"
                    " --help text differs between argparse versions")
    done = subprocess.run([sys.executable, str(TOOLS / "cli_contract.py")],
                          capture_output=True, text=True, check=True, timeout=600)
    header_now, *lines = done.stdout.splitlines()
    assert header_now == header
    assert len(lines) == len(committed)
    moved = [(old, new) for old, new in zip(committed, lines) if old != new]
    assert moved == []
