"""A balseq process imports only what its subcommand runs.

Every CLI run pays for what `balseq.cli` imports, so the module loads only
what parsing, `term`, `table` and `bench` need, and `series` and `verify`
import their own modules when they run.  Each probe is a fresh `python -I`,
so nothing this test process has loaded counts.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

# argv: src, comma-separated module names, then the CLI argv (none: no main)
PROBE = """\
import sys
src, names, *argv = sys.argv[1:]
sys.path.insert(0, src)
import balseq.cli
balseq.cli.build_parser()
code = balseq.cli.main(argv) if argv else 0
print()
print(code, *(name for name in names.split(",") if name in sys.modules))
"""

NOT_AT_START = ("dataclasses", "inspect", "fractions", "json", "balseq.verify",
                "balseq.identities", "balseq.divisibility", "balseq.errata",
                "balseq.genfunc")
NOT_FOR_VALUES = ("dataclasses", "inspect", "balseq.verify", "balseq.errata")


def loaded_after(argv, names, cwd=None) -> list[str]:
    """Which of names a fresh interpreter holds after main(argv) returned 0."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", PROBE, SRC, ",".join(names), *argv],
        capture_output=True, text=True, check=True, timeout=120, cwd=cwd,
    )
    code, *loaded = done.stdout.splitlines()[-1].split()
    assert code == "0", done.stderr
    return loaded


def test_import_and_parser_build_load_no_subcommand_module():
    assert loaded_after([], NOT_AT_START) == []


@pytest.mark.parametrize("argv", [
    ["term", "--seq", "B", "--k", "3", "--n", "50"],
    ["table", "--k", "1..2", "--n", "0..5", "--format", "csv"],
    ["series", "--seq", "C", "--k", "2", "--N", "5", "--format", "csv"],
], ids=["term", "table", "series"])
def test_value_commands_load_no_verifier(argv):
    assert loaded_after(argv, NOT_FOR_VALUES) == []


def test_verify_loads_errata_only_to_emit_it(tmp_path):
    argv = ["verify", "--k", "1..2", "--max-index", "4", "--threads", "1"]
    names = ("balseq.verify", "balseq.errata")
    assert loaded_after(argv, names) == ["balseq.verify"]
    assert loaded_after([*argv, "--quiet", "--emit-errata", "E.md"], names,
                        cwd=tmp_path) == list(names)
