import re
import shlex
from pathlib import Path

from balseq.cli import main
from balseq.verify import CATALOG

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_snippets_run_with_the_values_they_show():
    # the Library section's first three python blocks, run in order as a
    # user would (the fourth prints a million-digit term); each
    # "expr  # value" line must evaluate to its value
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)[:3]
    namespace: dict = {}
    shown = []
    for code in blocks:
        exec(code, namespace)
        shown += [line.split("#", 1) for line in code.splitlines() if "#" in line]
    assert len(shown) == 5
    for expr, value in shown:
        assert eval(expr, namespace) == eval(value, namespace), expr


def test_cli_lines_print_the_values_they_show(capsys):
    # each "balseq ... # -> value" line of the CLI block, run through
    # cli.main, must print exactly that value
    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    shown = [line.split("# ->") for line in block.splitlines() if "# ->" in line]
    assert len(shown) == 3
    for command, value in shown:
        program, *argv = shlex.split(command)
        assert program == "balseq"
        assert main(argv) == 0, command
        assert capsys.readouterr().out == value.strip() + "\n", command


def test_catalog_block_lists_the_catalog_in_order():
    # the plain block after "The catalog:" names every CATALOG entry, in order
    section = README.read_text(encoding="utf-8").split("The catalog:", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    assert block.split() == list(CATALOG)
