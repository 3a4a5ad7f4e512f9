import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_snippets_run_with_the_values_they_show():
    # the Library section's first two python blocks, run in order as a user
    # would (the third prints a million-digit term); each "expr  # value"
    # line must evaluate to its value
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)[:2]
    namespace: dict = {}
    shown = []
    for code in blocks:
        exec(code, namespace)
        shown += [line.split("#", 1) for line in code.splitlines() if "#" in line]
    assert len(shown) == 4
    for expr, value in shown:
        assert eval(expr, namespace) == eval(value, namespace), expr
