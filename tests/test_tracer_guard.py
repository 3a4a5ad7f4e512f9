"""The benchmark's tracer installs over this package and restores it.

perfbench/tracing.py wraps package functions by attribute name, the five
divisibility.check_* names among them, so a wrapped name that goes missing
makes `perfbench/run.py --trace 1` fail with AttributeError.  This test
imports the tracer as it is and serves one verify request through it.
"""

import sys
from pathlib import Path

from balseq import cli, divisibility, identities, verify
from balseq.identities import Report
from balseq.ring import SequenceParams

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from tracing import Tracer, install  # noqa: E402


def _bindings() -> dict:
    """Every package module attribute, catalog row and TermContext.ensure."""
    found = {("catalog", name): row for name, row in verify.CATALOG.items()}
    found["ensure"] = identities.TermContext.ensure
    for module_name, module in list(sys.modules.items()):
        if module_name == "balseq" or module_name.startswith("balseq."):
            found.update({(module_name, attr): value for attr, value in vars(module).items()})
    return found


def test_tracer_wraps_and_restores_every_binding(capsys):
    before = _bindings()
    tracer = Tracer()
    install(tracer)
    try:
        assert divisibility.check_strong_gcd is not before[("balseq.divisibility",
                                                            "check_strong_gcd")]
        code = tracer.serve(cli.main, ["verify", "--k", "1..2", "--max-index", "3"])
    finally:
        tracer.uninstall()
    assert code == 0 and "verify: all held" in capsys.readouterr().out
    assert {span[3] for span in tracer.spans} >= {"cli.op", "verify.run",
                                                  "verify.sweep.strong-gcd"}
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in after.items() if value is not before[key]] == []


def test_checks_answer_while_the_tracer_is_installed():
    # the check_* read divisibility's own rows, not the catalog entries the
    # tracer replaces with plain functions
    params = SequenceParams(4)
    tracer = Tracer()
    install(tracer)
    try:
        reports = [
            divisibility.check_index_divisibility(params, 2, 4),
            divisibility.check_coprime_norm("B", params, 3),
            divisibility.check_consecutive_coprime("C", params, 3),
            divisibility.check_b_c_coprime(params, 3),
            divisibility.check_strong_gcd(params, 2, 4),
        ]
    finally:
        tracer.uninstall()
    assert [type(report) for report in reports] == [Report] * 5
    assert [report.name for report in reports] == [
        "index-divisibility", "coprime-norm-b", "consecutive-gcd-c", "b-c-coprime", "strong-gcd"]
