"""Shared brute-force oracles, written independently of the package code.

Every numeric expectation in the suite either comes from one of these
oracles or is a frozen value that was computed with them (or taken from the
published value table where that table is consistent with the recurrence).
The planted_b7 fixture plants one wrong term, so tests can watch the
failure path.  The forks fixture makes every verify run fork its workers
from the first sweep and records each fork.
"""

from __future__ import annotations

import os
from fractions import Fraction

import pytest

from balseq import identities, verify


def oracle_b(k: int, n_max: int) -> list[int]:
    """B_{k,0..n_max} straight from the defining recurrence."""
    values = [0, 1]
    while len(values) <= n_max:
        values.append(3 * k * values[-1] + (1 - k) * values[-2])
    return values[: n_max + 1]


def oracle_c(k: int, n_max: int) -> list[int]:
    """C_{k,0..n_max} straight from the defining recurrence."""
    values = [1, 3]
    while len(values) <= n_max:
        values.append(3 * k * values[-1] + (1 - k) * values[-2])
    return values[: n_max + 1]


def oracle_b_negative(k: int, n_max: int) -> dict[int, Fraction]:
    """B_{k,-1..-n_max} by running the recurrence backward with exact rationals.

    B_{m-2} = (B_m - 3k*B_{m-1}) / (1 - k), seeded from (B_0, B_1) = (0, 1).
    """
    assert k >= 2
    values = {0: Fraction(0), 1: Fraction(1)}
    for m in range(1, -n_max, -1):
        values[m - 2] = (values[m] - 3 * k * values[m - 1]) / (1 - k)
    return {-n: values[-n] for n in range(1, n_max + 1)}


@pytest.fixture
def planted_b7(monkeypatch):
    """B_7 off by one in every term table a TermContext builds."""
    real_b_table = identities.b_table

    def planted(params, n_max):
        table = real_b_table(params, n_max)
        if n_max >= 7:
            table[7] += 1
        return table

    monkeypatch.setattr(identities, "b_table", planted)


@pytest.fixture
def forks(monkeypatch):
    """verify forks from its first sweep; returns the pids os.fork made."""
    monkeypatch.setattr(verify, "SERIAL_BUDGET_S", 0)
    made, real_fork = [], os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return made


def no_child_left() -> bool:
    """Whether this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False
