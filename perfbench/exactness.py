"""Exactness checks on what the CLI wrote, made outside the timed spans.

A printed value is compared with a reference integer by its digit count and
its residue modulo P, a product of three Mersenne primes.  The residue is
read from the text in time linear in its length, so no quadratic
str(int) or int(str) is needed and the interpreter's digit limit never
matters.  References come from a different route than the one that printed
the value: another engine for `term`, the series oracle for `table`, the
iterative tables for `series`, and closed-form check counts for `verify`.
"""

from __future__ import annotations

import functools
import hashlib
import json
from collections.abc import Iterator

from balseq.engines import Engine, b_table, c_table, term_b, term_c
from balseq.genfunc import b_series, c_series
from balseq.ring import SequenceParams

from workloads import CHECKS_PER_K, Request

P = (2**61 - 1) * (2**89 - 1) * (2**107 - 1)
_CHUNK = 200
_TEN_CHUNK = pow(10, _CHUNK, P)


class CheckFailed(Exception):
    """The output of a request is not the exact answer."""


def residue(digits: str) -> int:
    """The decimal number `digits` modulo P."""
    head = len(digits) % _CHUNK or _CHUNK
    r = int(digits[:head])
    for i in range(head, len(digits), _CHUNK):
        r = (r * _TEN_CHUNK + int(digits[i:i + _CHUNK])) % P
    return r % P


@functools.lru_cache(maxsize=4096)
def _pow10(e: int) -> int:
    return 10**e


def check_value(text: str, expected: int, where: str) -> int:
    """Raise CheckFailed unless `text` is the decimal form of `expected`.

    Returns the number of digits, the sign not counted.
    """
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()) or (len(digits) > 1 and digits[0] == "0"):
        raise CheckFailed(f"{where}: not a decimal integer")
    if text.startswith("-") != (expected < 0) or (expected == 0) != (digits == "0"):
        raise CheckFailed(f"{where}: wrong sign or zero")
    length = len(digits)
    if expected == 0:
        return length
    low = _pow10(length - 1) if length <= 4096 else 10 ** (length - 1)
    if not low <= abs(expected) < 10 * low:
        raise CheckFailed(f"{where}: {length} digits, expected a different count")
    if residue(digits) != abs(expected) % P:
        raise CheckFailed(f"{where}: residue mismatch")
    return length


def _lines(path, digest) -> Iterator[str]:
    with open(path, "rb") as handle:
        for raw in handle:
            digest.update(raw)
            if not raw.endswith(b"\n"):
                raise CheckFailed("output does not end with a newline")
            try:
                yield raw[:-1].decode("ascii")
            except UnicodeDecodeError:
                raise CheckFailed("output is not ASCII") from None


def _term_reference(request: Request) -> int:
    engine = Engine.BINET if request.engine == "doubling" else Engine.FAST_DOUBLING
    fn = term_b if request.seq == "B" else term_c
    return fn(SequenceParams(request.k_lo), request.n, engine)


def _check_term(request: Request, lines) -> tuple[int, int]:
    rows = list(lines)
    if len(rows) != 1:
        raise CheckFailed(f"expected one line, got {len(rows)}")
    return check_value(rows[0], _term_reference(request), "value"), 0


def _check_rows(lines, header: str, expected_rows) -> int:
    """Compare CSV rows with (prefix fields, exact values) pairs; count digits."""
    if next(lines, None) != header:
        raise CheckFailed("wrong CSV header")
    digits = 0
    for prefix, values in expected_rows:
        line = next(lines, None)
        if line is None:
            raise CheckFailed("output ends early")
        fields = line.split(",")
        if fields[: len(prefix)] != prefix or len(fields) != len(prefix) + len(values):
            raise CheckFailed(f"row {','.join(prefix)}: wrong index fields")
        for text, value in zip(fields[len(prefix):], values):
            digits += check_value(text, value, f"row {','.join(prefix)}")
    if next(lines, None) is not None:
        raise CheckFailed("output has extra rows")
    return digits


def _table_rows(request: Request):
    for k in range(request.k_lo, request.k_hi + 1):
        params = SequenceParams(k)
        b = b_series(params, request.n).expansion
        c = c_series(params, request.n).expansion
        for n in range(request.n + 1):
            yield [str(k), str(n)], (b[n], c[n])


def _series_rows(request: Request):
    table = b_table if request.seq == "B" else c_table
    values = table(SequenceParams(request.k_lo), request.n)
    for n in range(request.n + 1):
        yield [str(n)], (values[n],)


def _check_verify(request: Request, lines) -> tuple[int, int]:
    try:
        report = json.loads("\n".join(lines))
        config, summary = report["config"], report["summary"]
        per_identity = summary["per_identity"]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckFailed(f"unreadable report: {exc!r}") from None
    want_config = {"k_lo": request.k_lo, "k_hi": request.k_hi, "max_index": request.n,
                   "identities": list(request.identities)}
    if {key: config.get(key) for key in want_config} != want_config:
        raise CheckFailed("report config differs from the request")
    if sorted(per_identity) != sorted(request.identities):
        raise CheckFailed("report lists other identities than requested")
    span = request.k_hi - request.k_lo + 1
    for name, counts in per_identity.items():
        want = CHECKS_PER_K[name](request.n) * span
        if counts["checked"] != want:
            raise CheckFailed(f"{name}: checked {counts['checked']}, closed form {want}")
        if counts["failed"] or counts["held"] + counts["hypothesis_not_met"] != want:
            raise CheckFailed(f"{name}: counts do not add up to a clean sweep")
    if summary["total_checked"] != request.expected_checks():
        raise CheckFailed("summary total_checked differs from the closed form")
    for key in ("held", "failed", "hypothesis_not_met"):
        if summary[f"total_{key}"] != sum(c[key] for c in per_identity.values()):
            raise CheckFailed(f"summary total_{key} is not the sum over identities")
    if summary["all_held"] is not (summary["total_failed"] == 0):
        raise CheckFailed("summary all_held disagrees with total_failed")
    return 0, summary["total_checked"]


def file_digest(path) -> bytes:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.digest()


def check(request: Request, path) -> tuple[int, int, bytes]:
    """Check one output file; returns (digits, checks, sha256 of the bytes)."""
    digest = hashlib.sha256()
    lines = _lines(path, digest)
    if request.kind == "term":
        digits, checks = _check_term(request, lines)
    elif request.kind == "table":
        digits, checks = _check_rows(lines, "k,n,B,C", _table_rows(request)), 0
    elif request.kind == "series":
        digits, checks = _check_rows(lines, "n,coefficient", _series_rows(request)), 0
    else:
        digits, checks = _check_verify(request, lines)
    return digits, checks, digest.digest()
