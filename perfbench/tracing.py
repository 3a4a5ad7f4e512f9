"""Per-layer tracing of balseq from outside the package.

`install` replaces the public functions that mark each layer boundary with
wrappers, in every balseq module that holds them, and `uninstall` puts the
originals back.  A wrapper records a span (id, parent, request, name,
thread, start, end, amount) only while a request is being served, so the
exactness checks that call the same functions stay untraced.  Spans stay in
memory until `dump`.

Sweeps run in pool threads whose own span stack is empty; their parent is
the span open in the client thread at the time (verify.run), so a span's
self time subtracts the union of its children's intervals and sweeps that
overlap are not subtracted twice.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import Counter, defaultdict

ENGINES = ("doubling", "matrix", "binet")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.active = False
        self.request = 0
        self.write_ns = 0  # time in stdout writes and flushes
        self.bytes_out = 0
        self.digits = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._client: list[int] = []
        self._undo: list[tuple] = []

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def call(self, name: str, fn, *args, amount=None, **kwargs):
        """fn(*args, **kwargs) inside a span; amount(result) is stored with it."""
        stack = self._stack()
        parent = stack[-1] if stack else (self._client[-1] if self._client else 0)
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
        self.spans.append((span_id, parent, self.request, name, threading.get_ident(),
                           start, end, amount(result) if amount else 0))
        return result

    def serve(self, fn, *args):
        """One request: the cli.op span, with recording switched on inside it."""
        self.request += 1
        self._client = self._stack()
        self.active = True
        try:
            return self.call("cli.op", fn, *args)
        finally:
            self.active = False

    def wrap(self, fn, name, amount=None):
        """A stand-in for fn; `name` is a string or a function of (args, kwargs)."""
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = name(args, kwargs) if callable(name) else name
            return self.call(span, fn, *args, amount=amount, **kwargs)

        return traced

    def replace(self, owner, key, value) -> None:
        """Set owner[key] or owner.key to value, remembering the old one."""
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def replace_function(self, fn, name, amount=None) -> None:
        """Swap fn for its wrapper wherever a balseq module holds it."""
        traced = self.wrap(fn, name, amount)
        for module_name, module in list(sys.modules.items()):
            if module_name == "balseq" or module_name.startswith("balseq."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self.replace(module, attr, traced)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="ascii") as handle:
            handle.write("id,parent,request,name,thread,start_ns,end_ns,amount\n")
            for span in self.spans:
                handle.write(",".join(map(str, span)) + "\n")


class TimedWriter:
    """Stdout stand-in that adds the time spent writing to the tracer."""

    def __init__(self, raw, tracer: Tracer) -> None:
        self._raw = raw
        self._tracer = tracer

    def write(self, text: str) -> int:
        start = time.perf_counter_ns()
        count = self._raw.write(text)
        self._tracer.write_ns += time.perf_counter_ns() - start
        return count

    def flush(self) -> None:
        start = time.perf_counter_ns()
        self._raw.flush()
        self._tracer.write_ns += time.perf_counter_ns() - start


def _engine_span(args, kwargs) -> str:
    from balseq.engines import Engine

    engine = args[2] if len(args) > 2 else kwargs.get("engine", Engine.FAST_DOUBLING)
    return f"engines.term.{engine.value}"


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of cli's callees in every balseq module."""
    from balseq import divisibility, engines, genfunc, identities, ring, verify

    for fn in (engines.term_b, engines.term_c):
        tracer.replace_function(fn, _engine_span)
    for fn in (engines.b_table, engines.c_table):
        tracer.replace_function(fn, "engines.table")
    tracer.replace_function(ring.alpha_power_components, "ring.alpha_power")
    for fn in (genfunc.b_series, genfunc.c_series):
        tracer.replace_function(fn, "genfunc.series", amount=lambda s: len(s.expansion))
    for fn in (divisibility.check_index_divisibility, divisibility.check_coprime_norm,
               divisibility.check_consecutive_coprime, divisibility.check_b_c_coprime,
               divisibility.check_strong_gcd):
        tracer.replace_function(fn, "divisibility.check")
    tracer.replace_function(verify.run_verify, "verify.run")
    tracer.replace_function(verify.report_to_json, "verify.json")
    for name, sweep in list(verify.CATALOG.items()):
        tracer.replace(verify.CATALOG, name, tracer.wrap(
            sweep, f"verify.sweep.{name}", amount=lambda out: out.checked))

    ensure = identities.TermContext.ensure

    def traced_ensure(ctx, hi):
        # ensure only builds when the tables are too short; a no-op call,
        # made once per divisibility check, gets no span
        if not tracer.active or hi < len(ctx.b):
            return ensure(ctx, hi)
        return tracer.call("identities.ctx_build", ensure, ctx, hi)

    tracer.replace(identities.TermContext, "ensure", traced_ensure)


def _covered(intervals, lo: int, hi: int) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_metrics(tracer: Tracer, catalog) -> dict[str, tuple[float, str]]:
    """Per-layer metric name -> (value, unit) over every recorded span."""
    busy: dict[str, int] = defaultdict(int)
    calls: Counter = Counter()
    amount: Counter = Counter()
    children = defaultdict(list)
    self_ns: dict[str, int] = defaultdict(int)
    for _, parent, _, name, _, start, end, count in tracer.spans:
        busy[name] += end - start
        calls[name] += 1
        amount[name] += count
        children[parent].append((start, end))
    for span_id, _, _, name, _, start, end, _ in tracer.spans:
        if name in ("cli.op", "verify.run"):
            self_ns[name] += end - start - _covered(children[span_id], start, end)

    def seconds(ns: int) -> tuple[float, str]:
        return ns / 1e9, "s"

    metrics = {
        "cli.format_s": seconds(self_ns["cli.op"] - tracer.write_ns),
        "cli.write_s": seconds(tracer.write_ns),
        "cli.bytes_out": (tracer.bytes_out, "bytes"),
        "cli.digits": (tracer.digits, "count"),
    }
    for engine in ENGINES:
        metrics[f"engines.term_s.{engine}"] = seconds(busy[f"engines.term.{engine}"])
    metrics["engines.table_s"] = seconds(busy["engines.table"])
    metrics["engines.calls"] = (sum(n for name, n in calls.items() if name.startswith("engines.")), "count")
    metrics["ring.alpha_power_s"] = seconds(busy["ring.alpha_power"])
    metrics["genfunc.series_s"] = seconds(busy["genfunc.series"])
    metrics["genfunc.coeffs"] = (amount["genfunc.series"], "count")
    metrics["identities.ctx_build_s"] = seconds(busy["identities.ctx_build"])
    metrics["identities.ctx_builds"] = (calls["identities.ctx_build"], "count")
    metrics["divisibility.check_s"] = seconds(busy["divisibility.check"])
    metrics["divisibility.checks"] = (calls["divisibility.check"], "count")
    metrics["verify.run_s"] = seconds(busy["verify.run"])
    metrics["verify.merge_s"] = seconds(self_ns["verify.run"])
    metrics["verify.json_s"] = seconds(busy["verify.json"])
    for name in catalog:
        metrics[f"verify.sweep_s.{name}"] = seconds(busy[f"verify.sweep.{name}"])
    for name in catalog:
        metrics[f"verify.checks.{name}"] = (amount[f"verify.sweep.{name}"], "count")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    return metrics
