"""In-memory spans around deidkit's public functions, and their arithmetic.

`Tracer.install` replaces every public function of each deidkit module with
a timing wrapper, in that module and wherever another deidkit module
imported the same function object by name (`evalmetrics.tokenize`,
`syngen.open_wire`, ...). Nothing in the program is edited; `uninstall`
puts the originals back. Wire requests are timed by wrapping the `.request`
of every wire that `open_wire` returns; a request span's parent is the span
that opened the wire, so its time is not counted as that span's self time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import json
import math
import threading
from collections import Counter, defaultdict
from time import perf_counter
from typing import NamedTuple, Optional

MODULES = ("core", "annot_io", "tagmap", "recognize", "surrogate", "evalmetrics",
           "corpusstats", "syngen", "cli")
# span that opens a wire -> the layer its requests are reported under
WIRE_OWNERS = {"recognize.recognize_external": "recognize", "syngen.generate": "syngen"}


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    stage: str


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, cur_a, cur_b = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if a >= b:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the time its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.sid: (s.end - s.start) - covered(children.get(s.sid, ()), s.start, s.end)
            for s in spans}


def percentile(values, q: float, min_beyond: int = 10) -> Optional[float]:
    """Nearest-rank q-th percentile, or None unless at least `min_beyond`
    samples lie above it."""
    n = len(values)
    if n == 0 or n * (100 - q) / 100 < min_beyond:
        return None
    return sorted(values)[max(math.ceil(q / 100 * n) - 1, 0)]


def _evaluate_name(args, kwargs) -> str:
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "token")
    return "evalmetrics.evaluate_" + ("token" if mode == "token" else "strict")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.in_flight: dict = {}  # wire owner -> max_in_flight it ran with
        self.stage = ""
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list = []  # (module, attribute, original)
        self._hooks = {
            "recognize.recognize_rules": self._count_rule_spans,
            "recognize.recognize_external": self._count_external,
            "recognize.open_wire": self._time_wire,
            "tagmap.apply_tagmap": self._count_unmapped,
            "surrogate.plan_surrogates": self._count_plan,
            "syngen.generate": self._count_generate,
        }

    # --- installing -------------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"deidkit.{name}") for name in MODULES}
        holders = [importlib.import_module("deidkit"), *modules.values()]
        wrapped = {}
        for short, mod in modules.items():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapped[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if id(value) in wrapped and wrapped[id(value)][0] is value:
                    self._patched.append((holder, attr, value))
                    setattr(holder, attr, wrapped[id(value)][1])

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        hook = self._hooks.get(name)
        namer = _evaluate_name if name == "evalmetrics.evaluate" else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            span_name = namer(args, kwargs) if namer else name
            parent = stack[-1][0] if stack else None
            stack.append((sid, span_name))
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append(Span(sid, span_name, t0, t1, parent, tracer.stage))
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    # --- counters at layer boundaries -------------------------------------

    def _count_rule_spans(self, args, kwargs, result) -> None:
        self.counters["recognize.recognize_rules.spans"] += len(result)

    def _count_external(self, args, kwargs, result) -> None:
        self.counters["recognize.excluded"] += len(result.excluded)
        self.counters["recognize.retries"] += result.retries
        self.in_flight["recognize"] = args[1].max_in_flight

    def _count_unmapped(self, args, kwargs, result) -> None:
        self.counters["tagmap.unmapped"] += sum(result[1].unmapped.values())

    def _count_plan(self, args, kwargs, result) -> None:
        doc = args[0]
        self.counters["surrogate.entities"] += sum(1 for e in doc.entities if e.tag != "OTHERS")
        self.counters["surrogate.bindings"] += len(result.bindings)
        self.counters["surrogate.passthrough"] += len(result.passthrough)
        self.counters["surrogate.fallbacks"] += len(result.audit)

    def _count_generate(self, args, kwargs, result) -> None:
        self.in_flight["syngen"] = args[0].backend.max_in_flight

    def _time_wire(self, args, kwargs, wire) -> None:
        stack = self._stack()
        owner_sid, owner_name = stack[-1] if stack else (None, "")
        layer = WIRE_OWNERS.get(owner_name, "other")
        request = wire.request
        tracer = self

        def timed_request(payload):
            t0 = perf_counter()
            try:
                return request(payload)
            finally:
                tracer.spans.append(Span(next(tracer._ids), f"{layer}.wire.request", t0,
                                         perf_counter(), owner_sid, tracer.stage))

        wire.request = timed_request

    # --- output -----------------------------------------------------------

    def write(self, path) -> None:
        """One JSON array per line: sid, name, start, end, parent, stage."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for s in self.spans:
                fh.write(json.dumps(s, separators=(",", ":")) + "\n")


def summarize(tracer: Tracer) -> dict:
    """Aggregates over every span: self and inclusive seconds, calls and
    wire latencies, overall and per (stage id, name)."""
    selfs = self_times(tracer.spans)
    self_s: Counter = Counter()
    calls: Counter = Counter()
    wall: Counter = Counter()
    wall_by_stage: Counter = Counter()  # (stage id, name) -> inclusive seconds
    latencies = defaultdict(list)
    for s in tracer.spans:
        self_s[s.name] += selfs[s.sid]
        calls[s.name] += 1
        wall[s.name] += s.end - s.start
        wall_by_stage[(s.stage, s.name)] += s.end - s.start
        if s.name.endswith(".wire.request"):
            latencies[s.name.split(".")[0]].append((s.end - s.start) * 1000.0)
    return {"self_s": self_s, "calls": calls, "wall": wall, "wall_by_stage": wall_by_stage,
            "latencies_ms": latencies}


def self_check() -> None:
    """The arithmetic above against hand-built spans; raises on a mismatch."""
    spans = [
        Span(0, "root", 0.0, 10.0, None, "s"),
        Span(1, "a", 1.0, 4.0, 0, "s"),
        Span(2, "b", 3.0, 6.0, 0, "s"),    # overlaps a: union 1..6 = 5
        Span(3, "c", 2.0, 3.0, 1, "s"),
        Span(4, "d", 9.0, 12.0, 0, "s"),   # sticks out of root: 9..10 = 1
    ]
    got = self_times(spans)
    want = {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 3.0}
    for sid, value in want.items():
        if not math.isclose(got[sid], value):
            raise AssertionError(f"self time of span {sid}: {got[sid]} != {value}")
    values = list(range(1, 1001))
    checks = [(percentile(values, 50), 500), (percentile(values, 99), 990),
              (percentile(values[:999], 99), None), (percentile(values[:20], 50), 10),
              (percentile(values[:19], 50), None), (percentile([], 50), None)]
    for got_p, want_p in checks:
        if got_p != want_p:
            raise AssertionError(f"percentile {got_p} != {want_p}")
