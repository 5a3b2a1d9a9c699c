"""Outside-in span tracing for the scadascope pipeline.

The benchmark installs wrappers on the module attributes the CLI path looks
up at call time, so nothing inside the package changes.  Each call of a
wrapped function opens one span (name, start, end, parent).  For functions
that return iterators, the time spent inside every ``next()`` is charged to
the function's span and the items that come out are counted.

Time is attributed along the dynamic call stack: whichever span is on top of
the stack when a wrapped function (or a wrapped iterator's ``next()``) is
entered is charged that time as child time.  A span's self time is its busy
time minus its child time, so the self times of all spans add up to the root
span.  Unwrapped helpers (the CLI's progress generator, the record counter in
``analyze_records``) are charged to whichever span pulls records through them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from contextlib import contextmanager
from time import perf_counter


class Span:
    __slots__ = ("name", "parent", "start", "end", "busy", "child", "items", "data")

    def __init__(self, name: str, parent: "Span | None") -> None:
        self.name = name
        self.parent = parent
        self.start = perf_counter()
        self.end = self.start
        self.busy = 0.0
        self.child = 0.0
        self.items = 0
        self.data: dict = {}

    @property
    def self_s(self) -> float:
        return self.busy - self.child

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "parent": None if self.parent is None else self.parent.name,
            "start": self.start,
            "end": self.end,
            "busy_s": self.busy,
            "self_s": self.self_s,
            "items": self.items,
        }


class Tracer:
    """Spans of one traced run, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[Span] = []

    def open(self, name: str) -> Span:
        span = Span(name, self.stack[-1] if self.stack else None)
        self.spans.append(span)
        return span

    def run(self, span: Span, fn, *args, **kwargs):
        stack = self.stack
        caller = stack[-1] if stack else None
        stack.append(span)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            span.busy += t1 - t0
            span.end = t1
            if caller is not None:
                caller.child += t1 - t0

    def iterate(self, span: Span, iterable) -> "TracedIterator":
        return TracedIterator(self, span, iter(iterable))

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_s(self, name: str) -> float:
        return sum(s.self_s for s in self.named(name))

    def wrap(self, name: str, fn, returns_iterator: bool = False, hook=None):
        """A stand-in for ``fn`` that records one span per call.

        ``hook(span, bound_arguments, result)`` runs after each call so a
        span can keep counters the function hands back or fills in.
        """
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            result = self.run(span, fn, *args, **kwargs)
            if hook is not None:
                hook(span, signature.bind(*args, **kwargs).arguments, result)
            if returns_iterator:
                return self.iterate(span, result)
            return result

        return traced


class TracedIterator:
    __slots__ = ("tracer", "span", "it")

    def __init__(self, tracer: Tracer, span: Span, it) -> None:
        self.tracer = tracer
        self.span = span
        self.it = it

    def __iter__(self):
        return self

    def __next__(self):
        span = self.span
        stack = self.tracer.stack
        caller = stack[-1] if stack else None
        stack.append(span)
        t0 = perf_counter()
        try:
            item = next(self.it)
        finally:
            t1 = perf_counter()
            stack.pop()
            span.busy += t1 - t0
            span.end = t1
            if caller is not None:
                caller.child += t1 - t0
        span.items += 1
        return item


def _keep_stats(span: Span, arguments: dict, result) -> None:
    span.data["stats"] = arguments.get("stats")


def _keep_len(span: Span, arguments: dict, result) -> None:
    span.data["len"] = len(result)


def _keep_record_count(span: Span, arguments: dict, result) -> None:
    span.data["records"] = result.record_count


def _keep_full_port(span: Span, arguments: dict, result) -> None:
    protocols = result.full_report.protocols
    span.data["full_port"] = protocols[0].scada_port if protocols else None


# (span name, returns an iterator, hook, module attributes to replace).
# ``cli`` imports analyze_records and prefix_stability by name and
# ``inference`` imports aggregate_records and rank by name, so the
# wrappers go on the importing modules; a wrapper only on the defining module
# would never be called on the CLI path.
LAYERS = (
    ("cli", False, None, ("scadascope.cli.main",)),
    ("ingest.read_records", True, _keep_stats, ("scadascope.ingest.read_records",)),
    ("ingest.read_pcap", True, _keep_stats, ("scadascope.ingest.read_pcap",)),
    ("ingest.ensure_time_order", True, None, ("scadascope.ingest.ensure_time_order",)),
    ("ingest.filter_packets", True, _keep_stats, ("scadascope.ingest.filter_packets",)),
    ("segmentation.segment_stream", True, None, ("scadascope.segmentation.segment_stream",)),
    ("segmentation.aggregate_ft", False, _keep_len, ("scadascope.segmentation.aggregate_ft",)),
    (
        "segmentation.aggregate_records",
        False,
        None,
        ("scadascope.segmentation.aggregate_records", "scadascope.inference.aggregate_records"),
    ),
    ("features.rank", False, None, ("scadascope.features.rank", "scadascope.inference.rank")),
    ("inference.build_device_profiles", False, None, ("scadascope.inference.build_device_profiles",)),
    ("inference.run_algorithm1", False, None, ("scadascope.inference.run_algorithm1",)),
    (
        "inference.analyze_records",
        False,
        _keep_record_count,
        ("scadascope.inference.analyze_records", "scadascope.cli.analyze_records"),
    ),
    (
        "inference.prefix_stability",
        False,
        _keep_full_port,
        ("scadascope.inference.prefix_stability", "scadascope.cli.prefix_stability"),
    ),
)


@contextmanager
def installed(tracer: Tracer):
    """Replace every layer attribute with a traced wrapper; restore on exit."""
    saved = []
    try:
        for name, returns_iterator, hook, sites in LAYERS:
            for site in sites:
                module_name, attr = site.rsplit(".", 1)
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, tracer.wrap(name, original, returns_iterator, hook))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
