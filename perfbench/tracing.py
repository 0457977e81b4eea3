"""In-memory spans for the benchmark's traced runs.

A span records name, start, end, parent and the name of its root span
(``query``, ``probe``, ``check`` or ``census``), plus free-form attributes.
Spans are kept in a list and written out when the run ends.  The untraced
runs use ``NULL`` instead, whose spans record nothing.
"""

from __future__ import annotations

from time import perf_counter


class Tracer:
    def __init__(self, batch: int | str = 0) -> None:
        self.batch = batch
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def span(self, name: str, **attrs) -> "_Span":
        return _Span(self, name, attrs)


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: Tracer, name: str, attrs: dict) -> None:
        self.tracer = tracer
        self.record = {"name": name, "attrs": attrs}

    def __enter__(self) -> dict:
        t = self.tracer
        rec = self.record
        rec["id"] = f"{t.batch}:{len(t.spans)}"
        rec["parent"] = t._stack[-1]["id"] if t._stack else None
        rec["root"] = t._stack[0]["name"] if t._stack else rec["name"]
        rec["batch"] = t.batch
        t.spans.append(rec)
        t._stack.append(rec)
        rec["start"] = perf_counter()
        return rec["attrs"]

    def __exit__(self, *exc) -> None:
        self.record["end"] = perf_counter()
        self.tracer._stack.pop()


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> dict:
        return {}

    def __exit__(self, *exc) -> None:
        pass


class _NullTracer:
    spans: list[dict] = []

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN


_NULL_SPAN = _NullSpan()
NULL = _NullTracer()


def call(tr, name: str, fn, *args):
    """``fn(*args)`` inside a span called ``name``."""
    with tr.span(name):
        return fn(*args)


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time per layer: span durations minus what child spans cover.

    The layer is the part of the span name before the first dot; children of
    one span never overlap, since one thread records them in sequence.
    """
    child_time: dict[str, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + duration(s)
    out: dict[str, float] = {}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + duration(s) - child_time.get(s["id"], 0.0)
    return out
