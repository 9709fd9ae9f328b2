"""In-memory spans recorded from the benchmark's own files.

The benchmark never edits the program: every span here is opened by
benchmark code around a call into one of the program's layers, or by an
instance-level wrapper the benchmark installs on an object it built itself
(an algorithm, an adversary, a kernel plan, an array kernel).  Spans are kept
in memory and written out once, when the traced pass ends.

Two kinds of span keep the overhead proportionate to the call rate:

* a *span* (:meth:`SpanRecorder.span`, :meth:`SpanRecorder.wrap`) is one
  record with a name, start, end and parent — used at per-unit, per-round and
  per-array-call boundaries;
* a *leaf* (:meth:`SpanRecorder.wrap_leaf`) is a per-node call such as
  ``compose(v)``; its count and seconds are summed into the enclosing span
  instead of producing one record per call.

A span's self time is its duration minus its child spans and leaf seconds.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["NullRecorder", "Span", "SpanRecorder"]


class Span:
    """One timed interval; ``leaf`` maps a leaf name to ``[calls, seconds]``."""

    __slots__ = ("name", "start", "end", "parent", "children_s", "leaf")

    def __init__(self, name: str, start: float, parent: Optional["Span"]) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.children_s = 0.0
        self.leaf: Dict[str, List[float]] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s - sum(s for _, s in self.leaf.values())


class SpanRecorder:
    """Records spans and leaf calls in memory (see the module docstring)."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._root = Span("(root)", perf_counter(), None)

    def begin(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, perf_counter(), parent)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        """Close ``span``, and any span an exception left open inside it."""
        now = perf_counter()
        if span not in self._stack:
            raise RuntimeError(f"span {span.name!r} is not open")
        while True:
            top = self._stack.pop()
            top.end = now
            if top.parent is not None:
                top.parent.children_s += top.duration
            if top is span:
                return

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def wrap(self, obj: Any, attr: str, name: str) -> None:
        """Replace ``obj.attr`` (on the instance) by a span-recording wrapper."""
        original = getattr(obj, attr)
        recorder = self

        def wrapper(*args, **kwargs):
            span = recorder.begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                recorder.end(span)

        setattr(obj, attr, wrapper)

    def wrap_leaf(self, obj: Any, attr: str, name: str) -> None:
        """Replace ``obj.attr`` by a wrapper summing calls into the open span."""
        original = getattr(obj, attr)
        stack = self._stack
        root = self._root

        def wrapper(*args, **kwargs):
            started = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                leaf = (stack[-1] if stack else root).leaf
                entry = leaf.get(name)
                if entry is None:
                    leaf[name] = [1, elapsed]
                else:
                    entry[0] += 1
                    entry[1] += elapsed

        setattr(obj, attr, wrapper)

    # -- read-out ---------------------------------------------------------------

    @staticmethod
    def _under(span: Span, names) -> bool:
        while span is not None:
            if span.name in names:
                return True
            span = span.parent
        return False

    def subtree_totals(self, root_names) -> Dict[str, Dict[str, float]]:
        """``name -> {"calls", "seconds", "self_s"}`` over spans under ``root_names`` spans."""
        out: Dict[str, Dict[str, float]] = {}

        def add(name: str, calls: float, seconds: float, self_s: float) -> None:
            entry = out.setdefault(name, {"calls": 0.0, "seconds": 0.0, "self_s": 0.0})
            entry["calls"] += calls
            entry["seconds"] += seconds
            entry["self_s"] += self_s

        for span in self.spans:
            if not self._under(span, root_names):
                continue
            add(span.name, 1, span.duration, span.self_s)
            for name, (calls, seconds) in span.leaf.items():
                add(name, calls, seconds, seconds)
        return out

    def coverage(self, root_names) -> float:
        """Share of the ``root_names`` spans' time that outermost layer spans cover.

        A layer span is one named ``layer.step``; it is outermost when no
        ancestor is a layer span.
        """
        total = sum(s.duration for s in self.spans if s.name in root_names)
        covered = 0.0
        for span in self.spans:
            if "." not in span.name or not self._under(span, root_names):
                continue
            parent = span.parent
            while parent is not None and "." not in parent.name:
                parent = parent.parent
            if parent is None:
                covered += span.duration
        return covered / total if total else 0.0

    def dump(self, path: Path) -> None:
        """Write every span as ``[id, parent_id, name, start, end, leaf]`` JSON lines."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for i, span in enumerate(self.spans):
                parent = index.get(id(span.parent)) if span.parent is not None else None
                record = [i, parent, span.name, round(span.start, 7), round(span.end, 7), span.leaf]
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")


class NullRecorder:
    """The untraced stand-in: same interface, records and wraps nothing."""

    enabled = False

    def begin(self, name: str) -> None:
        return None

    def end(self, span: None) -> None:
        return None

    def span(self, name: str):
        return nullcontext()

    def wrap(self, obj: Any, attr: str, name: str) -> None:
        return None

    def wrap_leaf(self, obj: Any, attr: str, name: str) -> None:
        return None
