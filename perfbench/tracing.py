"""In-memory spans recorded around calls into the program's modules.

A span has a name, start and end (``time.perf_counter`` seconds), the id of
the span that was open on the same thread when it began, and the character
or item it worked on. Span stacks are per thread; work handed to a thread
pool keeps the submitting span as its parent. A span's self time is its
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterable, Iterator, Sequence


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None = None
    item: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory; ``write`` dumps them as JSON."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, str | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, item: str | None = None) -> Iterator[None]:
        stack = self._stack()
        parent, parent_item = stack[-1] if stack else (None, None)
        item = item or getattr(self._local, "item", None) or parent_item
        span_id = next(self._ids)
        stack.append((span_id, item))
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, item))

    def wrap(self, name: str, fn: Callable, item_of: Callable | None = None) -> Callable:
        """``fn`` recording one span per call; ``item_of(*args)`` names the item."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, item_of(*args, **kwargs) if item_of else None):
                return fn(*args, **kwargs)

        return traced

    def items(self, records: Sequence, item_of: Callable) -> "TracedItems":
        """A list of ``records`` that marks each one as the current item while
        a caller iterates over it, for callees that never see an item id."""
        return TracedItems(records, self, item_of)

    def executor_class(self) -> type:
        """A ``ThreadPoolExecutor`` whose tasks keep the submitter's span as parent."""
        tracer = self

        class PropagatingExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                context = list(stack[-1:])
                return super().submit(tracer._run_under, context, fn, *args, **kwargs)

        return PropagatingExecutor

    def _run_under(self, context: list, fn: Callable, *args, **kwargs):
        self._local.stack = list(context)
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.stack = []

    def write(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps([asdict(s) for s in self.spans], ensure_ascii=False), encoding="utf-8"
        )


class TracedItems(list):
    """A list whose iteration marks each record as the tracer's current item."""

    def __init__(self, records: Sequence, tracer: Tracer, item_of: Callable):
        super().__init__(records)
        self._tracer = tracer
        self._item_of = item_of

    def __iter__(self):
        local = self._tracer._local
        try:
            for record in super().__iter__():
                local.item = self._item_of(record)
                yield record
        finally:
            local.item = None


def covered_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its children cover (seconds)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.span_id: s.duration - covered_length(children.get(s.span_id, ()), s.start, s.end)
        for s in spans
    }


def root_names(spans: Sequence[Span]) -> dict[int, str]:
    """Span id -> name of its outermost ancestor (itself for a root)."""
    by_id = {s.span_id: s for s in spans}
    roots: dict[int, str] = {}

    def root(span: Span) -> str:
        chain = []
        while span.span_id not in roots and span.parent in by_id:
            chain.append(span)
            span = by_id[span.parent]
        name = roots.get(span.span_id, span.name)
        for s in chain + [span]:
            roots[s.span_id] = name
        return name

    for s in spans:
        root(s)
    return roots


class Patcher:
    """Replaces attributes and puts every original back on ``restore``."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, _own(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> bool:
        """Put every original back; True when each one is in place again."""
        saved, self._saved = self._saved, []
        for owner, attr, original in reversed(saved):
            if original is _ABSENT:
                delattr(owner, attr)  # it was inherited: uncover the base's
            else:
                setattr(owner, attr, original)
        return all(_own(owner, attr) is original for owner, attr, original in saved)


_ABSENT = object()


def _own(owner: object, attr: str) -> object:
    """The attribute as ``owner`` itself holds it, unbound; ``_ABSENT`` if
    a class only inherits it."""
    return vars(owner).get(attr, _ABSENT)
