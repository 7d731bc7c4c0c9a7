"""In-memory span recording for the traced benchmark run.

The traced run swaps each layer's public function for a wrapper that
records one span per call: name, start, end, the span that caused it (the
innermost open span on the same thread) and a work count (calls, prefixes,
bytes, mutations).  Spans stay in memory and are summarised when the run
ends.  A span's self time is its duration minus the time its child spans
cover; children on one thread run one after another, so that is the sum of
their durations.

Stand-ins are installed by :func:`patched` and always restored, so the
untraced phases of a run execute the program's own functions untouched.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

# Record layout: a list, so the closing wrapper can fill it in place.
_NAME, _START, _END, _PARENT, _THREAD, _COUNT, _CHILD = range(7)


@dataclass(frozen=True, slots=True)
class LayerTotals:
    """Every span of one name, summed."""

    calls: int
    count: int
    seconds: float
    self_seconds: float


class SpanRecorder:
    """Collects spans from any thread; parents are tracked per thread."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()

    def wrap(self, function: Callable, name: str,
             count: Callable | None = None) -> Callable:
        """A traced stand-in for ``function``.

        ``count(args, result)`` gives the span's work count; without it the
        count is 1 (one call).
        """
        spans = self.spans
        local = self._local

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            record = [name, perf_counter(), 0.0, parent,
                      threading.get_ident(), 0, 0.0]
            spans.append(record)
            stack.append(record)
            try:
                result = function(*args, **kwargs)
            finally:
                end = record[_END] = perf_counter()
                stack.pop()
                if parent is not None:
                    parent[_CHILD] += end - record[_START]
            record[_COUNT] = 1 if count is None else count(args, result)
            return result

        traced.__wrapped__ = function
        return traced

    def totals(self) -> dict[str, LayerTotals]:
        """Per-name sums of calls, counts, durations and self time."""
        sums: dict[str, list] = {}
        for record in self.spans:
            entry = sums.setdefault(record[_NAME], [0, 0, 0.0, 0.0])
            duration = record[_END] - record[_START]
            entry[0] += 1
            entry[1] += record[_COUNT]
            entry[2] += duration
            entry[3] += duration - record[_CHILD]
        return {name: LayerTotals(*entry) for name, entry in sums.items()}

    def root_seconds(self, thread: int) -> float:
        """Time covered by the spans of ``thread`` that have no parent."""
        return sum(record[_END] - record[_START] for record in self.spans
                   if record[_PARENT] is None and record[_THREAD] == thread)


#: One patch: (owner, attribute, stand-in).
Target = tuple[object, str, object]


@contextmanager
def patched(targets: Sequence[Target]) -> Iterator[None]:
    """Install every stand-in; restore the originals on exit."""
    saved = []
    try:
        for owner, attribute, stand_in in targets:
            saved.append((owner, attribute, attribute in vars(owner),
                          getattr(owner, attribute)))
            setattr(owner, attribute, stand_in)
        yield
    finally:
        for owner, attribute, own, original in reversed(saved):
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
