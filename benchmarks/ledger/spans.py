"""Spans, self time and the ledger's estimators.

Spans are recorded from the ledger's own code: :func:`instrument`
swaps public functions of ``repro`` for wrappers that time each call,
for the length of a ``with`` block.  Nothing under ``src/`` knows about
it, and an untraced run never installs a wrapper.

The tracer is single-threaded by design — every workload drives the
stack from one thread, and the in-process replay of the serving
workloads runs the store serially.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
from time import perf_counter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

__all__ = [
    "Span",
    "Tracer",
    "instrument",
    "self_times",
    "roots",
    "summarize",
    "tail_percentile",
    "percentile",
]


class Span(NamedTuple):
    """One timed call: ``parent`` indexes the span that caused it."""

    name: str
    start: float
    end: float
    parent: int
    op_id: str | None
    #: optional work count the wrapper measured (e.g. bytes in/out)
    work: tuple | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; spans of one operation share ``op_id``."""

    def __init__(self) -> None:
        self._records: list[list] = []
        self._stack: list[int] = []
        #: identifier stamped on every span opened from now on
        self.op_id: str | None = None

    def wrap(
        self,
        fn: Callable,
        name: str,
        work: Callable[[tuple, object], tuple] | None = None,
    ) -> Callable:
        """*fn* timed as span *name*; ``work(args, result)`` adds counts."""
        records, stack = self._records, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [
                name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, None
            ]
            stack.append(len(records))
            records.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if work is not None:
                record[5] = work(args, result)
            return result

        return traced

    @property
    def spans(self) -> list[Span]:
        """Every finished span, in start order."""
        return [Span(*record) for record in self._records]


@contextlib.contextmanager
def instrument(
    tracer: Tracer, targets: Iterable[tuple]
) -> Iterator[None]:
    """Trace ``(owner, attribute, span name[, work])`` for one block.

    *owner* is a class or module; its attribute is replaced by the
    tracing wrapper and restored on exit, whatever happens inside.
    """
    saved = []
    try:
        for owner, attribute, name, *rest in targets:
            original = owner.__dict__[attribute]
            saved.append((owner, attribute, original))
            work = rest[0] if rest else None
            if isinstance(original, (classmethod, staticmethod)):
                traced = type(original)(
                    tracer.wrap(original.__func__, name, work)
                )
            else:
                traced = tracer.wrap(original, name, work)
            setattr(owner, attribute, traced)
        yield
    finally:
        for owner, attribute, original in saved:
            setattr(owner, attribute, original)


def self_times(spans: Sequence[Span]) -> list[float]:
    """Per span: its duration minus the part its child spans cover.

    Children of one span never overlap (one thread), so the covered
    part is the sum of the direct children's durations.
    """
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.duration
    return own


def roots(spans: Sequence[Span]) -> list[int]:
    """Per span: index of the outermost span enclosing it."""
    out: list[int] = []
    for index, span in enumerate(spans):
        # parents start before their children, so out[parent] is known
        out.append(index if span.parent < 0 else out[span.parent])
    return out


def summarize(values: Sequence[float]) -> dict:
    """Median with the spread recorded beside it."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("no samples to summarize")
    iqr = 0.0
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        iqr = q3 - q1
    return {
        "value": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "iqr": iqr,
        "n": len(values),
    }


def percentile(samples: Sequence[float], q: float) -> float:
    """The *q*-th percentile, refused without ten samples beyond it."""
    if not 0 < q < 100:
        raise ValueError("percentile must lie strictly between 0 and 100")
    ordered = sorted(samples)
    beyond = len(ordered) * (100.0 - q) / 100.0
    if beyond < 10:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has only {beyond:.1f} "
            "samples beyond it; at least 10 are needed"
        )
    rank = min(len(ordered) - 1, int(len(ordered) * q / 100.0))
    return float(ordered[rank])


def tail_percentile(samples: Sequence[float]) -> tuple[float, float]:
    """``(q, value)`` for the highest percentile the sample supports."""
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        try:
            return q, percentile(samples, q)
        except ValueError:
            continue
    return 50.0, float(statistics.median(samples))
