"""One clock for the package: spans, and the records they add to.

The paper's Fig. 9 splits trial-and-error cost into prediction, Huffman
and lossless stages, and its Fig. 14 splits a dump into optimize,
compress and I/O.  Every such breakdown is a :func:`record` — a ``dict``
of seconds per stage name — that the :class:`span` blocks run in the
same context add to::

    with obs.record() as times:
        TiledCompressor().compress(data, config)
    times["huffman"]   # seconds, summed over tiles

A span outside any record still measures its block (``.elapsed``) and
adds nowhere.  Records are isolated: an inner record's spans do not
reach an outer one, which sees them only when the inner dict is
:func:`add`-ed to it.  That is how the tile loop collects what each
tile task recorded, on whichever backend ran the task.
"""

from __future__ import annotations

import contextlib
import time
from contextvars import ContextVar
from typing import Iterator, Mapping

__all__ = ["span", "record", "add"]

#: the clock every span reads
_clock = time.perf_counter
#: the innermost open record of this context, ``None`` outside any
_active: "ContextVar[dict[str, float] | None]" = ContextVar(
    "repro_obs_record", default=None
)


class span:
    """Measure a block; add its seconds under *name* to the active record."""

    __slots__ = ("name", "elapsed", "_start")

    def __init__(self, name: str) -> None:
        self.name = name
        self.elapsed = 0.0

    def __enter__(self) -> "span":
        self._start = _clock()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.elapsed = _clock() - self._start
        add({self.name: self.elapsed})


@contextlib.contextmanager
def record() -> Iterator[dict[str, float]]:
    """Open a fresh record the spans of this context add to until exit."""
    times: dict[str, float] = {}
    token = _active.set(times)
    try:
        yield times
    finally:
        _active.reset(token)


def add(times: Mapping[str, float]) -> None:
    """Fold *times* into the active record; nothing without one."""
    target = _active.get()
    if target is not None:
        for name, seconds in times.items():
            target[name] = target.get(name, 0.0) + seconds
