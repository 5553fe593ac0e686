"""Pluggable parallel-execution backends for the codec hot paths.

The tiled pipelines fan embarrassingly parallel work — tile encodes
and decodes, per-tile model fits — out over an executor.  Three
backends implement one :class:`CodecExecutor` interface:

``serial``
    Everything on the calling thread.  The baseline, and the fallback
    whenever ``workers`` collapses to 1.
``thread``
    A persistent ``ThreadPoolExecutor``.  Cheap to enter, shares all
    memory, but the codec stages are Python/NumPy-heavy and hold the
    GIL much of the time, so threads help only where NumPy releases it.
``process``
    A persistent ``ProcessPoolExecutor``.  Bulk array payloads travel
    through ``multiprocessing.shared_memory`` segments — workers map
    the parent's input buffer as a zero-copy NumPy view and write
    decoded output into a parent-preallocated region — so pickling is
    reserved for the tiny per-item metadata (configs, extents, blob
    bytes that are already entropy-coded).  Worker processes build
    their codec exactly once, in a fork/spawn-safe initializer, and
    reuse it for every task.

The unit of work is :meth:`CodecExecutor.run_batch`: an ordered map of
a **module-level** task function over small picklable items, with an
optional shared input buffer and an optional preallocated output
buffer.  Buffers come from the executor itself
(:meth:`~CodecExecutor.input_buffer` /
:meth:`~CodecExecutor.output_buffer`), so the serial and thread
backends hand local memory straight to the task while the process
backend transparently swaps in shared-memory segments.

Executors are shared and persistent: :func:`get_executor` caches one
instance per ``(backend, workers, start_method)`` so repeated
compressor constructions reuse the same (expensive) process pool.  A
crashed worker breaks its pool; the registry detects that and builds a
fresh one, and the failed call surfaces as :class:`ExecutorError`
instead of a raw ``BrokenProcessPool``.
"""

from __future__ import annotations

import abc
import atexit
import os
import threading
import warnings
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "BACKENDS",
    "CodecExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "ExecutorError",
    "make_executor",
    "get_executor",
    "shutdown_executors",
]

#: the selectable parallel backends, in cost order
BACKENDS = ("serial", "thread", "process")

#: byte alignment of sub-buffers carved out of a shared arena, so typed
#: NumPy views over any supported dtype stay aligned
BUFFER_ALIGN = 16


def align_offset(offset: int) -> int:
    """Round *offset* up to the arena alignment."""
    return (offset + BUFFER_ALIGN - 1) // BUFFER_ALIGN * BUFFER_ALIGN


def usable_cores() -> int:
    """Cores this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def default_workers() -> int:
    """Pool width when a parallel backend is requested without one.

    :func:`usable_cores`, capped so an accidental construction on a
    huge host does not fork dozens of workers.
    """
    return max(1, min(8, usable_cores()))


def carve_buffer(
    executor: "CodecExecutor",
    nbytes_list: Sequence[int],
    kind: str = "input",
) -> tuple["ExecutorBuffer", list[int]]:
    """One aligned batch buffer with a sub-range per item.

    Returns ``(buffer, offsets)`` where item *i* owns
    ``buffer.array[offsets[i] : offsets[i] + nbytes_list[i]]``.  The
    single implementation behind every arena-staging site (tile
    encode, region decode, planner fits), so alignment and allocation
    semantics cannot drift between them.  The caller releases the
    buffer.
    """
    offsets, total = [], 0
    for nbytes in nbytes_list:
        offsets.append(total)
        total = align_offset(total + int(nbytes))
    buffer = (
        executor.input_buffer(total)
        if kind == "input"
        else executor.output_buffer(total)
    )
    return buffer, offsets


class ExecutorError(RuntimeError):
    """A parallel batch failed for infrastructure reasons.

    Raised (with the backend named) when a worker process dies — OOM
    kill, hard crash, interpreter abort — rather than leaking
    ``BrokenProcessPool`` internals to codec callers.  Task-level
    exceptions (corrupt payloads, bad configs) propagate as themselves.
    """


# -- shared buffers ------------------------------------------------------------


class ExecutorBuffer:
    """A flat byte buffer every worker of one batch can see.

    ``array`` is a 1-D ``uint8`` view the parent fills (inputs) or
    reads (outputs).  For the serial/thread backends it is plain local
    memory; for the process backend it is a
    ``multiprocessing.shared_memory`` segment that workers map without
    copying.  Call :meth:`release`
    when the batch is done (always, in a ``finally``) so segments are
    unlinked promptly.
    """

    __slots__ = ("array", "_shm")

    def __init__(self, array: np.ndarray, shm=None) -> None:
        self.array = array
        self._shm = shm

    @property
    def descriptor(self) -> tuple | None:
        """``(shm_name, nbytes)`` for worker attachment, or ``None``."""
        if self._shm is None:
            return None
        return (self._shm.name, int(self.array.nbytes))

    def release(self) -> None:
        """Drop the view and unlink the backing segment (if any)."""
        self.array = None
        if self._shm is not None:
            shm, self._shm = self._shm, None
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


# -- the executor interface ----------------------------------------------------


class CodecExecutor(abc.ABC):
    """Ordered parallel map over codec work items.

    ``run_batch(fn, items, ...)`` calls ``fn(item, inp, out)`` for every
    item and returns the results in item order.  ``fn`` must be a
    module-level function (the process backend pickles it by reference)
    and ``inp``/``out`` are the 1-D uint8 views of the batch buffers
    (``None`` when not supplied).  Items should stay small — configs,
    extents, already-compressed blobs; raw array data belongs in the
    buffers.
    """

    name: str = "abstract"

    def __init__(self, workers: int | None = None) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be a positive integer or None")
        self._workers = int(workers or 1)

    @property
    def workers(self) -> int:
        """Parallel width of this executor."""
        return self._workers

    # -- buffers ---------------------------------------------------------------

    def input_buffer(self, nbytes: int) -> ExecutorBuffer:
        """A writable input buffer of *nbytes* for the parent to fill."""
        return ExecutorBuffer(np.empty(int(nbytes), dtype=np.uint8))

    def output_buffer(self, nbytes: int) -> ExecutorBuffer:
        """A preallocated output buffer workers write into."""
        return ExecutorBuffer(np.empty(int(nbytes), dtype=np.uint8))

    # -- execution -------------------------------------------------------------

    @abc.abstractmethod
    def run_batch(
        self,
        fn: Callable,
        items: Sequence,
        input: ExecutorBuffer | None = None,
        output: ExecutorBuffer | None = None,
    ) -> list:
        """Map *fn* over *items*; returns results in item order."""

    def close(self) -> None:
        """Release pool resources (idempotent)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} workers={self._workers}>"


class SerialExecutor(CodecExecutor):
    """Run every item inline on the calling thread."""

    name = "serial"

    def __init__(self, workers: int | None = None) -> None:
        super().__init__(1)

    def run_batch(self, fn, items, input=None, output=None):
        inp = input.array if input is not None else None
        out = output.array if output is not None else None
        return [fn(item, inp, out) for item in items]


#: name prefix of every ThreadExecutor pool thread — used to detect
#: (and inline) nested batches, which would otherwise deadlock: outer
#: tasks occupying every pool thread while blocking on inner futures
#: queued behind them
_THREAD_POOL_PREFIX = "codec-exec"


class ThreadExecutor(CodecExecutor):
    """Persistent thread pool; memory is shared, the GIL is not released
    by the pure-Python parts of the codec stages."""

    name = "thread"

    def __init__(self, workers: int | None = None) -> None:
        super().__init__(workers)
        self._lock = threading.Lock()
        self._pool: ThreadPoolExecutor | None = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._workers,
                    thread_name_prefix=_THREAD_POOL_PREFIX,
                )
            return self._pool

    def run_batch(self, fn, items, input=None, output=None):
        inp = input.array if input is not None else None
        out = output.array if output is not None else None
        if len(items) <= 1 or threading.current_thread().name.startswith(
            _THREAD_POOL_PREFIX
        ):
            # Nested batch from inside a pool task: run inline.
            # Submitting would deadlock once outer tasks hold every
            # pool thread — and nested thread fan-out buys nothing
            # under the GIL anyway.
            return [fn(item, inp, out) for item in items]
        pool = self._ensure_pool()
        futures = [pool.submit(fn, item, inp, out) for item in items]
        return [f.result() for f in futures]

    def close(self) -> None:
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None


# -- process backend -----------------------------------------------------------

#: per-worker singletons, built once by the pool initializer (or lazily
#: on first task) so every task reuses the same codec
_WORKER_STATE = None

#: capacity of the per-worker shared-memory attachment cache: one batch
#: uses at most two segments (input + output), so current + previous
#: batch fit with room to spare while stale mappings are closed quickly
_WORKER_SHM_CACHE = 4


class _WorkerState:
    """The codec + shm attachments owned by one worker process."""

    def __init__(self) -> None:
        # imported lazily: this module is imported by the codec modules
        from repro.compressor.sz import SZCompressor

        self.codec = SZCompressor()
        self.shm_cache: OrderedDict = OrderedDict()


def _init_worker() -> None:
    """Pool initializer: build the per-process stage objects once."""
    global _WORKER_STATE
    _WORKER_STATE = _WorkerState()


def worker_state() -> _WorkerState:
    """The calling process's codec singletons (built on demand).

    Inside a pool worker this is the initializer-built state; on the
    parent (serial/thread backends run tasks in-process) it is a lazily
    built equivalent, so task functions behave identically everywhere.
    """
    global _WORKER_STATE
    if _WORKER_STATE is None:
        _WORKER_STATE = _WorkerState()
    return _WORKER_STATE


def _attach_shm(name: str):
    """Attach to an existing segment without resource-tracker claims.

    Workers must not register parent-owned segments with their own
    ``resource_tracker`` — the tracker would unlink them at worker
    shutdown, destroying memory the parent still uses (Python < 3.13
    registers unconditionally; 3.13+ exposes ``track=False``).
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    # Python < 3.13 lacks track=False: silence the constructor's
    # registration instead.  Unregistering *after* the fact is not
    # enough — the segment's creator also unregisters at unlink, and
    # the tracker logs a KeyError on the second removal.  Workers run
    # tasks on a single thread, so the swap cannot race.
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def _resolve_buffer(desc: tuple | None) -> np.ndarray | None:
    """Worker-side view of a batch buffer descriptor.

    Attachments are cached by segment name (names are unique per
    segment, so a stale hit is impossible); old mappings are closed as
    they fall out of the small cache.
    """
    if desc is None:
        return None
    name, nbytes = desc
    state = worker_state()
    shm = state.shm_cache.get(name)
    if shm is None:
        shm = _attach_shm(name)
        state.shm_cache[name] = shm
        while len(state.shm_cache) > _WORKER_SHM_CACHE:
            _, old = state.shm_cache.popitem(last=False)
            try:
                old.close()
            except BufferError:  # pragma: no cover - leaked task view
                pass
    else:
        state.shm_cache.move_to_end(name)
    return np.ndarray((nbytes,), dtype=np.uint8, buffer=shm.buf)


def _process_task(fn, item, in_desc, out_desc):
    """Trampoline executed in the worker: resolve buffers, run the task."""
    return fn(item, _resolve_buffer(in_desc), _resolve_buffer(out_desc))


class ProcessExecutor(CodecExecutor):
    """Persistent process pool with shared-memory array transport.

    Parameters
    ----------
    workers:
        Pool width.
    start_method:
        ``"fork"``, ``"spawn"``, ``"forkserver"`` or ``None`` to
        auto-select: ``forkserver`` where available (Linux), else the
        platform default.  Plain ``fork`` from an already
        multi-threaded parent (the serving stack's HTTP threads, a
        caller's own pools) can inherit locks held mid-operation and
        deadlock the child; the fork *server* forks from a clean,
        single-threaded helper process, keeping pool startup cheap
        without that hazard.  Workers are initialized identically
        under every method (stage objects are rebuilt in the child,
        never inherited), so outputs are byte-identical across
        methods.
    """

    name = "process"

    def __init__(
        self,
        workers: int | None = None,
        start_method: str | None = None,
    ) -> None:
        super().__init__(workers)
        self.start_method = start_method
        self._lock = threading.Lock()
        self._pool: ProcessPoolExecutor | None = None
        self._broken = False

    @property
    def broken(self) -> bool:
        """True once a worker crash has poisoned the pool."""
        return self._broken

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._broken:
                raise ExecutorError(
                    "process executor is broken (a codec worker died); "
                    "obtain a fresh executor via get_executor()"
                )
            if self._pool is None:
                import multiprocessing as mp

                method = self.start_method
                if method is None and "forkserver" in (
                    mp.get_all_start_methods()
                ):
                    method = "forkserver"
                ctx = (
                    mp.get_context(method) if method is not None else None
                )
                self._pool = ProcessPoolExecutor(
                    max_workers=self._workers,
                    mp_context=ctx,
                    initializer=_init_worker,
                )
            return self._pool

    def input_buffer(self, nbytes: int) -> ExecutorBuffer:
        return self._shm_buffer(int(nbytes))

    def output_buffer(self, nbytes: int) -> ExecutorBuffer:
        return self._shm_buffer(int(nbytes))

    def _shm_buffer(self, nbytes: int) -> ExecutorBuffer:
        if nbytes <= 0:
            # SharedMemory rejects zero-size segments; nothing to share
            return ExecutorBuffer(np.empty(0, dtype=np.uint8))
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(create=True, size=nbytes)
        view = np.ndarray((nbytes,), dtype=np.uint8, buffer=shm.buf)
        return ExecutorBuffer(view, shm)

    def run_batch(self, fn, items, input=None, output=None):
        if not items:
            return []
        pool = self._ensure_pool()
        in_desc = input.descriptor if input is not None else None
        out_desc = output.descriptor if output is not None else None
        if (input is not None and input.descriptor is None and input.array.nbytes) or (
            output is not None
            and output.descriptor is None
            and output.array.nbytes
        ):
            raise ValueError(
                "process batches need executor-allocated buffers "
                "(use input_buffer/output_buffer on this executor)"
            )
        try:
            futures = [
                pool.submit(_process_task, fn, item, in_desc, out_desc)
                for item in items
            ]
            return [f.result() for f in futures]
        except BrokenProcessPool as exc:
            self._broken = True
            raise ExecutorError(
                "a codec worker process died while running a "
                f"{getattr(fn, '__name__', 'task')} batch; the work "
                "was not completed (likely causes: out-of-memory kill "
                "or a crash in the worker)"
            ) from exc

    def close(self) -> None:
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None


# -- construction & registry ---------------------------------------------------


def make_executor(
    backend: str | None,
    workers: int | None = None,
    start_method: str | None = None,
) -> CodecExecutor:
    """Construct a fresh executor for *backend* (``None`` → thread).

    A parallel backend with no explicit width gets
    :func:`default_workers` — asking for ``"process"`` must never be a
    silent serial no-op just because ``workers`` was left unset.
    """
    backend = backend or "thread"
    if backend == "serial":
        return SerialExecutor()
    if workers is None:
        workers = default_workers()
    if backend == "thread":
        return ThreadExecutor(workers)
    if backend == "process":
        return ProcessExecutor(workers, start_method=start_method)
    raise ValueError(
        f"unknown parallel backend {backend!r}; expected one of {BACKENDS}"
    )


_REGISTRY: dict = {}
_REGISTRY_LOCK = threading.Lock()
_SERIAL = SerialExecutor()


def get_executor(
    backend: str | None,
    workers: int | None = None,
    start_method: str | None = None,
) -> CodecExecutor:
    """A shared, persistent executor for ``(backend, workers, method)``.

    Process pools are expensive to start, so compressors constructed
    repeatedly (benchmarks, servers, CLI invocations inside one
    process) all reuse one pool.  A pool poisoned by a worker crash is
    transparently replaced on the next request.

    Width semantics: an **explicit** ``workers <= 1`` always means the
    serial singleton, whatever the backend; ``workers=None`` with an explicitly
    requested parallel backend means :func:`default_workers` (the
    machine's usable cores, capped) — so ``backend="process"`` alone
    is never a silent no-op.  ``backend=None`` keeps the historical
    contract: parallel (threaded) only when a width was asked for.
    """
    if backend is None:
        backend = "thread"
        if workers is None:
            workers = 1
    if workers is None:
        workers = default_workers()
    if backend == "serial" or int(workers) <= 1:
        return _SERIAL
    key = (backend, int(workers), start_method)
    with _REGISTRY_LOCK:
        executor = _REGISTRY.get(key)
        if executor is not None and getattr(executor, "broken", False):
            executor.close()
            executor = None
        if executor is None:
            executor = make_executor(backend, workers, start_method)
            _REGISTRY[key] = executor
        return executor


def shutdown_executors() -> None:
    """Close every registry executor (tests and interpreter exit)."""
    with _REGISTRY_LOCK:
        executors = list(_REGISTRY.values())
        _REGISTRY.clear()
    for executor in executors:
        try:
            executor.close()
        except Exception:  # pragma: no cover - best-effort teardown
            warnings.warn(
                "failed to close a codec executor at shutdown",
                RuntimeWarning,
                stacklevel=1,
            )


atexit.register(shutdown_executors)
