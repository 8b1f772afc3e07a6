"""End-to-end dataset construction, and the chunked stream every write uses.

Each record depends only on its image, the lexicon, the KB and the overlap
threshold tau, so images can be built in any process in any order and put
back in corpus order. No sampling parameter reaches the build: instruction
samples are drawn from a dataset file afterwards (`instructions`).
`export_records` builds contiguous chunks of images; `render_dataset` reads
a dataset file in byte ranges of whole lines. Both go through one ordered
map, run in a fork-based process pool when `workers` > 1: each chunk is
turned into its output lines where it was built or read, and each chunk's
lines are written as they arrive, in order, so the dataset is never held
whole. The output is byte-identical for every worker count.
"""

from __future__ import annotations

import gc
import os
import signal
from collections.abc import Callable, Iterable, Iterator
from functools import partial
from typing import NoReturn

from .dataset import DatasetRecord, _chunk_records, group_triples, record_line
from .ingest import ImageEntry, KbIndex, _line_chunks, _write_lines
from .lexicon import Lexicon
from .seen import DEFAULT_TAU, BuildDiagnostics, _check_tau, build_seen
from .unseen import build_unseen

# Images per chunk: small enough to balance uneven images across workers and
# to keep few lines in flight, large enough that passing a chunk's lines back
# costs little next to building them.
_CHUNK_IMAGES = 8


def build_image_record(
    entry: ImageEntry,
    lexicon: Lexicon,
    kb: KbIndex | None,
    tau: float = DEFAULT_TAU,
) -> tuple[DatasetRecord, BuildDiagnostics]:
    """Build one image's record; the unseen layer is built exactly when `kb`
    is given. Seen triples are always built; they deduplicate the unseen
    layer even where a renderer leaves them out. Each object's entry groups
    its seen triples, then its unseen ones."""
    diagnostics = BuildDiagnostics()
    objects = entry.objects
    seen = build_seen(objects, entry.triples, entry.regions, lexicon, tau, diagnostics)
    unseen = None if kb is None else build_unseen(objects, seen, kb, lexicon)
    entries = []
    for obj in objects:
        triples = seen[obj.object_id]
        if unseen is not None:
            triples = triples + unseen[obj.object_id]
        entries.append(group_triples(obj, triples))
    return DatasetRecord(image_id=entry.image_id, entries=entries), diagnostics


def _dataset_line(record: DatasetRecord) -> list[str]:
    """The default renderer: the record's dataset line."""
    return [record_line(record)]


def _build_chunk(
    entries: list[ImageEntry],
    lexicon: Lexicon,
    kb: KbIndex | None,
    tau: float,
    render: Callable[[DatasetRecord], Iterable[str]],
    bounds: tuple[int, int],
) -> tuple[list[str], BuildDiagnostics]:
    """The rendered lines of images bounds[0]..bounds[1]-1, and their diagnostics."""
    diagnostics = BuildDiagnostics()
    lines = []
    for entry in entries[slice(*bounds)]:
        record, image_diagnostics = build_image_record(entry, lexicon, kb, tau)
        diagnostics.merge(image_diagnostics)
        lines.extend(render(record))
    return lines, diagnostics


def _render_data_chunk(
    data, render: Callable[[DatasetRecord], Iterable[str]], chunk: tuple[int, int, int]
) -> tuple[list[str], BuildDiagnostics]:
    """The rendered lines of one byte range of a dataset file; it builds
    nothing, so its diagnostics are empty."""
    lines = []
    for record in _chunk_records(data, chunk):
        lines.extend(render(record))
    return lines, BuildDiagnostics()


# A chunk task: a chunk's bounds to its lines and diagnostics.
_Task = Callable[[tuple[int, ...]], tuple[list[str], BuildDiagnostics]]

# Chunk indices a worker holds at once. It finds its next chunk queued when it
# finishes one, and the parent hands out the rest one at a time as results come
# back, so a slow chunk holds up one worker, not a fixed share of the work.
_QUEUED_PER_WORKER = 2
# The reorder window, per worker: no chunk is handed out more than this many
# places past the earliest unwritten one, so the parent holds a bounded number
# of finished chunks however long that one takes.
_WINDOW_PER_WORKER = 4


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set, where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_size(workers: int, chunks: int) -> int:
    """Processes worth starting: no more than asked, usable CPUs, or chunks."""
    return min(workers, _usable_cpus(), chunks)


class _Worker:
    """A forked worker as its parent sees it: its pid (None once reaped), the
    pipe ends the parent writes chunk indices to and reads results from, and
    the indices handed to it and not yet answered, oldest first."""

    __slots__ = ("pid", "tasks", "results", "queued")

    def __init__(self, pid: int, tasks: int, results: int):
        self.pid = pid
        self.tasks = tasks
        self.results = results
        self.queued: list[int] = []


def _serve_chunks(
    task: _Task, bounds: list[tuple[int, ...]], tasks: int, results: int, inherited: list[int]
) -> NoReturn:
    """A forked worker's whole life. It answers each chunk index read from
    `tasks` with a length-prefixed pickle on `results`: `(task(chunk), None)`,
    or the exception the task raised and its traceback. It leaves through
    `os._exit` once `tasks` is closed, or on anything else, so it never returns
    into its parent's code or flushes its parent's buffers."""
    import pickle
    import traceback

    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        while index := os.read(tasks, 4):
            try:
                message = pickle.dumps((task(bounds[int.from_bytes(index, "little")]), None), -1)
            except Exception as exc:
                error_text = traceback.format_exc()
                try:
                    message = pickle.dumps((exc, error_text), -1)
                except Exception:  # an exception that does not pickle
                    message = pickle.dumps((RuntimeError(repr(exc)), error_text), -1)
            view = memoryview(len(message).to_bytes(8, "little") + message)
            while view:
                view = view[os.write(results, view):]
        status = 0
    finally:
        os._exit(status)


def _fork_worker(task: _Task, bounds: list[tuple[int, ...]], workers: list[_Worker]) -> _Worker:
    """Fork one more worker; `workers` are the ones already running."""
    tasks_read, tasks_write = os.pipe()
    results_read, results_write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        for fd in (tasks_read, tasks_write, results_read, results_write):
            os.close(fd)
        raise
    if pid == 0:
        # What a worker inherits outlives it: frozen before the worker
        # allocates anything, it is left out of every collection the worker
        # runs, which would walk (and so copy) the KB index's pages.
        gc.freeze()
        # The child keeps only its own two ends: a sibling's task pipe left
        # open here would keep that sibling from seeing its parent go away.
        inherited = [tasks_write, results_read]
        inherited += [fd for worker in workers for fd in (worker.tasks, worker.results)]
        _serve_chunks(task, bounds, tasks_read, results_write, inherited)
    os.close(tasks_read)
    os.close(results_write)
    return _Worker(pid, tasks_write, results_read)


def _worker_died(worker: _Worker) -> RuntimeError:
    """Reap a worker whose pipe closed early, and say how it ended. Not an
    OSError, which the CLI would report as an input error."""
    pid = worker.pid
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    worker.pid = None
    how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
    return RuntimeError(f"worker process {pid} died before answering its chunks ({how})")


def _read_exactly(fd: int, size: int) -> bytearray | None:
    """The next `size` bytes of the pipe `fd`, or None if it closes first."""
    buffer = bytearray(size)
    view = memoryview(buffer)
    while view:
        count = os.readv(fd, [view])
        if not count:
            return None
        view = view[count:]
    return buffer


def _receive(worker: _Worker) -> bytearray:
    """The next result message from a worker whose pipe is readable."""
    header = _read_exactly(worker.results, 8)
    if header is not None:
        message = _read_exactly(worker.results, int.from_bytes(header, "little"))
        if message is not None:
            return message
    raise _worker_died(worker)


def _hand_out(worker: _Worker, handed_out: int, stop: int) -> int:
    """Write chunk indices from `handed_out` on to a worker until it holds
    `_QUEUED_PER_WORKER` or `stop` is reached; return the next index to hand out."""
    while handed_out < stop and len(worker.queued) < _QUEUED_PER_WORKER:
        try:
            os.write(worker.tasks, handed_out.to_bytes(4, "little"))
        except BrokenPipeError:
            raise _worker_died(worker) from None
        worker.queued.append(handed_out)
        handed_out += 1
    return handed_out


def _forked_results(
    task: _Task, bounds: list[tuple[int, ...]], processes: int
) -> Iterator[tuple[list[str], BuildDiagnostics]]:
    """task(chunk) for each chunk in bounds, in order, from `processes` forked
    workers; see `_chunk_results`."""
    # Imported here: serial runs should not pay for them.
    import pickle
    import selectors

    workers: list[_Worker] = []
    selector = selectors.DefaultSelector()
    window = processes * _WINDOW_PER_WORKER
    handed_out = 0
    try:
        for _ in range(processes):
            worker = _fork_worker(task, bounds, workers)
            workers.append(worker)
            selector.register(worker.results, selectors.EVENT_READ, worker)
            # Its first chunks go out now, so it builds while its siblings
            # are forked.
            handed_out = _hand_out(worker, handed_out, min(len(bounds), window))
        finished: dict[int, bytearray] = {}
        for index in range(len(bounds)):
            while index not in finished:
                stop = min(len(bounds), index + window)
                for worker in workers:
                    handed_out = _hand_out(worker, handed_out, stop)
                for key, _ in selector.select():
                    message = _receive(key.data)
                    finished[key.data.queued.pop(0)] = message
            result, error_text = pickle.loads(finished.pop(index))
            if error_text is not None:
                raise result from RuntimeError(f"in a worker process:\n{error_text}")
            yield result
    finally:
        selector.close()
        for worker in workers:
            os.close(worker.tasks)
            os.close(worker.results)
            if worker.pid is not None:
                os.kill(worker.pid, signal.SIGKILL)
                os.waitpid(worker.pid, 0)


def _chunk_results(
    task: _Task, bounds: list[tuple[int, ...]], workers: int
) -> Iterator[tuple[list[str], BuildDiagnostics]]:
    """task(chunk) for each chunk in bounds, in order.

    With more than one process worth starting (`_pool_size`) and `os.fork`
    available, workers forked once `task` is bound compute the chunks: each
    inherits what the task reads, so a chunk is sent as its index alone and
    comes back as a pickle of its lines and diagnostics, over a pipe pair per
    worker. Each worker is handed its first indices as soon as it is forked,
    so it starts before its siblings do, and the rest as workers answer;
    results are put back in order in a reorder window of a fixed number of
    chunks per worker.
    A task's exception is raised when its chunk's turn comes; a worker that
    dies raises RuntimeError. Closing this generator, or any exception, kills
    and reaps every worker. Otherwise the calling process does the work.
    """
    processes = _pool_size(workers, len(bounds))
    if processes > 1 and hasattr(os, "fork"):
        yield from _forked_results(task, bounds, processes)
    else:
        for chunk in bounds:
            yield task(chunk)


def _write_chunks(
    path, task: _Task, bounds: list[tuple[int, ...]], workers: int
) -> BuildDiagnostics:
    """Write each chunk's lines to path in order; return the merged diagnostics."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    diagnostics = BuildDiagnostics()

    def lines() -> Iterator[str]:
        for chunk_lines, chunk_diagnostics in _chunk_results(task, bounds, workers):
            diagnostics.merge(chunk_diagnostics)
            yield from chunk_lines

    _write_lines(path, lines())
    return diagnostics


def export_records(
    images: list[ImageEntry],
    lexicon: Lexicon,
    path,
    kb: KbIndex | None = None,
    tau: float = DEFAULT_TAU,
    workers: int = 1,
    render: Callable[[DatasetRecord], Iterable[str]] = _dataset_line,
) -> BuildDiagnostics:
    """Build each image of `images`, as `load_scene_corpus` returns them, and
    write the lines `render` makes of its record to `path`, in list order; by
    default, the record's dataset line.

    With `workers` > 1, up to min(workers, usable CPUs) forked processes
    build and render the chunks; where `os.fork` is missing, or with one
    worker, the calling process does. The bytes written never depend on
    `workers`, and the returned diagnostics are merged in list order. An
    input error in a worker raises what the calling process would raise; a
    worker that dies raises RuntimeError and leaves `path` incomplete. Fork
    copies only the calling thread, so call this with more than one worker
    from a process that runs no other threads. A tau outside (0, 1] raises
    `InvalidConfig` before `path` is opened.
    """
    _check_tau(tau)
    bounds = [
        (start, min(start + _CHUNK_IMAGES, len(images)))
        for start in range(0, len(images), _CHUNK_IMAGES)
    ]
    task = partial(_build_chunk, images, lexicon, kb, tau, render)
    return _write_chunks(path, task, bounds, workers)


def render_dataset(
    data,
    path,
    render: Callable[[DatasetRecord], Iterable[str]],
    workers: int = 1,
) -> None:
    """Write the lines `render` makes of each record of the dataset file
    `data` to `path`, in file order.

    The file is cut into byte ranges of whole lines, and with `workers` > 1
    forked processes parse and render the ranges as `export_records` builds
    its chunks; the bytes written never depend on `workers`. A malformed line
    raises `MalformedRecord` naming its line once the ranges before it are
    written.
    """
    task = partial(_render_data_chunk, data, render)
    _write_chunks(path, task, _line_chunks(data), workers)
