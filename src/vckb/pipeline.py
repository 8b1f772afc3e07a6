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
from collections.abc import Callable, Iterable, Iterator
from functools import partial

from .dataset import DatasetRecord, _chunk_records, group_triples, record_line
from .ingest import ImageEntry, KbIndex, SceneCorpus, _line_chunks, _write_lines
from .errors import InvalidConfig
from .lexicon import Lexicon
from .seen import DEFAULT_TAU, BuildDiagnostics, CommonsenseTriple, build_seen
from .unseen import build_unseen

# Images per chunk: small enough to balance uneven images across workers and
# to keep few lines in flight, large enough that passing a chunk's lines back
# costs little next to building them.
_CHUNK_IMAGES = 8


def _check_tau(tau) -> None:
    """The build's one rule for tau: a number in (0, 1]; nan and inf are not."""
    if not isinstance(tau, (int, float)) or isinstance(tau, bool) or not 0 < tau <= 1:
        raise InvalidConfig(f"tau must be a number in (0, 1], got {tau!r}")


def build_image_record(
    entry: ImageEntry,
    lexicon: Lexicon,
    kb: KbIndex | None,
    tau: float = DEFAULT_TAU,
) -> tuple[DatasetRecord, BuildDiagnostics]:
    """Build one image's record; the unseen layer is built exactly when `kb`
    is given. Seen triples are always built; they deduplicate the unseen
    layer even where a renderer leaves them out."""
    diagnostics = BuildDiagnostics()
    objects = entry.objects
    seen = build_seen(objects, entry.triples, entry.regions, lexicon, tau, diagnostics)
    seen_by_object: dict[str, list[CommonsenseTriple]] = {}
    for triple in seen:
        seen_by_object.setdefault(triple.head.object_id, []).append(triple)

    unseen_by_object: dict[str, list[CommonsenseTriple]] = {}
    if kb is not None:
        unseen_by_object = build_unseen(objects, seen_by_object, kb, lexicon)

    entries = []
    for obj in objects:
        seen_triples = seen_by_object.get(obj.object_id, [])
        triples = seen_triples + unseen_by_object.get(obj.object_id, [])
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

# The task of a pool worker. Workers are forked with the task as their
# initializer's argument, so what it reads (the corpus, lexicon and KB, or a
# dataset file's path and the renderer) is inherited, never pickled; each
# task carries only a chunk's bounds.
_worker_task: _Task | None = None


def _start_worker(task: _Task) -> None:
    global _worker_task
    _worker_task = task
    # What a worker inherits outlives it: frozen, it is left out of the worker's
    # full collections, which would walk (and so copy) the KB index's pages.
    gc.freeze()


def _run_worker_task(bounds: tuple[int, ...]) -> tuple[list[str], BuildDiagnostics]:
    return _worker_task(bounds)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set, where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_size(workers: int, chunks: int) -> int:
    """Processes worth starting: no more than asked, usable CPUs, or chunks."""
    return min(workers, _usable_cpus(), chunks)


def _chunk_results(
    task: _Task, bounds: list[tuple[int, ...]], workers: int
) -> Iterator[tuple[list[str], BuildDiagnostics]]:
    """task(chunk) for each chunk in bounds, in order."""
    processes = _pool_size(workers, len(bounds))
    if processes > 1:
        # Imported here: the import costs set-up time that serial runs
        # should not pay.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
            # Unlike multiprocessing.Pool, the executor raises
            # BrokenProcessPool when a worker dies instead of waiting forever.
            with ProcessPoolExecutor(processes, context, _start_worker, (task,)) as pool:
                yield from pool.map(_run_worker_task, bounds)
            return
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
    corpus: SceneCorpus,
    lexicon: Lexicon,
    path,
    kb: KbIndex | None = None,
    tau: float = DEFAULT_TAU,
    workers: int = 1,
    render: Callable[[DatasetRecord], Iterable[str]] = _dataset_line,
) -> BuildDiagnostics:
    """Build every image and write the lines `render` makes of its record to
    `path`, in corpus order; by default, the record's dataset line.

    With `workers` > 1 and the fork start method available, up to
    min(workers, usable CPUs) forked processes build and render the chunks;
    otherwise the calling process does. The bytes written never depend on
    `workers`, and the returned diagnostics are merged in corpus order. Fork
    copies only the calling thread, so call this with more than one worker
    from a process that runs no other threads. A tau outside (0, 1] raises
    `InvalidConfig` before `path` is opened.
    """
    _check_tau(tau)
    entries = list(corpus.images())
    bounds = [
        (start, min(start + _CHUNK_IMAGES, len(entries)))
        for start in range(0, len(entries), _CHUNK_IMAGES)
    ]
    task = partial(_build_chunk, entries, lexicon, kb, tau, render)
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
