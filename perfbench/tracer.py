"""Span tracer for the vckb benchmark's traced run.

Wraps the public functions of the package's layer modules in every
``vckb`` namespace where they are looked up, so ``vckb.seen.tokenize_and_tag``
and ``vckb.unseen.tokenize_and_tag`` record separate spans of the same
function. Spans stay in memory, one buffer per thread, and are written out
once the traced command has finished. Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
import types
from array import array

# Modules whose public functions are layers; their short names prefix spans.
LAYER_MODULES = (
    "ingest", "lexicon", "phrase", "geometry", "seen", "unseen",
    "pipeline", "dataset", "instructions",
)
# Class methods that do layer work (set-up loaders).
LAYER_METHODS = (("lexicon", "Lexicon", "load"), ("lexicon", "Lexicon", "default"),
                 ("instructions", "InstructionTemplates", "load"))


class _Buffer:
    """Spans of one thread: parallel arrays plus the open-span stack."""

    def __init__(self):
        self.site = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []


class Tracer:
    def __init__(self):
        self.sites: list[tuple[str, str]] = []  # (span name, namespace)
        self.counters: dict[str, float] = {}
        self.distinct: dict[str, set] = {}
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def _buffer(self) -> _Buffer:
        buffer = getattr(self._local, "buffer", None)
        if buffer is None:
            buffer = _Buffer()
            self._local.buffer = buffer
            with self._lock:
                self._buffers.append(buffer)
        return buffer

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def add_distinct(self, name: str, values) -> None:
        with self._lock:
            self.distinct.setdefault(name, set()).update(values)

    def wrap(self, fn, span: str, namespace: str, observe=None):
        site = len(self.sites)
        self.sites.append((span, namespace))
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buffer = self._buffer()
            stack = buffer.stack
            index = len(buffer.site)
            buffer.site.append(site)
            buffer.parent.append(stack[-1] if stack else -1)
            buffer.end.append(0)
            stack.append(index)
            buffer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                buffer.end[index] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        traced.__wrapped_by_perfbench__ = True
        return traced

    # -- installation ------------------------------------------------------

    def install(self, observers: dict | None = None) -> None:
        """Wrap every public layer function in every loaded vckb namespace."""
        observers = observers or {}
        homes = {f"vckb.{name}": name for name in LAYER_MODULES}
        for module_name, module in sorted(sys.modules.items()):
            if module is None or not (module_name == "vckb" or module_name.startswith("vckb.")):
                continue
            namespace = module_name.rpartition(".")[2]
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                home = homes.get(value.__module__)
                if home is None or getattr(value, "__wrapped_by_perfbench__", False):
                    continue
                span = f"{home}.{attr}"
                setattr(module, attr, self.wrap(value, span, namespace, observers.get(span)))
        for home, cls_name, method in LAYER_METHODS:
            cls = getattr(sys.modules[f"vckb.{home}"], cls_name)
            fn = vars(cls)[method].__func__
            span = f"{home}.{cls_name}.{method}"
            setattr(cls, method, classmethod(self.wrap(fn, span, home, observers.get(span))))

    # -- reporting ---------------------------------------------------------

    def write_spans(self, path) -> int:
        """Write every span as TSV: thread, index, parent, name, namespace, start_ns, end_ns."""
        total = 0
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("thread\tindex\tparent\tname\tnamespace\tstart_ns\tend_ns\n")
            for thread, buffer in enumerate(self._buffers):
                for i in range(len(buffer.site)):
                    name, namespace = self.sites[buffer.site[i]]
                    handle.write(
                        f"{thread}\t{i}\t{buffer.parent[i]}\t{name}\t{namespace}"
                        f"\t{buffer.start[i]}\t{buffer.end[i]}\n"
                    )
                total += len(buffer.site)
        return total

    def aggregate(self) -> dict:
        """Per span name and per (name, namespace): calls, inclusive and self seconds."""
        stats: dict[str, dict] = {}
        durations: dict[str, list[float]] = {}

        def add(key, duration, self_time):
            entry = stats.setdefault(key, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += duration
            entry["self_s"] += self_time

        for buffer in self._buffers:
            n = len(buffer.site)
            child_time = [0] * n
            for i in range(n):
                parent = buffer.parent[i]
                if parent >= 0:
                    child_time[parent] += buffer.end[i] - buffer.start[i]
            for i in range(n):
                name, namespace = self.sites[buffer.site[i]]
                duration = (buffer.end[i] - buffer.start[i]) / 1e9
                self_time = duration - child_time[i] / 1e9
                add(name, duration, self_time)
                add(f"{name}.from_{namespace}", duration, self_time)
                durations.setdefault(name, []).append(duration)
        return {"spans": stats, "durations": durations}


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile (pct in (0, 100])."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def tail_percentile(count: int) -> float | None:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    best = None
    for pct in (50, 75, 90, 95, 99, 99.9):
        if count * (100 - pct) / 100 >= 10:
            best = pct
    return best


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# Counters taken at layer boundaries, from the arguments and results the
# layer already sees. Observers call no wrapped function.

def _observe_sort(tracer, args, kwargs, result):
    triples = args[0] if args else kwargs["triples"]
    tracer.count("unseen.sorted_tails", len(triples))
    tracer.add_distinct("unseen.distinct_tails", (t.tail for t in triples))


def _observe_parse(tracer, args, kwargs, result):
    tracer.count("phrase.parse_ok", result is not None)


def _observe_localize(tracer, args, kwargs, result):
    tracer.count("seen.grounded", hasattr(result, "object_id"))


def _observe_dedup(tracer, args, kwargs, result):
    unseen = args[0] if args else kwargs["unseen"]
    tracer.count("unseen.dedup_in", len(unseen))
    tracer.count("unseen.dedup_kept", len(result))


def _observe_load_kb(tracer, args, kwargs, result):
    tracer.count("ingest.kb_edges", len(result))


def _observe_export(tracer, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.count("dataset.bytes_written", _file_size(path))


def _observe_import(tracer, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    tracer.count("dataset.bytes_read", _file_size(path))


OBSERVERS = {
    "unseen.object_aware_sort": _observe_sort,
    "phrase.parse_region_phrase": _observe_parse,
    "seen.localize": _observe_localize,
    "unseen.dedup_against_seen": _observe_dedup,
    "ingest.load_kb": _observe_load_kb,
    "dataset.export_dataset": _observe_export,
    "dataset.import_dataset": _observe_import,
}


def summarize(tracer: Tracer) -> dict:
    """The traced run's per-layer figures, keyed by metric name."""
    agg = tracer.aggregate()
    spans = agg["spans"]
    counters = tracer.counters
    out: dict[str, float] = {}
    for key, entry in spans.items():
        out[f"{key}.calls"] = entry["calls"]
        out[f"{key}.s"] = entry["s"]
        out[f"{key}.self_s"] = entry["self_s"]
    for key in ("ingest.kb_edges", "dataset.bytes_written", "dataset.bytes_read"):
        out[key] = counters.get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    distinct = len(tracer.distinct.get("unseen.distinct_tails", ()))
    out["unseen.tail_repeat_ratio"] = ratio(counters.get("unseen.sorted_tails", 0), distinct)
    out["unseen.dedup_kept_ratio"] = ratio(
        counters.get("unseen.dedup_kept", 0), counters.get("unseen.dedup_in", 0)
    )
    out["phrase.parse_yield"] = ratio(
        counters.get("phrase.parse_ok", 0), spans.get("phrase.parse_region_phrase", {}).get("calls", 0)
    )
    out["seen.ground_yield"] = ratio(
        counters.get("seen.grounded", 0), spans.get("seen.localize", {}).get("calls", 0)
    )
    records = agg["durations"].get("pipeline.build_image_record", [])
    pct = tail_percentile(len(records))
    out["pipeline.build_image_record.p50_ms"] = percentile(records, 50) * 1e3 if records else 0.0
    out["pipeline.build_image_record.tail_pct"] = pct or 0.0
    out["pipeline.build_image_record.tail_ms"] = (
        percentile(records, pct) * 1e3 if records and pct else 0.0
    )
    return out
