"""Run one vckb CLI command in a fresh process and report what it cost.

Usage: python3 child.py SRC_DIR REPORT_JSON TRACE_DIR|- -- CLI_ARGS...

Imports ``vckb`` from SRC_DIR, calls ``vckb.cli.main(CLI_ARGS)`` and writes
REPORT_JSON with the exit code, the wall time from before the import to
the return of ``main``, the set-up time (package import plus the lexicon,
scene, KB and template loaders) and the process's peak resident set size.
With a TRACE_DIR the layer functions are traced; the per-layer figures go
into the report and every span into TRACE_DIR/spans.tsv.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time
from pathlib import Path


def _timed(fn, totals: dict, depth: list):
    """Add fn's duration to totals["setup_s"], counting nested loaders once."""

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        depth[0] += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            depth[0] -= 1
            if depth[0] == 0:
                totals["setup_s"] += time.perf_counter() - start

    return timed


def _time_loaders(totals: dict) -> None:
    """Time the loaders in every vckb namespace that can call them."""
    from vckb.instructions import InstructionTemplates
    from vckb.lexicon import Lexicon

    depth = [0]
    for module_name, module in list(sys.modules.items()):
        if module is None or module_name.split(".")[0] != "vckb":
            continue
        for name in ("load_scene_corpus", "load_kb"):
            if name in vars(module):
                setattr(module, name, _timed(getattr(module, name), totals, depth))
    for cls, method in ((Lexicon, "load"), (Lexicon, "default"), (InstructionTemplates, "load")):
        fn = vars(cls)[method].__func__
        setattr(cls, method, classmethod(_timed(fn, totals, depth)))


def main(argv: list[str]) -> int:
    src, report_path, trace_dir, separator, *cli_args = argv
    if separator != "--":
        print("usage: child.py SRC_DIR REPORT_JSON TRACE_DIR|- -- CLI_ARGS...", file=sys.stderr)
        return 2
    start = time.perf_counter()
    sys.path.insert(0, src)
    import vckb.cli

    totals = {"setup_s": time.perf_counter() - start}
    tracer = None
    if trace_dir == "-":
        _time_loaders(totals)
    else:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import OBSERVERS, Tracer

        tracer = Tracer()
        tracer.install(OBSERVERS)
    code = vckb.cli.main(cli_args)
    wall = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    report = {
        "code": code,
        "wall_s": wall,
        "setup_s": totals["setup_s"],
        "peak_rss_mb": usage.ru_maxrss / 1024,
    }
    if tracer is not None:
        from tracer import summarize

        report["span_count"] = tracer.write_spans(os.path.join(trace_dir, "spans.tsv"))
        report["layers"] = summarize(tracer)
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
