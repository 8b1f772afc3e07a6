"""Command-line interface.

Subcommands: ingest, build-seen, build-unseen, stats, export,
export-instructions (from a dataset file), query. `_COMMANDS` gives each one
only the flags it reads, so any other flag is a usage error. The build
commands take one parameter, `--tau`; `--config` belongs to
export-instructions and holds sampling fields only. Every value is checked
before `--out` is opened. Exit codes: 0 success (or --help), 1 input or
usage error, 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from functools import partial

from .dataset import (
    DatasetRecord,
    ObjectEntry,
    _escape,
    compute_stats,
    iter_dataset,
    query,
    record_line,
)
from .errors import VckbError
from .ingest import load_kb, load_scene_corpus
from .instructions import ExportConfig, InstructionTemplates, instruction_lines
from .lexicon import Lexicon
from .pipeline import _check_tau, _dataset_line, _usable_cpus, export_records, render_dataset
from .seen import DEFAULT_TAU
from .taxonomy import Visibility, parse_category


def _worker_count(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


# Each flag's argparse spec; `_COMMANDS` names the flags each command takes.
_FLAGS = {
    "scene": dict(help="scene corpus file"),
    "kb": dict(help="knowledge-base edge file"),
    "lexicon": dict(help="lexicon directory (default: bundled tables)"),
    "data": dict(help="previously exported dataset file"),
    "out": dict(help="output file"),
    "config": dict(help="JSON file of sampling config fields"),
    "tau": dict(type=float, default=DEFAULT_TAU,
                help="region overlap threshold, in (0, 1] (default: %(default)s)"),
    "m": dict(type=int, help="seen tails sampled per pair"),
    "k": dict(type=int, help="top unseen tails kept"),
    "j": dict(type=int, help="random extra unseen tails"),
    "seed": dict(type=int, help="sampling seed"),
    "sep": dict(help="separator token for joined tails"),
    "workers": dict(type=_worker_count, help="processes that build the images or read "
                    "the dataset records (default: the CPUs this process may run on, which "
                    "also cap it); the output is byte-identical for every count"),
    "name": dict(required=True, help="object name to look up"),
    "category": dict(required=True, help="canonical category path"),
}


def _require(args, *flags: str) -> None:
    missing = [f"--{flag}" for flag in flags if getattr(args, flag) is None]
    if missing:
        raise VckbError(f"missing required flags: {', '.join(missing)}")


def _lexicon(args) -> Lexicon:
    return Lexicon.load(args.lexicon) if args.lexicon else Lexicon.default()


def _same_file(a: str, b: str) -> bool:
    return os.path.exists(a) and os.path.exists(b) and os.path.samefile(a, b)


def _refuse_out_as_input(args, *flags: str) -> None:
    """Writing --out truncates it, so no input file the command reads may be it."""
    for flag in flags:
        path = getattr(args, flag)
        if path and args.out and _same_file(path, args.out):
            raise VckbError(f"--{flag} and --out name the same file: {args.out}")


def _cmd_ingest(args) -> int:
    _require(args, "scene")
    _refuse_out_as_input(args, "kb")  # --scene may be --out: it is normalized in place
    corpus = load_scene_corpus(args.scene)
    kb = load_kb(args.kb) if args.kb else None
    if args.out:
        corpus.save(args.out)
    summary = {
        "images": len(corpus),
        "bboxes": corpus.bbox_count,
        "unique_object_names": corpus.unique_object_names,
    }
    if kb is not None:
        summary["kb_edges"] = len(kb)
    print(json.dumps(summary))
    return 0


def _unseen_line(record: DatasetRecord) -> list[str]:
    """build-unseen's renderer: the dataset line without the seen groups."""
    unseen = Visibility.UNSEEN
    entries = [
        ObjectEntry(e.obj, [g for g in e.groups if g.category.visibility is unseen])
        for e in record.entries
    ]
    return [record_line(DatasetRecord(record.image_id, entries))]


def _cmd_build(args, render, with_kb: bool) -> int:
    """build-seen, build-unseen and export: build every image of --scene and
    write the lines `render` makes of its record, in corpus order."""
    inputs = ("scene", "kb") if with_kb else ("scene",)
    _require(args, *inputs, "out")
    _check_tau(args.tau)
    _refuse_out_as_input(args, *inputs)
    lexicon = _lexicon(args)
    corpus = load_scene_corpus(args.scene)
    kb = load_kb(args.kb) if with_kb else None
    diagnostics = export_records(
        corpus, lexicon, args.out, kb, args.tau, workers=args.workers, render=render
    )
    print(json.dumps({"diagnostics": diagnostics.as_dict()}), file=sys.stderr)
    return 0


def _cmd_instructions(args) -> int:
    """export-instructions: write the instruction samples of each record of --data."""
    _require(args, "data", "out")
    _refuse_out_as_input(args, "data", "config")
    config = ExportConfig.load(
        args.config, m=args.m, k=args.k, j=args.j, seed=args.seed, sep_token=args.sep
    )
    if config.template_path and _same_file(config.template_path, args.out):
        raise VckbError(f"the config's template_path and --out name the same file: {args.out}")
    templates = InstructionTemplates.load(config.template_path)
    render = partial(instruction_lines, config=config, templates=templates)
    render_dataset(args.data, args.out, render, workers=args.workers)
    return 0


def _cmd_stats(args) -> int:
    _require(args, "data")
    print(compute_stats(iter_dataset(args.data)).to_json())
    return 0


def _cmd_query(args) -> int:
    _require(args, "data")
    lexicon = _lexicon(args)
    category = parse_category(args.category)
    for triple in query(iter_dataset(args.data), args.name, category, lexicon):
        head = triple.head
        print(
            "\t".join(
                (
                    head.image_id,
                    head.object_id,
                    _escape(head.name),
                    triple.category.text,
                    _escape(triple.tail),
                    repr(triple.score),
                )
            )
        )
    return 0


# Each command's help text, the flags it reads and the function that runs it.
_BUILD = ("scene", "lexicon", "out", "tau", "workers")
_COMMANDS = {
    "ingest": ("validate a scene corpus (and optional KB), report counts",
               ("scene", "kb", "out"), _cmd_ingest),
    "build-seen": ("build and export the seen layer only", _BUILD,
                   partial(_cmd_build, render=_dataset_line, with_kb=False)),
    "build-unseen": ("build and export the unseen layer only", ("kb", *_BUILD),
                     partial(_cmd_build, render=_unseen_line, with_kb=True)),
    "export": ("build and export the full dataset", ("kb", *_BUILD),
               partial(_cmd_build, render=_dataset_line, with_kb=True)),
    "stats": ("report statistics of an exported dataset", ("data",), _cmd_stats),
    "export-instructions": ("generate instruction-tuning samples from a dataset file",
                            ("data", "out", "config", "m", "k", "j", "seed", "sep",
                             "workers"), _cmd_instructions),
    "query": ("look up triples by object name and category",
              ("data", "lexicon", "name", "category"), _cmd_query),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vckb",
        description="Build, inspect, and export a grounded visual-commonsense dataset.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (description, flags, run) in _COMMANDS.items():
        # No prefix matching: ingest must refuse --k, not read it as --kb.
        command = sub.add_parser(name, help=description, allow_abbrev=False)
        command.set_defaults(run=run)
        for flag in (f for f in _FLAGS if f in flags):  # one order in every --help
            command.add_argument(f"--{flag}", **_FLAGS[flag])
        if "workers" in flags:
            command.set_defaults(workers=_usable_cpus())  # the CPUs usable now, not at import
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's usage-error code 2 means internal error here
        return 0 if exc.code == 0 else 1
    try:
        return args.run(args)
    except (VckbError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
