"""Command-line interface.

Subcommands: ingest, build-seen, build-unseen, stats, export,
export-instructions (from a dataset file), query. `_COMMANDS` gives each one
only the flags it reads, so any other flag is a usage error, and each value
has one flag. The build commands take one parameter, `--tau`;
export-instructions takes the sampling values `--m --k --j --seed --sep` and
the template file `--templates`. Every value is checked before `--out` is
opened. Exit codes: 0 success (or --help, or a reader that closed stdout
early), 1 input or usage error, 2 internal invariant violation.
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
from .ingest import load_kb, load_scene_corpus, save_scene_corpus
from .instructions import (
    DEFAULT_SEP,
    ExportConfig,
    InstructionTemplates,
    _bundled_templates,
    instruction_lines,
)
from .lexicon import Lexicon, _bundled_tables, _table_files
from .pipeline import _dataset_line, _usable_cpus, export_records, render_dataset
from .seen import DEFAULT_TAU, _check_tau
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
    "templates": dict(help="instruction template file (default: the bundled one)"),
    "tau": dict(type=float, default=DEFAULT_TAU,
                help="region overlap threshold, in (0, 1] (default: %(default)s)"),
    "m": dict(type=int, default=ExportConfig.m,
              help="seen tails sampled per pair (default: %(default)s)"),
    "k": dict(type=int, default=ExportConfig.k,
              help="top unseen tails kept (default: %(default)s)"),
    "j": dict(type=int, default=ExportConfig.j,
              help="random extra unseen tails (default: %(default)s)"),
    "seed": dict(type=int, default=ExportConfig.seed,
                 help="sampling seed (default: %(default)s)"),
    "sep": dict(default=DEFAULT_SEP,
                help="separator token for joined tails (default: %(default)s)"),
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
    """Writing --out truncates it, so no file the command reads may be it: the
    --scene, --kb or --data file, the template file or one of the six lexicon
    tables, the bundled ones included when --templates or --lexicon is left
    out."""
    if not args.out:
        return
    for flag in flags:
        given = getattr(args, flag)
        if flag == "lexicon":
            paths = _table_files(given or _bundled_tables()).values()
        elif flag == "templates":
            paths = [given or _bundled_templates()]
        else:
            paths = [given] if given else []
        if any(_same_file(path, args.out) for path in paths):
            raise VckbError(f"--{flag} and --out name the same file: {args.out}")


def _cmd_ingest(args) -> int:
    """Load and check --scene (and --kb), write --scene's normalized form to
    --out if given, and print the counts as one JSON object."""
    _require(args, "scene")
    _refuse_out_as_input(args, "kb")  # --scene may be --out: it is normalized in place
    images = load_scene_corpus(args.scene)
    kb = load_kb(args.kb) if args.kb else None
    if args.out:
        save_scene_corpus(images, args.out)
    summary = {
        "images": len(images),
        "bboxes": sum(len(entry.objects) for entry in images),
        "unique_object_names": len({obj.name for entry in images for obj in entry.objects}),
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
    _refuse_out_as_input(args, *inputs, "lexicon")
    lexicon = _lexicon(args)
    images = load_scene_corpus(args.scene)
    kb = load_kb(args.kb) if with_kb else None
    diagnostics = export_records(
        images, lexicon, args.out, kb, args.tau, workers=args.workers, render=render
    )
    print(json.dumps({"diagnostics": diagnostics.as_dict()}), file=sys.stderr)
    return 0


def _cmd_instructions(args) -> int:
    """export-instructions: write the instruction samples of each record of --data."""
    _require(args, "data", "out")
    _refuse_out_as_input(args, "data", "templates")
    config = ExportConfig(m=args.m, k=args.k, j=args.j, seed=args.seed, sep_token=args.sep)
    templates = InstructionTemplates.load(args.templates)
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
    for image_id, obj, triple in query(iter_dataset(args.data), args.name, category, lexicon):
        print(
            "\t".join(
                (
                    image_id,
                    obj.object_id,
                    _escape(obj.name),
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
                            ("data", "out", "templates", "m", "k", "j", "seed", "sep",
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
        status = args.run(args)
        sys.stdout.flush()  # a closed stdout shows here, not at interpreter exit
        return status
    except BrokenPipeError:
        # The reader of stdout stopped early, as `| head` does: that is no
        # error. Output still buffered goes to devnull, so exit prints nothing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (VckbError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
