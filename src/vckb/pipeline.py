"""End-to-end dataset construction over a loaded corpus.

Images are built one after another, in corpus order, in the calling thread;
each record depends only on its image, the lexicon, the KB and the export
configuration.
"""

from __future__ import annotations

from .dataset import DatasetRecord, group_triples
from .ingest import ImageEntry, KbIndex, SceneCorpus
from .instructions import ExportConfig
from .lexicon import Lexicon
from .seen import BuildDiagnostics, CommonsenseTriple, build_seen
from .unseen import build_unseen


def build_image_record(
    entry: ImageEntry,
    lexicon: Lexicon,
    kb: KbIndex | None,
    config: ExportConfig,
    include_seen: bool = True,
) -> tuple[DatasetRecord, BuildDiagnostics]:
    """Build one image's record; the unseen layer is built exactly when `kb`
    is given. Seen triples are always computed; they are needed to
    deduplicate the unseen layer even when not exported."""
    diagnostics = BuildDiagnostics()
    objects = entry.objects
    seen = build_seen(
        objects, entry.triples, entry.regions, lexicon, config.tau, diagnostics
    )
    seen_by_object: dict[str, list[CommonsenseTriple]] = {}
    for triple in seen:
        seen_by_object.setdefault(triple.head.object_id, []).append(triple)

    unseen_by_object: dict[str, list[CommonsenseTriple]] = {}
    if kb is not None:
        unseen_by_object = build_unseen(
            objects, seen_by_object, kb, lexicon, dedup_seen=config.dedup_unseen
        )

    entries = []
    for obj in objects:
        triples = []
        if include_seen:
            triples.extend(seen_by_object.get(obj.object_id, []))
        triples.extend(unseen_by_object.get(obj.object_id, []))
        entries.append(group_triples(obj, triples))
    return DatasetRecord(image_id=entry.image_id, entries=entries), diagnostics


def build_records(
    corpus: SceneCorpus,
    lexicon: Lexicon,
    kb: KbIndex | None = None,
    config: ExportConfig | None = None,
    workers: int = 1,
    include_seen: bool = True,
) -> tuple[list[DatasetRecord], BuildDiagnostics]:
    """Build records for every image, in corpus order, in the calling thread.

    `workers` is accepted for callers that pass a worker count; it selects
    nothing, and the output never depends on it.
    """
    if config is None:
        config = ExportConfig()
    diagnostics = BuildDiagnostics()
    records = []
    for entry in corpus.images():
        record, image_diagnostics = build_image_record(
            entry, lexicon, kb, config, include_seen
        )
        records.append(record)
        diagnostics.merge(image_diagnostics)
    return records, diagnostics
