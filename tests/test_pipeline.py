import os

import pytest

from vckb import (
    ExportConfig,
    Lexicon,
    Visibility,
    build_image_record,
    build_records,
    export_dataset,
    import_dataset,
    load_kb,
    load_scene_corpus,
)
import vckb.pipeline as pipeline
from vckb.cli import _build_parser, main
from vckb.pipeline import _pool_size, export_records


def write_inputs(tmp_path):
    scene = tmp_path / "scene.tsv"
    scene.write_text(
        "O\timg1\to1\tman\t0\t0\t50\t100\n"
        "O\timg1\to2\tcar\t100\t0\t80\t60\n"
        "T\timg1\tR\to1\tplay\to2\n"
        "I\timg2\t640\t480\n",  # image with no objects
        encoding="utf-8",
    )
    kb = tmp_path / "kb.tsv"
    kb.write_text(
        "man\tCapableOf\tplay car\t1.0\n"  # duplicates the seen triple
        "man\tCapableOf\tgrow up\t2.0\n",
        encoding="utf-8",
    )
    return scene, kb


def triples_of(record):
    return [
        (t.category.text, t.tail)
        for entry in record.entries
        for group in entry.groups
        for t in group.triples
    ]


def test_unseen_deduplicated_against_seen(tmp_path, lexicon):
    scene, kb = write_inputs(tmp_path)
    records, _ = build_records(load_scene_corpus(scene), lexicon, kb=load_kb(kb))
    triples = triples_of(records[0])
    # "play car" repeats the seen triple (man, play, car); "grow up" does not.
    assert ("/Unseen/Action/CapableOf", "play car") not in triples
    assert ("/Unseen/Action/CapableOf", "grow up") in triples


def test_layer_switches(tmp_path, lexicon):
    scene, kb = write_inputs(tmp_path)
    corpus = load_scene_corpus(scene)
    entry = corpus.image("img1")

    seen_only, _ = build_image_record(entry, lexicon, None, ExportConfig())
    assert all(
        group.category.visibility is Visibility.SEEN
        for e in seen_only.entries
        for group in e.groups
    )

    # build-unseen builds the full record and writes only its unseen groups.
    out = tmp_path / "unseen.tsv"
    argv = ["build-unseen", "--scene", str(scene), "--kb", str(kb), "--out", str(out)]
    assert main(argv) == 0
    unseen_only = import_dataset(out)[0]
    assert all(
        group.category.visibility is Visibility.UNSEEN
        for e in unseen_only.entries
        for group in e.groups
    )
    # Seen layer still deduplicates the unseen output even when not exported.
    assert ("/Unseen/Action/CapableOf", "play car") not in triples_of(unseen_only)


def test_empty_image_keeps_record(tmp_path, lexicon):
    scene, kb = write_inputs(tmp_path)
    corpus = load_scene_corpus(scene)
    records, _ = build_records(corpus, lexicon)
    assert [r.image_id for r in records] == ["img1", "img2"]
    assert records[1].entries == []


def test_worker_counts_agree_on_records(tmp_path, lexicon):
    scene, kb = write_inputs(tmp_path)
    corpus = load_scene_corpus(scene)
    kb_index = load_kb(kb)
    config = ExportConfig(seed=3)
    built, diag_built = build_records(corpus, lexicon, kb=kb_index, config=config)
    export_dataset(built, tmp_path / "built.tsv")
    streamed = {}
    for workers in (1, 4):
        path = tmp_path / f"streamed_w{workers}.tsv"
        diagnostics = export_records(
            corpus, lexicon, path, kb=kb_index, config=config, workers=workers
        )
        streamed[workers] = (import_dataset(path), diagnostics.as_dict())
    assert streamed[1] == streamed[4]
    # The streaming export writes exactly the in-memory build's records.
    assert streamed[4][0] == built
    assert (tmp_path / "streamed_w4.tsv").read_bytes() == (tmp_path / "built.tsv").read_bytes()
    assert streamed[4][1] == diag_built.as_dict()


def test_warm_lexicon_forks_the_cold_bytes(tmp_path, data_dir, monkeypatch):
    """Workers that inherit a warm tagger memo write what a cold build writes."""
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)  # a pool even on one CPU
    corpus = load_scene_corpus(data_dir / "fixture_scene.tsv")
    kb = load_kb(data_dir / "fixture_kb.tsv")
    warm = Lexicon.default()
    build_records(corpus, warm, kb=kb)
    export_records(corpus, warm, tmp_path / "warm.tsv", kb=kb, workers=2)
    export_records(corpus, Lexicon.default(), tmp_path / "cold.tsv", kb=kb, workers=1)
    assert (tmp_path / "warm.tsv").read_bytes() == (tmp_path / "cold.tsv").read_bytes()


@pytest.mark.parametrize("workers", [0, -3])
def test_worker_count_below_one_is_rejected(tmp_path, lexicon, workers):
    scene, _ = write_inputs(tmp_path)
    corpus = load_scene_corpus(scene)
    with pytest.raises(TypeError, match="workers"):  # only export_records takes workers
        build_records(corpus, lexicon, workers=workers)
    with pytest.raises(ValueError, match="workers"):
        export_records(corpus, lexicon, tmp_path / "out.tsv", workers=workers)
    assert not (tmp_path / "out.tsv").exists()


def test_pool_size_is_capped(monkeypatch):
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 3)
    assert _pool_size(10_000, 10_000) == 3
    assert _pool_size(10_000, 1) == 1
    assert _pool_size(1, 10_000) == 1


def test_worker_count_follows_cpu_affinity(monkeypatch):
    """A process pinned to one CPU builds serially, however many the host has."""
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _build_parser().parse_args(["export"]).workers == 1
    assert _pool_size(8, 10) == 1


def test_cli_tau_boundaries(tmp_path):
    scene, kb = write_inputs(tmp_path)
    out = tmp_path / "out.tsv"
    assert main(["build-seen", "--scene", str(scene), "--out", str(out), "--tau", "1.0"]) == 0
    assert main(["build-seen", "--scene", str(scene), "--out", str(out), "--tau", "0"]) == 1
