import os
import subprocess
import sys

import pytest

from vckb import (
    BuildDiagnostics,
    Lexicon,
    Visibility,
    build_image_record,
    import_dataset,
    iter_dataset,
    load_kb,
    load_scene_corpus,
)
from vckb.errors import InvalidConfig
import vckb.pipeline as pipeline
from vckb.cli import _build_parser, main
from vckb.pipeline import _pool_size, export_records

from conftest import write_dataset


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
    entry = load_scene_corpus(scene).image("img1")
    record, _ = build_image_record(entry, lexicon, load_kb(kb))
    triples = triples_of(record)
    # "play car" repeats the seen triple (man, play, car); "grow up" does not.
    assert ("/Unseen/Action/CapableOf", "play car") not in triples
    assert ("/Unseen/Action/CapableOf", "grow up") in triples


def test_layer_switches(tmp_path, lexicon):
    scene, kb = write_inputs(tmp_path)
    corpus = load_scene_corpus(scene)
    entry = corpus.image("img1")

    seen_only, _ = build_image_record(entry, lexicon, None)
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
    export_records(corpus, lexicon, tmp_path / "out.tsv")
    records = list(iter_dataset(tmp_path / "out.tsv"))
    assert [r.image_id for r in records] == ["img1", "img2"]
    assert records[1].entries == []


def test_worker_counts_agree_on_records(tmp_path, lexicon):
    scene, kb = write_inputs(tmp_path)
    corpus = load_scene_corpus(scene)
    kb_index = load_kb(kb)
    built, diag_built = [], BuildDiagnostics()
    for entry in corpus.images():
        record, diagnostics = build_image_record(entry, lexicon, kb_index)
        built.append(record)
        diag_built.merge(diagnostics)
    write_dataset(built, tmp_path / "built.tsv")
    streamed = {}
    for workers in (1, 4):
        path = tmp_path / f"streamed_w{workers}.tsv"
        diagnostics = export_records(
            corpus, lexicon, path, kb=kb_index, workers=workers
        )
        streamed[workers] = (import_dataset(path), diagnostics.as_dict())
    assert streamed[1] == streamed[4]
    # The streaming export writes exactly the per-image build's records.
    assert streamed[4][0] == built
    assert (tmp_path / "streamed_w4.tsv").read_bytes() == (tmp_path / "built.tsv").read_bytes()
    assert streamed[4][1] == diag_built.as_dict()


def test_warm_lexicon_forks_the_cold_bytes(tmp_path, data_dir, monkeypatch):
    """Workers that inherit a warm tagger memo write what a cold build writes."""
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)  # a pool even on one CPU
    corpus = load_scene_corpus(data_dir / "fixture_scene.tsv")
    kb = load_kb(data_dir / "fixture_kb.tsv")
    warm = Lexicon.default()
    for entry in corpus.images():
        build_image_record(entry, warm, kb)
    export_records(corpus, warm, tmp_path / "warm.tsv", kb=kb, workers=2)
    export_records(corpus, Lexicon.default(), tmp_path / "cold.tsv", kb=kb, workers=1)
    assert (tmp_path / "warm.tsv").read_bytes() == (tmp_path / "cold.tsv").read_bytes()


@pytest.mark.parametrize("workers", [0, -3])
def test_worker_count_below_one_is_rejected(tmp_path, lexicon, workers):
    scene, _ = write_inputs(tmp_path)
    corpus = load_scene_corpus(scene)
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


@pytest.mark.parametrize("tau", [0, -0.5, 1.5, float("nan"), float("inf"), True, "0.5"])
def test_invalid_tau_is_refused_before_out_is_opened(tmp_path, lexicon, tau):
    scene, kb = write_inputs(tmp_path)
    out = tmp_path / "out.tsv"
    with pytest.raises(InvalidConfig, match=r"tau must be a number in \(0, 1\]"):
        export_records(load_scene_corpus(scene), lexicon, out, load_kb(kb), tau)
    assert not out.exists()


@pytest.mark.parametrize("tau", ["0", "nan", "inf", "1.5"])
@pytest.mark.parametrize("command", ["build-seen", "build-unseen", "export"])
def test_cli_invalid_tau_writes_nothing(tmp_path, capsys, command, tau):
    scene, kb = write_inputs(tmp_path)
    out = tmp_path / "out.tsv"
    argv = [command, "--scene", str(scene), "--out", str(out), "--tau", tau]
    if command != "build-seen":
        argv += ["--kb", str(kb)]
    assert main(argv) == 1
    assert "tau must be a number in (0, 1]" in capsys.readouterr().err
    assert not out.exists()


def test_pipeline_does_not_load_the_sampler():
    # The build takes tau alone; instruction sampling is a later step over a
    # dataset file. A bare package module stands in for vckb/__init__.py,
    # which re-exports the sampler, so only pipeline's own imports load.
    code = (
        "import sys, types; "
        "package = types.ModuleType('vckb'); package.__path__ = [sys.argv[1]]; "
        "sys.modules['vckb'] = package; "
        "import vckb.pipeline; "
        "print(sorted(m for m in sys.modules if m.startswith('vckb.')))"
    )
    package = os.path.join(os.path.dirname(__file__), os.pardir, "src", "vckb")
    result = subprocess.run(
        [sys.executable, "-c", code, package], capture_output=True, text=True, check=True
    )
    loaded = result.stdout.strip()
    assert "'vckb.pipeline'" in loaded
    assert "vckb.instructions" not in loaded
