import gc
import os
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vckb import (
    BBox,
    BuildDiagnostics,
    GroundedObject,
    Lexicon,
    Region,
    SceneTriple,
    TripleKind,
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
from vckb.dataset import _check_triple, _read_record, record_line
from vckb.ingest import ImageEntry
from vckb.pipeline import _pool_size, export_records

from conftest import assert_no_child_processes, make_kb, write_dataset


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
    entry = load_scene_corpus(scene)[0]
    record, _ = build_image_record(entry, lexicon, load_kb(kb))
    triples = triples_of(record)
    # "play car" repeats the seen triple (man, play, car); "grow up" does not.
    assert ("/Unseen/Action/CapableOf", "play car") not in triples
    assert ("/Unseen/Action/CapableOf", "grow up") in triples


def test_layer_switches(tmp_path, lexicon):
    scene, kb = write_inputs(tmp_path)
    entry = load_scene_corpus(scene)[0]

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
    images = load_scene_corpus(scene)
    export_records(images, lexicon, tmp_path / "out.tsv")
    records = list(iter_dataset(tmp_path / "out.tsv"))
    assert [r.image_id for r in records] == ["img1", "img2"]
    assert records[1].entries == []


def test_worker_counts_agree_on_records(tmp_path, lexicon):
    scene, kb = write_inputs(tmp_path)
    images = load_scene_corpus(scene)
    kb_index = load_kb(kb)
    built, diag_built = [], BuildDiagnostics()
    for entry in images:
        record, diagnostics = build_image_record(entry, lexicon, kb_index)
        built.append(record)
        diag_built.merge(diagnostics)
    write_dataset(built, tmp_path / "built.tsv")
    streamed = {}
    for workers in (1, 4):
        path = tmp_path / f"streamed_w{workers}.tsv"
        diagnostics = export_records(
            images, lexicon, path, kb=kb_index, workers=workers
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
    images = load_scene_corpus(data_dir / "fixture_scene.tsv")
    kb = load_kb(data_dir / "fixture_kb.tsv")
    warm = Lexicon.default()
    for entry in images:
        build_image_record(entry, warm, kb)
    export_records(images, warm, tmp_path / "warm.tsv", kb=kb, workers=2)
    export_records(images, Lexicon.default(), tmp_path / "cold.tsv", kb=kb, workers=1)
    assert (tmp_path / "warm.tsv").read_bytes() == (tmp_path / "cold.tsv").read_bytes()


# The write end of the pipe each forked child reports its first collection
# on, while a test listens; None otherwise.
_first_collection_pipe = None
_fork_hook_registered = False


def _listen_for_first_collection():
    """Runs in each forked child after the at-fork hooks registered before it.
    The child's first container allocation from here on collects: the young
    generation's threshold drops to 1 until that collection has reported the
    freeze count it ran at."""
    if _first_collection_pipe is None:
        return
    thresholds = gc.get_threshold()

    def report(phase, info):
        if phase == "start":
            gc.callbacks.remove(report)
            gc.set_threshold(*thresholds)
            os.write(_first_collection_pipe, b"%d\n" % gc.get_freeze_count())

    gc.callbacks.append(report)
    gc.set_threshold(1, *thresholds[1:])


def test_workers_freeze_what_they_inherit_before_they_allocate(tmp_path, data_dir, monkeypatch):
    """A worker's first collection runs once it has frozen the heap it
    inherited, so no collection it runs walks (and so copies) its parent's
    objects: from fork on, its first container allocation would collect."""
    global _first_collection_pipe, _fork_hook_registered
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    images = load_scene_corpus(data_dir / "fixture_scene.tsv")
    kb = load_kb(data_dir / "fixture_kb.tsv")
    if not _fork_hook_registered:
        os.register_at_fork(after_in_child=_listen_for_first_collection)
        _fork_hook_registered = True
    read_end, _first_collection_pipe = os.pipe()
    try:
        export_records(images, Lexicon.default(), tmp_path / "out.tsv", kb=kb, workers=2)
    finally:
        os.close(_first_collection_pipe)
        _first_collection_pipe = None
    with os.fdopen(read_end, "rb") as reports:
        freeze_counts = [int(line) for line in reports]
    assert len(freeze_counts) == 2  # one first collection per worker
    assert all(count > 0 for count in freeze_counts), freeze_counts


@pytest.mark.parametrize("workers", [0, -3])
def test_worker_count_below_one_is_rejected(tmp_path, lexicon, workers):
    scene, _ = write_inputs(tmp_path)
    images = load_scene_corpus(scene)
    with pytest.raises(ValueError, match="workers"):
        export_records(images, lexicon, tmp_path / "out.tsv", workers=workers)
    assert not (tmp_path / "out.tsv").exists()


def test_pool_size_is_capped(monkeypatch):
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 3)
    assert _pool_size(10_000, 10_000) == 3
    assert _pool_size(10_000, 1) == 1
    assert _pool_size(1, 10_000) == 1


def _logging_task(log, slow_chunk=None, seconds=0.0):
    """A chunk task of `(index,)` bounds that appends its pid and index to
    log as it starts, and sleeps `seconds` in chunk `slow_chunk`."""

    def task(bounds):
        (index,) = bounds
        with open(log, "a", encoding="ascii") as handle:
            handle.write(f"{os.getpid()} {index}\n")
        if index == slow_chunk:
            time.sleep(seconds)
        return [str(index)], BuildDiagnostics()

    return task


def _started(log) -> list[tuple[int, int]]:
    text = log.read_text(encoding="ascii") if log.exists() else ""
    return [tuple(map(int, line.split())) for line in text.splitlines()]


def test_chunks_are_handed_out_on_demand_within_the_window(tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    log = tmp_path / "started"
    results = pipeline._chunk_results(_logging_task(log, 0, 0.5), [(i,) for i in range(40)], 2)
    assert next(results)[0] == ["0"]
    indices = {index for _, index in _started(log)}
    # While chunk 0 slept, the other worker took every chunk the window allows,
    # and none past it: the parent held at most the window's finished chunks.
    window = 2 * pipeline._WINDOW_PER_WORKER
    assert set(range(2, window)) <= indices <= set(range(window))
    results.close()
    assert_no_child_processes()


def test_write_to_a_dead_worker_is_not_an_os_error(tmp_path, monkeypatch):
    """A dead worker found when the parent hands it its next chunk is
    RuntimeError (exit 2), never BrokenPipeError, which the CLI would report
    as an input error."""
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    log = tmp_path / "started"
    task = _logging_task(log, 1, 60)  # chunk 1 holds its worker until it is killed
    results = pipeline._chunk_results(task, [(i,) for i in range(40)], 2)
    assert next(results)[0] == ["0"]
    deadline = time.monotonic() + 30
    while not {0, 1, 2} <= {index for _, index in _started(log)}:
        assert time.monotonic() < deadline
        time.sleep(0.01)
    for pid in {pid for pid, _ in _started(log)}:
        os.kill(pid, signal.SIGKILL)
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # dead, left for the pool to reap
    with pytest.raises(RuntimeError, match="killed by signal 9"):
        next(results)
    assert_no_child_processes()


def test_a_worker_starts_before_its_sibling_is_forked(tmp_path, monkeypatch):
    """Each worker is handed its first chunks as soon as it is forked, so
    worker 0 starts one while the parent has yet to fork worker 1."""
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    log = tmp_path / "started"
    fork_worker = pipeline._fork_worker
    came = []

    def fork_once_worker_0_started(task, bounds, workers):
        if workers:
            deadline = time.monotonic() + 10
            while not _started(log) and time.monotonic() < deadline:
                time.sleep(0.01)
            came.append(bool(_started(log)))
        return fork_worker(task, bounds, workers)

    monkeypatch.setattr(pipeline, "_fork_worker", fork_once_worker_0_started)
    results = list(pipeline._chunk_results(_logging_task(log), [(i,) for i in range(8)], 2))
    assert [lines for lines, _ in results] == [[str(i)] for i in range(8)]
    assert came == [True]
    assert_no_child_processes()


def test_a_worker_that_exits_before_its_first_chunk_is_reported(tmp_path, monkeypatch):
    """Whether its first index finds the pipe closed or its results pipe
    closes later, a worker gone before it read a chunk raises RuntimeError."""
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(pipeline, "_serve_chunks", lambda *args: os._exit(3))
    task = _logging_task(tmp_path / "started")
    with pytest.raises(RuntimeError, match="exit code 3"):
        list(pipeline._chunk_results(task, [(i,) for i in range(8)], 2))
    assert_no_child_processes()


def _unpicklable_error(bounds):
    raise ValueError(lambda: None)


def test_an_exception_that_does_not_pickle_comes_back_as_its_repr(monkeypatch):
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    with pytest.raises(RuntimeError, match="ValueError") as raised:
        list(pipeline._chunk_results(_unpicklable_error, [(0,), (1,)], 2))
    assert "in a worker process" in str(raised.value.__cause__)
    assert_no_child_processes()


def test_without_fork_the_caller_does_the_work(tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    monkeypatch.delattr(os, "fork")
    log = tmp_path / "started"
    results = list(pipeline._chunk_results(_logging_task(log), [(i,) for i in range(4)], 2))
    assert [lines for lines, _ in results] == [["0"], ["1"], ["2"], ["3"]]
    assert _started(log) == [(os.getpid(), i) for i in range(4)]


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
    images, kb = load_scene_corpus(scene), load_kb(kb)
    with pytest.raises(InvalidConfig, match=r"tau must be a number in \(0, 1\]"):
        export_records(images, lexicon, out, kb, tau)
    assert not out.exists()
    # One image's build follows the same rule.
    with pytest.raises(InvalidConfig, match=r"tau must be a number in \(0, 1\]"):
        build_image_record(images[0], lexicon, kb, tau)


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


# Generated images for the builders' triples. Object names include modified,
# possessive and multiword ones; a small KB gives some of them unseen edges,
# one of which repeats a seen tail. Region phrases join lexicon words, the
# image's object names and stray tokens.
_NAMES = ("man", "men", "car", "yellow car", "man's shirt", "traffic light", "dog")
_KB = make_kb(
    [
        ("man", "CapableOf", "grow up", 1.0),
        ("man", "ReceivesAction", "hit by a car", 2.0),
        ("car", "UsedFor", "drive to work", 2.0),
        ("car", "CreatedBy", "factory", 0.0),
        ("car", "HasProperty", "red", 1.5),
        ("yellow car", "AtLocation", "street", 0.5),
        ("dog", "CapableOf", "bark", 3.0),
        ("dog", "IsA", "animal", 1.0),
    ]
)
_LEXICON = Lexicon.default()
_STRAY = st.sampled_from(["!!", "'s", "x9", "-", "_", "\u00e9t\u00e9", "is"])
_ADJECTIVE = st.sampled_from(sorted(_LEXICON.adjectives))
_PREPOSITION = st.sampled_from(sorted(_LEXICON.prepositions))
_WORD = st.one_of(
    st.sampled_from(sorted(_LEXICON.determiners | _LEXICON.known_nouns)),
    st.sampled_from(sorted(_LEXICON.irregular_participles)),
    _ADJECTIVE,
    _PREPOSITION,
    _STRAY,
)
_BOXES = st.builds(
    BBox, st.integers(0, 30), st.integers(0, 30), st.integers(1, 40), st.integers(1, 40)
)
# A region covers the whole image or a random part of it.
_REGION_BOXES = st.just(BBox(0, 0, 80, 80)) | st.builds(
    BBox, st.integers(0, 10), st.integers(0, 10), st.integers(10, 80), st.integers(10, 80)
)


def _phrases(name):
    """Free word lists, and the phrase shapes the parser reads, over names
    drawn by `name`, lexicon words and stray tokens."""
    verb = st.sampled_from(["riding", "holding", "parked", "eating"]) | st.sampled_from(
        sorted(_LEXICON.irregular_participles)
    )
    return st.one_of(
        st.lists(name | _WORD, min_size=1, max_size=6).map(" ".join),
        st.builds("a {} {}".format, _ADJECTIVE, name),
        st.builds("the {} {} the {} {}".format, name, _PREPOSITION, _ADJECTIVE, name),
        st.builds("the {} {} a {}".format, name, verb, name),
        st.builds("{} {} {} the {}".format, name, verb, _PREPOSITION, name),
    )


@st.composite
def _images(draw):
    drawn = draw(st.lists(st.tuples(st.sampled_from(_NAMES), _BOXES), max_size=6))
    objects = [
        GroundedObject(f"o{i}", name, box) for i, (name, box) in enumerate(drawn)
    ]
    triples = []
    name = st.sampled_from(_NAMES)
    if objects:
        name = st.sampled_from([obj.name for obj in objects])
        ids = st.sampled_from([obj.object_id for obj in objects])
        attributes = st.builds(
            SceneTriple, ids, st.sampled_from(["is", "has", "are"]),
            _WORD, st.just(TripleKind.ATTRIBUTE),
        )
        relationships = st.builds(
            SceneTriple, ids, st.sampled_from(["on", "play", "is", "holding"]),
            ids, st.just(TripleKind.RELATIONSHIP),
        )
        triples = draw(st.lists(attributes | relationships, max_size=4))
    regions = draw(
        st.lists(st.builds(Region, _phrases(name), _REGION_BOXES), max_size=6)
    )
    return ImageEntry("img1", objects=objects, triples=triples, regions=regions)


@given(_images(), st.sampled_from([0.3, 0.5, 1.0]), st.booleans())
@settings(max_examples=300, deadline=None)
def test_built_triples_keep_the_rules_the_reader_checks(image, tau, with_kb):
    record, _ = build_image_record(image, _LEXICON, _KB if with_kb else None, tau)
    for entry in record.entries:
        for group in entry.groups:
            for triple in group.triples:
                _check_triple(triple.category, triple.tail, triple.provenance)
                assert triple.category is group.category
    assert _read_record(record_line(record).split("\t"), "data.tsv", 1) == record
