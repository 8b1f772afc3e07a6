import gc
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vckb.ingest as ingest
from vckb import TripleKind, import_dataset, load_kb, load_scene_corpus, save_scene_corpus
from vckb.errors import DanglingReference, EmptyCorpus, EmptyKb, MalformedRecord
from vckb.ingest import _line_chunks, _read_lines
from vckb.taxonomy import KB_RELATION_LEAVES, CategoryPath, Visibility

from conftest import DATA_DIR, KbRow, make_kb


def test_toy_corpus_counts(toy_scene):
    images = load_scene_corpus(toy_scene)
    assert type(images) is list
    (entry,) = images
    assert entry.image_id == "img1"
    assert len(entry.objects) == 2
    assert len(entry.triples) == 2
    assert len(entry.regions) == 1
    assert entry.width == 640


def test_names_normalized(tmp_path):
    path = tmp_path / "scene.tsv"
    path.write_text("O\timg1\to1\t Traffic   LIGHT \t0\t0\t5\t5\n")
    ((obj,),) = [entry.objects for entry in load_scene_corpus(path)]
    assert obj.name == "traffic light"


def test_triple_kinds(toy_scene):
    (entry,) = load_scene_corpus(toy_scene)
    kinds = {t.kind for t in entry.triples}
    assert kinds == {TripleKind.ATTRIBUTE, TripleKind.RELATIONSHIP}


def test_dangling_subject(tmp_path):
    path = tmp_path / "scene.tsv"
    path.write_text(
        "O\timg1\to1\tman\t0\t0\t5\t5\n" "T\timg1\tA\tmissing\tis\ttall\n"
    )
    with pytest.raises(DanglingReference) as excinfo:
        load_scene_corpus(path)
    assert excinfo.value.line_number == 2


def test_dangling_relationship_object(tmp_path):
    path = tmp_path / "scene.tsv"
    path.write_text(
        "O\timg1\to1\tman\t0\t0\t5\t5\n" "T\timg1\tR\to1\ton\tmissing\n"
    )
    with pytest.raises(DanglingReference) as excinfo:
        load_scene_corpus(path)
    assert excinfo.value.line_number == 2


def test_malformed_record_reports_line(tmp_path):
    path = tmp_path / "scene.tsv"
    path.write_text("I\timg1\n" "O\timg1\to1\tman\t0\t0\n")
    with pytest.raises(MalformedRecord) as excinfo:
        load_scene_corpus(path)
    assert excinfo.value.line_number == 2


@pytest.mark.parametrize(
    "line, message",
    [
        ("O\timg1\to2\tcar\t0\tx\t5\t5", "coordinate is not an integer"),
        ("I\timg1\t640", "I record needs 1 or 3 fields"),
        ("O\timg1\to2\t \t0\t0\t5\t5", "object name is empty"),
        ("T\timg1\tA\to1\tis", "T record needs 5 fields"),
        ("T\timg1\tX\to1\tis\ttall", "unknown triple kind 'X'"),
        ("R\timg1\t0\t0\t5\t5", "R record needs 6 fields"),
        ("R\timg1\t0\t0\t5\t5\t  ", "region phrase is empty"),
    ],
    ids=[
        "coordinate-not-integer", "i-field-count", "empty-object-name",
        "t-field-count", "unknown-triple-kind", "r-field-count", "empty-region-phrase",
    ],
)
def test_scene_reader_rejects_malformed_line(tmp_path, line, message):
    path = tmp_path / "scene.tsv"
    path.write_text(f"O\timg1\to1\tman\t0\t0\t5\t5\n{line}\n", encoding="utf-8")
    with pytest.raises(MalformedRecord, match=message) as excinfo:
        load_scene_corpus(path)
    assert excinfo.value.line_number == 2


def test_bad_bbox_rejected(tmp_path):
    path = tmp_path / "scene.tsv"
    path.write_text("O\timg1\to1\tman\t0\t0\t0\t5\n")
    with pytest.raises(MalformedRecord):
        load_scene_corpus(path)


def test_bbox_outside_image_rejected(tmp_path):
    path = tmp_path / "scene.tsv"
    path.write_text("I\timg1\t100\t100\nO\timg1\to1\tman\t90\t90\t20\t20\n")
    with pytest.raises(MalformedRecord) as excinfo:
        load_scene_corpus(path)
    assert excinfo.value.line_number == 2


def test_duplicate_object_id_rejected(tmp_path):
    path = tmp_path / "scene.tsv"
    path.write_text(
        "O\timg1\to1\tman\t0\t0\t5\t5\nO\timg1\to1\tcar\t0\t0\t5\t5\n"
    )
    with pytest.raises(MalformedRecord):
        load_scene_corpus(path)


def test_repeated_image_record_rejected(tmp_path):
    path = tmp_path / "scene.tsv"
    path.write_text("I\timg1\t100\t100\nO\timg1\to1\tcar\t0\t0\t10\t10\nI\timg1\t5\t5\n")
    with pytest.raises(MalformedRecord, match="duplicate I record for 'img1'") as excinfo:
        load_scene_corpus(path)
    assert excinfo.value.line_number == 3


def test_image_record_after_its_objects_is_legal(tmp_path):
    path = tmp_path / "scene.tsv"
    path.write_text("O\timg1\to1\tcar\t0\t0\t10\t10\nI\timg1\t100\t100\n")
    (entry,) = load_scene_corpus(path)
    assert (entry.width, entry.height) == (100, 100)
    assert [obj.object_id for obj in entry.objects] == ["o1"]


def test_unknown_record_type(tmp_path):
    path = tmp_path / "scene.tsv"
    path.write_text("X\timg1\tstuff\n")
    with pytest.raises(MalformedRecord):
        load_scene_corpus(path)


def test_bad_image_dimensions(tmp_path):
    path = tmp_path / "scene.tsv"
    path.write_text("I\timg1\t0\t480\n")
    with pytest.raises(MalformedRecord):
        load_scene_corpus(path)


def test_kb_negative_weight_rejected(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_text("car\tUsedFor\tdrive\t-1.0\n")
    with pytest.raises(MalformedRecord):
        load_kb(path)


def test_kb_non_numeric_weight_rejected(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_text("car\tUsedFor\tdrive\theavy\n")
    with pytest.raises(MalformedRecord):
        load_kb(path)


def test_empty_corpus(tmp_path):
    path = tmp_path / "scene.tsv"
    path.write_text("\n\n")
    with pytest.raises(EmptyCorpus):
        load_scene_corpus(path)


def test_counts_match_file_rescan(data_dir):
    """Loaded statistics equal counts recomputed from the raw file."""
    path = data_dir / "fixture_scene.tsv"
    images = load_scene_corpus(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    image_ids = {l.split("\t")[1] for l in lines if l}
    object_lines = [l for l in lines if l.startswith("O\t")]
    objects = [obj for entry in images for obj in entry.objects]
    assert len(images) == len(image_ids)
    assert len(objects) == len(object_lines)
    assert len({obj.name for obj in objects}) == len(
        {l.split("\t")[3] for l in object_lines}
    )


def test_load_deterministic(toy_scene):
    first = load_scene_corpus(toy_scene)
    second = load_scene_corpus(toy_scene)
    assert [entry.image_id for entry in first] == [entry.image_id for entry in second]
    assert first[0].objects == second[0].objects
    assert first[0].triples == second[0].triples


def test_save_round_trips(toy_scene, tmp_path):
    (entry,) = load_scene_corpus(toy_scene)
    out = tmp_path / "normalized.tsv"
    save_scene_corpus([entry], out)
    (again,) = load_scene_corpus(out)
    assert again.objects == entry.objects
    assert again.triples == entry.triples
    assert again.regions == entry.regions
    # Normalized output is stable.
    out2 = tmp_path / "normalized2.tsv"
    save_scene_corpus([again], out2)
    assert out.read_bytes() == out2.read_bytes()


def test_kb_load_and_lookup(toy_kb):
    kb = load_kb(toy_kb)
    assert len(kb) == 6
    used_for, created_by = kb.lookup("car")
    assert used_for == (CategoryPath.UNSEEN_USED_FOR, "drive to work", 2.0)
    # Missing weight defaults to 1.0.
    assert created_by == (CategoryPath.UNSEEN_CREATED_BY, "factory", 1.0)
    assert kb.lookup("tree") == ()


def test_kb_multi_relation_lookup(toy_kb):
    kb = load_kb(toy_kb)
    hits = {(leaf.relation.value, tail) for leaf, tail, _ in kb.lookup("car")}
    assert hits == {
        ("UsedFor", "drive to work"),
        ("CreatedBy", "factory"),
    }


def test_kb_two_columns_malformed(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_text("car\tUsedFor\n")
    with pytest.raises(MalformedRecord):
        load_kb(path)


def test_kb_underscores_normalized(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_text("traffic_light\tUsedFor\tcontrol_traffic\t1.0\n")
    kb = load_kb(path)
    ((_, tail, _),) = kb.lookup("traffic light")
    assert tail == "control traffic"


@pytest.mark.parametrize("weight", ["nan", "inf"])
def test_kb_non_finite_weight_rejected(tmp_path, weight):
    path = tmp_path / "kb.tsv"
    path.write_text(f"car\tUsedFor\tpark\t2.0\ncar\tUsedFor\tdrive\t{weight}\n")
    with pytest.raises(MalformedRecord) as excinfo:
        load_kb(path)
    assert excinfo.value.line_number == 2


def test_kb_empty_relation_rejected(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_text("car\tUsedFor\tdrive\ncar\t\tthing\n")
    with pytest.raises(MalformedRecord) as excinfo:
        load_kb(path)
    assert excinfo.value.line_number == 2


def test_kb_equal_tails_share_one_string(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_text(
        "car\tUsedFor\tgo to work\nbus\tUsedFor\tgo to work\ntrain\tUsedFor\tGo_To  work\n"
    )
    kb = load_kb(path)
    ((_, car_tail, _),) = kb.lookup("car")
    ((_, bus_tail, _),) = kb.lookup("bus")
    ((_, train_tail, _),) = kb.lookup("train")
    assert car_tail is bus_tail is train_tail


_KB_NAMES = ["car", "dog", "traffic light", "go to work", "red fire hydrant"]
_KB_RELATIONS = ["UsedFor", "CapableOf", "IsA"]


@st.composite
def _raw_name(draw):
    """A name of _KB_NAMES with mixed case, underscores and extra spaces."""
    name = draw(st.sampled_from(_KB_NAMES))
    words = [
        draw(st.sampled_from([word, word.upper(), word.title()])) for word in name.split()
    ]
    separators = draw(
        st.lists(st.sampled_from([" ", "_", "  ", " _"]), min_size=len(words) - 1,
                 max_size=len(words) - 1)
    )
    raw = words[0] + "".join(sep + word for sep, word in zip(separators, words[1:]))
    pad = st.sampled_from(["", " ", "  "])
    return name, draw(pad) + raw + draw(pad)


_raw_kb_rows = st.lists(
    st.tuples(
        _raw_name(),
        st.sampled_from(_KB_RELATIONS),
        _raw_name(),
        st.none() | st.floats(0, 100, allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=40,
)


@given(rows=_raw_kb_rows, data=st.data())
@settings(max_examples=100, deadline=None)
def test_kb_load_equals_scan_of_normalized_rows(tmp_path_factory, rows, data):
    """Duplicate rows are kept; keys are normalized heads; buckets keep file order."""
    rows = rows + data.draw(st.lists(st.sampled_from(rows), max_size=5))
    path = tmp_path_factory.mktemp("kb") / "kb.tsv"
    lines = []
    for (_, raw_head), relation, (_, raw_tail), weight in rows:
        line = f"{raw_head}\t{relation}\t{raw_tail}"
        lines.append(line if weight is None else f"{line}\t{weight!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    kb = load_kb(path)
    expected = {}
    for (head, _), relation, (tail, _), weight in rows:
        leaf = KB_RELATION_LEAVES.get(relation)
        if leaf is not None:
            expected.setdefault(head, []).append((leaf, tail, 1.0 if weight is None else weight))
    assert len(kb) == len(rows)
    for head in _KB_NAMES:
        assert kb.lookup(head) == tuple(expected.get(head, ()))


@pytest.mark.parametrize(
    "row", ["dog\tIsA\t_\t1.0", "dog\tIsA\tanimal\tnan"], ids=["empty-tail", "nan-weight"]
)
def test_kb_rows_of_other_relations_are_validated(tmp_path, row):
    path = tmp_path / "kb.tsv"
    path.write_text(f"car\tUsedFor\tdrive\n{row}\n")
    with pytest.raises(MalformedRecord, match=":2: ") as excinfo:
        load_kb(path)
    assert excinfo.value.line_number == 2


def test_kb_padded_relation_is_indexed(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_text("car\t UsedFor \tdrive\ncar\tIsA \tvehicle\n")
    kb = load_kb(path)
    assert len(kb) == 2
    assert kb.lookup("car") == ((CategoryPath.UNSEEN_USED_FOR, "drive", 1.0),)


def test_kb_tab_only_line_is_skipped_but_numbered(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_text("car\tUsedFor\tdrive\n\t\t\t\ncar\tIsA\tvehicle\n")
    assert len(load_kb(path)) == 2
    path.write_text("car\tUsedFor\tdrive\n\t\t\t\ncar\tUsedFor\n")
    with pytest.raises(MalformedRecord) as excinfo:
        load_kb(path)
    assert (excinfo.value.line_number, excinfo.value.message) == (
        3, "expected head, relation, tail[, weight]"
    )


def test_kb_last_line_without_newline_is_read(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_bytes(b"car\tIsA\tvehicle\r\ncar\tUsedFor\tdrive")
    kb = load_kb(path)
    assert len(kb) == 2
    assert kb.lookup("car") == ((CategoryPath.UNSEEN_USED_FOR, "drive", 1.0),)


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r", ""], ids=["lf", "crlf", "cr", "none"])
def test_kb_bad_last_field_is_named_without_its_line_end(tmp_path, end):
    path = tmp_path / "kb.tsv"
    path.write_bytes(f"car\tUsedFor\tdrive\ncar\tIsA\tvehicle\tnan{end}".encode())
    with pytest.raises(MalformedRecord) as excinfo:
        load_kb(path)
    assert (excinfo.value.line_number, excinfo.value.message) == (
        2, "weight must be a finite, non-negative number: 'nan'"
    )


def _reference_kb(text: str, path):
    """Per-row reference for `load_kb`, from the documented rules: the
    (edge count, {head: edges}) of a KB file's text, or the MalformedRecord
    or EmptyKb that the file must raise.

    A BOM opens the file at most; LF, CRLF and a lone CR each end a line; a
    line of whitespace alone is skipped but numbered. A row has three or four
    tab-separated fields; the head and tail are normalized names and the
    relation is stripped, and all three must be non-empty; the weight, 1.0
    if absent, must be a finite, non-negative number. Every row is counted;
    a row is kept, under its head in file order, if its relation has a leaf.
    """
    text = text.removeprefix("\ufeff")
    lines = re.split(r"\r\n|\r|\n", text)
    if lines[-1] == "":
        lines.pop()

    def name(raw):
        return " ".join(raw.replace("_", " ").lower().split())

    count, edges = 0, {}
    for line_number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) not in (3, 4):
            raise MalformedRecord(path, line_number, "expected head, relation, tail[, weight]")
        head, relation, tail = name(fields[0]), fields[1].strip(), name(fields[2])
        if not (head and relation and tail):
            raise MalformedRecord(path, line_number, "head, relation and tail must be non-empty")
        weight = 1.0
        if len(fields) == 4:
            raw = fields[3]
            try:
                weight = float(raw)
            except ValueError:
                raise MalformedRecord(path, line_number, f"weight is not a number: {raw!r}") from None
            if math.isnan(weight) or math.isinf(weight) or weight < 0:
                raise MalformedRecord(
                    path, line_number, f"weight must be a finite, non-negative number: {raw!r}"
                )
        count += 1
        leaf = KB_RELATION_LEAVES.get(relation)
        if leaf is not None:
            edges.setdefault(head, []).append((leaf, tail, weight))
    if count == 0:
        raise EmptyKb(f"no edges in {path}")
    return count, {head: tuple(bucket) for head, bucket in edges.items()}


# KB line parts, good and bad: a row of a file that may fail takes bad
# values for up to two of its parts, so that some files load and others fail.
_KB_GOOD_NAMES = _raw_name().map(lambda pair: pair[1])
_KB_BAD_NAMES = st.sampled_from(["", " ", "_", "__", " _ "])
_KB_PARTS = {
    "head": (_KB_GOOD_NAMES, _KB_BAD_NAMES),
    "relation": (
        st.sampled_from(["UsedFor", "CreatedBy", " UsedFor ", "CapableOf ", "IsA", " AtLocation",
                         "Desires", "HasA "]),
        st.sampled_from(["", " ", "  "]),
    ),
    "tail": (_KB_GOOD_NAMES, _KB_BAD_NAMES),
    "weight": (
        st.sampled_from([None, "2.0", "0", "0.5", "1", " 3 ", "1e3"]),  # None: no weight field
        st.sampled_from(["", "nan", "inf", "-1", "abc", "1e400"]),
    ),
    "size": (st.none(), st.sampled_from([1, 2, 5])),  # None: 3 fields, or 4 with a weight
}
_KB_BLANK_LINES = st.sampled_from(["", "  ", "\t\t\t", " \t"])


@st.composite
def _kb_text(draw):
    """The text of a KB file: rows and blank lines, each line ended by LF,
    CRLF or a lone CR, maybe without the last end, maybe after a BOM."""
    may_fail = draw(st.sampled_from([False, True, True]))
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(_KB_BLANK_LINES))
            continue
        bad = ()
        if may_fail:
            # Mostly one bad part, so that each check is the first to fail in
            # some files; two at times, so that the checks' order is tested.
            how_many = draw(st.sampled_from([0, 1, 1, 1, 2]))
            bad = draw(st.sets(st.sampled_from(sorted(_KB_PARTS)), min_size=how_many,
                               max_size=how_many))
        part = {name: draw(choices[name in bad]) for name, choices in _KB_PARTS.items()}
        weight, size = part["weight"], part["size"]
        if size is None:
            size = 3 if weight is None else 4
        fields = [part["head"], part["relation"], part["tail"], weight or "1", "extra"]
        lines.append("\t".join(fields[:size]))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if lines and draw(st.booleans()):
        ends[-1] = ""
    return draw(st.sampled_from(["", "\ufeff"])) + "".join(map("".join, zip(lines, ends)))


@given(text=_kb_text())
# Rows of a relation that is not indexed are checked all the same.
@example(text="car\tIsA\tvehicle\tnan\n")
@example(text="car\t AtLocation\t _\r\n")
@settings(max_examples=200, deadline=None)
def test_kb_load_agrees_with_per_row_reference(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("kb") / "kb.tsv"
    path.write_bytes(text.encode("utf-8"))
    try:
        count, edges = _reference_kb(text, path)
    except MalformedRecord as exc:
        with pytest.raises(MalformedRecord) as excinfo:
            load_kb(path)
        assert (excinfo.value.line_number, excinfo.value.message) == (exc.line_number, exc.message)
        return
    except EmptyKb:
        with pytest.raises(EmptyKb):
            load_kb(path)
        return
    kb = load_kb(path)
    assert len(kb) == count
    shared = {}
    for head in set(edges) | set(_KB_NAMES):
        assert kb.lookup(head) == edges.get(head, ())
        for _, tail, _ in kb.lookup(head):
            assert shared.setdefault(tail, tail) is tail


@given(raw=st.builds("{}{}".format, st.characters().filter(str.isalnum), st.text()))
def test_kb_name_opening_with_letter_or_digit_is_not_empty(raw):
    """`load_kb` takes such a name on a row it does not index as non-empty
    without normalizing it."""
    assert ingest._normalize_name(raw)


# The twelve relations of the benchmark's kb-heavy KB: the six the unseen
# layer reads, and six ConceptNet relations it does not.
_OTHER_RELATIONS = ("IsA", "AtLocation", "Desires", "PartOf", "HasA", "MadeOf")


def test_kb_index_keeps_only_unseen_relations():
    relations = tuple(KB_RELATION_LEAVES) + _OTHER_RELATIONS
    rows = [KbRow(head, relation, "tail") for head in ("car", "dog") for relation in relations]
    kb = make_kb(rows)
    assert len(kb) == len(rows) == 24
    unseen_leaves = [leaf for leaf in CategoryPath if leaf.visibility is Visibility.UNSEEN]
    for head in ("car", "dog"):
        assert kb.lookup(head) == tuple((leaf, "tail", 1.0) for leaf in unseen_leaves)


def test_kb_index_grows_with_heads_not_edges():
    """Each head's edges are held as columns: once collected, the objects the
    garbage collector tracks grow by a few per head, not by one per edge."""
    relations = tuple(KB_RELATION_LEAVES)
    rows = [
        KbRow(f"head {h}", relations[n % len(relations)], f"tail {h} {n}", n / 8)
        for h in range(5)
        for n in range(300)
    ]
    make_kb(rows)  # a first load, so that nothing it sets up once is counted
    gc.collect()
    before = len(gc.get_objects())
    kb = make_kb(rows)
    gc.collect()
    grown = len(gc.get_objects()) - before
    assert grown <= 4 * 5 + 16, grown  # one tracked tuple per edge would be 1,500
    for h in range(5):
        assert kb.lookup(f"head {h}") == tuple(
            (KB_RELATION_LEAVES[row.relation], row.tail, row.weight)
            for row in rows
            if row.head == f"head {h}"
        )


def test_kb_lookup_keeps_file_order_across_relations(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_text(
        "car\tUsedFor\tdrive\t2.0\n"
        "car\tIsA\tvehicle\n"
        "car\tCapableOf\tstop\n"
        "car\tUsedFor\tpark\t0.5\n"
        "car\tCreatedBy\tfactory\t3.0\n"
    )
    kb = load_kb(path)
    assert len(kb) == 5
    assert kb.lookup("car") == (
        (CategoryPath.UNSEEN_USED_FOR, "drive", 2.0),
        (CategoryPath.UNSEEN_CAPABLE_OF, "stop", 1.0),
        (CategoryPath.UNSEEN_USED_FOR, "park", 0.5),
        (CategoryPath.UNSEEN_CREATED_BY, "factory", 3.0),
    )


def test_fixture_kb_counts_rows_of_other_relations():
    kb = load_kb(DATA_DIR / "fixture_kb.tsv")
    assert len(kb) == 48
    edges = kb.lookup("car")
    assert (CategoryPath.UNSEEN_USED_FOR, "drive to work", 4.0) in edges
    # The fixture's "car IsA vehicle" row is counted but not kept.
    assert "vehicle" not in {tail for _, tail, _ in edges}


def test_kb_empty(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_text("\n")
    with pytest.raises(EmptyKb):
        load_kb(path)


@pytest.mark.parametrize(
    "loader, first_line",
    [
        (load_scene_corpus, b"O\timg1\to1\tman\t0\t0\t5\t5\n"),
        (load_kb, b"car\tUsedFor\tdrive\n"),
        (import_dataset, b"img1\t0\n"),
    ],
    ids=["scene", "kb", "dataset"],
)
def test_invalid_utf8_reports_line(tmp_path, loader, first_line):
    path = tmp_path / "input.tsv"
    path.write_bytes(first_line + b"\xff\xfe broken\n")
    with pytest.raises(MalformedRecord) as excinfo:
        loader(path)
    assert excinfo.value.line_number == 2
    assert "not valid UTF-8" in str(excinfo.value)


def test_invalid_utf8_line_counts_blank_lines_and_carriage_returns(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_bytes(b"car\tUsedFor\tdrive\r\n\ncar\tIsA\tvehicle\rdog\tIsA\t\xc3(\n")
    with pytest.raises(MalformedRecord) as excinfo:
        load_kb(path)
    assert excinfo.value.line_number == 4


def test_bom_scene_loads(tmp_path):
    path = tmp_path / "scene.tsv"
    path.write_text("I\timg1\nO\timg1\to1\tman\t0\t0\t5\t5\n", encoding="utf-8-sig")
    assert [entry.image_id for entry in load_scene_corpus(path)] == ["img1"]


def test_bom_kb_keeps_first_head(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_text("car\tUsedFor\tdrive\ncar\tIsA\tvehicle\n", encoding="utf-8-sig")
    ((leaf, tail, _),) = load_kb(path).lookup("car")
    assert (leaf, tail) == (CategoryPath.UNSEEN_USED_FOR, "drive")


def _chunked_lines(path):
    """Every (line number, line) of path, read one `_line_chunks` range at a time."""
    return [pair for chunk in _line_chunks(path) for pair in _read_lines(path, chunk)]


@pytest.fixture
def tiny_chunks(monkeypatch):
    """Cut line files into one-line chunks: each range ends at its first newline."""
    monkeypatch.setattr(ingest, "_CHUNK_BYTES", 1)


@pytest.mark.parametrize(
    "data, lines",
    [
        # A BOM is dropped only at byte 0; a U+FEFF opening a later chunk stays.
        (b"\xef\xbb\xbfa\n\xef\xbb\xbfb\n", [(1, "a"), (2, "\ufeffb")]),
        # CRLF and a lone CR each end one line, as in text mode.
        (b"a\r\nb\rc\r\nd\n", [(1, "a"), (2, "b"), (3, "c"), (4, "d")]),
        (b"a\n\n  \n\r\nb\n", [(1, "a"), (5, "b")]),
        (b"a\nb", [(1, "a"), (2, "b")]),
        (b"", []),
    ],
    ids=["bom", "crlf-and-cr", "blank-lines", "no-final-newline", "empty"],
)
def test_chunked_read_equals_whole_read(tmp_path, tiny_chunks, data, lines):
    path = tmp_path / "lines.tsv"
    path.write_bytes(data)
    assert list(_read_lines(path)) == lines
    assert _chunked_lines(path) == lines


def test_line_chunks_cut_after_newlines(tmp_path, tiny_chunks):
    path = tmp_path / "lines.tsv"
    path.write_bytes(b"ab\r\ncd\ref\ngh")
    assert _line_chunks(path) == [(0, 4, 1), (4, 10, 2), (10, 12, 4)]


def test_invalid_utf8_in_a_later_chunk_reports_absolute_line(tmp_path, tiny_chunks):
    path = tmp_path / "lines.tsv"
    path.write_bytes(b"a\r\n\nb\rc\n\xc3(\n")
    *first, last = _line_chunks(path)
    assert [pair for chunk in first for pair in _read_lines(path, chunk)] == [
        (1, "a"), (3, "b"), (4, "c")
    ]
    with pytest.raises(MalformedRecord) as excinfo:
        list(_read_lines(path, last))
    assert excinfo.value.line_number == 5
    assert "not valid UTF-8" in str(excinfo.value)


# Scene field text: anything but the tab and the line ends that delimit
# records, with underscores, case, Unicode spaces (NEL, U+2028, NBSP) and
# astral characters common, so that normalizing and stripping have work to do.
_SCENE_TEXT = st.text(
    st.sampled_from(["_", " ", "A", "b", "\x85", "\u2028", "\xa0", "\U0001d538", "\u0130"])
    | st.characters(codec="utf-8", exclude_characters="\t\n\r"),
    max_size=6,
)
# Field text that still has a word once normalized or stripped.
_SCENE_WORDS = st.builds("{}{}{}".format, _SCENE_TEXT, st.sampled_from(["car", "Man", "x"]), _SCENE_TEXT)
_IMAGE_FIELDS = st.tuples(
    st.sampled_from([None, "", "\t100\t100"]),  # no I record, or one without or with a size
    st.dictionaries(  # object id -> name, box
        _SCENE_TEXT,
        st.tuples(_SCENE_WORDS, st.tuples(*(st.integers(low, 50) for low in (0, 0, 1, 1)))),
        min_size=1, max_size=3,
    ),
    st.lists(  # attribute?, subject, predicate, attribute text, object
        st.tuples(st.booleans(), st.integers(0, 3), _SCENE_TEXT, _SCENE_TEXT, st.integers(0, 3)),
        max_size=3,
    ),
    st.lists(st.tuples(st.integers(1, 100), _SCENE_WORDS), max_size=2),  # region width, phrase
)


def _scene_lines(fields):
    """The lines of a valid scene file, shuffled, blank lines included."""
    images, blanks, rng = fields
    lines = list(blanks)
    for image_id, (size, objects, triples, regions) in images.items():
        if size is not None:
            lines.append(f"I\t{image_id}{size}")
        for object_id, (name, (x, y, w, h)) in objects.items():
            lines.append(f"O\t{image_id}\t{object_id}\t{name}\t{x}\t{y}\t{w}\t{h}")
        ids = list(objects)
        for attribute, subject, predicate, text, obj in triples:
            kind, slot = ("A", text) if attribute else ("R", ids[obj % len(ids)])
            lines.append(f"T\t{image_id}\t{kind}\t{ids[subject % len(ids)]}\t{predicate}\t{slot}")
        for width, phrase in regions:
            lines.append(f"R\t{image_id}\t0\t0\t{width}\t9\t{phrase}")
    rng.shuffle(lines)
    return lines


_SCENES = st.tuples(
    st.dictionaries(_SCENE_TEXT, _IMAGE_FIELDS, min_size=1, max_size=2),
    st.lists(st.sampled_from(["", "  "]), max_size=2),
    st.randoms(use_true_random=False),
).map(_scene_lines)


@given(lines=_SCENES)
@settings(max_examples=120, deadline=None)
def test_saved_scene_is_a_fixed_point(tmp_path_factory, lines):
    directory = tmp_path_factory.getbasetemp() / "scene-fixed-point"
    directory.mkdir(exist_ok=True)
    (directory / "scene.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    images = load_scene_corpus(directory / "scene.tsv")
    save_scene_corpus(images, directory / "first.tsv")
    again = load_scene_corpus(directory / "first.tsv")
    save_scene_corpus(again, directory / "second.tsv")
    assert again == images
    assert (directory / "second.tsv").read_bytes() == (directory / "first.tsv").read_bytes()


def _reference_scene(text: str, path):
    """Per-line reference for `load_scene_corpus`, from the documented rules:
    {image id: (width, height, objects, triples, regions)} of a scene file's
    text, images in first-seen order and records in file order, or the
    MalformedRecord, DanglingReference or EmptyCorpus that the file must
    raise.

    Lines are split as in `_reference_kb`. A record's first field names its
    kind (I, O, T or R) and its field count is checked first. Each box is
    four integers, with a positive size, then a non-negative origin. Object
    names, predicates and attribute text are normalized names; an object name
    and a region phrase must be non-empty. Once every line is read, each
    image in turn has its triples' subjects and relationship objects checked
    in file order, then, if it has a size, its objects' boxes.
    """
    text = text.removeprefix("\ufeff")
    lines = re.split(r"\r\n|\r|\n", text)
    if lines[-1] == "":
        lines.pop()

    def name(raw):
        return " ".join(raw.replace("_", " ").lower().split())

    def integer(raw, what, line_number):
        try:
            return int(raw)
        except ValueError:
            raise MalformedRecord(path, line_number, f"{what} is not an integer: {raw!r}") from None

    def box(raw, line_number):
        x, y, w, h = (integer(value, "coordinate", line_number) for value in raw)
        if w <= 0 or h <= 0:
            raise MalformedRecord(path, line_number, f"box needs positive size, got {w}x{h}")
        if x < 0 or y < 0:
            raise MalformedRecord(
                path, line_number, f"box origin must be non-negative, got ({x}, {y})"
            )
        return x, y, w, h

    # Record kind -> (its field counts, the message for any other count).
    shapes = {
        "I": ((2, 4), "I record needs 1 or 3 fields"),
        "O": ((8,), "O record needs 7 fields"),
        "T": ((6,), "T record needs 5 fields"),
        "R": ((7,), "R record needs 6 fields"),
    }
    images, sizes, object_lines, triple_lines = {}, {}, {}, {}
    for line_number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        fields = line.split("\t")
        kind = fields[0]
        if kind not in shapes:
            raise MalformedRecord(path, line_number, f"unknown record type {kind!r}")
        counts, message = shapes[kind]
        if len(fields) not in counts:
            raise MalformedRecord(path, line_number, message)
        image_id = fields[1]
        objects, triples, regions = images.setdefault(image_id, ([], [], []))
        object_lines.setdefault(image_id, {})
        triple_lines.setdefault(image_id, [])
        if kind == "I":
            if image_id in sizes:
                raise MalformedRecord(path, line_number, f"duplicate I record for {image_id!r}")
            sizes[image_id] = None
            if len(fields) == 4:
                width = integer(fields[2], "width", line_number)
                height = integer(fields[3], "height", line_number)
                if width <= 0 or height <= 0:
                    raise MalformedRecord(path, line_number, "image size must be positive")
                sizes[image_id] = (width, height)
        elif kind == "O":
            object_box = box(fields[4:8], line_number)
            if not name(fields[3]):
                raise MalformedRecord(path, line_number, "object name is empty")
            if fields[2] in object_lines[image_id]:
                raise MalformedRecord(path, line_number, f"duplicate object id {fields[2]!r}")
            object_lines[image_id][fields[2]] = line_number
            objects.append((fields[2], name(fields[3]), object_box))
        elif kind == "T":
            if fields[2] not in ("A", "R"):
                raise MalformedRecord(path, line_number, f"unknown triple kind {fields[2]!r}")
            slot = fields[5] if fields[2] == "R" else name(fields[5])
            triples.append((fields[3], name(fields[4]), slot, fields[2]))
            triple_lines[image_id].append(line_number)
        else:
            region_box = box(fields[2:6], line_number)
            if not fields[6].strip():
                raise MalformedRecord(path, line_number, "region phrase is empty")
            regions.append((fields[6].strip(), region_box))
    if not images:
        raise EmptyCorpus(f"no records in {path}")
    for image_id, (objects, triples, _) in images.items():
        known = object_lines[image_id]
        for (subject, _, slot, kind), line_number in zip(triples, triple_lines[image_id]):
            if subject not in known:
                raise DanglingReference(
                    path, line_number, f"triple subject {subject!r} not in image {image_id!r}"
                )
            if kind == "R" and slot not in known:
                raise DanglingReference(
                    path, line_number, f"triple object {slot!r} not in image {image_id!r}"
                )
        size = sizes.get(image_id)
        if size is not None:
            for object_id, _, (x, y, w, h) in objects:
                if x + w > size[0] or y + h > size[1]:
                    raise MalformedRecord(
                        path, known[object_id],
                        f"object {object_id!r} box exceeds image {image_id!r} dimensions",
                    )
    return {
        image_id: (*(sizes.get(image_id) or (None, None)), *records)
        for image_id, records in images.items()
    }


def _loaded_scene(images):
    """Loaded images in `_reference_scene`'s form."""
    assert type(images) is list
    loaded = {}
    for entry in images:
        loaded[entry.image_id] = (
            entry.width,
            entry.height,
            [(o.object_id, o.name, (o.bbox.x, o.bbox.y, o.bbox.w, o.bbox.h))
             for o in entry.objects],
            [(t.subject_id, t.predicate, t.object_slot, t.kind.value) for t in entry.triples],
            [(r.phrase, (r.bbox.x, r.bbox.y, r.bbox.w, r.bbox.h)) for r in entry.regions],
        )
    assert len(loaded) == len(images)  # one entry per image id
    return loaded


def _assert_scene_load_agrees_with_reference(text, path):
    path.write_bytes(text.encode("utf-8"))
    try:
        expected = _reference_scene(text, path)
    except (MalformedRecord, EmptyCorpus) as exc:
        with pytest.raises(type(exc)) as excinfo:
            load_scene_corpus(path)
        assert type(excinfo.value) is type(exc)
        assert str(excinfo.value) == str(exc)
        if isinstance(exc, MalformedRecord):
            assert (excinfo.value.line_number, excinfo.value.message) == (
                exc.line_number, exc.message
            )
        return exc
    assert _loaded_scene(load_scene_corpus(path)) == expected
    return None


def _scene_path(tmp_path_factory):
    """One scene file path for every example of a property test."""
    directory = tmp_path_factory.getbasetemp() / "scene-reference"
    directory.mkdir(exist_ok=True)
    return directory / "scene.tsv"


@given(lines=_SCENES)
@settings(max_examples=120, deadline=None)
def test_scene_load_agrees_with_per_line_reference(tmp_path_factory, lines):
    path = _scene_path(tmp_path_factory)
    assert _assert_scene_load_agrees_with_reference("\n".join(lines) + "\n", path) is None


def _mutated(lines, index, how, field, value):
    """lines with one line changed: a field after the kind set to value, a
    field added or dropped, or the line repeated just after itself."""
    lines = list(lines)
    index %= len(lines)
    fields = lines[index].split("\t")
    if how == "set":
        fields[1 + (field - 1) % (len(fields) - 1)] = value
    elif how == "add":
        fields.append(value)
    elif how == "drop":
        fields.pop()
    else:
        lines.insert(index, lines[index])
    lines[index] = "\t".join(fields)
    return lines


_SCENE_MUTATIONS = st.tuples(
    st.integers(0, 63),
    st.sampled_from(["set", "set", "set", "add", "drop", "repeat"]),
    st.integers(1, 7),
    st.sampled_from(["x", "0", "-1", "95", "1000", "", " _ ", "Q", "ghost", "R"]),
)


@given(lines=_SCENES, mutation=_SCENE_MUTATIONS)
@settings(max_examples=200, deadline=None)
def test_scene_load_agrees_with_reference_on_a_mutated_line(tmp_path_factory, lines, mutation):
    lines = [line for line in lines if line.strip()]
    path = _scene_path(tmp_path_factory)
    _assert_scene_load_agrees_with_reference("\n".join(_mutated(lines, *mutation)) + "\n", path)


_MUTATED_SCENE = [
    "O\timg1\to1\tman\t10\t10\t20\t30",
    "I\timg1\t100\t100",
    "T\timg1\tA\to1\tis\ttall",
    "O\timg2\to1\tcar\t0\t0\t5\t5",
    "T\timg1\tR\to1\tnear\to2",
    "R\timg1\t0\t0\t50\t50\ta tall man",
    "O\timg1\to2\tdog\t40\t40\t10\t10",
]


@pytest.mark.parametrize(
    "index, how, field, value, error, message",
    [
        (0, "set", 4, "x", MalformedRecord, "coordinate is not an integer: 'x'"),
        (5, "set", 3, "x", MalformedRecord, "coordinate is not an integer: 'x'"),
        (0, "set", 6, "0", MalformedRecord, "box needs positive size, got 0x30"),
        (0, "set", 5, "-1", MalformedRecord, "box origin must be non-negative, got (10, -1)"),
        (6, "set", 4, "95", MalformedRecord, "object 'o2' box exceeds image 'img1' dimensions"),
        (2, "set", 2, "Q", MalformedRecord, "unknown triple kind 'Q'"),
        (0, "set", 3, " _ ", MalformedRecord, "object name is empty"),
        (5, "set", 6, " ", MalformedRecord, "region phrase is empty"),
        (0, "drop", 0, "", MalformedRecord, "O record needs 7 fields"),
        (1, "add", 0, "9", MalformedRecord, "I record needs 1 or 3 fields"),
        (2, "drop", 0, "", MalformedRecord, "T record needs 5 fields"),
        (5, "add", 0, "x", MalformedRecord, "R record needs 6 fields"),
        (6, "set", 2, "o1", MalformedRecord, "duplicate object id 'o1'"),
        (1, "repeat", 0, "", MalformedRecord, "duplicate I record for 'img1'"),
        (2, "set", 3, "ghost", DanglingReference, "triple subject 'ghost' not in image 'img1'"),
        (4, "set", 5, "ghost", DanglingReference, "triple object 'ghost' not in image 'img1'"),
    ],
    ids=[
        "coordinate-x", "region-coordinate-x", "zero-width", "negative-origin",
        "box-overflows-image", "unknown-triple-kind", "blank-name", "blank-phrase",
        "o-field-count", "i-field-count", "t-field-count", "r-field-count",
        "duplicate-object-id", "duplicate-i-record", "dangling-subject", "dangling-object",
    ],
)
def test_scene_load_agrees_with_reference_on_each_bad_line(
    tmp_path, index, how, field, value, error, message
):
    lines = _mutated(_MUTATED_SCENE, index, how, field, value)
    exc = _assert_scene_load_agrees_with_reference("\n".join(lines) + "\n", tmp_path / "scene.tsv")
    assert type(exc) is error
    assert exc.message == message
    assert exc.line_number == (index + 2 if how == "repeat" else index + 1)


def test_loaded_scene_records_have_no_dict_and_share_names(tmp_path):
    path = tmp_path / "scene.tsv"
    path.write_text(
        "I\timg1\t100\t100\n"
        "O\timg1\to1\tTraffic_Light\t0\t0\t5\t5\n"
        "O\timg2\to1\ttraffic  light\t0\t0\t5\t5\n"
        "O\timg1\to2\ttraffic light\t0\t0\t5\t5\n"
        "T\timg1\tA\to1\tIs\tRed\n"
        "T\timg2\tA\to1\tis\tred\n"
        "R\timg1\t0\t0\t9\t9\ta red light\n",
        encoding="utf-8",
    )
    first, second = load_scene_corpus(path)
    assert (first.image_id, second.image_id) == ("img1", "img2")
    records = [first, *first.objects, *first.triples, *first.regions]
    records += [obj.bbox for obj in first.objects] + [first.regions[0].bbox]
    for record in records:
        assert not hasattr(record, "__dict__"), type(record).__name__
    (light,) = second.objects
    assert first.objects[0].name == first.objects[1].name == light.name == "traffic light"
    assert first.objects[0].name is first.objects[1].name is light.name
    (is_red,), (again,) = first.triples, second.triples
    assert is_red.predicate is again.predicate and is_red.object_slot is again.object_slot
