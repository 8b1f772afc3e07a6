import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vckb import (
    BBox,
    DatasetRecord,
    GroundedObject,
    Provenance,
    compute_stats,
    export_dataset,
    group_triples,
    import_dataset,
    iter_dataset,
    parse_category,
    query,
)
from vckb.dataset import ObjectEntry, _escape, _unescape
from vckb.errors import MalformedRecord
from vckb.seen import CommonsenseTriple
from vckb.taxonomy import CategoryPath, Visibility

from conftest import make_object


def triple(obj, category_text, tail, provenance=None, score=0.0):
    category = parse_category(category_text)
    if provenance is None:
        provenance = (
            Provenance.KB_RETRIEVAL
            if category_text.startswith("/Unseen")
            else Provenance.SCENE_TRIPLE
        )
    return CommonsenseTriple(
        head=obj, category=category, tail=tail, provenance=provenance, score=score
    )


@pytest.fixture
def sample_records():
    man = make_object("o1", image_id="img1", name="man", box=(10, 10, 50, 100))
    car = make_object("o2", image_id="img1", name="car", box=(200, 150, 120, 80))
    records = [
        DatasetRecord(
            image_id="img1",
            entries=[
                group_triples(
                    man,
                    [
                        triple(man, "/Seen/Space/LocatedNear", "car"),
                        triple(man, "/Seen/Property/HasProperty", "tall"),
                        triple(man, "/Unseen/Action/CapableOf", "grow up", score=1.5),
                        triple(man, "/Unseen/Action/CapableOf", "read book", score=0.5),
                    ],
                ),
                group_triples(car, [triple(car, "/Seen/Space/LocatedNear", "man")]),
            ],
        )
    ]
    return records


def test_group_order_is_canonical(sample_records):
    entry = sample_records[0].entries[0]
    texts = [group.category.text for group in entry.groups]
    order = [c.text for c in CategoryPath]
    assert texts == sorted(texts, key=order.index)


def test_group_preserves_triple_order(sample_records):
    entry = sample_records[0].entries[0]
    unseen = entry.group(CategoryPath.UNSEEN_CAPABLE_OF)
    assert [t.tail for t in unseen] == ["grow up", "read book"]


def test_entry_rejects_foreign_head():
    man = make_object("o1", name="man")
    car = make_object("o2", name="car", box=(20, 0, 5, 5))
    with pytest.raises(ValueError):
        ObjectEntry(
            obj=man,
            groups=group_triples(car, [triple(car, "/Seen/Space/LocatedNear", "man")]).groups,
        )


def test_round_trip(sample_records, tmp_path):
    path = tmp_path / "dataset.tsv"
    export_dataset(sample_records, path)
    records = import_dataset(path)
    # A list, not a one-pass iterator: callers such as the benchmark's output
    # check iterate the result more than once.
    assert isinstance(records, list)
    assert records == sample_records


def test_iter_dataset_yields_records_before_a_malformed_line(tmp_path):
    path = tmp_path / "dataset.tsv"
    path.write_text("img1\t0\nimg2\t0\nimg3\tx\nimg4\t0\n", encoding="utf-8")
    records = iter_dataset(path)
    assert [next(records).image_id, next(records).image_id] == ["img1", "img2"]
    with pytest.raises(MalformedRecord, match=":3: object count") as excinfo:
        next(records)
    assert excinfo.value.line_number == 3


def test_import_drops_byte_order_mark(sample_records, tmp_path):
    path = tmp_path / "dataset.tsv"
    export_dataset(sample_records, path)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert [r.image_id for r in import_dataset(path)] == ["img1"]


def test_round_trip_with_tricky_tails(tmp_path):
    obj = make_object("o1", name="back\\slash")
    record = DatasetRecord(
        image_id="img1",
        entries=[
            group_triples(
                obj,
                [
                    triple(obj, "/Seen/Property/HasProperty", "tab\there"),
                    triple(obj, "/Seen/Property/HasProperty", "new\nline"),
                    triple(obj, "/Seen/Property/HasProperty", "carriage\rreturn"),
                    triple(obj, "/Seen/Property/HasProperty", "both\\\t\n\r"),
                    triple(obj, "/Seen/Property/HasProperty", "literal\\t backslash-t"),
                ],
            )
        ],
    )
    path = tmp_path / "dataset.tsv"
    export_dataset([record], path)
    assert import_dataset(path) == [record]
    # The file itself stays line-delimited.
    assert len(path.read_text(encoding="utf-8").splitlines()) == 1


def test_export_byte_identical(sample_records, tmp_path):
    first = tmp_path / "a.tsv"
    second = tmp_path / "b.tsv"
    export_dataset(sample_records, first)
    export_dataset(sample_records, second)
    assert first.read_bytes() == second.read_bytes()


def test_import_rejects_truncated(tmp_path, sample_records):
    path = tmp_path / "dataset.tsv"
    export_dataset(sample_records, path)
    text = path.read_text(encoding="utf-8")
    path.write_text(text[: len(text) // 2].rstrip("\n") + "\n", encoding="utf-8")
    with pytest.raises(MalformedRecord):
        import_dataset(path)


@pytest.mark.parametrize(
    "groups",
    [
        "/Seen/Property/HasProperty\t1\ttall\tscene_triple\t0.0"
        "\t/Seen/Property/HasProperty\t1\tshort\tscene_triple\t0.0",
        "/Unseen/Action/CapableOf\t1\tgrow up\tkb_retrieval\t1.0"
        "\t/Seen/Property/HasProperty\t1\ttall\tscene_triple\t0.0",
    ],
    ids=["repeated", "out-of-order"],
)
def test_import_rejects_noncanonical_groups(tmp_path, groups):
    path = tmp_path / "dataset.tsv"
    path.write_text(
        "img1\t0\n" f"img2\t1\to1\tman\t0\t0\t5\t5\t2\t{groups}\n", encoding="utf-8"
    )
    with pytest.raises(MalformedRecord) as excinfo:
        import_dataset(path)
    assert excinfo.value.line_number == 2


@pytest.mark.parametrize("score", ["nan", "inf", "-1"])
def test_import_rejects_score_that_is_not_a_weight(tmp_path, score):
    path = tmp_path / "dataset.tsv"
    group = f"/Unseen/Action/CapableOf\t1\tgrow up\tkb_retrieval\t{score}"
    path.write_text(
        "img1\t0\n" f"img2\t1\to1\tman\t0\t0\t5\t5\t1\t{group}\n", encoding="utf-8"
    )
    with pytest.raises(MalformedRecord, match="finite, non-negative") as excinfo:
        import_dataset(path)
    assert excinfo.value.line_number == 2


@pytest.mark.parametrize(
    "record, message",
    [
        ("img2\t1\to1\tman\t0\t0\t5", "missing field: h"),
        ("img2\t-1", "object count is negative"),
        ("img2\t1\to1\tman\t0\t0\t0\t5\t0", "box needs positive size"),
        ("img2\t1\to1\tman\t0\t0\t5\t5\t1\t/Seen/Property/HasProperty\t1\ttall\tguess\t0.0",
         "unknown provenance 'guess'"),
        ("img2\t1\to1\tman\t0\t0\t5\t5\t1\t/Seen/Property/HasProperty\t1\ttall"
         "\tkb_retrieval\t0.0", "does not match category"),
    ],
    ids=["missing-field", "negative-count", "bad-box", "unknown-provenance",
         "provenance-mismatch"],
)
def test_dataset_reader_rejects_malformed_line(tmp_path, record, message):
    path = tmp_path / "dataset.tsv"
    path.write_text(f"img1\t0\n{record}\n", encoding="utf-8")
    with pytest.raises(MalformedRecord, match=message) as excinfo:
        import_dataset(path)
    assert excinfo.value.line_number == 2


def test_stats_empty():
    stats = compute_stats([])
    assert stats.image_count == 0
    assert stats.bbox_count == 0
    assert stats.unique_object_names == 0
    assert set(stats.per_category.values()) == {0}


def test_stats_counts(sample_records):
    stats = compute_stats(sample_records)
    assert stats.image_count == 1
    assert stats.bbox_count == 2
    assert stats.unique_object_names == 2
    assert stats.per_category["/Seen/Space/LocatedNear"] == 2
    assert stats.per_category["/Unseen/Action/CapableOf"] == 2
    assert stats.per_category["/Unseen/Property/CreatedBy"] == 0


def test_stats_distinct_by_name(tmp_path):
    # Two boxes with the same name and tail count once per category.
    a = make_object("o1", name="car")
    b = make_object("o2", name="car", box=(30, 0, 5, 5))
    record = DatasetRecord(
        image_id="img1",
        entries=[
            group_triples(a, [triple(a, "/Seen/Property/HasProperty", "red")]),
            group_triples(b, [triple(b, "/Seen/Property/HasProperty", "red")]),
        ],
    )
    assert compute_stats([record]).per_category["/Seen/Property/HasProperty"] == 1


def test_stats_survive_round_trip(sample_records, tmp_path):
    path = tmp_path / "dataset.tsv"
    export_dataset(sample_records, path)
    assert compute_stats(import_dataset(path)).as_dict() == compute_stats(
        sample_records
    ).as_dict()


def test_query_by_name_and_category(sample_records, lexicon):
    hits = query(sample_records, "man", CategoryPath.SEEN_LOCATED_NEAR, lexicon)
    assert [t.tail for t in hits] == ["car"]


def test_query_lemmatizes_argument(sample_records, lexicon):
    hits = query(sample_records, "cars", CategoryPath.SEEN_LOCATED_NEAR, lexicon)
    assert [t.tail for t in hits] == ["man"]


def test_query_normalizes_argument(lexicon):
    light = make_object("o1", name="traffic light")
    records = [
        DatasetRecord(
            image_id="img1",
            entries=[group_triples(light, [triple(light, "/Seen/Space/LocatedNear", "road")])],
        )
    ]
    hits = query(records, "traffic light", CategoryPath.SEEN_LOCATED_NEAR, lexicon)
    assert [t.tail for t in hits] == ["road"]
    for name in ("Traffic_Light", "  traffic   LIGHTS "):
        assert query(records, name, CategoryPath.SEEN_LOCATED_NEAR, lexicon) == hits


def test_query_unknown_name_empty(sample_records, lexicon):
    assert query(sample_records, "unicorn", CategoryPath.SEEN_LOCATED_NEAR, lexicon) == []


def test_query_preserves_unseen_order(sample_records, lexicon):
    hits = query(sample_records, "man", CategoryPath.UNSEEN_CAPABLE_OF, lexicon)
    assert [t.tail for t in hits] == ["grow up", "read book"]


def _unescape_by_loop(text):
    """Character-by-character reference decoder for the dataset escapes."""
    mapping = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text) and text[i + 1] in mapping:
            out.append(mapping[text[i + 1]])
            i += 2
            continue
        out.append(ch)
        i += 1
    return "".join(out)


# Half backslashes, escape letters and the escaped characters themselves,
# so that runs like "\\\t" and a trailing lone backslash come up often.
_ESCAPE_HEAVY_TEXT = st.text(st.sampled_from("\\tnrx\t\n\r") | st.characters())


@given(_ESCAPE_HEAVY_TEXT)
def test_unescape_matches_reference_loop(text):
    assert _unescape(text) == _unescape_by_loop(text)


@given(_ESCAPE_HEAVY_TEXT)
def test_escape_round_trip(text):
    escaped = _escape(text)
    assert not any(ch in escaped for ch in "\t\n\r")
    assert _unescape(escaped) == text


# Names and tails with every character the format escapes, the line breaks
# that text-mode reading does not split on (NEL, U+2028), and astral ones.
_FIELD_TEXT = st.text(
    st.sampled_from(["\t", "\\", "\r", "\n", "\x85", "\u2028", "\U0001f600", "t", " "])
    | st.characters(codec="utf-8"),
    max_size=6,
)
_IDS = st.text("abxyz019_-.", min_size=1, max_size=4)
_TRIPLE_FIELDS = st.tuples(
    st.sampled_from(CategoryPath),
    st.sampled_from([p for p in Provenance if p is not Provenance.KB_RETRIEVAL]),
    # Tails must not be blank: field text around a character that is not a space.
    st.builds("{}{}{}".format, _FIELD_TEXT, st.sampled_from("t\\\U0001f600"), _FIELD_TEXT),
    st.floats(min_value=0, allow_nan=False, allow_infinity=False),
)
_OBJECT_FIELDS = st.tuples(
    _FIELD_TEXT,
    st.builds(BBox, st.integers(0, 99), st.integers(0, 99), st.integers(1, 99), st.integers(1, 99)),
    st.lists(_TRIPLE_FIELDS, max_size=3),
)


def _record(fields):
    image_id, objects = fields
    entries = []
    for object_id, (name, box, triples) in objects.items():
        obj = GroundedObject(object_id, image_id, name, box)
        triples = [
            triple(obj, category.text, tail, score=score,
                   provenance=None if category.visibility is Visibility.UNSEEN else provenance)
            for category, provenance, tail, score in triples
        ]
        entries.append(group_triples(obj, triples))
    return DatasetRecord(image_id=image_id, entries=entries)


_RECORDS = st.tuples(_IDS, st.dictionaries(_IDS, _OBJECT_FIELDS, max_size=3)).map(_record)


@given(records=st.lists(_RECORDS, min_size=1, max_size=2))
@settings(max_examples=120, deadline=None)
def test_record_lines_read_back_unchanged(tmp_path_factory, records):
    path = tmp_path_factory.getbasetemp() / "record-lines.tsv"
    export_dataset(records, path)
    assert list(iter_dataset(path)) == records
