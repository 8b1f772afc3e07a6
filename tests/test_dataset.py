import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vckb import (
    BBox,
    DatasetRecord,
    GroundedObject,
    Provenance,
    compute_stats,
    group_triples,
    import_dataset,
    iter_dataset,
    parse_category,
    query,
)
from vckb.dataset import (
    CategoryGroup,
    ObjectEntry,
    _escape,
    _parse_record,
    _unescape,
    record_line,
)
from vckb.errors import InvalidCategory, MalformedRecord
from vckb.ingest import _parse_weight
from vckb.seen import CommonsenseTriple
from vckb.taxonomy import CategoryPath, Visibility

from conftest import make_object, write_dataset


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
    write_dataset(sample_records, path)
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
    write_dataset(sample_records, path)
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
    write_dataset([record], path)
    assert import_dataset(path) == [record]
    # The file itself stays line-delimited.
    assert len(path.read_text(encoding="utf-8").splitlines()) == 1


def test_export_byte_identical(sample_records, tmp_path):
    first = tmp_path / "a.tsv"
    second = tmp_path / "b.tsv"
    write_dataset(sample_records, first)
    write_dataset(sample_records, second)
    assert first.read_bytes() == second.read_bytes()


def test_import_rejects_truncated(tmp_path, sample_records):
    path = tmp_path / "dataset.tsv"
    write_dataset(sample_records, path)
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
        ("img2\t0\tmore", "trailing fields after record"),
        ("img2\t1\to1\tman\tx\t0\t5\t5\t0", "x is not an integer: 'x'"),
        ("img2\t1\to1\tman\t0\t0\t5\t5\t1\t/Seen/Property/HasProperty\t-1",
         "triple count is negative"),
        ("img2\t1\to1\tman\t0\t0\t5\t5\t1\t/Seen/Property/Bogus\t0",
         "not a taxonomy leaf: '/Seen/Property/Bogus'"),
        ("img2\t1\to1\tman\t0\t0\t5\t5\t1\t/Seen/Property/HasProperty\t1\ttall",
         "missing field: provenance"),
        ("img2\t1\to1\tman\t0\t0\t5\t5\t1\t/Seen/Property/HasProperty\t1\ttall\tguess",
         "unknown provenance 'guess'"),
    ],
    ids=["missing-field", "negative-count", "bad-box", "unknown-provenance",
         "provenance-mismatch", "trailing-fields", "not-an-integer", "negative-triple-count",
         "not-a-leaf", "ends-after-tail", "unknown-provenance-no-score"],
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
    write_dataset(sample_records, path)
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
# `_record` gives unseen triples kb_retrieval in place of the drawn provenance.
_SEEN_PROVENANCES = st.sampled_from([p for p in Provenance if p is not Provenance.KB_RETRIEVAL])
_TRIPLE_FIELDS = st.tuples(
    st.sampled_from(CategoryPath),
    _SEEN_PROVENANCES,
    # Tails must not be blank: field text around a character that is not a space.
    st.builds("{}{}{}".format, _FIELD_TEXT, st.sampled_from("t\\\U0001f600"), _FIELD_TEXT),
    st.floats(min_value=0, allow_nan=False, allow_infinity=False),
)
_BOXES = st.builds(
    BBox, st.integers(0, 99), st.integers(0, 99), st.integers(1, 99), st.integers(1, 99)
)
_OBJECT_FIELDS = st.tuples(_FIELD_TEXT, _BOXES, st.lists(_TRIPLE_FIELDS, max_size=3))


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
    write_dataset(records, path)
    assert list(iter_dataset(path)) == records


class _ReferenceFields:
    """The reference reader's cursor over a line's fields: one call per field."""

    def __init__(self, fields, path, line_number):
        self.fields = fields
        self.path = path
        self.line_number = line_number
        self.index = 0

    def take(self, what):
        if self.index >= len(self.fields):
            raise MalformedRecord(self.path, self.line_number, f"missing field: {what}")
        value = self.fields[self.index]
        self.index += 1
        return value

    def take_int(self, what):
        value = self.take(what)
        try:
            number = int(value)
        except ValueError:
            raise MalformedRecord(
                self.path, self.line_number, f"{what} is not an integer: {value!r}"
            ) from None
        if number < 0:
            raise MalformedRecord(self.path, self.line_number, f"{what} is negative")
        return number


def _reference_record(fields, path, line_number):
    """Per-field reference reader: builds a record one field at a time and
    raises MalformedRecord for the first bad field, in field order."""
    reader = _ReferenceFields(fields, path, line_number)

    def malformed(message):
        return MalformedRecord(path, line_number, message)

    rank_of = {category: rank for rank, category in enumerate(CategoryPath)}
    image_id = reader.take("image_id")
    entries = []
    for _ in range(reader.take_int("object count")):
        object_id = reader.take("object_id")
        name = _unescape(reader.take("name"))
        x, y, w, h = (reader.take_int(what) for what in "xywh")
        try:
            obj = GroundedObject(object_id, image_id, name, BBox(x, y, w, h))
        except ValueError as exc:
            raise malformed(str(exc)) from None
        groups = []
        last_rank = -1
        for _ in range(reader.take_int("group count")):
            try:
                category = parse_category(reader.take("category"))
            except InvalidCategory as exc:
                raise malformed(str(exc)) from None
            if rank_of[category] <= last_rank:
                raise malformed(
                    f"group {category.text} of object {object_id!r} is repeated "
                    "or out of canonical order"
                )
            last_rank = rank_of[category]
            triples = []
            for _ in range(reader.take_int("triple count")):
                tail = _unescape(reader.take("tail"))
                provenance_text = reader.take("provenance")
                try:
                    provenance = Provenance(provenance_text)
                except ValueError:
                    raise malformed(f"unknown provenance {provenance_text!r}") from None
                score = _parse_weight(reader.take("score"), path, line_number, "score")
                try:
                    triples.append(CommonsenseTriple(obj, category, tail, provenance, score))
                except ValueError as exc:
                    raise malformed(str(exc)) from None
            groups.append(CategoryGroup(category, triples))
        entries.append(ObjectEntry(obj, groups))
    if reader.index != len(fields):
        raise malformed("trailing fields after record")
    return DatasetRecord(image_id, entries)


def _field_kinds(record):
    """The kind of each field of the record's line, in field order."""
    kinds = ["image_id", "count"]
    for entry in record.entries:
        kinds += ["object_id", "name", "coordinate", "coordinate", "coordinate", "coordinate",
                  "count"]
        for group in entry.groups:
            kinds += ["leaf", "count"] + ["tail", "provenance", "score"] * len(group.triples)
    return kinds


def _off_by_one(fields, kinds, at):
    return [str(int(fields[at]) + 1), str(int(fields[at]) - 1)] if fields[at].isdigit() else [""]


def _leaves_of_line(fields, kinds, at):
    return [field for field, kind in zip(fields, kinds) if kind == "leaf"]


# Each mutation that rewrites one field: the kind of field, and the values it
# may write there, or a function of the fields, their kinds and the place
# that gives them. They give counts off by one, negative, zero and
# non-integer counts and coordinates, unknown leaves and provenances, leaves
# repeated, out of order or of the other visibility, scores that are no
# weight, and tails that are empty or blank once unescaped.
_REWRITES = {
    "count off by one": ("count", _off_by_one),
    "bad count": ("count", ["-1", "x", "1.5", ""]),
    "bad coordinate": ("coordinate", ["-1", "0", "x", "1.5", ""]),
    "leaf of the line": ("leaf", _leaves_of_line),
    "other leaf": ("leaf", [leaf.text for leaf in CategoryPath]),
    "unknown leaf": ("leaf", ["/Seen/Property/Bogus", "/Unseen/Space/Relatedness", ""]),
    "other provenance": ("provenance", [provenance.value for provenance in Provenance]),
    "unknown provenance": ("provenance", ["guess", ""]),
    "negative score": ("score", ["-1", "-inf", "-1e-300"]),
    "score not finite": ("score", ["nan", "inf", "1e400"]),
    "not a number": ("score", ["x", "", "1,5"]),
    "blank tail": ("tail", ["", " ", "\\t", "\\n\\r"]),
}
# Fields dropped, inserted, swapped or appended take one of these.
_ANY_FIELD = st.sampled_from(
    ["", "0", "1", "-1", "x", "nan", "0.5", "guess", "scene_triple", "kb_retrieval",
     "/Seen/Property/HasProperty", "/Unseen/Action/UsedFor"]
)
# Names and tails: escapes, blanks around text, an astral character.
_SHORT_TEXT = st.sampled_from(["man", "red car", "tab\there", "back\\slash", "new\nline",
                               " x ", "\U0001f600"])
# Records of up to three objects with up to five triples each.
_RECORDS_WITH_TRIPLES = st.tuples(
    _IDS,
    st.dictionaries(
        _IDS,
        st.tuples(
            _SHORT_TEXT,
            _BOXES,
            st.lists(
                st.tuples(
                    st.sampled_from(CategoryPath),
                    _SEEN_PROVENANCES,
                    _SHORT_TEXT,
                    st.sampled_from([0.0, 0.5, 1.25, 1e300]),
                ),
                max_size=5,
            ),
        ),
        max_size=3,
    ),
).map(_record)


@st.composite
def _mutated_fields(draw):
    """The fields of a line of `record_line` after up to two mutations: a
    field rewritten as in `_REWRITES`, or a field dropped, inserted, swapped
    or appended."""
    record = draw(_RECORDS_WITH_TRIPLES)
    fields = record_line(record).split("\t")
    kinds = _field_kinds(record)
    # "none" first: Hypothesis draws the first element most often.
    mutations = st.sampled_from(["none", *_REWRITES, "drop", "insert", "swap", "append"])
    for mutation in draw(st.lists(mutations, min_size=1, max_size=2)):
        at = draw(st.integers(0, len(fields) - 1))
        if mutation in _REWRITES:
            kind, values = _REWRITES[mutation]
            places = [i for i, k in enumerate(kinds) if k == kind]
            if not places:  # the line has no field of this kind
                continue
            at = draw(st.sampled_from(places))
            if callable(values):
                values = values(fields, kinds, at)
            fields[at] = draw(st.sampled_from(values))
        elif mutation == "drop" and len(fields) > 1:
            del fields[at], kinds[at]
        elif mutation == "insert":
            fields.insert(at, draw(_ANY_FIELD))
            kinds.insert(at, "inserted")
        elif mutation == "swap":
            other = draw(st.integers(0, len(fields) - 1))
            fields[at], fields[other] = fields[other], fields[at]
            kinds[at], kinds[other] = kinds[other], kinds[at]
        elif mutation == "append":
            fields.append(draw(_ANY_FIELD))
            kinds.append("inserted")
    return fields


@given(_mutated_fields())
@settings(max_examples=500, deadline=None)
def test_reader_agrees_with_per_field_reference(fields):
    try:
        expected = _reference_record(list(fields), "data.tsv", 7)
    except MalformedRecord as exc:
        with pytest.raises(MalformedRecord) as excinfo:
            _parse_record(list(fields), "data.tsv", 7)
        assert (excinfo.value.message, excinfo.value.line_number) == (exc.message, 7)
    else:
        assert _parse_record(list(fields), "data.tsv", 7) == expected
