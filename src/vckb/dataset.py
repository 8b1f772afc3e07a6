"""Dataset records, on-disk serialization, statistics, and lookup.

One dataset record holds one image's objects, each with its commonsense
triples grouped by category. The on-disk form is line-delimited UTF-8, one
record per line, tab-separated, with free-text fields escaped:

    image_id  n_objects  { object_id  name  x y w h  n_groups
                           { category  n_triples  { tail provenance score }* }* }*

An object's groups are unique and in canonical category order (the
declaration order of ``CategoryPath``); the reader rejects any other order.
Backslash, tab, newline, and carriage return inside text fields are escaped
as ``\\\\``, ``\\t``, ``\\n``, and ``\\r``. Scores are written with ``repr``
so floats round-trip exactly, and the reader rejects a score that is not a
finite, non-negative number, as the KB loader rejects such a weight;
repeated runs over identical inputs are byte-identical.

`record_line` renders one record's line, and `pipeline.export_records`
writes a file of them; `iter_dataset` streams the records back, and
`import_dataset` is its list form.

A record holds each fact of its line once, as the line does: the image id
on the record, each object on its entry, and each triple as its leaf, tail,
provenance and score, filed under its entry's object. `query` hands out a
triple with its record's image id and its entry's object.

A record's rules are checked where a line enters, once: names and tails
must not be blank once unescaped, and a triple's provenance must fit its
leaf (`_check_triple`). Triples and entries are plain records that check
nothing when built; the builders make valid ones by construction.
The file has one reader, `_read_record`. It takes a line in one pass over its
fields and checks each group's triple fields at once. A malformed line raises
MalformedRecord for its first bad field in field order; the message is worked
out only once a check has failed.
"""

from __future__ import annotations

import json
import math
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from typing import NoReturn

from .errors import InvalidCategory, MalformedRecord, VckbError
from .geometry import BBox
from .ingest import (
    GroundedObject,
    _normalize_name,
    _parse_weight,
    _read_lines,
)
from .lexicon import Lexicon
from .phrase import name_keys
from .seen import CommonsenseTriple, Provenance
from .taxonomy import CategoryPath, Visibility, parse_category


@dataclass
class CategoryGroup:
    category: CategoryPath
    triples: list[CommonsenseTriple]


@dataclass
class ObjectEntry:
    obj: GroundedObject  # the head of every triple in its groups
    groups: list[CategoryGroup] = field(default_factory=list)

    def group(self, category: CategoryPath) -> list[CommonsenseTriple]:
        for group in self.groups:
            if group.category == category:
                return group.triples
        return []


@dataclass
class DatasetRecord:
    image_id: str
    entries: list[ObjectEntry] = field(default_factory=list)


# The canonical group order of a record, each leaf with its text, so that
# grouping keys by text and hashes no enum member.
_LEAF_ORDER = tuple((leaf.text, leaf) for leaf in CategoryPath)


def group_triples(
    obj: GroundedObject, triples: list[CommonsenseTriple]
) -> ObjectEntry:
    """Group one object's triples by category in canonical category order.

    Within a group the incoming order is preserved, so sorted unseen lists
    stay sorted.
    """
    by_text: dict[str, list[CommonsenseTriple]] = {}
    for triple in triples:
        by_text.setdefault(triple.category.text, []).append(triple)
    groups = [
        CategoryGroup(category=leaf, triples=by_text[text])
        for text, leaf in _LEAF_ORDER
        if text in by_text
    ]
    return ObjectEntry(obj=obj, groups=groups)


# Each character that cannot appear raw in a field, and its escape. The
# backslash comes first so that _escape never re-escapes its own output.
# \r must be escaped too: universal-newline reading would otherwise split a
# record at a stray carriage return.
_ESCAPES = {"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"}
_UNESCAPES = {escaped: raw for raw, escaped in _ESCAPES.items()}
_ESCAPE_SEQUENCE = re.compile("|".join(map(re.escape, _UNESCAPES)))
_NEEDS_ESCAPE = re.compile(r"[\\\t\n\r]")


def _escape(text: str) -> str:
    if _NEEDS_ESCAPE.search(text) is None:
        return text
    for raw, escaped in _ESCAPES.items():
        text = text.replace(raw, escaped)
    return text


def _unescape(text: str) -> str:
    # A backslash that starts no escape sequence is kept as it is.
    if "\\" not in text:
        return text
    return _ESCAPE_SEQUENCE.sub(lambda match: _UNESCAPES[match[0]], text)


def record_line(record: DatasetRecord) -> str:
    """The record's line of the dataset file, without its newline.

    The raw fields are joined once. A line with no backslash, LF or CR, and
    no tab but the separators, had no field to escape, so it is the line;
    otherwise the names and tails are escaped and the fields joined again.
    """
    fields = [record.image_id, str(len(record.entries))]
    for entry in record.entries:
        obj = entry.obj
        box = obj.bbox
        fields += (
            obj.object_id, obj.name, str(box.x), str(box.y), str(box.w), str(box.h),
            str(len(entry.groups)),
        )
        for group in entry.groups:
            fields += (group.category.text, str(len(group.triples)))
            for triple in group.triples:
                fields += (triple.tail, triple.provenance.text, repr(triple.score))
    line = "\t".join(fields)
    # Three substring scans are far cheaper than one regex search of the line.
    if (
        "\\" not in line
        and "\n" not in line
        and "\r" not in line
        and line.count("\t") == len(fields) - 1
    ):
        return line
    i = 2
    for entry in record.entries:
        fields[i + 1] = _escape(fields[i + 1])
        i += 7
        for group in entry.groups:
            i += 2
            for _ in group.triples:
                fields[i] = _escape(fields[i])
                i += 3
    return "\t".join(fields)


# The provenances a triple may have under a leaf of each visibility, by the
# text that names them in a record: a triple comes from the KB exactly when
# its leaf is unseen.
_PROVENANCES = {
    visibility: {
        provenance.value: provenance
        for provenance in Provenance
        if (provenance is Provenance.KB_RETRIEVAL) == (visibility is Visibility.UNSEEN)
    }
    for visibility in Visibility
}
# Each leaf by the text that names it in a record, with its rank in the
# canonical group order and the provenances its triples may have, so that
# reading a group hashes no enum member and reading a triple reads no enum
# attribute.
_LEAVES = {
    text: (leaf, rank, _PROVENANCES[leaf.visibility])
    for rank, (text, leaf) in enumerate(_LEAF_ORDER)
}


def _check_triple(category: CategoryPath, tail: str, provenance: Provenance) -> None:
    """Raise ValueError unless a triple of these fields is valid: its tail is
    not blank, and its provenance fits its leaf's visibility."""
    if not tail.strip():
        raise ValueError("triple tail must be non-empty")
    if provenance.value not in _PROVENANCES[category.visibility]:
        raise ValueError(
            f"provenance {provenance.value} does not match category {category.text}"
        )


def _count(fields: list[str], at: int, what: str, path, line_number: int) -> int:
    """The count or coordinate in `fields[at]`, a non-negative integer."""
    try:
        number = int(fields[at])
    except IndexError:
        raise MalformedRecord(path, line_number, f"missing field: {what}") from None
    except ValueError:
        raise MalformedRecord(
            path, line_number, f"{what} is not an integer: {fields[at]!r}"
        ) from None
    if number < 0:
        raise MalformedRecord(path, line_number, f"{what} is negative")
    return number


def _group_error(
    category: CategoryPath, triple_fields: list[str], path, line_number: int
) -> NoReturn:
    """Raise MalformedRecord for the first bad field among a group's triple
    fields: a group the one-pass read refused, or one the line ends inside.

    Each triple is checked in field order: a known provenance, a score that
    is a weight, then `_check_triple`'s rules. In a triple the line ends
    inside, a provenance that is present must be known before the first
    absent field is named.
    """
    for at in range(0, len(triple_fields) + 1, 3):
        triple = triple_fields[at : at + 3]
        if len(triple) > 1:
            try:
                provenance = Provenance(triple[1])
            except ValueError:
                raise MalformedRecord(
                    path, line_number, f"unknown provenance {triple[1]!r}"
                ) from None
        if len(triple) < 3:
            missing = ("tail", "provenance", "score")[len(triple)]
            raise MalformedRecord(path, line_number, f"missing field: {missing}")
        _parse_weight(triple[2], path, line_number, "score")
        try:
            _check_triple(category, _unescape(triple[0]), provenance)
        except ValueError as exc:
            raise MalformedRecord(path, line_number, str(exc)) from None


def _read_record(fields: list[str], path, line_number: int) -> DatasetRecord:
    """The record on a line's fields (at least one, as `str.split` gives).

    One pass reads the line; each group's triple fields are taken at once,
    and a triple's provenance is looked up among those its leaf admits. Every
    rule is checked as it goes, blank ids and names and `_check_triple`'s
    rules included. A line that breaks one raises MalformedRecord for its
    first bad field in field order; the message is worked out only then.
    """
    end = len(fields)
    image_id = fields[0]
    if not image_id.strip():
        raise MalformedRecord(path, line_number, "image id is empty")
    object_count = _count(fields, 1, "object count", path, line_number)
    i = 2
    entries = []
    for _ in range(object_count):
        if i >= end:
            raise MalformedRecord(path, line_number, "missing field: object_id")
        object_id = fields[i]
        if not object_id.strip():  # the scene loader's messages
            raise MalformedRecord(path, line_number, "object id is empty")
        try:
            name = _unescape(fields[i + 1])
        except IndexError:
            raise MalformedRecord(path, line_number, "missing field: name") from None
        if not name.strip():
            raise MalformedRecord(path, line_number, "object name is empty")
        # Each coordinate is checked for a negative value before BBox is.
        x = _count(fields, i + 2, "x", path, line_number)
        y = _count(fields, i + 3, "y", path, line_number)
        w = _count(fields, i + 4, "w", path, line_number)
        h = _count(fields, i + 5, "h", path, line_number)
        try:
            obj = GroundedObject(object_id, name, BBox(x, y, w, h))
        except ValueError as exc:
            raise MalformedRecord(path, line_number, str(exc)) from None
        group_count = _count(fields, i + 6, "group count", path, line_number)
        i += 7
        groups = []
        last_rank = -1
        for _ in range(group_count):
            try:
                category, rank, provenances = _LEAVES[fields[i]]
            except LookupError:
                if i >= end:
                    raise MalformedRecord(path, line_number, "missing field: category") from None
                try:
                    parse_category(fields[i])
                except InvalidCategory as exc:
                    raise MalformedRecord(path, line_number, str(exc)) from None
                raise  # not reached: _LEAVES holds every text parse_category takes
            if rank <= last_rank:
                raise MalformedRecord(
                    path,
                    line_number,
                    f"group {category.text} of object {object_id!r} is repeated "
                    "or out of canonical order",
                )
            last_rank = rank
            start = i + 2
            i = start + 3 * _count(fields, i + 1, "triple count", path, line_number)
            if i > end:
                _group_error(category, fields[start:], path, line_number)
            triples = []
            try:
                for tail, provenance, score in zip(
                    fields[start:i:3],
                    fields[start + 1 : i : 3],
                    map(float, fields[start + 2 : i : 3]),
                ):
                    tail = _unescape(tail)
                    # The score by the rule of ingest._parse_weight.
                    if not tail.strip() or not 0 <= score < math.inf:
                        raise ValueError
                    triples.append(
                        CommonsenseTriple(category, tail, provenances[provenance], score)
                    )
            except (ValueError, KeyError):
                _group_error(category, fields[start:i], path, line_number)
            groups.append(CategoryGroup(category, triples))
        entries.append(ObjectEntry(obj, groups))
    if i != end:
        raise MalformedRecord(path, line_number, "trailing fields after record")
    return DatasetRecord(image_id, entries)


def _chunk_records(path, chunk) -> Iterator[DatasetRecord]:
    """Yield the records of one chunk of a dataset file, a range from
    `_line_chunks` or the whole file's (0, None, 1); errors name the line's
    number in the whole file."""
    for line_number, line in _read_lines(path, chunk):
        yield _read_record(line.split("\t"), path, line_number)


def iter_dataset(path) -> Iterator[DatasetRecord]:
    """Yield the records of a dataset file one at a time, as it is read."""
    return _chunk_records(path, (0, None, 1))


def import_dataset(path) -> list[DatasetRecord]:
    """Read a whole dataset file written by `export_records`, as a list.

    The commands stream records through `iter_dataset`; this list form
    stays because the benchmark harness checks its build output with it.
    """
    return list(iter_dataset(path))


@dataclass
class Stats:
    image_count: int
    bbox_count: int
    unique_object_names: int
    per_category: dict[str, int]

    def as_dict(self) -> dict:
        return {
            "image_count": self.image_count,
            "bbox_count": self.bbox_count,
            "unique_object_names": self.unique_object_names,
            "per_category": dict(self.per_category),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=False)


def compute_stats(records: Iterable[DatasetRecord]) -> Stats:
    """Counts over built records; category counts are distinct triples.

    A distinct triple is a (head name, category, tail) tuple, so the same
    fact attached to many boxes counts once per category.
    """
    names = set()
    distinct: dict[str, set] = {category.text: set() for category in CategoryPath}
    image_count = bbox_count = 0
    for record in records:
        image_count += 1
        for entry in record.entries:
            bbox_count += 1
            names.add(entry.obj.name)
            for group in entry.groups:
                bucket = distinct[group.category.text]
                for triple in group.triples:
                    bucket.add((entry.obj.name, triple.tail))
    return Stats(
        image_count=image_count,
        bbox_count=bbox_count,
        unique_object_names=len(names),
        per_category={text: len(bucket) for text, bucket in distinct.items()},
    )


def query(
    records: Iterable[DatasetRecord],
    object_name: str,
    category: CategoryPath,
    lexicon: Lexicon,
) -> list[tuple[str, GroundedObject, CommonsenseTriple]]:
    """All triples for a head name (lemma match) in one category, each as an
    (image id, object, triple) hit: the id of its record, and the object of
    its entry.

    Unseen results keep their stored object-aware order. A name that
    normalizes to nothing names no object, and raises VckbError.
    """
    name = _normalize_name(object_name)
    if not name:
        raise VckbError(f"object name is empty: {object_name!r}")
    target = name_keys(name, lexicon)[0]
    out: list[tuple[str, GroundedObject, CommonsenseTriple]] = []
    for record in records:
        for entry in record.entries:
            if name_keys(entry.obj.name, lexicon)[0] != target:
                continue
            out.extend((record.image_id, entry.obj, triple) for triple in entry.group(category))
    return out
