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

The reader takes a line in one pass over its fields and checks each group's
triple fields at once. A malformed line raises MalformedRecord for its first
bad field in field order: a line the one-pass reader refuses is walked again
one field at a time to name that field.
"""

from __future__ import annotations

import json
import math
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from .errors import InvalidCategory, MalformedRecord
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
from .taxonomy import CategoryPath, parse_category


@dataclass
class CategoryGroup:
    category: CategoryPath
    triples: list[CommonsenseTriple]


@dataclass
class ObjectEntry:
    obj: GroundedObject
    groups: list[CategoryGroup] = field(default_factory=list)

    def __post_init__(self):
        for group in self.groups:
            for triple in group.triples:
                if triple.head.object_id != self.obj.object_id:
                    raise ValueError(
                        f"triple head {triple.head.object_id!r} does not match "
                        f"entry object {self.obj.object_id!r}"
                    )

    def group(self, category: CategoryPath) -> list[CommonsenseTriple]:
        for group in self.groups:
            if group.category == category:
                return group.triples
        return []


@dataclass
class DatasetRecord:
    image_id: str
    entries: list[ObjectEntry] = field(default_factory=list)


def group_triples(
    obj: GroundedObject, triples: list[CommonsenseTriple]
) -> ObjectEntry:
    """Group one object's triples by category in canonical category order.

    Within a group the incoming order is preserved, so sorted unseen lists
    stay sorted.
    """
    by_category: dict[CategoryPath, list[CommonsenseTriple]] = {}
    for triple in triples:
        by_category.setdefault(triple.category, []).append(triple)
    groups = [
        CategoryGroup(category=category, triples=by_category[category])
        for category in CategoryPath
        if category in by_category
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
    """The record's line of the dataset file, without its newline."""
    fields = [record.image_id, str(len(record.entries))]
    for entry in record.entries:
        obj = entry.obj
        box = obj.bbox
        fields.extend(
            [
                obj.object_id,
                _escape(obj.name),
                str(box.x),
                str(box.y),
                str(box.w),
                str(box.h),
                str(len(entry.groups)),
            ]
        )
        for group in entry.groups:
            fields.extend([group.category.text, str(len(group.triples))])
            for triple in group.triples:
                fields.extend(
                    [_escape(triple.tail), triple.provenance.value, repr(triple.score)]
                )
    return "\t".join(fields)


# Position of each leaf in the canonical group order of a record.
_GROUP_RANK = {category: rank for rank, category in enumerate(CategoryPath)}
# Each leaf and provenance by the text that names it in a record; the leaf
# table also gives the rank, so that reading a group hashes no enum member.
_LEAVES = {leaf.text: (leaf, rank) for leaf, rank in _GROUP_RANK.items()}
_PROVENANCES = {provenance.value: provenance for provenance in Provenance}


def _read_record(fields: list[str]) -> DatasetRecord:
    """The record on a line's fields, read in one pass with each group's
    triple fields taken at once. Any check that fails raises ValueError or
    LookupError, which name nothing: `_walk_record` names the bad field."""
    end = len(fields)
    image_id = fields[0]
    object_count = int(fields[1])
    if object_count < 0:
        raise ValueError
    i = 2
    entries = []
    for _ in range(object_count):
        x, y, w, h = map(int, fields[i + 2 : i + 6])
        obj = GroundedObject(fields[i], image_id, _unescape(fields[i + 1]), BBox(x, y, w, h))
        group_count = int(fields[i + 6])
        if group_count < 0:
            raise ValueError
        i += 7
        groups = []
        last_rank = -1
        for _ in range(group_count):
            category, rank = _LEAVES[fields[i]]
            triple_count = int(fields[i + 1])
            start = i + 2
            i = start + 3 * triple_count
            if rank <= last_rank or triple_count < 0 or i > end:
                raise ValueError
            last_rank = rank
            triples = []
            for tail, provenance, score in zip(
                fields[start:i:3],
                fields[start + 1 : i : 3],
                map(float, fields[start + 2 : i : 3]),
            ):
                if not 0 <= score < math.inf:  # the rule of ingest._parse_weight
                    raise ValueError
                triples.append(
                    CommonsenseTriple(
                        obj, category, _unescape(tail), _PROVENANCES[provenance], score
                    )
                )
            groups.append(CategoryGroup(category, triples))
        entries.append(ObjectEntry(obj, groups))
    if i != end:
        raise ValueError
    return DatasetRecord(image_id, entries)


class _FieldReader:
    def __init__(self, fields: list[str], path, line_number: int):
        self.fields = fields
        self.path = path
        self.line_number = line_number
        self.index = 0

    def take(self, what: str) -> str:
        if self.index >= len(self.fields):
            raise MalformedRecord(self.path, self.line_number, f"missing field: {what}")
        value = self.fields[self.index]
        self.index += 1
        return value

    def take_int(self, what: str) -> int:
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

    def done(self) -> None:
        if self.index != len(self.fields):
            raise MalformedRecord(
                self.path, self.line_number, "trailing fields after record"
            )


def _walk_record(reader: _FieldReader) -> None:
    """Check a line's fields one at a time, in field order, and raise
    MalformedRecord for the first bad one; return if there is none."""
    image_id = reader.take("image_id")
    for _ in range(reader.take_int("object count")):
        object_id = reader.take("object_id")
        name = _unescape(reader.take("name"))
        x = reader.take_int("x")
        y = reader.take_int("y")
        w = reader.take_int("w")
        h = reader.take_int("h")
        try:
            obj = GroundedObject(
                object_id=object_id, image_id=image_id, name=name, bbox=BBox(x, y, w, h)
            )
        except ValueError as exc:
            raise MalformedRecord(reader.path, reader.line_number, str(exc)) from None
        last_rank = -1
        for _ in range(reader.take_int("group count")):
            try:
                category = parse_category(reader.take("category"))
            except InvalidCategory as exc:
                raise MalformedRecord(
                    reader.path, reader.line_number, str(exc)
                ) from None
            rank = _GROUP_RANK[category]
            if rank <= last_rank:
                raise MalformedRecord(
                    reader.path,
                    reader.line_number,
                    f"group {category.text} of object {object_id!r} is repeated "
                    "or out of canonical order",
                )
            last_rank = rank
            for _ in range(reader.take_int("triple count")):
                tail = _unescape(reader.take("tail"))
                provenance_text = reader.take("provenance")
                try:
                    provenance = Provenance(provenance_text)
                except ValueError:
                    raise MalformedRecord(
                        reader.path,
                        reader.line_number,
                        f"unknown provenance {provenance_text!r}",
                    ) from None
                score = _parse_weight(
                    reader.take("score"), reader.path, reader.line_number, "score"
                )
                try:
                    CommonsenseTriple(
                        head=obj,
                        category=category,
                        tail=tail,
                        provenance=provenance,
                        score=score,
                    )
                except ValueError as exc:
                    raise MalformedRecord(
                        reader.path, reader.line_number, str(exc)
                    ) from None
    reader.done()


def _parse_record(fields: list[str], path, line_number: int) -> DatasetRecord:
    """The record on one line's fields. A line `_read_record` refuses is
    walked field by field, which raises MalformedRecord for its first bad
    field; if the walk finds none, that is an internal error."""
    try:
        return _read_record(fields)
    except (ValueError, LookupError):
        pass
    _walk_record(_FieldReader(fields, path, line_number))
    raise RuntimeError(
        f"{path}:{line_number}: the one-pass reader refused a line the field walk accepts"
    )


def _chunk_records(path, chunk) -> Iterator[DatasetRecord]:
    """Yield the records of one chunk of a dataset file, a range from
    `_line_chunks` or the whole file's (0, None, 1); errors name the line's
    number in the whole file."""
    for line_number, line in _read_lines(path, chunk):
        yield _parse_record(line.split("\t"), path, line_number)


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
) -> list[CommonsenseTriple]:
    """All triples for a head name (lemma match) in one category.

    Unseen results keep their stored object-aware order.
    """
    target = name_keys(_normalize_name(object_name), lexicon)[0]
    out: list[CommonsenseTriple] = []
    for record in records:
        for entry in record.entries:
            if name_keys(entry.obj.name, lexicon)[0] != target:
                continue
            out.extend(entry.group(category))
    return out
