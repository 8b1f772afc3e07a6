"""Scene-corpus and knowledge-base loading.

Scene corpus format: UTF-8, line-delimited, tab-separated, one record per
line with a one-character type prefix:

    I <tab> image_id [<tab> width <tab> height]
    O <tab> image_id <tab> object_id <tab> name <tab> x <tab> y <tab> w <tab> h
    T <tab> image_id <tab> kind(A|R) <tab> subject_id <tab> predicate <tab> object
    R <tab> image_id <tab> x <tab> y <tab> w <tab> h <tab> phrase

For attribute triples (kind A) the object column holds the attribute text;
for relationship triples (kind R) it holds an object id in the same image.
Images may be declared explicitly with at most one I record (optionally
carrying pixel dimensions) or implicitly by their first O/T/R record. Fields
cannot contain tabs or newlines; blank lines are skipped. The file is read in
one pass that builds each image's plain slotted records as its lines come,
and `load_scene_corpus` returns the images as a list, in first-seen order;
`save_scene_corpus` writes such a list back out in normalized form. Each
distinct raw name, predicate and attribute text is normalized once, so equal
names share one string, and an error message is worked out only after a
check fails.

KB file format: UTF-8, tab-separated `head <tab> relation <tab> tail`
with an optional weight column (default 1.0). Head, relation and tail must
be non-empty, and the weight must be a finite, non-negative number. The
file is read in one loop that checks and counts every row, and indexes, by
head and with their leaf, only edges of the six relations the unseen layer
reads; rows of any other relation are dropped. An error message is worked
out only for a row that fails a check. `load_kb` is the one way to make a
`KbIndex`: a KB held in memory is written out as such a file first.

Every line file vckb reads or writes goes through `_read_lines` or
`_write_lines`, and `_normalize_name` is the one normalizer of object names,
predicates, attribute text, KB heads and tails, and query names.
"""

from __future__ import annotations

import enum
import io
import math
from array import array
from dataclasses import dataclass, field
from typing import NoReturn

from .errors import DanglingReference, EmptyCorpus, EmptyKb, IoFailure, MalformedRecord
from .geometry import BBox
from .memo import Memo
from .taxonomy import KB_RELATION_LEAVES, CategoryPath


def _normalize_name(text: str) -> str:
    return " ".join(text.replace("_", " ").lower().split())


# Bytes per chunk of a line file read in parallel: enough records that a task
# costs little next to parsing them, few enough that two workers stay balanced
# and the lines in flight stay small.
_CHUNK_BYTES = 1 << 18


def _line_chunks(path) -> list[tuple[int, int, int]]:
    """Cut a line file into (byte start, byte stop, first line number) ranges.

    Each range holds about `_CHUNK_BYTES` and ends just after a newline (or
    at the end of the file), so no line, and no CRLF pair, straddles two
    ranges. Line numbers count line ends as universal-newline text mode does:
    LF, CRLF and a lone CR each end one line.
    """
    chunks = []
    start, first_line = 0, 1
    try:
        with open(path, "rb") as handle:
            while block := handle.read(_CHUNK_BYTES):
                block += handle.readline()
                stop = start + len(block)
                chunks.append((start, stop, first_line))
                first_line += (
                    block.count(b"\n") + block.count(b"\r") - block.count(b"\r\n")
                )
                start = stop
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    return chunks


def _open_lines(handle, chunk, errors: str):
    """A text reader over a binary handle's whole file, or over one chunk of it."""
    start, stop, _ = chunk
    if stop is not None:
        handle.seek(start)
        handle = io.BytesIO(handle.read(stop - start))
    # -sig drops a BOM, which only the file's first byte can open.
    encoding = "utf-8-sig" if start == 0 else "utf-8"
    return io.TextIOWrapper(handle, encoding=encoding, errors=errors)


def _read_lines(path, chunk=(0, None, 1)):
    """Yield (line number, line) for each non-blank line, newline removed.

    By default the whole file is read; a chunk from `_line_chunks` reads only
    its byte range, and line numbers stay those of the whole file.
    """
    try:
        # Text mode decodes in blocks, far cheaper than per line.
        with open(path, "rb") as handle:
            lines = _open_lines(handle, chunk, "strict")
            for line_number, raw in enumerate(lines, start=chunk[2]):
                line = raw.rstrip("\n")
                if line.strip():
                    yield line_number, line
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError:
        line_number = _undecodable_line(path, chunk)
        raise MalformedRecord(path, line_number, "not valid UTF-8") from None


def _undecodable_line(path, chunk) -> int | None:
    """Number of the first line of chunk that is not valid UTF-8, lines split
    as in `_read_lines`."""
    # surrogateescape turns each bad byte into a lone surrogate, which cannot be encoded.
    with open(path, "rb") as handle:
        lines = _open_lines(handle, chunk, "surrogateescape")
        for line_number, line in enumerate(lines, start=chunk[2]):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                return line_number
    return None


def _write_lines(path, lines) -> None:
    """Write each string in lines as one newline-terminated UTF-8 line."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            for line in lines:
                handle.write(line)
                handle.write("\n")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


# The scene records are plain slotted records, as `CommonsenseTriple` is:
# nothing changes them after `load_scene_corpus` (or the dataset reader)
# builds them, and a frozen dataclass pays for every field it sets.
@dataclass(slots=True)
class GroundedObject:
    object_id: str
    name: str  # lowercase, whitespace-normalized
    bbox: BBox


class TripleKind(enum.Enum):
    ATTRIBUTE = "A"
    RELATIONSHIP = "R"


@dataclass(slots=True)
class SceneTriple:
    subject_id: str
    predicate: str
    object_slot: str  # attribute text (A) or object id (R)
    kind: TripleKind


@dataclass(slots=True)
class Region:
    phrase: str
    bbox: BBox


@dataclass(slots=True)
class ImageEntry:
    image_id: str
    width: int | None = None
    height: int | None = None
    objects: list[GroundedObject] = field(default_factory=list)
    triples: list[SceneTriple] = field(default_factory=list)
    regions: list[Region] = field(default_factory=list)


def save_scene_corpus(images: list[ImageEntry], path) -> None:
    """Write images back out in the normalized form `load_scene_corpus` reads:
    per image its I record, then its O, T and R records in load order."""
    _write_lines(path, _scene_lines(images))


def _scene_lines(images: list[ImageEntry]):
    for entry in images:
        image_id = entry.image_id
        size = "" if entry.width is None else f"\t{entry.width}\t{entry.height}"
        yield f"I\t{image_id}{size}"
        for obj in entry.objects:
            box = obj.bbox
            yield (
                f"O\t{image_id}\t{obj.object_id}\t{obj.name}"
                f"\t{box.x}\t{box.y}\t{box.w}\t{box.h}"
            )
        for triple in entry.triples:
            yield (
                f"T\t{image_id}\t{triple.kind.value}"
                f"\t{triple.subject_id}\t{triple.predicate}\t{triple.object_slot}"
            )
        for region in entry.regions:
            box = region.bbox
            yield f"R\t{image_id}\t{box.x}\t{box.y}\t{box.w}\t{box.h}\t{region.phrase}"


def _parse_int(value: str, path, line_number, what: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise MalformedRecord(path, line_number, f"{what} is not an integer: {value!r}")


def _parse_weight(value: str, path, line_number, what: str) -> float:
    """A finite, non-negative number: a KB edge weight or a dataset score."""
    try:
        weight = float(value)
    except ValueError:
        raise MalformedRecord(path, line_number, f"{what} is not a number: {value!r}") from None
    # The chained comparison is false for nan as well.
    if not 0 <= weight < math.inf:
        raise MalformedRecord(
            path, line_number, f"{what} must be a finite, non-negative number: {value!r}"
        )
    return weight


def _parse_bbox(fields: list[str], path, line_number) -> BBox:
    x, y, w, h = (_parse_int(v, path, line_number, "coordinate") for v in fields)
    try:
        return BBox(x, y, w, h)
    except ValueError as exc:
        raise MalformedRecord(path, line_number, str(exc)) from None


# Triple kind code -> member: a dict lookup, cheaper than `TripleKind(code)`.
_TRIPLE_KINDS = {kind.value: kind for kind in TripleKind}


def load_scene_corpus(path) -> list[ImageEntry]:
    """Load and validate a scene corpus file in one pass over its lines, and
    return its images in first-seen order.

    The current image's entry, object ids and triple line numbers are looked
    up only when a line names another image, so lines of one image that
    resume later still land in its first-seen entry. Each distinct raw name,
    predicate and attribute text is normalized once, and equal names share
    one string object. A box is built straight from its fields; the error
    message is worked out only after a check fails. Dangling triple ends and
    boxes that overflow their image are checked once the whole file is read.

    Raises MalformedRecord (with line number) for schema violations,
    DanglingReference (a MalformedRecord) when a triple names an unknown
    object, EmptyCorpus when no records are present, and IoFailure when the
    file cannot be read.
    """
    # Per image: its entry, object id -> line number of its O record, and the
    # line number of each T record.
    images: dict[str, tuple[ImageEntry, dict[str, int], list[int]]] = {}
    # Images with an I record.
    declared: set[str] = set()
    # Raw string -> its name; normalizing is idempotent, so names share the dict.
    names: dict[str, str] = {}
    kinds = _TRIPLE_KINDS
    relationship = TripleKind.RELATIONSHIP
    image_id = None
    for line_number, line in _read_lines(path):
        fields = line.split("\t")
        # Any line with an image id switches the current image first: a line
        # that then fails a check ends the load, so its entry is never seen.
        if len(fields) > 1 and fields[1] != image_id:
            state = images.get(fields[1])
            if state is None:
                if not fields[1].strip():
                    raise MalformedRecord(path, line_number, "image id is empty")
                state = images[fields[1]] = (ImageEntry(fields[1]), {}, [])
            entry, object_lines, triple_lines = state
            image_id = entry.image_id
        kind = fields[0]
        if kind == "O":
            if len(fields) != 8:
                raise MalformedRecord(path, line_number, "O record needs 7 fields")
            _, _, object_id, raw_name, x, y, w, h = fields
            if not object_id.strip():
                raise MalformedRecord(path, line_number, "object id is empty")
            try:
                bbox = BBox(int(x), int(y), int(w), int(h))
            except ValueError:
                bbox = _parse_bbox(fields[4:8], path, line_number)
            name = names.get(raw_name)
            if name is None:
                name = _normalize_name(raw_name)
                name = names[raw_name] = names.setdefault(name, name)
            if not name:
                raise MalformedRecord(path, line_number, "object name is empty")
            if object_id in object_lines:
                raise MalformedRecord(
                    path, line_number, f"duplicate object id {object_id!r}"
                )
            object_lines[object_id] = line_number
            entry.objects.append(GroundedObject(object_id, name, bbox))
        elif kind == "T":
            if len(fields) != 6:
                raise MalformedRecord(path, line_number, "T record needs 5 fields")
            _, _, kind_code, subject_id, raw_predicate, object_slot = fields
            triple_kind = kinds.get(kind_code)
            if triple_kind is None:
                raise MalformedRecord(path, line_number, f"unknown triple kind {kind_code!r}")
            predicate = names.get(raw_predicate)
            if predicate is None:
                predicate = _normalize_name(raw_predicate)
                predicate = names[raw_predicate] = names.setdefault(predicate, predicate)
            if triple_kind is not relationship:
                text = names.get(object_slot)
                if text is None:
                    text = _normalize_name(object_slot)
                    text = names[object_slot] = names.setdefault(text, text)
                object_slot = text
            entry.triples.append(
                SceneTriple(subject_id, predicate, object_slot, triple_kind)
            )
            triple_lines.append(line_number)
        elif kind == "R":
            if len(fields) != 7:
                raise MalformedRecord(path, line_number, "R record needs 6 fields")
            _, _, x, y, w, h, phrase = fields
            try:
                bbox = BBox(int(x), int(y), int(w), int(h))
            except ValueError:
                bbox = _parse_bbox(fields[2:6], path, line_number)
            phrase = phrase.strip()
            if not phrase:
                raise MalformedRecord(path, line_number, "region phrase is empty")
            entry.regions.append(Region(phrase, bbox))
        elif kind == "I":
            if len(fields) not in (2, 4):
                raise MalformedRecord(path, line_number, "I record needs 1 or 3 fields")
            if image_id in declared:
                raise MalformedRecord(path, line_number, f"duplicate I record for {image_id!r}")
            declared.add(image_id)
            if len(fields) == 4:
                width = _parse_int(fields[2], path, line_number, "width")
                height = _parse_int(fields[3], path, line_number, "height")
                if width <= 0 or height <= 0:
                    raise MalformedRecord(path, line_number, "image size must be positive")
                entry.width, entry.height = width, height
        else:
            raise MalformedRecord(path, line_number, f"unknown record type {kind!r}")

    if not images:
        raise EmptyCorpus(f"no records in {path}")

    _validate_integrity(images.values(), path)
    return [entry for entry, _, _ in images.values()]


def _validate_integrity(images, path) -> None:
    """Check each image's triple ends and, for a sized image, its object boxes,
    images in first-seen order; images holds (entry, object lines, triple
    lines) as `load_scene_corpus` builds them."""
    for entry, known, triple_lines in images:
        for triple, line_number in zip(entry.triples, triple_lines):
            if triple.subject_id not in known:
                raise DanglingReference(
                    path, line_number,
                    f"triple subject {triple.subject_id!r} not in image {entry.image_id!r}",
                )
            if triple.kind is TripleKind.RELATIONSHIP and triple.object_slot not in known:
                raise DanglingReference(
                    path, line_number,
                    f"triple object {triple.object_slot!r} not in image {entry.image_id!r}",
                )
        if entry.width is not None:
            for obj in entry.objects:
                box = obj.bbox
                if box.x + box.w > entry.width or box.y + box.h > entry.height:
                    raise MalformedRecord(
                        path,
                        known[obj.object_id],
                        f"object {obj.object_id!r} box exceeds image "
                        f"{entry.image_id!r} dimensions",
                    )


# The unseen leaves in `KB_RELATION_LEAVES` order, and each one's relation
# label to its index there: the leaf code a `KbIndex` keeps per edge.
_KB_LEAVES = tuple(KB_RELATION_LEAVES.values())
_KB_LEAF_CODES = {relation: code for code, relation in enumerate(KB_RELATION_LEAVES)}

# Synsets whose ranked edges a `KbIndex` holds at most. A synset's entry
# holds one reference per ranked edge.
_RANKED_MEMO_CAP = 1 << 12


class KbIndex:
    """KB edges by normalized head name: each head's (leaf, tail, weight)
    edges in file order, the leaf looked up in `taxonomy.KB_RELATION_LEAVES`.
    Rows of a relation without a leaf are not kept, but `len` counts every
    row of the file. Only `load_kb` makes one, so every KB is read by its
    rules.

    Each head's edges are held as three columns, not as a tuple per edge:
    leaf codes (indices into `_KB_LEAVES`) as `bytes`, tails as a tuple of
    the KB's shared name strings, weights as an `array('d')`. So the
    garbage collector tracks two objects per head (the array and the tuple
    of columns), not one per edge, and a forked worker that reads a head's
    edges writes only to the reference counts of its columns and its tail
    strings. `lookup` zips the columns back into new tuples.
    """

    def __init__(self, by_head: dict[str, tuple[bytes, tuple[str, ...], array]], edge_count: int):
        self._by_head = by_head
        self._edge_count = edge_count
        # Each synset's ranked edges (`unseen._ranked_edges`), kept here so
        # that they go with the KB.
        self._ranked = Memo(_RANKED_MEMO_CAP)

    def __len__(self) -> int:
        return self._edge_count

    def lookup(self, head: str) -> tuple[tuple[CategoryPath, str, float], ...]:
        """The (leaf, tail, weight) edges of one head in file order, as new
        tuples of the shared tail strings; () for a head without edges of
        the unseen relations."""
        columns = self._by_head.get(head)
        if columns is None:
            return ()
        codes, tails, weights = columns
        return tuple(zip(map(_KB_LEAVES.__getitem__, codes), tails, weights))


def _kb_row_error(fields: list[str], path, line_number: int) -> NoReturn:
    """Raise MalformedRecord for a KB row that `load_kb` refused, naming the
    first rule it breaks: three or four fields, then a non-empty head,
    relation and tail, then a weight as `_parse_weight` reads it."""
    if not 3 <= len(fields) <= 4:
        raise MalformedRecord(path, line_number, "expected head, relation, tail[, weight]")
    if not (_normalize_name(fields[0]) and fields[1].strip() and _normalize_name(fields[2])):
        raise MalformedRecord(path, line_number, "head, relation and tail must be non-empty")
    _parse_weight(fields[3], path, line_number, "weight")


def load_kb(path) -> KbIndex:
    """Load a tab-separated KB edge file in one loop over its lines.

    Each row is checked, counted in `len` whatever its relation, and, if its
    relation is one of the unseen layer's, its leaf code, tail and weight are
    appended to its head's one flat list as it is read. Only the names of
    those rows are normalized: once per distinct raw string, with equal names
    sharing one string object, so the index holds each distinct head and
    tail once. The error message is worked out only for a row that fails a
    check. Once the file is read, each head's list is cut into the index's
    three columns by slicing it in steps of three.

    Raises MalformedRecord (with line number) for a row without three or four
    columns, an empty head, relation or tail, or a weight that is not a
    finite, non-negative number; EmptyKb when the file holds no edges; and
    IoFailure when the file cannot be read.
    """
    by_head: dict[str, list] = {}
    indexed = _KB_LEAF_CODES
    inf = math.inf
    # Raw string -> its name; normalizing is idempotent, so names share the dict.
    names: dict[str, str] = {}
    count = 0
    for line_number, line in _read_lines(path):
        count += 1
        fields = line.split("\t")
        try:
            if len(fields) == 3:
                raw_head, relation, raw_tail = fields
                weight = 1.0
            else:
                raw_head, relation, raw_tail, raw_weight = fields
                weight = float(raw_weight)
                # The chained comparison is false for nan as well.
                if not 0 <= weight < inf:
                    raise ValueError
            if relation not in indexed:
                relation = relation.strip()
                if relation not in indexed:
                    # A row that is not indexed is only checked, most names
                    # without normalizing: one that opens with a letter or
                    # digit cannot normalize to "".
                    if not (
                        relation
                        and (raw_head[:1].isalnum() or _normalize_name(raw_head))
                        and (raw_tail[:1].isalnum() or _normalize_name(raw_tail))
                    ):
                        raise ValueError
                    continue
            head = names.get(raw_head)
            if head is None:
                head = _normalize_name(raw_head)
                head = names[raw_head] = names.setdefault(head, head)
            tail = names.get(raw_tail)
            if tail is None:
                tail = _normalize_name(raw_tail)
                tail = names[raw_tail] = names.setdefault(tail, tail)
            if not head or not tail:
                raise ValueError
        except ValueError:
            _kb_row_error(fields, path, line_number)
        # Not setdefault, which would build a throwaway list on every row.
        bucket = by_head.get(head)
        if bucket is None:
            bucket = by_head[head] = []
        bucket.append(indexed[relation])
        bucket.append(tail)
        bucket.append(weight)
    if count == 0:
        raise EmptyKb(f"no edges in {path}")
    # Replace each bucket in place, so that the lists are freed one by one
    # and never coexist in full with the columns (KB load sets peak memory).
    for head, bucket in by_head.items():
        by_head[head] = (bytes(bucket[::3]), tuple(bucket[1::3]), array("d", bucket[2::3]))
    return KbIndex(by_head, count)
