"""Whole records against `record_reference.reference_record_line`, compared
as the bytes of their dataset line.

Each drawn image is written as a scene file and read back by the loader, and
each drawn KB as a KB file, so these tests build no record type themselves.
The inputs are drawn to meet the rules that compose: names that share a
lemma, and two boxes of one name; KB tails equal to seen tails, co-occurrence
tails among them; equal weights, 0.0 and -0.0 among them; regions that cover
half or all of an object's box at tau 0.5 and 1.0; and names and tails with a
backslash. (A tab cannot reach a name or a tail: the loaders split fields on
it.)
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from vckb import build_image_record, export_records, load_kb, load_scene_corpus
from vckb.dataset import record_line

from conftest import make_kb
from record_reference import reference_record_line

NAMES = ("man", "men", "car", "cars", "dog", "traffic lights", "man's shirt", "sign\\post")
KB_HEADS = NAMES + ("traffic light", "shirt")
RELATIONS = (
    "HasProperty", "LocatedNear", "CapableOf", "UsedFor", "ReceivesAction", "CreatedBy", "IsA"
)
# Seen tails (attributes, a participle's lemma, object names) and tails that
# mention object names, besides plain ones.
TAILS = (
    "tall", "red", "running", "run", "car", "men", "dog",
    "hit by a car", "chase dogs", "help men", "drive", "a\\b road", "\\",
)
WEIGHTS = (-0.0, 0.0, 1.0, 2.5)

coords = st.integers(0, 30)
# Even widths, so that the left half of a box is a box.
object_boxes = st.tuples(
    coords, coords, st.integers(1, 10).map(lambda n: 2 * n), st.integers(1, 20)
)
free_boxes = st.tuples(coords, coords, st.integers(1, 50), st.integers(1, 50))
nouns = st.sampled_from(NAMES + ("tree",))
phrases = st.one_of(
    st.builds("a tall {}".format, nouns),
    st.builds("a running {}".format, nouns),
    st.builds("{} behind the {}".format, nouns, nouns),
    st.builds("a red {} near {}".format, nouns, nouns),
    st.builds("the {} riding a {}".format, nouns, nouns),
    st.just("the the"),
)
taus = st.sampled_from([0.5, 1.0]) | st.floats(min_value=0, max_value=1, exclude_min=True)


def _box(box):
    return "\t".join(map(str, box))


@st.composite
def kb_rows(draw, names):
    """A KB file's (head, relation, tail, weight) rows, most heads among
    names; some rows come again later at another weight, so that one edge
    has several weights."""
    heads = st.sampled_from(KB_HEADS)
    if names:
        heads = st.sampled_from(names) | heads
    row = st.tuples(
        heads, st.sampled_from(RELATIONS), st.sampled_from(TAILS), st.sampled_from(WEIGHTS)
    )
    rows = draw(st.lists(row, min_size=1, max_size=20))  # a KB holds an edge
    again = st.tuples(st.integers(0, len(rows) - 1), st.sampled_from(WEIGHTS))
    rows += [rows[i][:3] + (weight,) for i, weight in draw(st.lists(again, max_size=8))]
    return rows


@st.composite
def scenes(draw):
    """One image's scene-file lines, and a KB's rows or None."""
    objects = draw(st.lists(st.tuples(st.sampled_from(NAMES), object_boxes), max_size=6))
    lines = ["I\timg1"]
    lines += [f"O\timg1\to{i}\t{name}\t{_box(box)}" for i, (name, box) in enumerate(objects)]
    ids = [f"o{i}" for i in range(len(objects))]
    if ids:
        subjects = st.sampled_from(ids)
        attributes = st.builds(
            "T\timg1\tA\t{}\tis\t{}".format,
            subjects,
            st.sampled_from(["tall", "red", "person", "running"]),
        )
        relationships = st.builds(
            "T\timg1\tR\t{}\t{}\t{}".format,
            subjects,
            st.sampled_from(["on", "behind", "play", "parked"]),
            subjects,
        )
        lines += draw(st.lists(attributes | relationships, max_size=4))
    regions = draw(st.lists(st.tuples(free_boxes, phrases), max_size=5))
    # Regions over an object's whole box or its left half: a ratio of 1.0 or
    # exactly 0.5.
    picks = st.lists(st.integers(0, len(objects) - 1), max_size=3) if objects else st.just([])
    for i in draw(picks):
        name, (x, y, w, h) = objects[i]
        box = draw(st.sampled_from([(x, y, w, h), (x, y, w // 2, h)]))
        phrase = draw(st.sampled_from(["a tall {}", "{} behind the car"])).format(name)
        regions.append((box, phrase))
    lines += [f"R\timg1\t{_box(box)}\t{phrase}" for box, phrase in regions]
    names = sorted({name for name, _ in objects})
    return lines, draw(st.none() | kb_rows(names))


def load_image(lines):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "scene.tsv"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        (image,) = load_scene_corpus(path)
    return image


@given(scene=scenes(), tau=taus)
@settings(max_examples=400, deadline=None)
def test_record_line_is_the_reference(lexicon, scene, tau):
    lines, rows = scene
    image = load_image(lines)
    kb = None if rows is None else make_kb(rows)
    record, _ = build_image_record(image, lexicon, kb, tau)
    assert record_line(record) == reference_record_line(image, rows, lexicon, tau)


def _kb_name(text):
    return " ".join(text.replace("_", " ").lower().split())


def test_fixture_export_is_the_reference(lexicon, data_dir, tmp_path):
    """Every line `export_records` writes for the fixture, at one and two
    workers, is the reference line of its image."""
    images = load_scene_corpus(data_dir / "fixture_scene.tsv")
    kb_path = data_dir / "fixture_kb.tsv"
    rows = []
    for line in kb_path.read_text(encoding="utf-8").splitlines():
        head, relation, tail, weight = line.split("\t")
        rows.append((_kb_name(head), relation, _kb_name(tail), float(weight)))
    kb = load_kb(kb_path)
    expected = [reference_record_line(image, rows, lexicon, 0.5) for image in images]
    for workers in (1, 2):
        out = tmp_path / f"dataset-{workers}.tsv"
        export_records(images, lexicon, out, kb, 0.5, workers=workers)
        assert out.read_text(encoding="utf-8").splitlines() == expected
