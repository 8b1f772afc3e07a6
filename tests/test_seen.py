import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vckb import (
    BBox,
    CategoryPath,
    GroundedObject,
    MatchFailure,
    Provenance,
    Region,
    SceneTriple,
    TripleKind,
    Visibility,
    build_seen,
    cooccurrence_triples,
    extract_region_triples,
    load_scene_corpus,
    localize,
    map_scene_triple,
    parse_region_phrase,
    tokenize_and_tag,
)
from vckb.errors import InvalidConfig
from vckb.seen import BuildDiagnostics

from conftest import make_object
from record_reference import reference_build_seen, reference_cooccurrence, reference_localize


def attribute(subject, text, predicate="is"):
    return SceneTriple(
        subject_id=subject,
        predicate=predicate,
        object_slot=text,
        kind=TripleKind.ATTRIBUTE,
    )


def relationship(subject, predicate, obj):
    return SceneTriple(
        subject_id=subject,
        predicate=predicate,
        object_slot=obj,
        kind=TripleKind.RELATIONSHIP,
    )


@pytest.fixture
def two_objects():
    man = make_object("o1", name="man", box=(10, 10, 50, 100))
    car = make_object("o2", name="car", box=(200, 150, 120, 80))
    return man, car


def index(*objects):
    return {obj.object_id: obj for obj in objects}


def flat(by_object):
    """(object id, triple) of each triple of a builder's per-object lists."""
    return [(object_id, t) for object_id, triples in by_object.items() for t in triples]


class TestMapSceneTriple:
    def test_attribute_adjective(self, lexicon, two_objects):
        man, car = two_objects
        mapped = map_scene_triple(attribute("o1", "tall"), index(man, car), lexicon)
        assert mapped.category.text == "/Seen/Property/HasProperty"
        assert mapped.tail == "tall"
        assert mapped.provenance is Provenance.SCENE_TRIPLE

    def test_relationship_preposition(self, lexicon, two_objects):
        man, car = two_objects
        road = make_object("o3", name="road", box=(0, 300, 600, 100))
        mapped = map_scene_triple(
            relationship("o1", "on", "o3"), index(man, car, road), lexicon
        )
        assert mapped.category.text == "/Seen/Space/Relatedness"
        assert mapped.tail == "on road"

    def test_relationship_bare_verb(self, lexicon, two_objects):
        man, car = two_objects
        board = make_object("o4", name="skateboard", box=(30, 100, 40, 20))
        mapped = map_scene_triple(
            relationship("o1", "play", "o4"), index(man, car, board), lexicon
        )
        assert mapped.category.text == "/Seen/Action/CapableOf"
        assert mapped.tail == "play skateboard"

    def test_relationship_participle_passive(self, lexicon, two_objects):
        man, car = two_objects
        mapped = map_scene_triple(
            relationship("o2", "parked", "o1"), index(man, car), lexicon
        )
        assert mapped.category.text == "/Seen/Action/ReceivesAction"

    def test_attribute_vbg(self, lexicon, two_objects):
        man, car = two_objects
        mapped = map_scene_triple(attribute("o1", "running"), index(man, car), lexicon)
        assert mapped.category.text == "/Seen/Action/CapableOf"
        assert mapped.tail == "running"

    def test_attribute_noun_not_mapped(self, lexicon, two_objects):
        man, car = two_objects
        assert map_scene_triple(attribute("o1", "person"), index(man, car), lexicon) is None

    def test_tail_object_name_simplified(self, lexicon):
        man = make_object("o1", name="man")
        cars = make_object("o2", name="yellow cars", box=(20, 0, 30, 30))
        mapped = map_scene_triple(relationship("o1", "behind", "o2"), index(man, cars), lexicon)
        assert mapped.tail == "behind car"

    def test_attribute_determiner_not_mapped(self, lexicon, two_objects):
        # "hundred" is a determiner that ends in -ed; it is no participle.
        man, car = two_objects
        mapped = map_scene_triple(
            attribute("o1", "hundred windows", predicate="has"), index(man, car), lexicon
        )
        assert mapped is None

    @pytest.mark.parametrize(
        "record, category, tail",
        [
            ("R\to1\tnext_to\to2", "/Seen/Space/Relatedness", "next to car"),
            ("R\to2\tparked_in\to1", "/Seen/Action/ReceivesAction", "parked in man"),
            ("A\to2\tis\tlight_blue", "/Seen/Property/HasProperty", "light blue"),
        ],
        ids=["next_to", "parked_in", "light_blue"],
    )
    def test_loaded_underscore_predicates_map(self, lexicon, tmp_path, record, category, tail):
        path = tmp_path / "scene.tsv"
        path.write_text(
            "O\timg1\to1\tman\t0\t0\t5\t5\n"
            "O\timg1\to2\tcar\t5\t5\t5\t5\n"
            f"T\timg1\t{record}\n"
        )
        (entry,) = load_scene_corpus(path)
        (scene_triple,) = entry.triples
        mapped = map_scene_triple(scene_triple, index(*entry.objects), lexicon)
        assert (mapped.category.text, mapped.tail) == (category, tail)

    def test_relationship_determiner_takes_active_default(self, lexicon, two_objects):
        man, car = two_objects
        for determiner in sorted(lexicon.determiners):
            mapped = map_scene_triple(
                relationship("o1", determiner, "o2"), index(man, car), lexicon
            )
            assert mapped.category.text == "/Seen/Action/CapableOf", determiner


class TestCooccurrence:
    def test_pair_both_directions(self):
        man = make_object("o1", name="man")
        car = make_object("o2", name="car", box=(20, 0, 5, 5))
        triples = flat(cooccurrence_triples([man, car]))
        assert {(object_id, t.tail) for object_id, t in triples} == {
            ("o1", "car"),
            ("o2", "man"),
        }
        assert all(t.category.text == "/Seen/Space/LocatedNear" for _, t in triples)

    def test_single_object_empty(self):
        assert flat(cooccurrence_triples([make_object()])) == []

    def test_three_distinct_names_six_triples(self):
        objects = [
            make_object(f"o{i}", name=name, box=(i * 20, 0, 5, 5))
            for i, name in enumerate(["man", "car", "dog"], start=1)
        ]
        triples = flat(cooccurrence_triples(objects))
        # Brute-force enumeration of ordered pairs.
        expected = {
            (a.object_id, b.name)
            for a in objects
            for b in objects
            if a is not b and a.name != b.name
        }
        assert len(triples) == 6
        assert {(object_id, t.tail) for object_id, t in triples} == expected

    def test_same_name_pairs_suppressed(self):
        men = [make_object(f"o{i}", name="man", box=(i * 20, 0, 5, 5)) for i in (1, 2)]
        assert flat(cooccurrence_triples(men)) == []

    @given(st.integers(0, 20))
    @settings(max_examples=50)
    def test_count_is_n_times_n_minus_one(self, n):
        objects = [
            make_object(f"o{i}", name=f"name{i}", box=(i * 10, 0, 5, 5))
            for i in range(n)
        ]
        assert len(flat(cooccurrence_triples(objects))) == n * (n - 1)


class TestExtractRegionTriples:
    def extract(self, lexicon, phrase):
        parse = parse_region_phrase(tokenize_and_tag(phrase, lexicon))
        return {(h, c.text, t) for h, c, t in extract_region_triples(parse)}

    def test_pp_with_adjective_composes(self, lexicon):
        assert self.extract(lexicon, "a thin man behind the yellow car") == {
            ("man", "/Seen/Property/HasProperty", "thin"),
            ("man", "/Seen/Space/Relatedness", "behind car"),
        }

    def test_active_vp(self, lexicon):
        assert self.extract(lexicon, "car driving on the road") == {
            ("car", "/Seen/Action/CapableOf", "driving on road"),
        }

    def test_np_participle(self, lexicon):
        assert self.extract(lexicon, "a running man") == {
            ("man", "/Seen/Action/CapableOf", "run"),
        }


class TestLocalize:
    def fixture_objects(self):
        return [
            make_object("o1", name="man", box=(10, 10, 50, 100)),
            make_object("o2", name="car", box=(300, 200, 100, 60)),
            make_object("o3", name="tree", box=(500, 50, 60, 120)),
        ]

    def test_unique_match(self, lexicon):
        region = Region(phrase="a man", bbox=BBox(0, 0, 100, 150))
        found = localize("man", region, self.fixture_objects(), 0.5, lexicon)
        assert found.object_id == "o1"

    def test_ambiguous(self, lexicon):
        objects = self.fixture_objects() + [
            make_object("o4", name="man", box=(70, 10, 50, 100))
        ]
        region = Region(phrase="a man", bbox=BBox(0, 0, 640, 480))
        assert localize("man", region, objects, 0.5, lexicon) is MatchFailure.AMBIGUOUS

    def test_no_match(self, lexicon):
        region = Region(phrase="a dog", bbox=BBox(0, 0, 100, 150))
        assert (
            localize("dog", region, self.fixture_objects(), 0.5, lexicon)
            is MatchFailure.NO_MATCH
        )

    def test_below_threshold_is_no_match(self, lexicon):
        # Object only half covered by the region at tau=0.9.
        region = Region(phrase="a man", bbox=BBox(0, 0, 35, 110))
        assert (
            localize("man", region, self.fixture_objects(), 0.9, lexicon)
            is MatchFailure.NO_MATCH
        )

    def test_plural_object_name_matches_lemma(self, lexicon):
        objects = [make_object("o1", name="cars", box=(0, 0, 50, 50))]
        region = Region(phrase="a car", bbox=BBox(0, 0, 60, 60))
        found = localize("car", region, objects, 0.5, lexicon)
        assert found.object_id == "o1"

    def test_invalid_tau_rejected(self, lexicon):
        # One rule for tau, in localize and in build_seen, even for an image
        # that has no region to localize.
        region = Region(phrase="a man", bbox=BBox(0, 0, 10, 10))
        for tau in (0.0, True, float("nan"), "0.5"):
            with pytest.raises(InvalidConfig, match=r"tau must be a number in \(0, 1\]"):
                localize("man", region, [], tau, lexicon)
            with pytest.raises(InvalidConfig, match=r"tau must be a number in \(0, 1\]"):
                build_seen([], [], [], lexicon, tau)


class TestBuildSeen:
    def test_toy_image_exact_triples(self, lexicon):
        """Hand-applied rules on a two-object toy image."""
        man = make_object("o1", name="man", box=(10, 10, 50, 100))
        car = make_object("o2", name="car", box=(200, 150, 120, 80))
        triples = [attribute("o1", "tall")]
        regions = [
            Region(
                phrase="a thin running man",
                bbox=BBox(0, 0, 70, 120),
            )
        ]
        result = flat(build_seen([man, car], triples, regions, lexicon))
        assert [(object_id, t.category.text, t.tail) for object_id, t in result] == [
            ("o1", "/Seen/Action/CapableOf", "run"),
            ("o1", "/Seen/Property/HasProperty", "tall"),
            ("o1", "/Seen/Property/HasProperty", "thin"),
            ("o1", "/Seen/Space/LocatedNear", "car"),
            ("o2", "/Seen/Space/LocatedNear", "man"),
        ]

    def test_zero_objects_empty(self, lexicon):
        assert flat(build_seen([], [], [], lexicon)) == []

    def test_all_seen_and_grounded(self, lexicon):
        man = make_object("o1", name="man", box=(10, 10, 50, 100))
        car = make_object("o2", name="car", box=(200, 150, 120, 80))
        result = build_seen(
            [man, car],
            [attribute("o1", "tall"), relationship("o1", "on", "o2")],
            [],
            lexicon,
        )
        for _, triple in flat(result):
            assert triple.category.visibility is Visibility.SEEN
            assert triple.tail.strip()

    def test_duplicates_keep_first_provenance(self, lexicon):
        man = make_object("o1", name="man", box=(0, 0, 50, 100))
        region = Region(phrase="a tall man", bbox=BBox(0, 0, 60, 110))
        result = build_seen([man], [attribute("o1", "tall")], [region], lexicon)
        ((_, triple),) = flat(result)
        assert triple.tail == "tall"
        assert triple.provenance is Provenance.SCENE_TRIPLE

    def test_deterministic(self, lexicon):
        man = make_object("o1", name="man", box=(10, 10, 50, 100))
        car = make_object("o2", name="car", box=(200, 150, 120, 80))
        args = (
            [man, car],
            [attribute("o1", "tall"), relationship("o1", "on", "o2")],
            [Region(phrase="a thin man", bbox=BBox(0, 0, 70, 120))],
        )
        assert build_seen(*args, lexicon) == build_seen(*args, lexicon)

    def test_diagnostics_counts(self, lexicon):
        man = make_object("o1", name="man", box=(10, 10, 50, 100))
        diagnostics = BuildDiagnostics()
        build_seen(
            [man],
            [attribute("o1", "person")],  # noun attribute: not mapped
            [
                Region(phrase="the the the", bbox=BBox(0, 0, 10, 10)),
                Region(phrase="a dog", bbox=BBox(0, 0, 640, 480)),
            ],
            lexicon,
            diagnostics=diagnostics,
        )
        assert diagnostics.not_mapped == 1
        assert diagnostics.unparseable == 1
        assert diagnostics.no_match == 1


# Geometry-first references (`record_reference`): grounding measures every box
# before it compares names, and co-occurrence walks every ordered object pair.
# The seen layer compares names first and must agree with them exactly.


# Plural pairs and a multiword name, so surface names and lemmas differ; a
# modified and a possessive name, so lemmas and head nouns differ; "tree"
# names no object. Small coordinates make covering, partial and disjoint boxes
# all common.
OBJECT_NAMES = (
    "man", "men", "car", "cars", "dog", "traffic light", "traffic lights", "yellow car",
    "man's shirt",
)
PHRASE_NOUNS = OBJECT_NAMES + ("tree",)
HEAD_LEMMAS = ("man", "car", "dog", "traffic light", "tree", "yellow car", "shirt")

coords = st.integers(0, 30)
object_boxes = st.builds(BBox, coords, coords, st.integers(1, 20), st.integers(1, 20))
region_boxes = st.builds(BBox, coords, coords, st.integers(1, 50), st.integers(1, 50))
taus = st.floats(min_value=0, max_value=1, exclude_min=True) | st.sampled_from([0.5, 1.0])
nouns = st.sampled_from(PHRASE_NOUNS)
phrases = st.one_of(
    st.builds("a tall {}".format, nouns),
    st.builds("{} behind the {}".format, nouns, nouns),
    st.builds("a red {} near {}".format, nouns, nouns),
    st.builds("the {} riding a {}".format, nouns, nouns),
    st.just("the the"),
    st.just("   "),
)
object_lists = st.lists(st.tuples(st.sampled_from(OBJECT_NAMES), object_boxes), max_size=8).map(
    lambda drawn: [
        GroundedObject(object_id=f"o{i}", name=name, bbox=box)
        for i, (name, box) in enumerate(drawn)
    ]
)
regions = st.builds(Region, phrases, region_boxes)


@st.composite
def images(draw):
    objects = draw(object_lists)
    triples = []
    if objects:
        subjects = st.sampled_from([obj.object_id for obj in objects])
        words = st.sampled_from(["tall", "red", "person"])
        triples = draw(st.lists(st.builds(attribute, subjects, words), max_size=3))
    return objects, triples, draw(st.lists(regions, max_size=6))


class TestNamesBeforeGeometry:
    @given(object_lists, regions, st.sampled_from(HEAD_LEMMAS), taus)
    @settings(max_examples=300)
    def test_localize_matches_geometry_first(self, lexicon, objects, region, head, tau):
        assert localize(head, region, objects, tau, lexicon) == reference_localize(
            head, region, objects, tau, lexicon
        )

    @given(object_lists)
    @settings(max_examples=200)
    def test_cooccurrence_matches_pairwise_loop(self, objects):
        triples = flat(cooccurrence_triples(objects))
        assert [(object_id, t.tail) for object_id, t in triples] == reference_cooccurrence(objects)
        for _, triple in triples:
            assert triple.category is CategoryPath.SEEN_LOCATED_NEAR
            assert triple.provenance is Provenance.CO_OCCURRENCE
            assert triple.score == 0.0

    @given(images(), taus)
    @settings(max_examples=300)
    def test_build_seen_matches_geometry_first(self, lexicon, image, tau):
        objects, triples, regions = image
        diagnostics = BuildDiagnostics()
        result = build_seen(objects, triples, regions, lexicon, tau, diagnostics)
        expected, expected_diagnostics = reference_build_seen(
            objects, triples, regions, lexicon, tau
        )
        got = {
            object_id: [(t.category.text, t.tail, t.provenance.value) for t in triples]
            for object_id, triples in result.items()
        }
        assert got == expected
        assert diagnostics.as_dict() == expected_diagnostics
