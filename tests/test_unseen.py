from hypothesis import example, given, settings
from hypothesis import strategies as st

from vckb import (
    Lexicon,
    Provenance,
    Visibility,
    build_unseen,
    kb_relation_to_category,
    load_kb,
    make_synset,
)
import vckb.unseen as unseen_module
from vckb.errors import EmptyPhrase
from vckb.phrase import name_keys, tokenize_and_tag
from vckb.seen import CommonsenseTriple
from vckb.unseen import _tail_lemmas
from vckb.taxonomy import CategoryPath

from conftest import KbRow, make_kb, make_object
from unseen_reference import (
    reference_dedup_against_seen,
    reference_object_aware_sort,
    reference_retrieve_unseen,
)


class TestSynset:
    def test_multiword_plural(self, lexicon):
        obj = make_object(name="traffic lights")
        assert make_synset(obj, lexicon) == ("traffic lights", "traffic light")

    def test_identity_name(self, lexicon):
        assert make_synset(make_object(name="car"), lexicon) == ("car",)

    def test_irregular_plural(self, lexicon):
        assert make_synset(make_object(name="men"), lexicon) == ("men", "man")


def unseen_of(obj, kb, lexicon, seen=(), others=()):
    """`build_unseen`'s list for obj, in an image that also holds others,
    given obj's seen triples."""
    return build_unseen([obj, *others], {obj.object_id: list(seen)}, kb, lexicon)[obj.object_id]


class TestRetrieve:
    def test_car_retrieves_in_scope_relations(self, lexicon, toy_kb):
        kb = load_kb(toy_kb)
        triples = unseen_of(make_object(name="car"), kb, lexicon)
        assert {(t.category.text, t.tail) for t in triples} == {
            ("/Unseen/Action/UsedFor", "drive to work"),
            ("/Unseen/Property/CreatedBy", "factory"),
        }
        for triple in triples:
            assert triple.provenance is Provenance.KB_RETRIEVAL
            assert triple.category.visibility is Visibility.UNSEEN

    def test_no_matching_head(self, lexicon, toy_kb):
        kb = load_kb(toy_kb)
        assert unseen_of(make_object(name="tree"), kb, lexicon) == []

    def test_out_of_scope_relation_excluded(self, lexicon, toy_kb):
        kb = load_kb(toy_kb)
        triples = unseen_of(make_object(name="car"), kb, lexicon)
        assert "garage" not in {t.tail for t in triples}  # AtLocation filtered

    def test_plural_name_retrieves_via_lemma(self, lexicon, toy_kb):
        kb = load_kb(toy_kb)
        triples = unseen_of(make_object(name="cars"), kb, lexicon)
        assert {t.tail for t in triples} == {"drive to work", "factory"}

    def test_score_is_edge_weight(self, lexicon, toy_kb):
        kb = load_kb(toy_kb)
        triples = unseen_of(make_object(name="car"), kb, lexicon)
        by_tail = {t.tail: t.score for t in triples}
        assert by_tail["drive to work"] == 2.0
        assert by_tail["factory"] == 1.0


def seen_triple(tail, category=CategoryPath.SEEN_CAPABLE_OF):
    return CommonsenseTriple(category=category, tail=tail, provenance=Provenance.SCENE_TRIPLE)


def man_kb(*edges, relation="CapableOf"):
    """A KB of "man" edges of one relation, each a (tail, weight)."""
    return make_kb([KbRow("man", relation, tail, weight) for tail, weight in edges])


class TestDedupAgainstSeen:
    def test_exact_duplicate_removed(self, lexicon):
        kb = man_kb(("play skateboard", 1.0))
        seen = [seen_triple("play skateboard")]
        assert unseen_of(make_object(name="man"), kb, lexicon, seen) == []

    def test_non_duplicate_kept(self, lexicon):
        kb = man_kb(("grow up", 1.0))
        seen = [seen_triple("play skateboard")]
        triples = unseen_of(make_object(name="man"), kb, lexicon, seen)
        assert [t.tail for t in triples] == ["grow up"]

    def test_same_tail_different_relation_kept(self, lexicon):
        kb = man_kb(("hit", 1.0), relation="ReceivesAction")
        seen = [seen_triple("hit")]  # CapableOf, not ReceivesAction
        triples = unseen_of(make_object(name="man"), kb, lexicon, seen)
        assert [(t.category, t.tail) for t in triples] == [
            (CategoryPath.UNSEEN_RECEIVES_ACTION, "hit")
        ]


class TestObjectAwareSort:
    def test_image_object_mention_ranks_first(self, lexicon):
        kb = make_kb(
            [KbRow("man", "CapableOf", "grow up", 5.0),
             KbRow("man", "ReceivesAction", "hit by a car", 1.0)]
        )
        car = make_object(object_id="o2", name="car")
        ranked = unseen_of(make_object(name="man"), kb, lexicon, others=[car])
        assert ranked[0].tail == "hit by a car"

    def test_own_lemma_excluded(self, lexicon):
        kb = man_kb(("help a man", 1.0), ("grow up", 5.0))
        # "man" is the head's own lemma, so it is not an image-object mention.
        ranked = unseen_of(make_object(name="man"), kb, lexicon)
        assert ranked[0].tail == "grow up"

    def test_plural_tail_token_matches_image_lemma(self, lexicon):
        kb = man_kb(("wash cars", 0.5), ("grow up", 5.0))
        car = make_object(object_id="o2", name="car")
        ranked = unseen_of(make_object(name="man"), kb, lexicon, others=[car])
        assert ranked[0].tail == "wash cars"

    def test_no_mentions_order_by_score_then_tail(self, lexicon):
        kb = man_kb(("beta", 1.0), ("alpha", 1.0), ("delta", 3.0), ("gamma", 2.0))
        ranked = unseen_of(make_object(name="man"), kb, lexicon)
        assert [t.tail for t in ranked] == ["delta", "gamma", "alpha", "beta"]

    def test_empty(self, lexicon, toy_kb):
        assert build_unseen([], {}, load_kb(toy_kb), lexicon) == {}

    def test_permutation(self, lexicon):
        tails = [("a", 1.0), ("b", 2.0), ("c", 1.0), ("drive a car", 0.0)]
        car = make_object(object_id="o2", name="car")
        ranked = unseen_of(make_object(name="man"), man_kb(*tails), lexicon, others=[car])
        assert sorted(t.tail for t in ranked) == sorted(tail for tail, _ in tails)

    def test_tail_lemmas_tagged_once_and_match_tagger(self, monkeypatch):
        lexicon = Lexicon.default()  # a fresh lexicon starts with an empty memo
        calls = []

        def counting_tagger(phrase, lex):
            calls.append(phrase)
            return tokenize_and_tag(phrase, lex)

        monkeypatch.setattr(unseen_module, "tokenize_and_tag", counting_tagger)
        tails = ("drive to work", "traffic lights on the streets", "chase dogs", "!!!", "")
        for tail in tails:
            cold = _tail_lemmas(tail, lexicon)
            warm = _tail_lemmas(tail, lexicon)
            assert warm == cold
            try:
                expected = {token.lemma for token in tokenize_and_tag(tail, lexicon)}
            except EmptyPhrase:
                expected = set()
            assert cold == expected
        assert _tail_lemmas("!!!", lexicon) == _tail_lemmas("", lexicon) == frozenset()
        assert _tail_lemmas("traffic lights on the streets", lexicon) == {
            "traffic light", "on", "the", "street"
        }
        assert calls == list(tails)

    def test_deterministic(self, lexicon):
        kb = man_kb(("x", 1.0), ("y", 1.0), ("ride a horse", 2.0))
        horse = make_object(object_id="o2", name="horse")
        # The second build reads the ranked edges the first one memoized.
        assert unseen_of(make_object(name="man"), kb, lexicon, others=[horse]) == unseen_of(
            make_object(name="man"), kb, lexicon, others=[horse]
        )


# Strategy for small random KBs: heads/tails from tight alphabets so
# collisions (and thus dedup paths) actually happen.
_heads = st.sampled_from(["car", "cars", "dog", "man", "men", "traffic light", "tree"])
_relations = st.sampled_from(
    ["UsedFor", "CapableOf", "CreatedBy", "LocatedNear", "HasProperty",
     "ReceivesAction", "AtLocation", "IsA", "Desires"]
)
_tails = st.sampled_from(["bark", "drive", "factory", "road", "wag tail", "sofa"])
_edges = st.lists(
    st.builds(
        KbRow,
        head=_heads,
        relation=_relations,
        tail=_tails,
        weight=st.floats(0, 10, allow_nan=False),
    ),
    min_size=1,  # a KB file holds at least one edge
    max_size=60,
)


@given(edges=_edges, name=_heads)
@settings(max_examples=200)
def test_retrieve_equals_brute_force(lexicon, edges, name):
    """Index-backed retrieval equals a scan of the whole edge list."""
    kb = make_kb(edges)
    obj = make_object(name=name)
    got = {(t.category.text, t.tail, t.score) for t in unseen_of(obj, kb, lexicon)}
    forms = set(make_synset(obj, lexicon))
    best = {}
    for edge in edges:
        category = kb_relation_to_category(edge.relation)
        if category is None or edge.head not in forms:
            continue
        key = (category.text, edge.tail)
        if key not in best or edge.weight > best[key]:
            best[key] = edge.weight
    expected = {(c, t, w) for (c, t), w in best.items()}
    assert got == expected


@given(
    tails=st.lists(
        st.sampled_from(["grow up", "drive a car", "bark", "sit", "chase dogs"]),
        min_size=1,
        max_size=8,
        unique=True,
    ),
    scores=st.lists(st.floats(0, 5, allow_nan=False), min_size=8, max_size=8),
)
@settings(max_examples=200)
def test_sort_mentions_always_first(lexicon, tails, scores):
    kb = man_kb(*zip(tails, scores))
    others = [make_object(object_id="o2", name="car"), make_object(object_id="o3", name="dog")]
    ranked = unseen_of(make_object(name="man"), kb, lexicon, others=others)
    mention_flags = ["car" in t.tail or "dog" in t.tail for t in ranked]
    # All mentioning tails precede all non-mentioning tails.
    assert mention_flags == sorted(mention_flags, reverse=True)


# The whole unseen order of a box. Names share lemmas ("car"/"cars",
# "man"/"men"), and KB heads are drawn from both forms, so a head may be a
# name's surface form or its lemma. Tails may mention other image objects'
# lemmas, and seen triples reuse the KB's tails. Few weights make equal weights,
# one (leaf, tail) at two weights and one tail under two leaves at one weight
# common; 0.0 and -0.0 are equal weights written differently, so only the
# first of two equal maxima, as `reference_retrieve_unseen` keeps it, writes
# the same score.
_ORDER_NAMES = ("car", "cars", "man", "men", "dog", "traffic lights")
_ORDER_HEADS = ("car", "cars", "man", "men", "dog", "traffic light", "traffic lights")
_ORDER_RELATIONS = (
    "UsedFor", "CapableOf", "HasProperty", "ReceivesAction", "LocatedNear", "CreatedBy", "IsA"
)
_ORDER_TAILS = ("drive", "hit by a car", "chase dogs", "bark", "help men", "road")
_ORDER_WEIGHTS = (-0.0, 0.0, 1.0, 2.5)
_SEEN_LEAVES = (
    CategoryPath.SEEN_HAS_PROPERTY,
    CategoryPath.SEEN_LOCATED_NEAR,
    CategoryPath.SEEN_RELATEDNESS,
    CategoryPath.SEEN_CAPABLE_OF,
    CategoryPath.SEEN_RECEIVES_ACTION,
)


@st.composite
def unseen_images(draw):
    """One image's objects, and each object's seen triples by object id."""
    names = draw(st.lists(st.sampled_from(_ORDER_NAMES), min_size=1, max_size=4))
    objects = [make_object(object_id=f"o{i}", name=name) for i, name in enumerate(names)]
    seen_pairs = st.tuples(st.sampled_from(_SEEN_LEAVES), st.sampled_from(_ORDER_TAILS))
    seen = {
        obj.object_id: [
            seen_triple(tail, category)
            for category, tail in draw(st.lists(seen_pairs, max_size=3))
        ]
        for obj in objects
    }
    return objects, seen


@given(
    edges=st.lists(
        st.builds(
            KbRow,
            head=st.sampled_from(_ORDER_HEADS),
            relation=st.sampled_from(_ORDER_RELATIONS),
            tail=st.sampled_from(_ORDER_TAILS),
            weight=st.sampled_from(_ORDER_WEIGHTS),
        ),
        min_size=1,
        max_size=40,
    ),
    images=st.lists(unseen_images(), min_size=1, max_size=4),
)
# Equal maxima written differently: of one head's (leaf, tail), and across the
# synset's forms, where the surface form's edge comes first.
@example(
    edges=[KbRow("man", "CapableOf", "drive", -0.0), KbRow("man", "CapableOf", "drive", 0.0)],
    images=[([make_object(name="man")], {"o1": []})],
)
@example(
    edges=[KbRow("man", "CapableOf", "vote", -0.0), KbRow("men", "CapableOf", "vote", 0.0)],
    images=[([make_object(name="men")], {"o1": []})],
)
@settings(max_examples=300, deadline=None)
def test_build_unseen_is_the_reference_order(lexicon, edges, images):
    """Per box, `build_unseen` gives retrieval, dedup and object-aware sort's
    list, scores written alike; images after the first read the per-synset
    memo that earlier ones filled."""
    kb = make_kb(edges)
    for objects, seen in images:
        got = build_unseen(objects, seen, kb, lexicon)
        image_lemmas = {name_keys(obj.name, lexicon)[0] for obj in objects}
        for obj in objects:
            expected = reference_object_aware_sort(
                reference_dedup_against_seen(
                    reference_retrieve_unseen(obj, kb, lexicon), seen[obj.object_id]
                ),
                obj,
                image_lemmas,
                lexicon,
            )
            assert [(t, repr(t.score)) for t in got[obj.object_id]] == [
                (t, repr(t.score)) for t in expected
            ]
