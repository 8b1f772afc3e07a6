import itertools
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vckb import (
    Aspect,
    CategoryPath,
    Relation,
    Pos,
    Visibility,
    kb_relation_to_category,
    parse_category,
    pos_to_seen_category,
)
from vckb.errors import InvalidCategory


def test_parse_category_known_paths():
    seen = parse_category("/Seen/Property/HasProperty")
    assert seen.visibility is Visibility.SEEN
    assert seen.aspect is Aspect.PROPERTY
    assert seen.relation is Relation.HAS_PROPERTY

    unseen = parse_category("/Unseen/Action/UsedFor")
    assert unseen.visibility is Visibility.UNSEEN
    assert unseen.aspect is Aspect.ACTION
    assert unseen.relation is Relation.USED_FOR


def test_parse_category_rejects_invalid_leaf():
    with pytest.raises(InvalidCategory):
        parse_category("/Seen/Action/UsedFor")


@pytest.mark.parametrize(
    "text",
    ["", "Seen/Property/HasProperty", "/Seen/Property", "/seen/property/hasproperty",
     "/Seen/Property/HasProperty/", "/Seen/Colour/HasProperty", None, 3],
)
def test_parse_category_rejects_malformed(text):
    with pytest.raises(InvalidCategory):
        parse_category(text)


CANONICAL_ORDER = [
    "/Seen/Property/HasProperty",
    "/Seen/Space/LocatedNear",
    "/Seen/Space/Relatedness",
    "/Seen/Action/CapableOf",
    "/Seen/Action/ReceivesAction",
    "/Unseen/Property/HasProperty",
    "/Unseen/Property/CreatedBy",
    "/Unseen/Space/LocatedNear",
    "/Unseen/Action/CapableOf",
    "/Unseen/Action/UsedFor",
    "/Unseen/Action/ReceivesAction",
]


def test_canonical_order():
    assert [category.text for category in CategoryPath] == CANONICAL_ORDER


def test_exactly_eleven_leaves_constructible():
    assert len(CategoryPath) == 11
    for vis, asp, rel in itertools.product(Visibility, Aspect, Relation):
        text = f"/{vis.value}/{asp.value}/{rel.value}"
        if text in CANONICAL_ORDER:
            leaf = parse_category(text)
            assert (leaf.visibility, leaf.aspect, leaf.relation) == (vis, asp, rel)
        else:
            with pytest.raises(InvalidCategory):
                parse_category(text)


def test_canonical_round_trip_all_leaves():
    for category in CategoryPath:
        assert parse_category(category.text) is category


def test_str_is_canonical_text():
    for category in CategoryPath:
        assert str(category) == category.text


def test_leaf_pickles_to_itself():
    for category in CategoryPath:
        assert pickle.loads(pickle.dumps(category)) is category


def test_kb_relation_mapping():
    assert kb_relation_to_category("UsedFor").text == "/Unseen/Action/UsedFor"
    assert kb_relation_to_category("CreatedBy").text == "/Unseen/Property/CreatedBy"
    assert kb_relation_to_category("AtLocation") is None
    assert kb_relation_to_category("IsA") is None


def test_kb_relation_never_maps_to_seen():
    for relation in ("HasProperty", "CreatedBy", "LocatedNear", "CapableOf",
                     "UsedFor", "ReceivesAction", "AtLocation", "Desires"):
        category = kb_relation_to_category(relation)
        if category is not None:
            assert category.visibility is Visibility.UNSEEN


def test_pos_to_seen_category():
    assert pos_to_seen_category(Pos.ADJ).text == "/Seen/Property/HasProperty"
    assert pos_to_seen_category(Pos.PREP).text == "/Seen/Space/Relatedness"
    assert pos_to_seen_category(Pos.VBG).text == "/Seen/Action/CapableOf"
    assert pos_to_seen_category(Pos.VBN).text == "/Seen/Action/ReceivesAction"
    assert pos_to_seen_category(Pos.DET) is None
    assert pos_to_seen_category(Pos.NOUN) is None


@given(st.text(max_size=40))
def test_parse_category_total(text):
    """parse_category either raises InvalidCategory or returns a valid leaf."""
    try:
        category = parse_category(text)
    except InvalidCategory:
        return
    assert category in CategoryPath
    assert category.text == text
