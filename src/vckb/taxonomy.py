"""Three-layer taxonomy of visual commonsense categories.

A category path is Visibility/Aspect/Relation, written canonically as e.g.
"/Seen/Property/HasProperty". The eleven valid leaves are the members of
the ``CategoryPath`` enum, declared once below; no other combination can be
built. The table at the bottom maps the KB relation labels that the KB index
keeps (`KB_RELATION_LEAVES`) to their leaves; it imports no other layer.
"""

from __future__ import annotations

import enum

from .errors import InvalidCategory


class Visibility(enum.Enum):
    SEEN = "Seen"
    UNSEEN = "Unseen"


class Aspect(enum.Enum):
    PROPERTY = "Property"
    ACTION = "Action"
    SPACE = "Space"


class Relation(enum.Enum):
    HAS_PROPERTY = "HasProperty"
    CREATED_BY = "CreatedBy"
    LOCATED_NEAR = "LocatedNear"
    RELATEDNESS = "Relatedness"
    CAPABLE_OF = "CapableOf"
    USED_FOR = "UsedFor"
    RECEIVES_ACTION = "ReceivesAction"

    def __init__(self, text: str):
        self.text = text  # a plain attribute: `value` is a slower property


class CategoryPath(enum.Enum):
    """One of the 11 taxonomy leaves; its value is the canonical text.

    Declaration order doubles as the canonical group order in dataset
    records.
    """

    SEEN_HAS_PROPERTY = "/Seen/Property/HasProperty"
    SEEN_LOCATED_NEAR = "/Seen/Space/LocatedNear"
    SEEN_RELATEDNESS = "/Seen/Space/Relatedness"
    SEEN_CAPABLE_OF = "/Seen/Action/CapableOf"
    SEEN_RECEIVES_ACTION = "/Seen/Action/ReceivesAction"
    UNSEEN_HAS_PROPERTY = "/Unseen/Property/HasProperty"
    UNSEEN_CREATED_BY = "/Unseen/Property/CreatedBy"
    UNSEEN_LOCATED_NEAR = "/Unseen/Space/LocatedNear"
    UNSEEN_CAPABLE_OF = "/Unseen/Action/CapableOf"
    UNSEEN_USED_FOR = "/Unseen/Action/UsedFor"
    UNSEEN_RECEIVES_ACTION = "/Unseen/Action/ReceivesAction"

    def __init__(self, text: str):
        _, visibility, aspect, relation = text.split("/")
        self.text = text
        self.visibility = Visibility(visibility)
        self.aspect = Aspect(aspect)
        self.relation = Relation(relation)

    def __str__(self) -> str:
        return self.text


def parse_category(text: str) -> CategoryPath:
    """Parse a canonical category string (case-sensitive exact match).

    Raises InvalidCategory for anything that is not one of the 11 leaves.
    """
    if not isinstance(text, str):
        raise InvalidCategory(f"category must be a string, got {text!r}")
    try:
        return CategoryPath(text)
    except ValueError:
        raise InvalidCategory(f"not a taxonomy leaf: {text!r}") from None


# External-KB relation labels admitted into the unseen layer, each to its
# leaf. All other labels map to None (not an error), and `ingest.KbIndex`
# does not keep their edges.
KB_RELATION_LEAVES: dict[str, CategoryPath] = {
    leaf.relation.value: leaf for leaf in CategoryPath if leaf.visibility is Visibility.UNSEEN
}


def kb_relation_to_category(relation_name: str) -> CategoryPath | None:
    """Map a KB relation label to its unseen leaf, or None if out of scope."""
    return KB_RELATION_LEAVES.get(relation_name)
