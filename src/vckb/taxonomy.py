"""Three-layer taxonomy of visual commonsense categories.

A category path is Visibility/Aspect/Relation, written canonically as e.g.
"/Seen/Property/HasProperty". Only eleven combinations are valid; every
other combination is rejected at construction time. The tables at the bottom
map part-of-speech tags and external-KB relation names into category paths.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .errors import InvalidCategory
from .phrase import Pos


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


_VALID_LEAVES = frozenset(
    {
        (Visibility.SEEN, Aspect.PROPERTY, Relation.HAS_PROPERTY),
        (Visibility.SEEN, Aspect.SPACE, Relation.LOCATED_NEAR),
        (Visibility.SEEN, Aspect.SPACE, Relation.RELATEDNESS),
        (Visibility.SEEN, Aspect.ACTION, Relation.CAPABLE_OF),
        (Visibility.SEEN, Aspect.ACTION, Relation.RECEIVES_ACTION),
        (Visibility.UNSEEN, Aspect.PROPERTY, Relation.HAS_PROPERTY),
        (Visibility.UNSEEN, Aspect.PROPERTY, Relation.CREATED_BY),
        (Visibility.UNSEEN, Aspect.SPACE, Relation.LOCATED_NEAR),
        (Visibility.UNSEEN, Aspect.ACTION, Relation.CAPABLE_OF),
        (Visibility.UNSEEN, Aspect.ACTION, Relation.USED_FOR),
        (Visibility.UNSEEN, Aspect.ACTION, Relation.RECEIVES_ACTION),
    }
)


@dataclass(frozen=True)
class CategoryPath:
    """One of the 11 valid taxonomy leaves."""

    visibility: Visibility
    aspect: Aspect
    relation: Relation
    # Canonical slash-delimited form, e.g. "/Seen/Property/HasProperty";
    # computed once because dedup and sort keys read it per triple.
    text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        text = f"/{self.visibility.value}/{self.aspect.value}/{self.relation.value}"
        if (self.visibility, self.aspect, self.relation) not in _VALID_LEAVES:
            raise InvalidCategory(f"not a valid taxonomy leaf: {text}")
        object.__setattr__(self, "text", text)

    def __str__(self) -> str:
        return self.text


def parse_category(text: str) -> CategoryPath:
    """Parse a canonical category string (case-sensitive exact match).

    Raises InvalidCategory for malformed strings and for combinations
    outside the 11 valid leaves.
    """
    if not isinstance(text, str) or not text.startswith("/"):
        raise InvalidCategory(f"malformed category string: {text!r}")
    parts = text.split("/")
    if len(parts) != 4 or parts[0] != "":
        raise InvalidCategory(f"malformed category string: {text!r}")
    try:
        visibility = Visibility(parts[1])
        aspect = Aspect(parts[2])
        relation = Relation(parts[3])
    except ValueError:
        raise InvalidCategory(f"unknown category segment in {text!r}") from None
    return CategoryPath(visibility, aspect, relation)


SEEN_HAS_PROPERTY = CategoryPath(Visibility.SEEN, Aspect.PROPERTY, Relation.HAS_PROPERTY)
SEEN_LOCATED_NEAR = CategoryPath(Visibility.SEEN, Aspect.SPACE, Relation.LOCATED_NEAR)
SEEN_RELATEDNESS = CategoryPath(Visibility.SEEN, Aspect.SPACE, Relation.RELATEDNESS)
SEEN_CAPABLE_OF = CategoryPath(Visibility.SEEN, Aspect.ACTION, Relation.CAPABLE_OF)
SEEN_RECEIVES_ACTION = CategoryPath(Visibility.SEEN, Aspect.ACTION, Relation.RECEIVES_ACTION)
UNSEEN_HAS_PROPERTY = CategoryPath(Visibility.UNSEEN, Aspect.PROPERTY, Relation.HAS_PROPERTY)
UNSEEN_CREATED_BY = CategoryPath(Visibility.UNSEEN, Aspect.PROPERTY, Relation.CREATED_BY)
UNSEEN_LOCATED_NEAR = CategoryPath(Visibility.UNSEEN, Aspect.SPACE, Relation.LOCATED_NEAR)
UNSEEN_CAPABLE_OF = CategoryPath(Visibility.UNSEEN, Aspect.ACTION, Relation.CAPABLE_OF)
UNSEEN_USED_FOR = CategoryPath(Visibility.UNSEEN, Aspect.ACTION, Relation.USED_FOR)
UNSEEN_RECEIVES_ACTION = CategoryPath(Visibility.UNSEEN, Aspect.ACTION, Relation.RECEIVES_ACTION)

# Declaration order doubles as the canonical group order in dataset records.
ALL_CATEGORIES: tuple[CategoryPath, ...] = (
    SEEN_HAS_PROPERTY,
    SEEN_LOCATED_NEAR,
    SEEN_RELATEDNESS,
    SEEN_CAPABLE_OF,
    SEEN_RECEIVES_ACTION,
    UNSEEN_HAS_PROPERTY,
    UNSEEN_CREATED_BY,
    UNSEEN_LOCATED_NEAR,
    UNSEEN_CAPABLE_OF,
    UNSEEN_USED_FOR,
    UNSEEN_RECEIVES_ACTION,
)

# External-KB relation labels admitted into the unseen layer. All other
# labels are ignored (mapped to None, not an error).
_KB_RELATION_TABLE = {
    "HasProperty": UNSEEN_HAS_PROPERTY,
    "CreatedBy": UNSEEN_CREATED_BY,
    "LocatedNear": UNSEEN_LOCATED_NEAR,
    "CapableOf": UNSEEN_CAPABLE_OF,
    "UsedFor": UNSEEN_USED_FOR,
    "ReceivesAction": UNSEEN_RECEIVES_ACTION,
}

UNSEEN_KB_RELATIONS: tuple[str, ...] = tuple(_KB_RELATION_TABLE)


def kb_relation_to_category(relation_name: str) -> CategoryPath | None:
    """Map a KB relation label to its unseen leaf, or None if out of scope."""
    return _KB_RELATION_TABLE.get(relation_name)


_SEEN_POS_TABLE = {
    Pos.ADJ: SEEN_HAS_PROPERTY,
    Pos.PREP: SEEN_RELATEDNESS,
    Pos.VBG: SEEN_CAPABLE_OF,
    Pos.VBN: SEEN_RECEIVES_ACTION,
}


def pos_to_seen_category(pos: Pos) -> CategoryPath | None:
    """Select the seen leaf for a tagged word, or None when none applies.

    Adjectives carry properties, prepositions spatial relations, and verbs
    actions: active (VBG) verbs are capabilities, passive (VBN) ones
    received actions.
    """
    return _SEEN_POS_TABLE.get(pos)
