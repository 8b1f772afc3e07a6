"""Builders for directly-observable commonsense triples of one image.

Three sources feed the seen layer: existing scene-graph triples mapped
through part-of-speech rules, object co-occurrence pairs, and triples
extracted from region phrases whose heads are grounded to same-named object
boxes by overlap ratio, the names compared before any box is measured. Names
are keyed by `phrase.name_keys`: lemmas ground heads, head nouns end tails.

Texts recur across boxes and images, so each distinct text is read once per
lexicon, in two of its memos: a region phrase's tagging, parse and
extracted (leaf, tail) pairs (`_phrase_reading`, `lexicon.phrases`), and a
predicate or attribute text's leaf and tail words (`_predicate_reading`,
`lexicon.predicates`). Only geometry, grounding and deduplication are done
per box. Each memo is a `memo.Memo`, cleared at its cap, so it stays
bounded however many distinct texts a corpus holds.

A `CommonsenseTriple` is a leaf, a tail, a provenance and a score. It holds
no head: every builder returns each object's triples by object id, and a
record files them under their object's entry, so the object is written once.
It is a plain record that checks nothing when built. Each builder emits
valid triples by construction: a tail that is not blank, and a seen
provenance on a seen leaf (`unseen` gives `KB_RETRIEVAL` on the unseen
leaves). The dataset reader checks the same rules where a line enters
(`dataset._check_triple`).
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, fields

from .errors import EmptyPhrase, InvalidConfig
from .geometry import overlap_ratio
from .ingest import GroundedObject, Region, SceneTriple, TripleKind
from .lexicon import Lexicon
from .phrase import (
    PhraseKind,
    PhraseParse,
    Pos,
    _provisional_pos,
    name_keys,
    parse_region_phrase,
    tokenize_and_tag,
)
from .taxonomy import CategoryPath

DEFAULT_TAU = 0.5


def _check_tau(tau) -> None:
    """The build's one rule for tau: a number in (0, 1]; nan and inf are not."""
    if not isinstance(tau, (int, float)) or isinstance(tau, bool) or not 0 < tau <= 1:
        raise InvalidConfig(f"tau must be a number in (0, 1], got {tau!r}")

_COPULAS = frozenset({"is", "are", "was", "were", "am", "be", "been", "being"})


class Provenance(enum.Enum):
    SCENE_TRIPLE = "scene_triple"
    CO_OCCURRENCE = "co_occurrence"
    REGION_PHRASE = "region_phrase"
    KB_RETRIEVAL = "kb_retrieval"

    def __init__(self, text: str):
        self.text = text  # a plain attribute: `value` is a slower property


@dataclass(slots=True)
class CommonsenseTriple:
    """A taxonomy leaf and a tail phrase of the object it is filed under; a
    plain record that checks nothing (see the module docstring for where its
    rules hold)."""

    category: CategoryPath
    tail: str
    provenance: Provenance
    score: float = 0.0  # KB edge weight; 0 for seen triples


@dataclass
class BuildDiagnostics:
    """Counts accumulated over one pipeline run: four skip reasons, and
    `tail_unmatched`, the kept PP triples whose tail names no overlapping
    object."""

    unparseable: int = 0
    no_match: int = 0
    ambiguous: int = 0
    not_mapped: int = 0
    tail_unmatched: int = 0

    def merge(self, other: "BuildDiagnostics") -> None:
        for field in fields(self):
            name = field.name
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


_SEEN_POS_TABLE = {
    Pos.ADJ: CategoryPath.SEEN_HAS_PROPERTY,
    Pos.PREP: CategoryPath.SEEN_RELATEDNESS,
    Pos.VBG: CategoryPath.SEEN_CAPABLE_OF,
    Pos.VBN: CategoryPath.SEEN_RECEIVES_ACTION,
}


def pos_to_seen_category(pos: Pos) -> CategoryPath | None:
    """Select the seen leaf for a tagged word, or None when none applies.

    Adjectives carry properties, prepositions spatial relations, and verbs
    actions: active (VBG) verbs are capabilities, passive (VBN) ones
    received actions.
    """
    return _SEEN_POS_TABLE.get(pos)


def _strip_copulas(words: list[str]) -> list[str]:
    return [w for w in words if w not in _COPULAS]


def _first_seen_category(words: list[str], lexicon: Lexicon) -> CategoryPath | None:
    """Seen leaf of the first predicate word whose tag maps to one."""
    for word in words:
        category = pos_to_seen_category(_provisional_pos(word, lexicon))
        if category is not None:
            return category
    return None


def _predicate_reading(text: str, lexicon: Lexicon) -> tuple[CategoryPath | None, str]:
    """A predicate or attribute text's words without copulas and the seen leaf
    of the first of them that maps to one (None if none does), as (leaf,
    words joined by spaces); read once per distinct text."""
    reading = lexicon.predicates.get(text)
    if reading is None:
        words = _strip_copulas(text.split())
        reading = (_first_seen_category(words, lexicon), " ".join(words))
        lexicon.predicates.put(text, reading)
    return reading


def map_scene_triple(
    triple: SceneTriple,
    objects_by_id: dict[str, GroundedObject],
    lexicon: Lexicon,
) -> CommonsenseTriple | None:
    """Map one scene-graph triple to a seen commonsense triple of its subject.

    Returns None (NotMapped) when the predicate carries no mappable
    part of speech.
    """
    if triple.kind is TripleKind.ATTRIBUTE:
        category, tail = _predicate_reading(
            triple.predicate + " " + triple.object_slot, lexicon
        )
        if category is None:
            return None
    else:
        category, words = _predicate_reading(triple.predicate, lexicon)
        if not words:
            return None
        # Bare verb stems ("play", "hold") look like nouns to suffix
        # rules; relationship predicates default to active verbs.
        category = category or CategoryPath.SEEN_CAPABLE_OF
        tail_object = objects_by_id[triple.object_slot]
        tail = words + " " + name_keys(tail_object.name, lexicon)[1]
    return CommonsenseTriple(category, tail, Provenance.SCENE_TRIPLE)


def cooccurrence_triples(objects: list[GroundedObject]) -> dict[str, list[CommonsenseTriple]]:
    """Each object's LocatedNear triples, by object id: one to every distinct
    object name of the image other than its own, names in first-seen order.
    The objects of an image share one triple per name."""
    near = {
        name: CommonsenseTriple(CategoryPath.SEEN_LOCATED_NEAR, name, Provenance.CO_OCCURRENCE)
        for name in dict.fromkeys(obj.name for obj in objects)
    }
    return {
        obj.object_id: [triple for name, triple in near.items() if name != obj.name]
        for obj in objects
    }


def extract_region_triples(parse: PhraseParse) -> list[tuple[str, CategoryPath, str]]:
    """Apply the mapping rules to one parsed region phrase.

    The rules compose: a prepositional phrase with adjectives on its root
    noun yields both a spatial triple and one property triple per adjective.
    """
    root = parse.root_noun
    out: list[tuple[str, CategoryPath, str]] = []
    for modifier in parse.adjectives:
        out.append((root, CategoryPath.SEEN_HAS_PROPERTY, modifier))
    if parse.np_participle is not None:
        out.append((root, CategoryPath.SEEN_CAPABLE_OF, parse.np_participle))
    if parse.kind is PhraseKind.PP_PHRASE:
        out.append((root, CategoryPath.SEEN_RELATEDNESS, f"{parse.prep} {parse.tail_head_noun}"))
    elif parse.kind is PhraseKind.VP_PHRASE:
        out.append((root, pos_to_seen_category(parse.verb.pos), parse.verb.complement))
    return out


# A phrase the memo has not read yet; None is a phrase read as unparseable.
_UNREAD = object()


def _phrase_reading(
    phrase: str, lexicon: Lexicon
) -> tuple[str, str | None, tuple[tuple[CategoryPath, str], ...]] | None:
    """A region phrase's root noun, the head noun of its prepositional tail
    (None unless it is a prepositional phrase), and the (leaf, tail) pairs
    `extract_region_triples` gives it; None when the phrase has no tokens or
    the grammar rejects it. Read once per distinct text."""
    reading = lexicon.phrases.get(phrase, _UNREAD)
    if reading is _UNREAD:
        try:
            parse = parse_region_phrase(tokenize_and_tag(phrase, lexicon))
        except EmptyPhrase:
            parse = None
        if parse is not None:
            tail_noun = parse.tail_head_noun if parse.kind is PhraseKind.PP_PHRASE else None
            pairs = tuple((category, tail) for _, category, tail in extract_region_triples(parse))
            reading = (parse.root_noun, tail_noun, pairs)
        else:
            reading = None
        lexicon.phrases.put(phrase, reading)
    return reading


class MatchFailure(enum.Enum):
    NO_MATCH = "no_match"
    AMBIGUOUS = "ambiguous"


def localize(
    head_name: str,
    region: Region,
    objects: list[GroundedObject],
    tau: float,
    lexicon: Lexicon,
) -> GroundedObject | MatchFailure:
    """Ground a phrase head to the unique matching object inside the region.

    An object matches when its name's lemma is the head and the region box
    covers its box at ratio >= tau, the name tested first. Zero matches give
    NO_MATCH, several give AMBIGUOUS. A tau outside (0, 1] raises
    `InvalidConfig`.
    """
    _check_tau(tau)
    matches = [
        obj
        for obj in objects
        if name_keys(obj.name, lexicon)[0] == head_name
        and overlap_ratio(region.bbox, obj.bbox) >= tau
    ]
    if not matches:
        return MatchFailure.NO_MATCH
    if len(matches) > 1:
        return MatchFailure.AMBIGUOUS
    return matches[0]


def build_seen(
    objects: list[GroundedObject],
    triples: list[SceneTriple],
    regions: list[Region],
    lexicon: Lexicon,
    tau: float = DEFAULT_TAU,
    diagnostics: BuildDiagnostics | None = None,
) -> dict[str, list[CommonsenseTriple]]:
    """Each object's seen triples, by object id, every object listed; each
    list is deduplicated and ordered by (leaf text, tail).

    Region-derived spatial tails stay textual even when no object with the
    tail noun's lemma lies in the region at ratio >= tau (`tail_unmatched`);
    only head grounding can discard a triple. Of the triples of one object,
    leaf and tail, the first is kept, with sources processed in the order
    scene triples, co-occurrence, regions. A tau outside (0, 1] raises
    `InvalidConfig`, even for an image without regions.
    """
    _check_tau(tau)
    if diagnostics is None:
        diagnostics = BuildDiagnostics()
    objects_by_id = {obj.object_id: obj for obj in objects}
    objects_by_lemma: dict[str, list[GroundedObject]] = {}
    for obj in objects:
        objects_by_lemma.setdefault(name_keys(obj.name, lexicon)[0], []).append(obj)

    # Per object id, its triples by (leaf text, tail), the first one kept.
    kept: dict[str, dict[tuple[str, str], CommonsenseTriple]] = {
        obj.object_id: {} for obj in objects
    }
    for triple in triples:
        mapped = map_scene_triple(triple, objects_by_id, lexicon)
        if mapped is None:
            diagnostics.not_mapped += 1
        else:
            kept[triple.subject_id].setdefault((mapped.category.text, mapped.tail), mapped)

    for object_id, near in cooccurrence_triples(objects).items():
        own = kept[object_id]
        for triple in near:
            own.setdefault((triple.category.text, triple.tail), triple)

    for region in regions:
        reading = _phrase_reading(region.phrase, lexicon)
        if reading is None:
            diagnostics.unparseable += 1
            continue
        root, tail_noun, pairs = reading
        named = objects_by_lemma.get(root, [])
        target = localize(root, region, named, tau, lexicon)
        if target is MatchFailure.NO_MATCH:
            diagnostics.no_match += 1
            continue
        if target is MatchFailure.AMBIGUOUS:
            diagnostics.ambiguous += 1
            continue
        if tail_noun is not None and not any(
            overlap_ratio(region.bbox, obj.bbox) >= tau
            for obj in objects_by_lemma.get(tail_noun, ())
        ):
            diagnostics.tail_unmatched += 1
        own = kept[target.object_id]
        for category, tail in pairs:
            if (category.text, tail) not in own:
                own[category.text, tail] = CommonsenseTriple(
                    category, tail, Provenance.REGION_PHRASE
                )

    return {object_id: [own[key] for key in sorted(own)] for object_id, own in kept.items()}
