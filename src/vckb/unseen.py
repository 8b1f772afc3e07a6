"""Builders for inferred (unseen) commonsense triples of one object.

Object names expand into synsets of surface and lemma (`phrase.name_keys`).
Each form is looked up once in the external KB, whose index holds each head's
edges of the six unseen relations with their leaves. The triples are
deduplicated against the object's seen triples, and finally sorted so that
tails mentioning other objects' lemmas in the same image rank first.
"""

from __future__ import annotations

from .errors import EmptyPhrase
from .ingest import GroundedObject, KbIndex
from .lexicon import Lexicon
from .phrase import name_keys, tokenize_and_tag
from .seen import CommonsenseTriple, Provenance


def make_synset(obj: GroundedObject, lexicon: Lexicon) -> tuple[str, ...]:
    """An object name's KB lookup forms: surface name and lemma, surface
    first and deduplicated (KB heads are normalized like names)."""
    surface = obj.name
    lemma = name_keys(surface, lexicon)[0]
    return tuple(dict.fromkeys(form for form in (surface, lemma) if form))


def retrieve_unseen(
    obj: GroundedObject, kb: KbIndex, lexicon: Lexicon
) -> list[CommonsenseTriple]:
    """All KB triples for the object's synset: one lookup per synset form,
    whose edges carry their unseen leaves.

    Duplicates on (category, tail) keep the highest edge weight. Output is
    ordered by (category, tail); callers re-rank with object_aware_sort.
    """
    best: dict[tuple[str, str], CommonsenseTriple] = {}
    for form in make_synset(obj, lexicon):
        for category, tail, weight in kb.lookup(form):
            key = (category.text, tail)
            current = best.get(key)
            if current is None or weight > current.score:
                best[key] = CommonsenseTriple(
                    head=obj,
                    category=category,
                    tail=tail,
                    provenance=Provenance.KB_RETRIEVAL,
                    score=weight,
                )
    return [best[key] for key in sorted(best)]


def dedup_against_seen(
    unseen: list[CommonsenseTriple], seen: list[CommonsenseTriple]
) -> list[CommonsenseTriple]:
    """Drop unseen triples whose (relation, tail) duplicates a seen triple."""
    seen_keys = {(t.category.relation.text, t.tail) for t in seen}
    return [t for t in unseen if (t.category.relation.text, t.tail) not in seen_keys]


def _tail_lemmas(tail: str, lexicon: Lexicon) -> frozenset[str]:
    # Tails recur across objects and images, so each distinct tail is tagged
    # once; the memo holds only tails that were sorted, all of which are
    # already in memory in the KB.
    memo = lexicon._memo.setdefault("tail_lemmas", {})
    lemmas = memo.get(tail)
    if lemmas is None:
        try:
            tokens = tokenize_and_tag(tail, lexicon)
        except EmptyPhrase:
            lemmas = frozenset()
        else:
            lemmas = frozenset(token.lemma for token in tokens)
        memo[tail] = lemmas
    return lemmas


def object_aware_sort(
    triples: list[CommonsenseTriple],
    image_lemmas: set[str],
    lexicon: Lexicon,
) -> list[CommonsenseTriple]:
    """Rank triples whose tails mention another image object first.

    Stable sort on (mentions-an-image-object DESC, score DESC, tail ASC);
    the head object's own lemma never counts as a mention.
    """
    if not triples:
        return []
    head_lemma = name_keys(triples[0].head.name, lexicon)[0]
    relevant = image_lemmas - {head_lemma}

    def sort_key(triple: CommonsenseTriple):
        mentions = bool(_tail_lemmas(triple.tail, lexicon) & relevant)
        return (0 if mentions else 1, -triple.score, triple.tail)

    return sorted(triples, key=sort_key)


def build_unseen(
    objects: list[GroundedObject],
    seen_by_object: dict[str, list[CommonsenseTriple]],
    kb: KbIndex,
    lexicon: Lexicon,
) -> dict[str, list[CommonsenseTriple]]:
    """Sorted unseen triples per object id for one image."""
    lemmas = {name_keys(obj.name, lexicon)[0] for obj in objects}
    out: dict[str, list[CommonsenseTriple]] = {}
    for obj in objects:
        triples = retrieve_unseen(obj, kb, lexicon)
        triples = dedup_against_seen(triples, seen_by_object.get(obj.object_id, []))
        out[obj.object_id] = object_aware_sort(triples, lemmas, lexicon)
    return out
