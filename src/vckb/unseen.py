"""Builders for inferred (unseen) commonsense triples of one object.

Object names expand into synsets of surface and lemma (`phrase.name_keys`).
Each form is looked up once in the external KB, whose index holds each head's
edges of the six unseen relations with their leaves. The triples are
deduplicated against the object's seen triples, and finally sorted so that
tails mentioning other objects' lemmas in the same image rank first.

The triples are returned by object id and hold no head, as the seen layer's
do. Names recur across boxes and images, so `build_unseen` ranks each
distinct synset's KB edges once per process and KB (`_ranked_edges`, kept on
the `KbIndex`); per box it only drops the edges its seen triples duplicate
and moves the tails that mention another image object to the front. Each
distinct tail's lemmas are found once too (`_tail_lemmas`, on the lexicon).
Both memos are cleared when they reach their caps (`_RANKED_MEMO_CAP`,
`_TAIL_LEMMAS_CAP`). `retrieve_unseen`, `dedup_against_seen` and
`object_aware_sort` do the same steps for one box, and are its reference.
"""

from __future__ import annotations

from .errors import EmptyPhrase
from .ingest import GroundedObject, KbIndex
from .lexicon import Lexicon
from .phrase import name_keys, tokenize_and_tag
from .seen import CommonsenseTriple, Provenance
from .taxonomy import CategoryPath

# Distinct keys each memo holds at most; a memo that reaches its cap is
# cleared. A synset's entry holds one reference per ranked edge.
_RANKED_MEMO_CAP = 1 << 12
_TAIL_LEMMAS_CAP = 1 << 16


def make_synset(obj: GroundedObject, lexicon: Lexicon) -> tuple[str, ...]:
    """An object name's KB lookup forms: surface name and lemma, surface
    first and deduplicated (KB heads are normalized like names)."""
    surface = obj.name
    lemma = name_keys(surface, lexicon)[0]
    return tuple(dict.fromkeys(form for form in (surface, lemma) if form))


def retrieve_unseen(
    obj: GroundedObject, kb: KbIndex, lexicon: Lexicon
) -> list[CommonsenseTriple]:
    """All KB triples of the object's synset: one lookup per synset form,
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
                best[key] = CommonsenseTriple(category, tail, Provenance.KB_RETRIEVAL, weight)
    return [best[key] for key in sorted(best)]


def dedup_against_seen(
    unseen: list[CommonsenseTriple], seen: list[CommonsenseTriple]
) -> list[CommonsenseTriple]:
    """Drop unseen triples whose (relation, tail) duplicates a seen triple."""
    seen_keys = {(t.category.relation.text, t.tail) for t in seen}
    return [t for t in unseen if (t.category.relation.text, t.tail) not in seen_keys]


def _tail_lemmas(tail: str, lexicon: Lexicon) -> frozenset[str]:
    # Tails recur across objects and images, so each distinct tail is tagged
    # once. Each frozenset is a new object, so the memo grows with every
    # distinct tail sorted until it reaches its cap.
    memo = lexicon._memo.setdefault("tail_lemmas", {})
    lemmas = memo.get(tail)
    if lemmas is None:
        if len(memo) >= _TAIL_LEMMAS_CAP:
            memo.clear()
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
    head: GroundedObject,
    image_lemmas: set[str],
    lexicon: Lexicon,
) -> list[CommonsenseTriple]:
    """Rank the head object's triples whose tails mention another image
    object first.

    Stable sort on (mentions-an-image-object DESC, score DESC, tail ASC);
    the head object's own lemma never counts as a mention.
    """
    relevant = image_lemmas - {name_keys(head.name, lexicon)[0]}

    def sort_key(triple: CommonsenseTriple):
        mentions = bool(_tail_lemmas(triple.tail, lexicon) & relevant)
        return (0 if mentions else 1, -triple.score, triple.tail)

    return sorted(triples, key=sort_key)


def _ranked_edges(
    obj: GroundedObject, kb: KbIndex, lexicon: Lexicon
) -> tuple[tuple[CategoryPath, str, float], ...]:
    """The KB's own (leaf, tail, weight) edges of the object's synset, one per
    (leaf, tail), the first of its highest weight kept as `retrieve_unseen`
    keeps it, ordered by (-weight, tail, leaf text); ranked once per synset.

    The entry holds the KB's edge tuples, not new ones: a tuple holding an
    enum member is never untracked by the garbage collector, so copies would
    add to every full collection even for a name that is met once.
    """
    memo = kb._ranked
    synset = make_synset(obj, lexicon)
    ranked = memo.get(synset)
    if ranked is None:
        if len(memo) >= _RANKED_MEMO_CAP:
            memo.clear()
        best: dict[tuple[str, str], tuple[CategoryPath, str, float]] = {}
        for form in synset:
            for edge in kb.lookup(form):
                key = (edge[0].text, edge[1])
                current = best.get(key)
                if current is None or edge[2] > current[2]:
                    best[key] = edge
        ranked = memo[synset] = tuple(
            sorted(best.values(), key=lambda edge: (-edge[2], edge[1], edge[0].text))
        )
    return ranked


def build_unseen(
    objects: list[GroundedObject],
    seen: dict[str, list[CommonsenseTriple]],
    kb: KbIndex,
    lexicon: Lexicon,
) -> dict[str, list[CommonsenseTriple]]:
    """Sorted unseen triples per object id for one image, given its seen
    triples per object id: for each object, `object_aware_sort(
    dedup_against_seen(retrieve_unseen(...), seen), ...)`.

    Per box, the synset's ranked edges (`_ranked_edges`) are filtered against
    the box's seen (relation, tail) pairs, and split stably into the tails
    that mention another image object and the rest. That is the reference's
    order. `retrieve_unseen` orders by (leaf text, tail), and the filter keeps
    that order, so the stable sort on (mention, -score, tail) breaks its ties
    by leaf text: the order is (mention, -score, tail, leaf text). The ranked
    edges are in (-score, tail, leaf text) order, which a stable split by
    mention turns into the same order.
    """
    lemmas = {name_keys(obj.name, lexicon)[0] for obj in objects}
    kb_retrieval = Provenance.KB_RETRIEVAL
    out: dict[str, list[CommonsenseTriple]] = {}
    for obj in objects:
        seen_keys = {(t.category.relation.text, t.tail) for t in seen.get(obj.object_id, ())}
        relevant = lemmas - {name_keys(obj.name, lexicon)[0]}
        mentioning: list[CommonsenseTriple] = []
        rest: list[CommonsenseTriple] = []
        for category, tail, weight in _ranked_edges(obj, kb, lexicon):
            if (category.relation.text, tail) in seen_keys:
                continue
            triple = CommonsenseTriple(category, tail, kb_retrieval, weight)
            if relevant and not relevant.isdisjoint(_tail_lemmas(tail, lexicon)):
                mentioning.append(triple)
            else:
                rest.append(triple)
        out[obj.object_id] = mentioning + rest
    return out
