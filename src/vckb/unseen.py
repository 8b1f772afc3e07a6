"""The inferred (unseen) commonsense triples of an image's objects.

An object name's synset is its surface name and its lemma
(`phrase.name_keys`). Each form is looked up in the external KB, whose index
holds each head's edges of the six unseen relations with their leaves. An
object's triples are its synset's edges, one per (leaf, tail), less those
whose (relation, tail) one of its seen triples has; the tails that mention
another object of the image come first.

The triples are returned by object id and hold no head, as the seen layer's
do. Names recur across boxes and images, so `build_unseen` ranks each
distinct synset's KB edges once per KB (`_ranked_edges`, in the `KbIndex`'s
memo); per box it only drops the edges its seen triples duplicate and moves
the tails that mention another image object to the front. Each distinct
tail's lemmas are found once per lexicon too (`_tail_lemmas`, in
`lexicon.tail_lemmas`). Both memos are `memo.Memo`s, cleared at their caps.
"""

from __future__ import annotations

from .errors import EmptyPhrase
from .ingest import GroundedObject, KbIndex
from .lexicon import Lexicon
from .phrase import name_keys, tokenize_and_tag
from .seen import CommonsenseTriple, Provenance
from .taxonomy import CategoryPath


def make_synset(obj: GroundedObject, lexicon: Lexicon) -> tuple[str, ...]:
    """An object name's KB lookup forms: surface name and lemma, surface
    first and deduplicated (KB heads are normalized like names)."""
    surface = obj.name
    lemma = name_keys(surface, lexicon)[0]
    return tuple(dict.fromkeys(form for form in (surface, lemma) if form))


def _tail_lemmas(tail: str, lexicon: Lexicon) -> frozenset[str]:
    # Tails recur across objects and images, so each distinct tail is tagged
    # once. Each frozenset is a new object, so the memo grows with every
    # distinct tail sorted until it reaches its cap.
    lemmas = lexicon.tail_lemmas.get(tail)
    if lemmas is None:
        try:
            lemmas = frozenset(token.lemma for token in tokenize_and_tag(tail, lexicon))
        except EmptyPhrase:
            lemmas = frozenset()
        lexicon.tail_lemmas.put(tail, lemmas)
    return lemmas


def _ranked_edges(
    obj: GroundedObject, kb: KbIndex, lexicon: Lexicon
) -> tuple[tuple[CategoryPath, str, float], ...]:
    """The (leaf, tail, weight) edges of the object's synset, one per (leaf,
    tail), ordered by (-weight, tail, leaf text); ranked once per synset.
    Of the edges of one (leaf, tail), the first of the highest weight is
    kept, forms in synset order and each form's edges in file order.

    The entry holds the tuples `KbIndex.lookup` builds from the KB's columns,
    so each synset's edges are decoded once per KB. A tuple holding an
    enum member is never untracked by the garbage collector, so the memo's
    cap also bounds the tracked objects its entries add.
    """
    synset = make_synset(obj, lexicon)
    ranked = kb._ranked.get(synset)
    if ranked is None:
        best: dict[tuple[str, str], tuple[CategoryPath, str, float]] = {}
        for form in synset:
            for edge in kb.lookup(form):
                key = (edge[0].text, edge[1])
                current = best.get(key)
                if current is None or edge[2] > current[2]:
                    best[key] = edge
        ranked = tuple(sorted(best.values(), key=lambda edge: (-edge[2], edge[1], edge[0].text)))
        kb._ranked.put(synset, ranked)
    return ranked


def build_unseen(
    objects: list[GroundedObject],
    seen: dict[str, list[CommonsenseTriple]],
    kb: KbIndex,
    lexicon: Lexicon,
) -> dict[str, list[CommonsenseTriple]]:
    """Sorted unseen triples per object id for one image, given its seen
    triples per object id.

    Per box, the synset's ranked edges (`_ranked_edges`) are filtered against
    the box's seen (relation, tail) pairs, and split stably into the tails
    that mention another image object's lemma and the rest; the box's own
    lemma is no mention. Each part stays in (-weight, tail, leaf text)
    order.
    """
    lemmas = {name_keys(obj.name, lexicon)[0] for obj in objects}
    kb_retrieval = Provenance.KB_RETRIEVAL
    # One lookup per edge; a miss, or an empty set, goes through `_tail_lemmas`.
    tail_lemmas = lexicon.tail_lemmas.get
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
            if relevant and not relevant.isdisjoint(
                tail_lemmas(tail) or _tail_lemmas(tail, lexicon)
            ):
                mentioning.append(triple)
            else:
                rest.append(triple)
        out[obj.object_id] = mentioning + rest
    return out
