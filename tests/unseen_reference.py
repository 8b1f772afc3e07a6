"""One box's unseen triples, worked out in three plain steps.

`reference_object_aware_sort(reference_dedup_against_seen(
reference_retrieve_unseen(...), seen), ...)` is the reference for one box's
list in `build_unseen`. These are the retrieval, dedup and object-aware sort
the package ran per box before it ranked each synset's KB edges once per
process (`unseen._ranked_edges`); only their names changed. The synset, the
name keys and each tail's lemmas are the package's (`make_synset`,
`name_keys`, `unseen._tail_lemmas`); their own tests guard them.

Why `build_unseen` gives this order: `reference_retrieve_unseen` orders by
(leaf text, tail), and the dedup keeps that order, so the stable sort on
(mention, -score, tail) breaks its ties by leaf text: the order is (mention,
-score, tail, leaf text). `_ranked_edges` gives each synset's edges in
(-score, tail, leaf text) order, `build_unseen` filters them against the
box's seen (relation, tail) pairs, and a stable split by mention turns them
into the same order.

Of two edges of one (leaf, tail) at equal weights, both keep the first in
synset-form order (surface, then lemma), rows in file order. 0.0 and -0.0
are equal weights written differently, so only that rule writes the same
score.
"""

from vckb.ingest import GroundedObject, KbIndex
from vckb.lexicon import Lexicon
from vckb.phrase import name_keys
from vckb.seen import CommonsenseTriple, Provenance
from vckb.unseen import _tail_lemmas, make_synset


def reference_retrieve_unseen(
    obj: GroundedObject, kb: KbIndex, lexicon: Lexicon
) -> list[CommonsenseTriple]:
    """All KB triples of the object's synset: one lookup per synset form,
    whose edges carry their unseen leaves.

    Duplicates on (category, tail) keep the highest edge weight. Output is
    ordered by (category, tail); callers re-rank with
    reference_object_aware_sort.
    """
    best: dict[tuple[str, str], CommonsenseTriple] = {}
    for form in make_synset(obj, lexicon):
        for category, tail, weight in kb.lookup(form):
            key = (category.text, tail)
            current = best.get(key)
            if current is None or weight > current.score:
                best[key] = CommonsenseTriple(category, tail, Provenance.KB_RETRIEVAL, weight)
    return [best[key] for key in sorted(best)]


def reference_dedup_against_seen(
    unseen: list[CommonsenseTriple], seen: list[CommonsenseTriple]
) -> list[CommonsenseTriple]:
    """Drop unseen triples whose (relation, tail) duplicates a seen triple."""
    seen_keys = {(t.category.relation.text, t.tail) for t in seen}
    return [t for t in unseen if (t.category.relation.text, t.tail) not in seen_keys]


def reference_object_aware_sort(
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
