"""A whole dataset line for one image, worked out the slow and plain way.

`reference_record_line` is the reference for `record_line(build_image_record(
...)[0])`: it joins a geometry-first seen build, a brute-force retrieval over
the KB's rows, a plain dedup, a full sort, a leaf grouping and a serializer
that escapes one character at a time. It holds every triple as a plain tuple
and reads an object only by its id, name and box, so it does not depend on
how the builders store their triples. It calls the phrase layer,
`overlap_ratio` and `map_scene_triple` (of whose result it reads only the
leaf and the tail) as black boxes; their own tests guard them.

The rules it states:

- seen triples come from scene triples, then co-occurrence, then region
  phrases; of two with the same (object, leaf, tail) the first is kept;
- an object's co-occurrence tails are the image's other distinct names, in
  first-seen order, never its own;
- an object's KB edges are those whose head is one of its lookup forms
  (surface name, then lemma); of the edges of one (leaf, tail) the first of
  the highest weight is kept, forms in that order and rows in file order;
- an unseen triple is dropped when a seen triple of its object has its
  (relation, tail);
- unseen triples are ordered by (mentions another image object's lemma
  first, weight descending, tail, leaf);
- an object's seen triples come before its unseen ones, ordered by (leaf,
  tail); groups follow the canonical leaf order and keep that order inside.
"""

from vckb import MatchFailure, PhraseKind, overlap_ratio
from vckb.errors import EmptyPhrase
from vckb.phrase import lemmatize, name_keys, parse_region_phrase, tokenize_and_tag
from vckb.seen import extract_region_triples, map_scene_triple

# The eleven leaves in canonical group order.
LEAF_ORDER = (
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
)
# The KB relations the unseen layer reads, each to its leaf.
KB_LEAVES = {
    leaf.rsplit("/", 1)[1]: leaf for leaf in LEAF_ORDER if leaf.startswith("/Unseen/")
}
ESCAPES = {"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"}


def reference_localize(head_name, region, objects, tau, lexicon):
    """Ground a phrase head as `seen.localize` does, measuring every box
    before it compares names."""
    candidates = [obj for obj in objects if overlap_ratio(region.bbox, obj.bbox) >= tau]
    matches = [obj for obj in candidates if lemmatize(obj.name, lexicon) == head_name]
    if not matches:
        return MatchFailure.NO_MATCH
    if len(matches) > 1:
        return MatchFailure.AMBIGUOUS
    return matches[0]


def reference_cooccurrence(objects):
    """(object id, tail) of each co-occurrence triple, walking every ordered
    pair of objects."""
    out = []
    for a in objects:
        emitted = set()
        for b in objects:
            if b is a or b.name == a.name or b.name in emitted:
                continue
            emitted.add(b.name)
            out.append((a.object_id, b.name))
    return out


def reference_build_seen(objects, triples, regions, lexicon, tau):
    """Each object's seen triples as (leaf text, tail, provenance text),
    ordered by (leaf text, tail), by object id in image order, every object
    listed; and the build's diagnostic counts as a dict."""
    diagnostics = dict.fromkeys(
        ("unparseable", "no_match", "ambiguous", "not_mapped", "tail_unmatched"), 0
    )
    objects_by_id = {obj.object_id: obj for obj in objects}
    collected = []  # (object id, leaf text, tail, provenance text), in source order
    for triple in triples:
        mapped = map_scene_triple(triple, objects_by_id, lexicon)
        if mapped is None:
            diagnostics["not_mapped"] += 1
        else:
            collected.append(
                (triple.subject_id, mapped.category.text, mapped.tail, "scene_triple")
            )
    for object_id, tail in reference_cooccurrence(objects):
        collected.append((object_id, "/Seen/Space/LocatedNear", tail, "co_occurrence"))
    for region in regions:
        try:
            parse = parse_region_phrase(tokenize_and_tag(region.phrase, lexicon))
        except EmptyPhrase:
            parse = None
        if parse is None:
            diagnostics["unparseable"] += 1
            continue
        target = reference_localize(parse.root_noun, region, objects, tau, lexicon)
        if target is MatchFailure.NO_MATCH:
            diagnostics["no_match"] += 1
            continue
        if target is MatchFailure.AMBIGUOUS:
            diagnostics["ambiguous"] += 1
            continue
        if parse.kind is PhraseKind.PP_PHRASE:
            candidate_names = {
                lemmatize(obj.name, lexicon)
                for obj in objects
                if overlap_ratio(region.bbox, obj.bbox) >= tau
            }
            if parse.tail_head_noun not in candidate_names:
                diagnostics["tail_unmatched"] += 1
        for _, category, tail in extract_region_triples(parse):
            collected.append((target.object_id, category.text, tail, "region_phrase"))
    kept = {}
    for object_id, leaf, tail, provenance in collected:
        kept.setdefault((object_id, leaf, tail), provenance)
    seen = {obj.object_id: [] for obj in objects}
    for (object_id, leaf, tail), provenance in sorted(kept.items()):
        seen[object_id].append((leaf, tail, provenance))
    return seen, diagnostics


def _lemmas(text, lexicon):
    try:
        return {token.lemma for token in tokenize_and_tag(text, lexicon)}
    except EmptyPhrase:
        return set()


def reference_unseen(obj, seen, image_lemmas, kb_rows, lexicon):
    """One object's unseen triples as (leaf text, tail, "kb_retrieval",
    weight), from (head, relation, tail, weight) KB rows whose head and tail
    are already normalized; seen holds the object's seen triples."""
    lemma = name_keys(obj.name, lexicon)[0]
    forms = [obj.name] + ([lemma] if lemma and lemma != obj.name else [])
    best = {}
    for form in forms:
        for head, relation, tail, weight in kb_rows:
            leaf = KB_LEAVES.get(relation)
            if head != form or leaf is None:
                continue
            if (leaf, tail) not in best or weight > best[(leaf, tail)]:
                best[(leaf, tail)] = weight
    seen_pairs = {(leaf.rsplit("/", 1)[1], tail) for leaf, tail, _ in seen}
    others = image_lemmas - {lemma}
    kept = [
        (leaf, tail, weight)
        for (leaf, tail), weight in best.items()
        if (leaf.rsplit("/", 1)[1], tail) not in seen_pairs
    ]
    kept.sort(
        key=lambda t: (0 if _lemmas(t[1], lexicon) & others else 1, -t[2], t[1], t[0])
    )
    return [(leaf, tail, "kb_retrieval", weight) for leaf, tail, weight in kept]


def _escape(text):
    return "".join(ESCAPES.get(char, char) for char in text)


def reference_record_line(image, kb_rows, lexicon, tau):
    """The dataset line of one loaded image, built with the KB's rows, or
    with no unseen layer when kb_rows is None."""
    seen, _ = reference_build_seen(image.objects, image.triples, image.regions, lexicon, tau)
    image_lemmas = {name_keys(obj.name, lexicon)[0] for obj in image.objects}
    fields = [image.image_id, str(len(image.objects))]
    for obj in image.objects:
        triples = [(leaf, tail, provenance, 0.0) for leaf, tail, provenance in seen[obj.object_id]]
        if kb_rows is not None:
            triples += reference_unseen(
                obj, seen[obj.object_id], image_lemmas, kb_rows, lexicon
            )
        groups = [
            (leaf, [t for t in triples if t[0] == leaf])
            for leaf in LEAF_ORDER
            if any(t[0] == leaf for t in triples)
        ]
        box = obj.bbox
        fields += [obj.object_id, _escape(obj.name)]
        fields += [str(box.x), str(box.y), str(box.w), str(box.h), str(len(groups))]
        for leaf, group in groups:
            fields += [leaf, str(len(group))]
            for _, tail, provenance, score in group:
                fields += [_escape(tail), provenance, repr(score)]
    return "\t".join(fields)
