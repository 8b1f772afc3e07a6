"""
Retrieving unseen commonsense from the KB
=========================================

Object names expand into synsets, the KB is looked up once per synset form
(each head's edges already carry their unseen leaves), seen duplicates are
dropped, and tails that mention other image objects sort first.
"""

from vckb import (
    BBox,
    GroundedObject,
    KbEdge,
    KbIndex,
    Lexicon,
    make_synset,
    object_aware_sort,
    retrieve_unseen,
)

lexicon = Lexicon.default()

# The object is annotated with the plural name; its synset covers both forms.
man = GroundedObject("o1", "demo", "men", BBox(0, 0, 50, 100))
print("synset for 'men':", make_synset(man, lexicon).forms)
print("synset for 'traffic lights':",
      make_synset(GroundedObject("x", "demo", "traffic lights", BBox(0, 0, 5, 5)), lexicon).forms)

kb = KbIndex([
    KbEdge("man", "CapableOf", "grow up", 2.0),
    KbEdge("man", "ReceivesAction", "hit by a car", 1.0),
    KbEdge("man", "LocatedNear", "sofa", 1.0),
    KbEdge("man", "AtLocation", "office", 5.0),   # out-of-scope relation: not indexed
    KbEdge("men", "CapableOf", "vote", 1.0),      # found via the synset's plural form
])

print("\nedges of 'man':", [(leaf.text, tail) for leaf, tail, _ in kb.lookup("man")])

triples = retrieve_unseen(man, kb, lexicon)
print("\nretrieved:")
for triple in triples:
    print(f"  ({triple.category.text}, {triple.tail})  weight={triple.score}")

# The image also contains a car, so "hit by a car" outranks everything.
ranked = object_aware_sort(triples, {"man", "car"}, lexicon)
print("\nobject-aware order:", [t.tail for t in ranked])
