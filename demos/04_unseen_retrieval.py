"""
Retrieving unseen commonsense from the KB
=========================================

Object names expand into synsets, the KB is looked up once per synset form
(each head's edges already carry their unseen leaves), seen duplicates are
dropped, and tails that mention other image objects sort first. A KB is
always read from a file by `load_kb`; here five edges are written to one.
"""

import tempfile
from pathlib import Path

from vckb import (
    BBox,
    CategoryPath,
    CommonsenseTriple,
    GroundedObject,
    Lexicon,
    Provenance,
    build_unseen,
    load_kb,
    make_synset,
)

lexicon = Lexicon.default()

# The object is annotated with the plural name; its synset covers both forms.
man = GroundedObject("o1", "men", BBox(0, 0, 50, 100))
print("synset for 'men':", make_synset(man, lexicon))
print("synset for 'traffic lights':",
      make_synset(GroundedObject("x", "traffic lights", BBox(0, 0, 5, 5)), lexicon))

# One tab-separated `head relation tail weight` edge per line.
edges = [
    "man\tCapableOf\tgrow up\t2.0",
    "man\tReceivesAction\thit by a car\t1.0",
    "man\tLocatedNear\tsofa\t1.0",
    "man\tAtLocation\toffice\t5.0",   # out-of-scope relation: not indexed
    "men\tCapableOf\tvote\t1.0",      # found via the synset's plural form
]
with tempfile.TemporaryDirectory() as tmp:
    kb_path = Path(tmp) / "kb.tsv"
    kb_path.write_text("".join(edge + "\n" for edge in edges), encoding="utf-8")
    kb = load_kb(kb_path)

print("\nedges of 'man':", [(leaf.text, tail) for leaf, tail, _ in kb.lookup("man")])

# The image holds the men and a car. The men's seen triples, here one from
# the scene graph, are given by object id, and a KB edge with the same
# relation and tail ("vote") is dropped. The triples hold no head: they come
# back under the object's id. The car is in the image, so "hit by a car"
# outranks everything.
car = GroundedObject("o2", "car", BBox(60, 40, 40, 30))
seen = {
    man.object_id: [
        CommonsenseTriple(CategoryPath.SEEN_CAPABLE_OF, "vote", Provenance.SCENE_TRIPLE)
    ]
}
unseen = build_unseen([man, car], seen, kb, lexicon)
print("\nunseen triples of 'men', object-aware order:")
for triple in unseen[man.object_id]:
    print(f"  ({triple.category.text}, {triple.tail})  weight={triple.score}")
