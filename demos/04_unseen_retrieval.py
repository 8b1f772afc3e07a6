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
    GroundedObject,
    Lexicon,
    load_kb,
    make_synset,
    object_aware_sort,
    retrieve_unseen,
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

triples = retrieve_unseen(man, kb, lexicon)
print("\nretrieved:")
for triple in triples:
    print(f"  ({triple.category.text}, {triple.tail})  weight={triple.score}")

# The triples hold no head: the sort is told whose they are. The image also
# contains a car, so "hit by a car" outranks everything.
ranked = object_aware_sort(triples, man, {"man", "car"}, lexicon)
print("\nobject-aware order:", [t.tail for t in ranked])
