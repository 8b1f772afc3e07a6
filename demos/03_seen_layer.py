"""
Building the seen layer of one image
====================================

Three sources feed it: scene-graph triples mapped by part of speech,
object co-occurrence, and region phrases grounded by overlap ratio. The
triples come back by object id: a triple holds its leaf and tail, and its
object is the one it is filed under.
"""

from vckb import (
    BBox,
    GroundedObject,
    Lexicon,
    Region,
    SceneTriple,
    TripleKind,
    build_seen,
    localize,
    overlap_ratio,
)
from vckb.seen import BuildDiagnostics

lexicon = Lexicon.default()

man = GroundedObject("o1", "man", BBox(10, 10, 50, 100))
car = GroundedObject("o2", "car", BBox(200, 150, 120, 80))

triples = [
    SceneTriple("o1", "is", "tall", TripleKind.ATTRIBUTE),
    SceneTriple("o1", "on", "o2", TripleKind.RELATIONSHIP),
]
regions = [
    Region("a thin man behind the yellow car", BBox(0, 0, 330, 240)),
    Region("a dog", BBox(0, 0, 640, 480)),  # names no object: dropped
]

# The region box covers the man's box completely, so he is a candidate.
print("overlap(region, man) =", overlap_ratio(regions[0].bbox, man.bbox))
print("localized:", localize("man", regions[0], [man, car], 0.5, lexicon))

diagnostics = BuildDiagnostics()
seen = build_seen([man, car], triples, regions, lexicon, diagnostics=diagnostics)
for obj in (man, car):
    for triple in seen[obj.object_id]:
        print(f"({obj.name}, {triple.category.text}, {triple.tail})"
              f"   [{triple.provenance.value}]")
print("diagnostics:", diagnostics.as_dict())
