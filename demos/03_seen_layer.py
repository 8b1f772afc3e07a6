"""
Building the seen layer of one image
====================================

Three sources feed it: scene-graph triples mapped by part of speech,
object co-occurrence, and region phrases grounded by overlap ratio.
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

man = GroundedObject("o1", "demo", "man", BBox(10, 10, 50, 100))
car = GroundedObject("o2", "demo", "car", BBox(200, 150, 120, 80))

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
for triple in build_seen([man, car], triples, regions, lexicon, diagnostics=diagnostics):
    print(f"({triple.head.name}, {triple.category.text}, {triple.tail})"
          f"   [{triple.provenance.value}]")
print("diagnostics:", diagnostics.as_dict())
