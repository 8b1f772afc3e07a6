"""Seeded input generator for the vckb benchmark.

Writes scene corpora, KB edge files and dataset files in the formats the
README documents. It imports nothing from ``vckb``, so a given seed yields
byte-identical inputs on every commit of the program under test.

Each ``make_*`` function fixes the amount of work (image counts, heavy-head
uses, edge counts) and lets the seed choose only the content, so that runs
with different seeds measure comparable work.

Run ``python3 perfbench/gen.py WORKLOAD SEED OUT_DIR`` to write one
workload's inputs and print their properties as JSON.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

# Word lists follow scripts/generate_fixture.py; they are copied so that
# the inputs do not change when that script does.
NOUNS = [
    "man", "woman", "car", "dog", "cat", "bicycle", "tree", "bench",
    "bird", "horse", "bus", "skateboard", "umbrella", "table", "chair",
    "ball", "traffic light", "building", "fence", "truck",
]
ADJECTIVES = [
    "red", "yellow", "blue", "green", "white", "black", "small", "large",
    "tall", "old", "young", "thin", "shiny", "wooden",
]
ATTRIBUTES = ADJECTIVES + ["parked", "broken", "running", "smiling"]
REL_PREDICATES = ["on", "behind", "near", "under", "beside"]
REL_VERBS = ["riding", "holding", "wearing", "chasing", "pulling", "play"]
PREPS = ["behind", "near", "on", "under", "beside", "next to"]
VBG = ["running", "walking", "sitting", "standing", "jumping", "sleeping"]
VBN_AGENTS = ["hit", "pulled", "chased", "followed"]
JUNK = ["the the the", "and or but", "is was", "!!!"]

KB_FACTS = {
    "man": [
        ("CapableOf", "grow up", 2.0),
        ("CapableOf", "read book", 1.0),
        ("ReceivesAction", "hit by a car", 3.0),
        ("LocatedNear", "sofa", 1.0),
        ("HasProperty", "mortal", 1.0),
        ("AtLocation", "office", 2.0),
    ],
    "car": [
        ("UsedFor", "drive to work", 4.0),
        ("CreatedBy", "factory", 2.0),
        ("ReceivesAction", "hit", 1.0),
        ("LocatedNear", "road", 1.5),
        ("HasProperty", "fast", 1.0),
        ("IsA", "vehicle", 5.0),
    ],
    "dog": [
        ("CapableOf", "bark", 3.0),
        ("CapableOf", "chase a cat", 2.0),
        ("LocatedNear", "kennel", 1.0),
        ("HasProperty", "loyal", 2.0),
        ("Desires", "bone", 2.0),
    ],
    "cat": [
        ("CapableOf", "catch a mouse", 2.0),
        ("HasProperty", "furry", 1.0),
        ("LocatedNear", "sofa", 1.0),
    ],
    "horse": [
        ("CapableOf", "pull a cart", 2.0),
        ("UsedFor", "ride", 3.0),
        ("LocatedNear", "stable", 1.0),
    ],
    "bicycle": [
        ("UsedFor", "ride to school", 2.0),
        ("CreatedBy", "factory", 1.0),
        ("ReceivesAction", "stolen", 1.0),
    ],
    "tree": [
        ("HasProperty", "green", 1.0),
        ("CreatedBy", "seed", 2.0),
        ("LocatedNear", "forest", 1.0),
    ],
    "bus": [
        ("UsedFor", "carry passengers", 3.0),
        ("LocatedNear", "bus stop", 2.0),
    ],
    "umbrella": [
        ("UsedFor", "keep off rain", 2.0),
        ("ReceivesAction", "held by a man", 1.0),
    ],
    "traffic_light": [
        ("UsedFor", "control traffic", 3.0),
        ("LocatedNear", "intersection", 2.0),
        ("HasProperty", "bright", 1.0),
    ],
    "building": [
        ("CreatedBy", "workers", 2.0),
        ("HasProperty", "tall", 1.0),
    ],
    "bench": [("UsedFor", "sit on", 2.0)],
    "ball": [("UsedFor", "play games", 2.0), ("HasProperty", "round", 2.0)],
    "table": [("UsedFor", "eat dinner", 2.0)],
    "bird": [("CapableOf", "fly", 4.0), ("LocatedNear", "nest", 1.0)],
    "skateboard": [("UsedFor", "skate", 2.0), ("ReceivesAction", "played by man", 1.0)],
}

IN_SCOPE_RELATIONS = [
    "HasProperty", "CreatedBy", "LocatedNear", "CapableOf", "UsedFor", "ReceivesAction",
]
OUT_OF_SCOPE_RELATIONS = ["IsA", "AtLocation", "Desires", "PartOf", "HasA", "MadeOf"]

CATEGORIES_SEEN = [
    "/Seen/Property/HasProperty",
    "/Seen/Space/LocatedNear",
    "/Seen/Space/Relatedness",
    "/Seen/Action/CapableOf",
    "/Seen/Action/ReceivesAction",
]
CATEGORIES_UNSEEN = [
    "/Unseen/Property/HasProperty",
    "/Unseen/Property/CreatedBy",
    "/Unseen/Space/LocatedNear",
    "/Unseen/Action/CapableOf",
    "/Unseen/Action/UsedFor",
    "/Unseen/Action/ReceivesAction",
]
SEEN_PROVENANCES = ["scene_triple", "co_occurrence", "region_phrase"]

WIDTH, HEIGHT = 640, 480

# seen-dense: many images, each with several region phrases.
SEEN_DENSE_IMAGES = 600

# kb-heavy: a few dozen images over a ~200k-edge KB. Each heavy head is
# named by a fixed number of objects; the seed decides which objects and
# in which surface form.
KB_HEAVY_IMAGES = 48
HEAVY_HEADS = [
    # (KB head as written, object surface forms that resolve to it)
    ("man", ["man", "men"]),
    ("woman", ["woman", "women"]),
    ("dog", ["dog", "dogs"]),
    ("car", ["car", "cars"]),
    ("cat", ["cat", "cats"]),
    ("horse", ["horse", "horses"]),
    ("bus", ["bus", "buses"]),
    ("bird", ["bird", "birds"]),
    ("tree", ["tree", "trees"]),
    ("bench", ["bench", "benches"]),
    ("umbrella", ["umbrella", "umbrellas"]),
    ("bicycle", ["bicycle", "bicycles"]),
    ("truck", ["truck", "trucks"]),
    ("child", ["child", "children"]),
    ("traffic_light", ["traffic light", "traffic_light", "traffic lights"]),
    ("fire_hydrant", ["fire hydrant", "fire_hydrant"]),
    ("teddy bear", ["teddy bear", "teddy_bear", "teddy bears"]),
    ("tennis racket", ["tennis racket", "tennis_racket"]),
    ("skateboard", ["skateboard", "skateboards"]),
    ("police car", ["police car", "police_car", "police cars"]),
]
HEAVY_USES = 1  # objects named by each heavy head per corpus
# Objects whose names the KB does not hold; they cost almost nothing.
PLAIN_NOUNS = ["fence", "building", "chair", "table", "ball", "window", "sign", "pole"]
HEAVY_EDGES = 150_000
LIGHT_HEADS = 12_500
LIGHT_EDGES_PER_HEAD = 4
IN_SCOPE_SHARE = 0.1
TAIL_POOL = 3_000
TAIL_VERBS = ["chase", "ride", "pull", "hold", "carry", "watch", "follow", "wash", "sit on", "play with"]

# instructions-from-data: many records with small groups.
INSTRUCTION_RECORDS = 5_000


def _box(rng: random.Random) -> tuple[int, int, int, int]:
    w = rng.randint(30, 200)
    h = rng.randint(30, 200)
    return rng.randint(0, WIDTH - w), rng.randint(0, HEIGHT - h), w, h


def _normalize_name(text: str) -> str:
    return " ".join(text.replace("_", " ").lower().split())


def _region_around(rng: random.Random, box) -> tuple[int, int, int, int]:
    ox, oy, ow, oh = box
    pad_x = rng.randint(0, 40)
    pad_y = rng.randint(0, 40)
    x = max(0, ox - pad_x)
    y = max(0, oy - pad_y)
    w = min(WIDTH - x, ow + pad_x + rng.randint(0, 40))
    h = min(HEIGHT - y, oh + pad_y + rng.randint(0, 40))
    return x, y, w, h


def _region_phrase(rng: random.Random, name: str) -> str:
    style = rng.random()
    if style < 0.35:
        return f"a {rng.choice(ADJECTIVES)} {name}"
    if style < 0.6:
        return f"the {name} {rng.choice(PREPS)} the {rng.choice(NOUNS)}"
    if style < 0.85:
        return f"a {name} {rng.choice(VBG)} {rng.choice(PREPS)} the {rng.choice(NOUNS)}"
    return f"the {name} {rng.choice(VBN_AGENTS)} by a {rng.choice(NOUNS)}"


class _Scene:
    """Scene-corpus lines plus what a correct build must reproduce."""

    def __init__(self):
        self.lines: list[str] = []
        self.images: list[dict] = []
        self.phrases: list[str] = []

    def image(self, image_id: str) -> None:
        self.lines.append(f"I\t{image_id}\t{WIDTH}\t{HEIGHT}")
        self.images.append({"image_id": image_id, "objects": []})

    def obj(self, image_id: str, object_id: str, name: str, box, kb_head: str | None) -> None:
        """kb_head is the KB head the object's name resolves to, if any."""
        x, y, w, h = box
        self.lines.append(f"O\t{image_id}\t{object_id}\t{name}\t{x}\t{y}\t{w}\t{h}")
        self.images[-1]["objects"].append(
            {"object_id": object_id, "name": _normalize_name(name), "kb_head": kb_head}
        )

    def region(self, image_id: str, box, phrase: str) -> None:
        x, y, w, h = box
        self.lines.append(f"R\t{image_id}\t{x}\t{y}\t{w}\t{h}\t{phrase}")
        self.phrases.append(phrase)

    def write(self, path: Path) -> None:
        path.write_text("\n".join(self.lines) + "\n", encoding="utf-8")


def _scene_triples(rng, scene: _Scene, image_id: str, objects, max_relations: int) -> None:
    for object_id, *_ in objects:
        if rng.random() < 0.8:
            copula = rng.choice(["is", ""])
            scene.lines.append(
                f"T\t{image_id}\tA\t{object_id}\t{copula}\t{rng.choice(ATTRIBUTES)}"
            )
    if len(objects) < 2:
        return
    for _ in range(rng.randint(0, max_relations)):
        a, b = rng.sample(objects, 2)
        predicate = rng.choice(REL_PREDICATES + REL_VERBS)
        scene.lines.append(f"T\t{image_id}\tR\t{a[0]}\t{predicate}\t{b[0]}")


def _build_properties(scene: _Scene, kb_lines: list[str]) -> dict:
    """Input properties that caching or indexing changes would rely on."""
    edges_by_head: dict[str, int] = {}
    in_scope: dict[str, set] = {}
    for line in kb_lines:
        head, relation, tail, _ = line.split("\t")
        head = _normalize_name(head)
        edges_by_head[head] = edges_by_head.get(head, 0) + 1
        if relation in IN_SCOPE_RELATIONS:
            in_scope.setdefault(head, set()).add((relation, _normalize_name(tail)))
    heavy = sorted(edges_by_head.values(), reverse=True)[: len(HEAVY_HEADS)]
    queried = [
        tail
        for image in scene.images
        for obj in image["objects"]
        if obj["kb_head"] is not None
        for _, tail in in_scope.get(obj["kb_head"], ())
    ]
    return {
        "distinct_phrase_share": len(set(scene.phrases)) / len(scene.phrases),
        "tail_repeat_share": 1 - len(set(queried)) / len(queried),
        "heavy_head_edge_share": sum(heavy) / len(kb_lines),
    }


def _fixture_kb_lines() -> list[str]:
    lines = [
        f"{head}\t{relation}\t{tail}\t{weight}"
        for head, facts in KB_FACTS.items()
        for relation, tail, weight in facts
    ]
    lines.append("men\tCapableOf\tvote in elections\t1.0")
    lines.append("cars\tReceivesAction\twashed\t1.0")
    return lines


def make_seen_dense(seed: int, out_dir: Path) -> dict:
    """Region-phrase-heavy corpus plus the small fixture KB."""
    rng = random.Random(f"seen-dense:{seed}")
    kb_heads = {_normalize_name(head) for head in KB_FACTS}
    scene = _Scene()
    for i in range(1, SEEN_DENSE_IMAGES + 1):
        image_id = f"img{i:05d}"
        scene.image(image_id)
        objects = []
        for n in range(1, rng.randint(2, 6) + 1):
            name = rng.choice(NOUNS)
            box = _box(rng)
            object_id = f"{image_id}_o{n}"
            objects.append((object_id, name, box))
            scene.obj(image_id, object_id, name, box, name if name in kb_heads else None)
        _scene_triples(rng, scene, image_id, objects, max_relations=3)
        for _ in range(rng.randint(4, 10)):
            if rng.random() < 0.15:
                scene.region(image_id, (0, 0, 160, 120), rng.choice(JUNK))
            else:
                _, name, box = rng.choice(objects)
                scene.region(image_id, _region_around(rng, box), _region_phrase(rng, name))
        if rng.random() < 0.5:
            # Whole-image region: the named object may be missing or repeated.
            name = rng.choice([o[1] for o in objects]) if rng.random() < 0.6 else rng.choice(NOUNS)
            scene.region(image_id, (0, 0, WIDTH, HEIGHT), f"the {rng.choice(ADJECTIVES)} {name}")
    scene.write(out_dir / "scene.tsv")
    kb_lines = _fixture_kb_lines()
    (out_dir / "kb.tsv").write_text("\n".join(kb_lines) + "\n", encoding="utf-8")
    return {
        "scene": "scene.tsv",
        "kb": "kb.tsv",
        "images": scene.images,
        "properties": _build_properties(scene, kb_lines),
    }


def _tail_pool(rng: random.Random) -> list[str]:
    nouns = NOUNS + PLAIN_NOUNS + ["road", "park", "street", "grass", "water", "house"]
    pool: set[str] = set()
    while len(pool) < TAIL_POOL:
        style = rng.random()
        noun = rng.choice(nouns)
        if style < 0.2:
            tail = noun
        elif style < 0.4:
            tail = f"{rng.choice(ADJECTIVES)} {noun}"
        elif style < 0.6:
            tail = f"{rng.choice(TAIL_VERBS)} {noun}"
        elif style < 0.8:
            tail = f"{rng.choice(TAIL_VERBS)} a {rng.choice(ADJECTIVES)} {noun}"
        else:
            tail = f"{rng.choice(VBG)} {rng.choice(PREPS)} the {noun}"
        pool.add(tail)
    return sorted(pool)


def _light_head(rng: random.Random, taken: set[str]) -> str:
    syllables = ["ka", "lo", "mi", "ru", "te", "zo", "pa", "ne", "vi", "su", "da", "fo"]
    while True:
        head = "".join(rng.choice(syllables) for _ in range(rng.randint(3, 4)))
        if rng.random() < 0.3:
            head += "_" + "".join(rng.choice(syllables) for _ in range(2))
        if head not in taken:
            taken.add(head)
            return head


def make_kb_heavy(seed: int, out_dir: Path) -> dict:
    """Few images whose objects hit heavy KB heads in a ~200k-edge KB."""
    rng = random.Random(f"kb-heavy:{seed}")
    tails = _tail_pool(rng)

    # Zipf-like split of the heavy edges; the split is the same for every
    # seed, only which head gets which share is drawn.
    weights = [1.0 / (rank + 1) ** 0.5 for rank in range(len(HEAVY_HEADS))]
    shares = [round(HEAVY_EDGES * w / sum(weights)) for w in weights]
    order = list(range(len(HEAVY_HEADS)))
    rng.shuffle(order)

    kb_lines: list[str] = []
    for rank, head_index in enumerate(order):
        head = HEAVY_HEADS[head_index][0]
        for _ in range(shares[rank]):
            if rng.random() < IN_SCOPE_SHARE:
                relation = rng.choice(IN_SCOPE_RELATIONS)
            else:
                relation = rng.choice(OUT_OF_SCOPE_RELATIONS)
            weight = rng.randint(1, 50) / 10
            kb_lines.append(f"{head}\t{relation}\t{rng.choice(tails)}\t{weight}")
    taken = {_normalize_name(h) for h, _ in HEAVY_HEADS} | set(NOUNS) | set(PLAIN_NOUNS)
    for _ in range(LIGHT_HEADS):
        head = _light_head(rng, taken)
        for _ in range(LIGHT_EDGES_PER_HEAD):
            relation = rng.choice(IN_SCOPE_RELATIONS + OUT_OF_SCOPE_RELATIONS)
            kb_lines.append(f"{head}\t{relation}\t{rng.choice(tails)}\t{rng.randint(1, 50) / 10}")
    rng.shuffle(kb_lines)
    (out_dir / "kb.tsv").write_text("\n".join(kb_lines) + "\n", encoding="utf-8")

    # Every heavy head names HEAVY_USES objects, in a surface form drawn from
    # its variants; each image also holds one or two plain objects.
    heavy = [
        (rng.choice(forms), _normalize_name(head))
        for head, forms in HEAVY_HEADS
        for _ in range(HEAVY_USES)
    ]
    rng.shuffle(heavy)
    per_image: list[list] = [[] for _ in range(KB_HEAVY_IMAGES)]
    for named in heavy:
        per_image[rng.randrange(KB_HEAVY_IMAGES)].append(named)
    scene = _Scene()
    for i, named in enumerate(per_image, start=1):
        image_id = f"kb{i:03d}"
        scene.image(image_id)
        named = named + [(rng.choice(PLAIN_NOUNS), None) for _ in range(rng.randint(1, 2))]
        rng.shuffle(named)
        objects = []
        for n, (name, kb_head) in enumerate(named, start=1):
            box = _box(rng)
            object_id = f"{image_id}_o{n}"
            objects.append((object_id, name, box))
            scene.obj(image_id, object_id, name, box, kb_head)
        _scene_triples(rng, scene, image_id, objects, max_relations=1)
        _, name, box = rng.choice(objects)
        scene.region(image_id, _region_around(rng, box), f"a {rng.choice(ADJECTIVES)} {_normalize_name(name)}")
    scene.write(out_dir / "scene.tsv")
    return {
        "scene": "scene.tsv",
        "kb": "kb.tsv",
        "images": scene.images,
        "properties": _build_properties(scene, kb_lines),
    }


def _escape(text: str) -> str:
    return (
        text.replace("\\", "\\\\")
        .replace("\t", "\\t")
        .replace("\n", "\\n")
        .replace("\r", "\\r")
    )


def make_instructions_from_data(seed: int, out_dir: Path) -> dict:
    """A dataset file with many small groups, some fields needing escapes."""
    rng = random.Random(f"instructions-from-data:{seed}")
    seen_tails = (
        ADJECTIVES
        + [f"{p} {n}" for p in PREPS for n in NOUNS]
        + [f"{v} {p} {n}" for v in VBG for p in PREPS[:3] for n in NOUNS[:8]]
        + ["left\tside", "back\\slash", "a\\tb", "line one\\n"]
    )
    unseen_tails = [t for facts in KB_FACTS.values() for _, t, _ in facts] + [
        "keep\tdry", "dir\\path", "say \"hi\"",
    ]
    names = NOUNS + ["tab\tname", "back\\name"]
    lines = []
    records = []
    for i in range(1, INSTRUCTION_RECORDS + 1):
        image_id = f"rec{i:05d}"
        fields = [image_id]
        objects = []
        n_objects = rng.randint(1, 4)
        fields.append(str(n_objects))
        for n in range(1, n_objects + 1):
            object_id = f"{image_id}_o{n}"
            name = rng.choice(names)
            x, y, w, h = _box(rng)
            categories = sorted(
                rng.sample(CATEGORIES_SEEN + CATEGORIES_UNSEEN, rng.randint(1, 4)),
                key=(CATEGORIES_SEEN + CATEGORIES_UNSEEN).index,
            )
            fields += [object_id, _escape(name), str(x), str(y), str(w), str(h), str(len(categories))]
            groups = []
            for category in categories:
                unseen = category.startswith("/Unseen/")
                count = 0 if rng.random() < 0.03 else rng.randint(1, 4 if not unseen else 9)
                tails = rng.sample(unseen_tails if unseen else seen_tails, count)
                fields += [category, str(count)]
                for tail in tails:
                    if unseen:
                        fields += [_escape(tail), "kb_retrieval", repr(rng.randint(1, 50) / 10)]
                    else:
                        fields += [_escape(tail), rng.choice(SEEN_PROVENANCES), "0.0"]
                groups.append([category, tails])
            objects.append({"object_id": object_id, "name": name, "box": [x, y, w, h], "groups": groups})
        lines.append("\t".join(fields))
        records.append({"image_id": image_id, "objects": objects})
    (out_dir / "data.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    tails = [t for r in records for o in r["objects"] for _, ts in o["groups"] for t in ts]
    return {
        "data": "data.tsv",
        "records": records,
        "triples": len(tails),
        "properties": {
            "distinct_phrase_share": 0.0,
            "tail_repeat_share": 1 - len(set(tails)) / len(tails),
            "heavy_head_edge_share": 0.0,
        },
    }


GENERATORS = {
    "seen-dense": make_seen_dense,
    "kb-heavy": make_kb_heavy,
    "instructions-from-data": make_instructions_from_data,
}


def main(argv: list[str]) -> int:
    if len(argv) != 3 or argv[0] not in GENERATORS:
        print(f"usage: gen.py {{{','.join(GENERATORS)}}} SEED OUT_DIR", file=sys.stderr)
        return 2
    out_dir = Path(argv[2])
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = GENERATORS[argv[0]](int(argv[1]), out_dir)
    print(json.dumps(spec["properties"], indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
