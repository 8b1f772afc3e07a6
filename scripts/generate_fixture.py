#!/usr/bin/env python3
"""Regenerate the bundled 50-image pipeline fixture.

Writes tests/data/fixture_scene.tsv and tests/data/fixture_kb.tsv. The
generator is seeded, so the committed files are reproducible; regenerating
with a different seed would invalidate frozen test expectations.
"""

import random
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parent.parent / "tests" / "data"
SEED = 20240517

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


def make_scene(rng: random.Random) -> str:
    lines = []
    for i in range(1, 51):
        image_id = f"img{i:03d}"
        lines.append(f"I\t{image_id}\t640\t480")
        count = rng.randint(2, 6)
        names = [rng.choice(NOUNS) for _ in range(count)]
        objects = []
        for n, name in enumerate(names, start=1):
            w = rng.randint(30, 200)
            h = rng.randint(30, 200)
            x = rng.randint(0, 640 - w)
            y = rng.randint(0, 480 - h)
            object_id = f"{image_id}_o{n}"
            objects.append((object_id, name, x, y, w, h))
            lines.append(f"O\t{image_id}\t{object_id}\t{name}\t{x}\t{y}\t{w}\t{h}")
        for object_id, name, *_ in objects:
            if rng.random() < 0.8:
                attr = rng.choice(ATTRIBUTES)
                copula = rng.choice(["is", ""])
                lines.append(f"T\t{image_id}\tA\t{object_id}\t{copula}\t{attr}")
        for _ in range(rng.randint(0, 3)):
            a, b = rng.sample(objects, 2) if len(objects) >= 2 else (None, None)
            if a is None:
                break
            predicate = rng.choice(REL_PREDICATES + REL_VERBS)
            lines.append(f"T\t{image_id}\tR\t{a[0]}\t{predicate}\t{b[0]}")
        for _ in range(rng.randint(1, 4)):
            roll = rng.random()
            if roll < 0.15:
                phrase = rng.choice(JUNK)
                x, y, w, h = 0, 0, 160, 120
            else:
                target = rng.choice(objects)
                _, name, ox, oy, ow, oh = target
                pad_x = rng.randint(0, 40)
                pad_y = rng.randint(0, 40)
                x = max(0, ox - pad_x)
                y = max(0, oy - pad_y)
                w = min(640 - x, ow + pad_x + rng.randint(0, 40))
                h = min(480 - y, oh + pad_y + rng.randint(0, 40))
                style = rng.random()
                if style < 0.35:
                    phrase = f"a {rng.choice(ADJECTIVES)} {name}"
                elif style < 0.6:
                    other = rng.choice(NOUNS)
                    phrase = f"the {name} {rng.choice(PREPS)} the {other}"
                elif style < 0.85:
                    phrase = f"a {name} {rng.choice(VBG)} {rng.choice(PREPS)} the {rng.choice(NOUNS)}"
                else:
                    phrase = f"the {name} {rng.choice(VBN_AGENTS)} by a {rng.choice(NOUNS)}"
            lines.append(f"R\t{image_id}\t{x}\t{y}\t{w}\t{h}\t{phrase}")
        if rng.random() < 0.5:
            # Whole-image region: every object is a candidate, so the named
            # object may be missing (no match) or duplicated (ambiguous).
            name = rng.choice(names) if rng.random() < 0.6 else rng.choice(NOUNS)
            phrase = f"the {rng.choice(ADJECTIVES)} {name}"
            lines.append(f"R\t{image_id}\t0\t0\t640\t480\t{phrase}")
    return "\n".join(lines) + "\n"


def make_kb(rng: random.Random) -> str:
    lines = []
    for head, facts in KB_FACTS.items():
        for relation, tail, weight in facts:
            lines.append(f"{head}\t{relation}\t{tail}\t{weight}")
    # A few plural-form heads to exercise synset lookup.
    lines.append("men\tCapableOf\tvote in elections\t1.0")
    lines.append("cars\tReceivesAction\twashed\t1.0")
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def main() -> None:
    rng = random.Random(SEED)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / "fixture_scene.tsv").write_text(make_scene(rng), encoding="utf-8")
    (OUT_DIR / "fixture_kb.tsv").write_text(make_kb(rng), encoding="utf-8")
    print(f"wrote fixtures under {OUT_DIR}")


if __name__ == "__main__":
    main()
