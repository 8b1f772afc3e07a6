"""Acceptance suite.

One test per acceptance criterion; each prints a single pass/fail line
(run with `pytest tests/test_acceptance.py -v -s` to see them inline).
"""

import os
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vckb
from vckb import (
    BBox,
    DatasetRecord,
    ExportConfig,
    InstructionTemplates,
    KbEdge,
    KbIndex,
    Provenance,
    cooccurrence_triples,
    group_triples,
    import_dataset,
    make_synset,
    object_aware_sort,
    overlap_ratio,
    parse_category,
    parse_region_phrase,
    retrieve_unseen,
    tokenize_and_tag,
)
from vckb.cli import main
from vckb.errors import EmptyPhrase
from vckb.seen import CommonsenseTriple
from vckb.taxonomy import kb_relation_to_category

from conftest import DATA_DIR, keyed_samples, make_object, write_dataset
from test_geometry import rasterized_ratio


def run_criterion(number, description, fn):
    try:
        fn()
    except BaseException:
        print(f"[criterion {number}] FAIL {description}")
        raise
    print(f"[criterion {number}] PASS {description}")


# 1 ------------------------------------------------------------------------

GOLDEN_RULES = [
    ("man before the yellow car", "man", "/Seen/Space/Relatedness", "before car"),
    ("man hit by a yellow car", "man", "/Seen/Action/ReceivesAction", "hit by a car"),
    ("car driving on the road", "car", "/Seen/Action/CapableOf", "driving on road"),
    ("a small car", "car", "/Seen/Property/HasProperty", "small"),
    ("a running man", "man", "/Seen/Action/CapableOf", "run"),
]


def test_criterion_1_mapping_rule_golden_suite(lexicon):
    def check():
        start = time.perf_counter()
        for phrase, head, category, tail in GOLDEN_RULES:
            parse = parse_region_phrase(tokenize_and_tag(phrase, lexicon))
            assert parse is not None, phrase
            triples = [
                (h, c.text, t) for h, c, t in vckb.extract_region_triples(parse)
            ]
            assert triples == [(head, category, tail)], (phrase, triples)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s"

    run_criterion(1, "five mapping-rule examples byte-for-byte in <1s", check)


# 2 ------------------------------------------------------------------------

TAXONOMY_EXAMPLES = [
    ("car", "/Seen/Property/HasProperty", "yellow"),
    ("car", "/Seen/Space/LocatedNear", "streetlight"),
    ("car", "/Seen/Space/Relatedness", "after a car"),
    ("car", "/Seen/Action/CapableOf", "drive on road"),
    ("skateboard", "/Seen/Action/ReceivesAction", "played by man"),
    ("iron", "/Unseen/Property/HasProperty", "hard"),
    ("car", "/Unseen/Property/CreatedBy", "factory"),
    ("man", "/Unseen/Space/LocatedNear", "sofa"),
    ("man", "/Unseen/Action/CapableOf", "grow up"),
    ("car", "/Unseen/Action/UsedFor", "drive to work"),
    ("car", "/Unseen/Action/ReceivesAction", "hit"),
]


def test_criterion_2_taxonomy_golden_suite(tmp_path):
    def check():
        objects = {}
        triples = {}
        for i, (name, category_text, tail) in enumerate(TAXONOMY_EXAMPLES):
            obj = objects.setdefault(
                name, make_object(f"o{len(objects) + 1}", name=name, box=(i, 0, 5, 5))
            )
            category = parse_category(category_text)
            assert category.text == category_text  # canonical serialization
            provenance = (
                Provenance.KB_RETRIEVAL
                if category_text.startswith("/Unseen")
                else Provenance.SCENE_TRIPLE
            )
            triples.setdefault(name, []).append(
                CommonsenseTriple(
                    head=obj, category=category, tail=tail, provenance=provenance
                )
            )
        record = DatasetRecord(
            image_id="img1",
            entries=[group_triples(objects[name], triples[name]) for name in objects],
        )
        path = tmp_path / "taxonomy.tsv"
        write_dataset([record], path)
        assert import_dataset(path) == [record]
        text = path.read_text(encoding="utf-8")
        for _, category_text, tail in TAXONOMY_EXAMPLES:
            assert category_text in text
            assert tail in text

    run_criterion(2, "all 11 taxonomy examples constructible and round-trip", check)


# 3 ------------------------------------------------------------------------


def test_criterion_3_geometry_oracle():
    def check():
        rng = random.Random(0)
        start = time.perf_counter()
        for _ in range(1000):
            region = BBox(rng.randint(0, 80), rng.randint(0, 80),
                          rng.randint(1, 60), rng.randint(1, 60))
            obj = BBox(rng.randint(0, 80), rng.randint(0, 80),
                       rng.randint(1, 60), rng.randint(1, 60))
            assert overlap_ratio(region, obj) == rasterized_ratio(region, obj)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.3f}s"

    run_criterion(3, "overlap ratio equals pixel-count oracle on 1000 pairs in <5s", check)


# 4 ------------------------------------------------------------------------


def test_criterion_4_cooccurrence_property():
    @given(n=st.integers(0, 20), data=st.data())
    @settings(max_examples=200, deadline=None)
    def check(n, data):
        objects = [
            make_object(
                f"o{i}",
                name=f"name{i}",
                box=(
                    data.draw(st.integers(0, 50)),
                    data.draw(st.integers(0, 50)),
                    data.draw(st.integers(1, 20)),
                    data.draw(st.integers(1, 20)),
                ),
            )
            for i in range(n)
        ]
        triples = cooccurrence_triples(objects)
        assert len(triples) == n * (n - 1)
        assert all(t.category.text == "/Seen/Space/LocatedNear" for t in triples)

    run_criterion(4, "n distinct-named objects yield exactly n(n-1) directed triples", check)


# 5 ------------------------------------------------------------------------

_heads = st.sampled_from(["car", "cars", "dog", "man", "men", "traffic light", "sofa"])
_relations = st.sampled_from(
    ["UsedFor", "CapableOf", "CreatedBy", "LocatedNear", "HasProperty",
     "ReceivesAction", "AtLocation", "IsA", "PartOf"]
)
_tails = st.sampled_from(
    ["bark", "drive to work", "factory", "road", "chase a cat", "sofa", "grow up"]
)


def brute_force_retrieve(edges, obj, lexicon):
    forms = set(make_synset(obj, lexicon).forms)
    best = {}
    for edge in edges:
        category = kb_relation_to_category(edge.relation)
        if category is None or edge.head not in forms:
            continue
        key = (category.text, edge.tail)
        if key not in best or edge.weight > best[key]:
            best[key] = edge.weight
    return {(c, t, w) for (c, t), w in best.items()}


def test_criterion_5_unseen_retrieval_oracle(lexicon):
    def check():
        @given(
            edges=st.lists(
                st.builds(
                    KbEdge,
                    head=_heads,
                    relation=_relations,
                    tail=_tails,
                    weight=st.floats(0, 10, allow_nan=False),
                ),
                max_size=80,
            ),
            name=_heads,
        )
        @settings(max_examples=200, deadline=None)
        def retrieval_equivalence(edges, name):
            obj = make_object(name=name)
            got = {
                (t.category.text, t.tail, t.score)
                for t in retrieve_unseen(obj, KbIndex(edges), lexicon)
            }
            assert got == brute_force_retrieve(edges, obj, lexicon)

        retrieval_equivalence()

        # One deterministic KB at the 10^4-edge bound.
        rng = random.Random(99)
        heads = ["car", "cars", "dog", "man", "men", "sofa", "tree", "bench"]
        relations = ["UsedFor", "CapableOf", "CreatedBy", "LocatedNear",
                     "HasProperty", "ReceivesAction", "AtLocation", "IsA"]
        tails = [f"tail {i}" for i in range(40)]
        edges = [
            KbEdge(
                head=rng.choice(heads),
                relation=rng.choice(relations),
                tail=rng.choice(tails),
                weight=round(rng.uniform(0, 5), 3),
            )
            for _ in range(10_000)
        ]
        kb = KbIndex(edges)
        for name in heads:
            obj = make_object(name=name)
            got = {
                (t.category.text, t.tail, t.score)
                for t in retrieve_unseen(obj, kb, lexicon)
            }
            assert got == brute_force_retrieve(edges, obj, lexicon)

        @given(
            tails=st.lists(
                st.sampled_from(
                    ["grow up", "drive a car", "bark", "sit", "chase dogs", "sleep"]
                ),
                min_size=1,
                max_size=6,
                unique=True,
            ),
            data=st.data(),
        )
        @settings(max_examples=200, deadline=None)
        def mention_priority(tails, data):
            man = make_object(name="man")
            triples = [
                CommonsenseTriple(
                    head=man,
                    category=parse_category("/Unseen/Action/CapableOf"),
                    tail=tail,
                    provenance=Provenance.KB_RETRIEVAL,
                    score=data.draw(st.floats(0, 5, allow_nan=False)),
                )
                for tail in tails
            ]
            ranked = object_aware_sort(triples, {"man", "car", "dog"}, lexicon)
            flags = [("car" in t.tail or "dog" in t.tail) for t in ranked]
            assert flags == sorted(flags, reverse=True)

        mention_priority()

    run_criterion(5, "retrieval equals brute force; mentions sort first", check)


# 6 ------------------------------------------------------------------------


def test_criterion_6_corpus_precision_gate(lexicon):
    measured = {}

    def check():
        extracted = correct = 0
        phrases = 0
        for line in (DATA_DIR / "region_phrases_200.tsv").read_text().splitlines():
            phrase, _, goldcol = line.partition("\t")
            phrases += 1
            gold = set()
            if goldcol:
                for item in goldcol.split(";"):
                    head, category, tail = item.split("|")
                    gold.add((head, category, tail))
            try:
                parse = parse_region_phrase(tokenize_and_tag(phrase, lexicon))
            except EmptyPhrase:
                parse = None
            got = set()
            if parse is not None:
                got = {
                    (h, c.text, t) for h, c, t in vckb.extract_region_triples(parse)
                }
            extracted += len(got)
            correct += len(got & gold)
        assert phrases == 200
        precision = correct / extracted
        measured["precision"] = precision
        assert precision >= 0.95, f"precision {precision:.4f}"

    run_criterion(6, "region extraction precision >= 95% on 200-phrase corpus", check)
    print(f"    measured precision: {measured['precision']:.4f}")


# 7 ------------------------------------------------------------------------


def test_criterion_7_export_determinism(tmp_path):
    def check():
        scene = str(DATA_DIR / "fixture_scene.tsv")
        kb = str(DATA_DIR / "fixture_kb.tsv")
        outputs = {}
        for workers in (1, 8):
            dataset = tmp_path / f"dataset_w{workers}.tsv"
            samples = tmp_path / f"samples_w{workers}.tsv"
            assert (
                main(
                    ["export", "--scene", scene, "--kb", kb,
                     "--out", str(dataset), "--workers", str(workers)]
                )
                == 0
            )
            assert (
                main(
                    ["export-instructions", "--data", str(dataset),
                     "--out", str(samples), "--m", "3", "--k", "2", "--j", "1",
                     "--seed", "13"]
                )
                == 0
            )
            outputs[workers] = (dataset.read_bytes(), samples.read_bytes())
        assert outputs[1][0] == outputs[8][0], "dataset files differ"
        assert outputs[1][1] == outputs[8][1], "instruction files differ"
        assert outputs[1][0] and outputs[1][1]

    run_criterion(7, "worker counts 1 and 8 give byte-identical outputs", check)


# 8 ------------------------------------------------------------------------


def test_criterion_8_instruction_format_property():
    seen_cat = parse_category("/Seen/Property/HasProperty")
    unseen_cat = parse_category("/Unseen/Action/CapableOf")
    templates = InstructionTemplates.load()

    @given(
        m=st.integers(1, 8),
        k=st.integers(0, 8),
        j=st.integers(0, 8),
        n_seen=st.integers(0, 10),
        n_unseen=st.integers(0, 10),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=200, deadline=None)
    def check_one(m, k, j, n_seen, n_unseen, seed):
        if k + j < 1:  # not a valid config, with or without unseen tails
            return
        obj = make_object("o1", name="man")
        triples = [
            CommonsenseTriple(
                head=obj, category=seen_cat, tail=f"s{i}",
                provenance=Provenance.SCENE_TRIPLE,
            )
            for i in range(n_seen)
        ] + [
            CommonsenseTriple(
                head=obj, category=unseen_cat, tail=f"u{i}",
                provenance=Provenance.KB_RETRIEVAL,
            )
            for i in range(n_unseen)
        ]
        record = DatasetRecord(image_id="img1", entries=[group_triples(obj, triples)])
        config = ExportConfig(m=m, k=k, j=j, seed=seed)
        samples = keyed_samples(record, config, templates)
        if n_seen:
            _, target = samples["o1", "/Seen/Property/HasProperty"]
            assert target.count(config.sep_token) == min(m, n_seen) - 1
        if n_unseen:
            _, target = samples["o1", "/Unseen/Action/CapableOf"]
            count = target.count(config.sep_token)
            assert count == min(k, n_unseen) + min(j, max(0, n_unseen - k)) - 1

    run_criterion(8, "sep-token counts match closed forms", lambda: check_one())


# 9 ------------------------------------------------------------------------


def test_criterion_9_large_scale_reproduction(lexicon, tmp_path):
    scene = os.environ.get("VCKB_FULL_SCENE")
    kb = os.environ.get("VCKB_FULL_KB")
    if not scene or not kb:
        print("[criterion 9] SKIP full-scale reproduction (set VCKB_FULL_SCENE and "
              "VCKB_FULL_KB to run)")
        pytest.skip("full-scale corpus not available")

    def check():
        corpus = vckb.load_scene_corpus(scene)
        kb_index = vckb.load_kb(kb)
        # Streamed to disk and read back one record at a time, so memory stays
        # bounded at full scale.
        dataset = tmp_path / "dataset.tsv"
        vckb.export_records(corpus, lexicon, dataset, kb=kb_index, workers=8)
        stats = vckb.compute_stats(vckb.iter_dataset(dataset))
        assert stats.image_count == 106_277
        assert stats.bbox_count == 2_449_126
        assert abs(stats.unique_object_names - 18_136) / 18_136 <= 0.02
        total = sum(stats.per_category.values())
        assert 1_400_000 <= total <= 140_000_000  # same order of magnitude as ~14M

    run_criterion(9, "full-scale pass-through counts", check)
