import codecs
import dataclasses
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vckb import (
    CategoryPath,
    DatasetRecord,
    ExportConfig,
    InstructionTemplates,
    Provenance,
    Visibility,
    group_triples,
    instruction_lines,
    parse_category,
    read_instruction_samples,
)
from vckb import instructions as instructions_module
from vckb.errors import InvalidConfig
from vckb.instructions import _pair_rng
from vckb.seen import CommonsenseTriple

from conftest import keyed_samples, make_object

SEEN = parse_category("/Seen/Property/HasProperty")
UNSEEN = parse_category("/Unseen/Action/CapableOf")
TEMPLATES = InstructionTemplates.load()


def record_with_tails(seen_tails=(), unseen_tails=(), image_id="img1"):
    obj = make_object("o1", name="man", box=(10, 20, 30, 40))
    triples = [
        CommonsenseTriple(category=SEEN, tail=tail, provenance=Provenance.SCENE_TRIPLE)
        for tail in seen_tails
    ] + [
        CommonsenseTriple(category=UNSEEN, tail=tail, provenance=Provenance.KB_RETRIEVAL)
        for tail in unseen_tails
    ]
    return DatasetRecord(image_id=image_id, entries=[group_triples(obj, triples)])


def test_seen_sampling_deterministic():
    record = record_with_tails(seen_tails=("tall", "thin", "young"))
    config = ExportConfig(m=2, seed=42)
    first = keyed_samples(record, config, TEMPLATES)
    second = keyed_samples(record, config, TEMPLATES)
    assert first == second
    ((_, target),) = first.values()
    parts = target.split(config.sep_token)
    assert len(parts) == 2
    assert set(parts) <= {"tall", "thin", "young"}
    assert len(set(parts)) == 2  # without replacement


def test_unseen_top_k_plus_random():
    record = record_with_tails(unseen_tails=("a", "b", "c", "d"))
    config = ExportConfig(k=2, j=1, seed=7)
    ((_, target),) = keyed_samples(record, config, TEMPLATES).values()
    parts = target.split(config.sep_token)
    assert parts[:2] == ["a", "b"]
    assert len(parts) == 3
    assert parts[2] in {"c", "d"}


def test_single_tail_no_separator():
    record = record_with_tails(seen_tails=("tall",))
    config = ExportConfig(m=1, seed=0)
    ((_, target),) = keyed_samples(record, config, TEMPLATES).values()
    assert target == "tall"
    assert config.sep_token not in target


def test_instruction_text_contains_all_parts():
    record = record_with_tails(seen_tails=("tall",))
    ((instruction, _),) = keyed_samples(record, ExportConfig(seed=0), TEMPLATES).values()
    assert "img1" in instruction
    assert "man" in instruction
    assert "[10, 20, 30, 40]" in instruction
    assert "visible property" in instruction


def test_pair_seeding_is_order_independent():
    """A pair's sample does not depend on which other pairs are built."""
    both = record_with_tails(seen_tails=("tall", "thin", "young"),
                             unseen_tails=("a", "b", "c"))
    seen_only = record_with_tails(seen_tails=("tall", "thin", "young"))
    config = ExportConfig(m=2, k=1, j=1, seed=9)
    full = keyed_samples(both, config, TEMPLATES)
    partial = keyed_samples(seen_only, config, TEMPLATES)
    for key, (_, target) in partial.items():
        assert full[key][1] == target


def test_different_seeds_differ_somewhere():
    record = record_with_tails(seen_tails=tuple(f"t{i}" for i in range(10)))
    a = instruction_lines(record, ExportConfig(m=3, seed=1), TEMPLATES)
    b = instruction_lines(record, ExportConfig(m=3, seed=2), TEMPLATES)
    assert a != b


def test_unseen_requires_k_plus_j():
    # Checked when the config is made, so a seen-only dataset is refused too.
    with pytest.raises(InvalidConfig, match="k \\+ j >= 1"):
        ExportConfig(k=0, j=0)
    ExportConfig(k=0, j=1)
    ExportConfig(k=1, j=0)


def _always_seeded_targets(record, config):
    """Targets sampled by seeding every pair's generator, drawn from or not."""
    targets = []
    for entry in record.entries:
        for group in entry.groups:
            tails = [triple.tail for triple in group.triples]
            if not tails:
                continue
            category = group.category
            rng = _pair_rng(config.seed, record.image_id, entry.obj.object_id, category.text)
            if category.visibility is Visibility.SEEN:
                chosen = rng.sample(tails, min(config.m, len(tails)))
            else:
                rest = tails[config.k :]
                chosen = tails[: config.k] + rng.sample(rest, min(config.j, len(rest)))
            targets.append(config.sep_token.join(chosen))
    return targets


@pytest.mark.parametrize("m, k, j", [(1, 0, 1), (3, 5, 2), (2, 1, 0), (1, 3, 0)])
def test_skipped_draws_match_always_seeded_reference(m, k, j):
    for seed in range(3):
        config = ExportConfig(m=m, k=k, j=j, seed=seed)
        for size in range(k + j + 3):
            tails = tuple(f"t{i}" for i in range(size))
            record = record_with_tails(tails, tails, image_id=f"img{size}")
            samples = keyed_samples(record, config, TEMPLATES)
            targets = [target for _, target in samples.values()]
            assert targets == _always_seeded_targets(record, config)


def test_no_generator_when_the_draw_cannot_change_the_target(monkeypatch):
    seeded = []
    monkeypatch.setattr(
        instructions_module, "_pair_rng", lambda *key: seeded.append(key) or _pair_rng(*key)
    )
    # One seen tail; unseen tails all within the top k.
    record = record_with_tails(seen_tails=("a",), unseen_tails=("b", "c"))
    instruction_lines(record, ExportConfig(k=2, j=1), TEMPLATES)
    assert seeded == []
    instruction_lines(record, ExportConfig(k=1, j=0), TEMPLATES)
    assert seeded == []
    instruction_lines(record, ExportConfig(k=1, j=1), TEMPLATES)
    assert [key[-1] for key in seeded] == [UNSEEN.text]


# sha256 of the sample lines of `_drawing_records` at ExportConfig(m=3, k=2,
# j=3, seed=...), each line newline-terminated. Every group draws at random,
# so a changed draw order, seeding or escape changes these bytes.
_DRAWN_SHA256 = {
    1: "a080836c24ede1ed4c50ae2c4cc106192c9bf3cf3f8bb090bdaee9377abc91d0",
    2: "77989d6529a4e5790f9105383981d89f5417738abca10d327a53264c40a71ac6",
}


def _drawing_records():
    """Three images whose seen group holds more than m = 3 tails and whose
    unseen group holds more than k = 2, with tails that need escaping."""
    seen = ("tall", "tab\there", "young", "thin", "old", "back\\slash", "wet")
    unseen = tuple(f"u{i}" for i in range(8)) + ("line\nbreak",)
    return [record_with_tails(seen, unseen, image_id=f"img{n}") for n in range(3)]


@pytest.mark.parametrize("seed", sorted(_DRAWN_SHA256))
def test_random_draws_are_pinned(monkeypatch, seed):
    seeded = []
    monkeypatch.setattr(
        instructions_module, "_pair_rng", lambda *key: seeded.append(key) or _pair_rng(*key)
    )
    records = _drawing_records()
    config = ExportConfig(m=3, k=2, j=3, seed=seed)
    text = "".join(
        line + "\n" for record in records for line in instruction_lines(record, config, TEMPLATES)
    )
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == _DRAWN_SHA256[seed]
    # One generator per group, each seeded with its own pair's key.
    assert seeded == [
        (seed, record.image_id, "o1", category.text)
        for record in records
        for category in (SEEN, UNSEEN)
    ]


def test_config_validation():
    with pytest.raises(InvalidConfig):
        ExportConfig(m=0)
    with pytest.raises(InvalidConfig):
        ExportConfig(k=-1)
    with pytest.raises(InvalidConfig):
        ExportConfig(sep_token="")


def test_export_config_holds_the_sampling_values_only():
    # Each value is set one way: a keyword here, a flag on the command line.
    assert [field.name for field in dataclasses.fields(ExportConfig)] == [
        "m", "k", "j", "seed", "sep_token"
    ]
    assert not hasattr(ExportConfig, "load")


def test_config_with_byte_order_mark_loads(tmp_path):
    # The template file is the JSON file that export-instructions reads.
    path = tmp_path / "templates.json"
    payload = {"template": "{name}!", "descriptions": TEMPLATES.descriptions}
    path.write_text(json.dumps(payload), encoding="utf-8-sig")
    assert path.read_bytes().startswith(codecs.BOM_UTF8)
    assert InstructionTemplates.load(path) == InstructionTemplates(**payload)


def _template_file(tmp_path, template):
    bundled = InstructionTemplates.load()
    path = tmp_path / "templates.json"
    path.write_text(json.dumps({"template": template, "descriptions": bundled.descriptions}))
    return path


@pytest.mark.parametrize(
    "template",
    [
        "{bogus}", "{name} {bogus}", "{name.upper}", "{}", "{0}", "{x:{width}}",
        "{name", "{x:zz}", "{name:d}", 3,
    ],
)
def test_template_fields_checked_at_load(tmp_path, template):
    with pytest.raises(InvalidConfig):
        InstructionTemplates.load(_template_file(tmp_path, template))


@pytest.mark.parametrize(
    "descriptions",
    [
        "xy",
        [[c.text, "a description"] for c in CategoryPath],
        {c.text: ["a list"] for c in CategoryPath},
        {c.text: 3 for c in CategoryPath},
    ],
    ids=["string", "list-of-pairs", "list-value", "number-value"],
)
def test_descriptions_must_be_an_object_of_strings(tmp_path, descriptions):
    path = tmp_path / "templates.json"
    path.write_text(json.dumps({"template": "{name}", "descriptions": descriptions}))
    with pytest.raises(InvalidConfig) as error:
        InstructionTemplates.load(path)
    assert str(error.value) == f"descriptions must be a JSON object of strings: {path}"


def test_template_with_allowed_fields_renders(tmp_path):
    path = _template_file(tmp_path, "{name}@{image_id} {description} {x:>4}{y}{w}{h}{{}}")
    templates = InstructionTemplates.load(path)
    record = record_with_tails(seen_tails=("tall",))
    ((instruction, _),) = keyed_samples(record, ExportConfig(m=1), templates).values()
    assert instruction == "man@img1 visible property   10203040{}"


def test_samples_file_round_trip(tmp_path):
    record = record_with_tails(seen_tails=("tall", "tab\there"))
    config = ExportConfig(m=2, seed=3)
    path = tmp_path / "samples.tsv"
    path.write_text(
        "".join(line + "\n" for line in instruction_lines(record, config, TEMPLATES)),
        encoding="utf-8",
    )
    pairs = read_instruction_samples(path)
    assert pairs == list(keyed_samples(record, config, TEMPLATES).values())


@given(
    m=st.integers(1, 6),
    k=st.integers(0, 6),
    j=st.integers(0, 6),
    n_seen=st.integers(0, 8),
    n_unseen=st.integers(0, 8),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=200)
def test_sep_token_counts_closed_form(m, k, j, n_seen, n_unseen, seed):
    """Separator counts match min(m,n)-1 and min(k,n)+min(j,max(0,n-k))-1."""
    if k + j < 1:  # not a valid config, with or without unseen tails
        return
    record = record_with_tails(
        seen_tails=tuple(f"s{i}" for i in range(n_seen)),
        unseen_tails=tuple(f"u{i}" for i in range(n_unseen)),
    )
    config = ExportConfig(m=m, k=k, j=j, seed=seed)
    samples = keyed_samples(record, config, TEMPLATES)
    if n_seen:
        _, target = samples["o1", "/Seen/Property/HasProperty"]
        assert target.count(config.sep_token) == min(m, n_seen) - 1
    if n_unseen:
        _, target = samples["o1", "/Unseen/Action/CapableOf"]
        expected = min(k, n_unseen) + min(j, max(0, n_unseen - k)) - 1
        assert target.count(config.sep_token) == expected
