"""The build's per-process memos: a memo is read only with the KB and lexicon
that filled it, and stays within its cap without changing the output."""

import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vckb
import vckb.ingest as ingest_module
import vckb.lexicon as lexicon_module
import vckb.phrase as phrase_module
from vckb import Lexicon, build_image_record, build_unseen, load_kb, load_scene_corpus
from vckb.dataset import record_line
from vckb.memo import Memo
from vckb.pipeline import export_records

from conftest import DATA_DIR, KbRow, make_kb, make_object
from test_cli import FIXTURE_DATASET_SHA256

SCENE = DATA_DIR / "fixture_scene.tsv"
KB = DATA_DIR / "fixture_kb.tsv"


def _fresh_export(kb, out) -> bytes:
    """`vckb export` of the fixture scene in a new process, whose memos start
    empty."""
    subprocess.run(
        [sys.executable, "-m", "vckb", "export", "--scene", str(SCENE), "--kb", str(kb),
         "--out", str(out), "--workers", "1"],
        check=True, capture_output=True,
        env={**os.environ, "PYTHONPATH": str(Path(vckb.__file__).parent.parent)},
    )
    return out.read_bytes()


def test_two_kbs_with_one_lexicon_export_what_a_fresh_process_does(tmp_path):
    # The second KB has the first's heads, its tails and weights changed and
    # more tails, so a name ranked with the other KB's edges writes other bytes.
    other = tmp_path / "other_kb.tsv"
    with open(other, "w", encoding="utf-8") as handle:
        for line in KB.read_text(encoding="utf-8").splitlines():
            head, relation, tail, weight = line.split("\t")
            handle.write(f"{head}\t{relation}\t{tail} again\t{5 - float(weight)}\n")
            handle.write(f"{head}\t{relation}\t{tail}\t{float(weight) / 2}\n")
    expected = {
        path: _fresh_export(path, tmp_path / f"fresh-{path.stem}.tsv") for path in (KB, other)
    }
    assert expected[KB] != expected[other]
    lexicon = Lexicon.default()
    images = load_scene_corpus(SCENE)
    kbs = {path: load_kb(path) for path in (KB, other)}
    # The second round reads the memos the first one filled.
    for round_number in range(2):
        for path, kb in kbs.items():
            out = tmp_path / f"{path.stem}-{round_number}.tsv"
            export_records(images, lexicon, out, kb=kb)
            assert out.read_bytes() == expected[path], (path.name, round_number)


def test_one_kb_with_two_lexicons_ranks_each_name_for_each(tmp_path):
    # Without its irregular plural, "men" is its own lemma, so its synset
    # leaves out the KB head "man".
    default = Lexicon.default()
    plurals = {k: v for k, v in default.irregular_plurals.items() if k != "men"}
    other = dataclasses.replace(default, irregular_plurals=plurals)
    kb = make_kb([KbRow("man", "CapableOf", "grow up", 2.0), KbRow("men", "CapableOf", "vote", 1.0)])
    men = make_object(name="men")
    tails = {}
    for lexicon in (default, other, default, other):
        got = [t.tail for t in build_unseen([men], {}, kb, lexicon)[men.object_id]]
        assert tails.setdefault(lexicon, got) == got
    assert tails == {default: ["grow up", "vote"], other: ["vote"]}


# The memos each lexicon makes with it, by attribute name.
LEXICON_MEMOS = ("words", "names", "phrases", "predicates", "tail_lemmas")

# Each memo: the module and name of its cap, and where a build keeps it.
MEMOS = {
    "phrases": (lexicon_module, "_PHRASE_MEMO_CAP", lambda lexicon, kb: lexicon.phrases),
    "predicates": (lexicon_module, "_PREDICATE_MEMO_CAP", lambda lexicon, kb: lexicon.predicates),
    "ranked": (ingest_module, "_RANKED_MEMO_CAP", lambda lexicon, kb: kb._ranked),
    "tail_lemmas": (lexicon_module, "_TAIL_LEMMAS_CAP", lambda lexicon, kb: lexicon.tail_lemmas),
    "plans": (phrase_module, "_PLAN_CAP", lambda lexicon, kb: phrase_module._PLANS),
    "words": (lexicon_module, "_WORDS_MEMO_CAP", lambda lexicon, kb: lexicon.words),
    "names": (lexicon_module, "_NAMES_MEMO_CAP", lambda lexicon, kb: lexicon.names),
}


@pytest.mark.parametrize("memo", sorted(MEMOS))
def test_every_memo_is_a_memo_with_its_cap(memo):
    module, name, where = MEMOS[memo]
    held = where(Lexicon.default(), load_kb(KB))
    assert type(held) is Memo
    assert held.cap == getattr(module, name)


def test_each_lexicon_makes_its_own_memos():
    # A new lexicon, or a replace of a warm one, starts with empty memos of its own.
    warm = Lexicon.default()
    kb = load_kb(KB)
    for image in load_scene_corpus(SCENE):
        build_image_record(image, warm, kb)
    assert all(getattr(warm, name) for name in LEXICON_MEMOS)
    lexicons = (warm, Lexicon.default(), dataclasses.replace(warm))
    memos = [getattr(lexicon, name) for lexicon in lexicons for name in LEXICON_MEMOS]
    assert len({id(memo) for memo in memos}) == len(memos)
    assert not any(memos[len(LEXICON_MEMOS):])


@pytest.mark.parametrize("cap", [1, 3])
def test_memos_stay_within_their_caps_and_keep_the_bytes(monkeypatch, cap):
    for module, name, _ in MEMOS.values():
        monkeypatch.setattr(module, name, cap)
    # The plan memo is the process's, not the lexicon's: it is made at import,
    # so it is made again here, empty and with the patched cap.
    monkeypatch.setattr(phrase_module, "_PLANS", Memo(phrase_module._PLAN_CAP))
    lexicon = Lexicon.default()
    kb = load_kb(KB)
    held = {memo: set() for memo in MEMOS}
    lines = []
    for image in load_scene_corpus(SCENE):
        record, _ = build_image_record(image, lexicon, kb)
        lines.append(record_line(record) + "\n")
        for memo, (_, _, where) in MEMOS.items():
            keys = where(lexicon, kb).keys()
            assert len(keys) <= cap, memo
            held[memo].update(keys)
    # Every memo met more distinct keys than its cap, so each was cleared.
    assert all(len(keys) > cap + 2 for keys in held.values()), held
    digest = hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()
    assert digest == FIXTURE_DATASET_SHA256
