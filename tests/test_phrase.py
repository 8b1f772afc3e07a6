import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vckb import (
    Lexicon,
    PhraseKind,
    PhraseParse,
    Pos,
    TaggedToken,
    VerbInfo,
    lemmatize,
    name_keys,
    parse_region_phrase,
    simplify_np,
    tokenize_and_tag,
)
from vckb.errors import EmptyPhrase, NotAnNP
from vckb.phrase import _merge_multiword, _singularize

from conftest import DATA_DIR


def tags_of(phrase, lexicon):
    return [(t.surface, t.pos) for t in tokenize_and_tag(phrase, lexicon)]


def test_tag_simple_np(lexicon):
    assert tags_of("a thin man", lexicon) == [
        ("a", Pos.DET),
        ("thin", Pos.ADJ),
        ("man", Pos.NOUN),
    ]


def test_tag_vbg_lemma(lexicon):
    (token,) = tokenize_and_tag("running", lexicon)
    assert token.pos is Pos.VBG
    assert token.lemma == "run"


def test_tag_irregular_participle(lexicon):
    (token,) = tokenize_and_tag("hit", lexicon)
    assert token.pos is Pos.VBN
    assert token.lemma == "hit"


def test_tag_plural_noun_lemma(lexicon):
    (token,) = tokenize_and_tag("cars", lexicon)
    assert token.pos is Pos.NOUN
    assert token.lemma == "car"


def test_empty_phrase_raises(lexicon):
    with pytest.raises(EmptyPhrase):
        tokenize_and_tag("", lexicon)
    with pytest.raises(EmptyPhrase):
        tokenize_and_tag("!!! ...", lexicon)


def test_multiword_preposition_merges(lexicon):
    tags = tags_of("the bike next to the wall", lexicon)
    assert ("next to", Pos.PREP) in tags


def test_compound_noun_merges(lexicon):
    tokens = tokenize_and_tag("the traffic lights", lexicon)
    assert [(t.surface, t.pos) for t in tokens] == [
        ("the", Pos.DET),
        ("traffic lights", Pos.NOUN),
    ]
    assert tokens[-1].lemma == "traffic light"


def test_adjective_noun_ambiguity_positional(lexicon):
    # "orange" is an adjective only when something nominal follows it.
    assert tags_of("an orange", lexicon)[-1] == ("orange", Pos.NOUN)
    assert tags_of("an orange cat", lexicon)[1] == ("orange", Pos.ADJ)


def _tagged_or_none(text, lexicon):
    try:
        return tokenize_and_tag(text, lexicon)
    except EmptyPhrase:
        return None


def test_warm_tagger_memo_gives_cold_tokens():
    """Tags and lemmas never depend on what the lexicon tagged before."""
    phrases = [
        line.split("\t")[0]
        for line in (DATA_DIR / "region_phrases_200.tsv").read_text(encoding="utf-8").splitlines()
    ]
    tails = [
        line.split("\t")[2]
        for line in (DATA_DIR / "fixture_kb.tsv").read_text(encoding="utf-8").splitlines()
    ]
    # One word, two final tags: the memo holds a token for each.
    texts = phrases + tails + ["an orange car", "an orange", "the glass", "a glass table"]
    warm = Lexicon.default()
    for text in reversed(texts):
        _tagged_or_none(text, warm)
    for text in texts:
        assert _tagged_or_none(text, Lexicon.default()) == _tagged_or_none(text, warm), text


def test_tagger_returns_a_fresh_list(lexicon):
    tokens = tokenize_and_tag("a red car", lexicon)
    expected = list(tokens)
    tokens.reverse()
    tokens.append(tokens[0])
    assert tokenize_and_tag("a red car", lexicon) == expected


def test_parse_pp_phrase(lexicon):
    parse = parse_region_phrase(
        tokenize_and_tag("a thin man behind the yellow car", lexicon)
    )
    assert parse.kind is PhraseKind.PP_PHRASE
    assert parse.root_noun == "man"
    assert parse.adjectives == ("thin",)
    assert parse.prep == "behind"
    assert parse.tail_head_noun == "car"


def test_parse_passive_vp(lexicon):
    parse = parse_region_phrase(tokenize_and_tag("man hit by a yellow car", lexicon))
    assert parse.kind is PhraseKind.VP_PHRASE
    assert parse.root_noun == "man"
    assert parse.verb.pos is Pos.VBN
    assert parse.verb.lemma == "hit"
    assert parse.verb.complement == "hit by a car"


def test_parse_active_vp(lexicon):
    parse = parse_region_phrase(tokenize_and_tag("car driving on the road", lexicon))
    assert parse.kind is PhraseKind.VP_PHRASE
    assert parse.verb.pos is Pos.VBG
    assert parse.verb.complement == "driving on road"


def test_parse_np_with_participle(lexicon):
    parse = parse_region_phrase(tokenize_and_tag("a running man", lexicon))
    assert parse.kind is PhraseKind.NP
    assert parse.np_participle == "run"
    assert parse.prep is None and parse.verb is None


def test_unparseable_returns_none(lexicon):
    assert parse_region_phrase(tokenize_and_tag("the the the", lexicon)) is None
    assert parse_region_phrase(tokenize_and_tag("man and woman", lexicon)) is None


def tagged(spec):
    """Tokens from "surface[=lemma]/POS" words, bypassing the tagger."""
    tokens = []
    for word in spec.split():
        text, pos = word.rsplit("/", 1)
        surface, _, lemma = text.partition("=")
        tokens.append(TaggedToken(surface, lemma or surface, Pos[pos]))
    return tokens


def test_parse_np_fields():
    tokens = tagged("the/DET a/DET older=old/ADJ striped/VBN running=run/VBG dogs=dog/NOUN")
    assert parse_region_phrase(tokens) == PhraseParse(
        kind=PhraseKind.NP, root_noun="dog", adjectives=("old", "striped"), np_participle="run"
    )


def test_parse_pp_fields():
    tokens = tagged("man/NOUN on/PREP a/DET big/ADJ horses=horse/NOUN")
    assert parse_region_phrase(tokens) == PhraseParse(
        kind=PhraseKind.PP_PHRASE, root_noun="man", prep="on", tail_head_noun="horse"
    )


@pytest.mark.parametrize(
    "spec, complement",
    [
        ("man/NOUN riding=ride/VBG", "riding"),
        ("man/NOUN riding=ride/VBG a/DET horses=horse/NOUN", "riding horse"),
        ("man/NOUN sitting=sit/VBG on/PREP the/DET bench/NOUN", "sitting on bench"),
        ("man/NOUN riding=ride/VBG horse/NOUN on/PREP the/DET beach/NOUN", "riding horse on beach"),
        ("car/NOUN parked=park/VBN", "parked"),
        ("man/NOUN hit/VBN by/PREP a/DET the/DET cars=car/NOUN", "hit by a car"),
        ("man/NOUN hit/VBN by/PREP car/NOUN", "hit by car"),
    ],
    ids=["vbg", "vbg-np", "vbg-pp", "vbg-np-pp", "vbn", "vbn-pp-det", "vbn-pp"],
)
def test_parse_verbal_phrase_fields(spec, complement):
    tokens = tagged(spec)
    root, verb = tokens[:2]
    assert parse_region_phrase(tokens) == PhraseParse(
        kind=PhraseKind.VP_PHRASE,
        root_noun=root.lemma,
        verb=VerbInfo(lemma=verb.lemma, surface=verb.surface, pos=verb.pos, complement=complement),
    )


@pytest.mark.parametrize(
    "spec",
    [
        "",
        "on/PREP table/NOUN",
        "the/DET big/ADJ",
        "man/NOUN and/OTHER",
        "man/NOUN the/DET",
        "man/NOUN on/PREP",
        "man/NOUN on/PREP the/DET",
        "man/NOUN on/PREP table/NOUN near/PREP",
        "man/NOUN riding/VBG the/DET",
        "man/NOUN riding/VBG and/OTHER",
        "man/NOUN riding/VBG horse/NOUN holding/VBG",
        "man/NOUN sitting/VBG on/PREP",
        "man/NOUN sitting/VBG on/PREP bench/NOUN near/PREP tree/NOUN",
        "car/NOUN parked/VBN street/NOUN",
        "car/NOUN parked/VBN on/PREP",
        "car/NOUN parked/VBN on/PREP street/NOUN by/PREP",
    ],
    ids=[
        "empty", "no-root", "root-without-noun", "root-then-other", "root-then-det",
        "pp-no-tail", "pp-tail-without-noun", "pp-tail-not-last",
        "vbg-object-without-noun", "vbg-object-other", "vbg-object-then-verb",
        "vbg-pp-no-tail", "vbg-pp-tail-not-last",
        "vbn-then-noun", "vbn-pp-no-tail", "vbn-pp-tail-not-last",
    ],
)
def test_parse_rejects_outside_grammar(spec):
    assert parse_region_phrase(tagged(spec)) is None


def test_simplify_np(lexicon):
    assert simplify_np(tokenize_and_tag("the yellow car", lexicon)) == "car"
    assert simplify_np(tokenize_and_tag("car", lexicon)) == "car"
    assert simplify_np(tokenize_and_tag("a busy city street", lexicon)) == "street"


def test_simplify_np_rejects_non_np(lexicon):
    with pytest.raises(NotAnNP):
        simplify_np(tokenize_and_tag("man behind the car", lexicon))


def test_np_head_desk_corpus(lexicon):
    """50 hand-labeled noun phrases pin the head-selection rule."""
    for line in (DATA_DIR / "np_heads_50.tsv").read_text().splitlines():
        phrase, expected = line.split("\t")
        assert simplify_np(tokenize_and_tag(phrase, lexicon)) == expected, phrase


def test_lemmatize_examples(lexicon):
    assert lemmatize("cars", lexicon) == "car"
    assert lemmatize("men", lexicon) == "man"
    assert lemmatize("skateboard", lexicon) == "skateboard"


@pytest.mark.parametrize(
    "word, expected",
    [
        ("skis", "ski"),
        ("taxis", "taxi"),
        ("tennis", "tennis"),
        ("iris", "iris"),
        ("axis", "axis"),
    ],
)
def test_is_ending_singularizes_only_to_known_noun(lexicon, word, expected):
    """An -is word loses its s only when the stripped form is a known noun."""
    assert _singularize(word, lexicon) == expected


def test_lemmatize_desk_list(lexicon):
    """100 hand-checked singularizations."""
    for line in (DATA_DIR / "lemmas_100.tsv").read_text().splitlines():
        word, expected = line.split("\t")
        assert lemmatize(word, lexicon) == expected, word


@given(st.text(max_size=60))
@settings(max_examples=300)
def test_tagging_total_and_parse_never_raises(lexicon, text):
    """Arbitrary UTF-8 input either has no tokens or tags and parses."""
    try:
        tokens = tokenize_and_tag(text, lexicon)
    except EmptyPhrase:
        return
    assert tokens
    for token in tokens:
        assert token.surface
        assert token.lemma
        assert isinstance(token.pos, Pos)
    parse_region_phrase(tokens)  # must not raise, may return None


@given(st.text(max_size=60))
@settings(max_examples=200)
def test_tagger_idempotent_on_surfaces(lexicon, text):
    """Re-tagging the surface forms reproduces the same tags."""
    try:
        tokens = tokenize_and_tag(text, lexicon)
    except EmptyPhrase:
        return
    again = tokenize_and_tag(" ".join(t.surface for t in tokens), lexicon)
    assert [(t.surface, t.pos) for t in again] == [
        (t.surface, t.pos) for t in tokens
    ]


def test_pp_invariants_over_desk_corpus(lexicon):
    """Every PP parse has a lexicon preposition and a single-lemma tail."""
    for line in (DATA_DIR / "region_phrases_200.tsv").read_text().splitlines():
        phrase = line.split("\t")[0]
        try:
            parse = parse_region_phrase(tokenize_and_tag(phrase, lexicon))
        except EmptyPhrase:
            continue
        if parse is None or parse.kind is not PhraseKind.PP_PHRASE:
            continue
        assert parse.prep in lexicon.prepositions
        assert parse.tail_head_noun
        assert "\t" not in parse.tail_head_noun


def _brute_force_merge(words, lexicon):
    """The multiword merge as a scan of every entry at every position."""
    entries = sorted(
        [(tuple(p.split(" ")), Pos.PREP) for p in lexicon.prepositions if " " in p]
        + [(tuple(n.split(" ")), Pos.NOUN) for n in lexicon.known_nouns if " " in n],
        key=lambda item: (-len(item[0]), item[0]),
    )
    merged, forced, i = [], [], 0
    while i < len(words):
        for parts, pos in entries:
            window = words[i : i + len(parts)]
            if pos is Pos.NOUN and len(window) == len(parts):
                window = window[:-1] + [_singularize(window[-1], lexicon)]
            if tuple(window) == parts:
                merged.append(" ".join(words[i : i + len(parts)]))
                forced.append(pos)
                i += len(parts)
                break
        else:
            merged.append(words[i])
            forced.append(None)
            i += 1
    return merged, forced


def _multiword_chunks(lexicon):
    """Bundled multiword entries, their plurals, and their single words."""
    entries = [
        entry.split(" ")
        for entry in sorted(lexicon.prepositions | lexicon.known_nouns)
        if " " in entry
    ]
    chunks = list(entries)
    chunks += [words[:-1] + [words[-1] + "s"] for words in entries]
    chunks += [[word] for words in entries for word in words]
    chunks += [[word] for word in ("a", "the", "man", "red", "cars", "is", "3")]
    return chunks


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_indexed_merge_equals_brute_force(lexicon, data):
    chunks = data.draw(
        st.lists(st.sampled_from(_multiword_chunks(lexicon)), max_size=8)
    )
    words = [word for chunk in chunks for word in chunk]
    assert _merge_multiword(words, lexicon) == _brute_force_merge(words, lexicon)


def test_merge_longest_entry_sharing_first_word_wins(lexicon):
    compounds = Lexicon(
        determiners=lexicon.determiners,
        prepositions=lexicon.prepositions,
        adjectives=lexicon.adjectives,
        irregular_plurals=lexicon.irregular_plurals,
        known_nouns=lexicon.known_nouns | {"ice cream cone"},
    )
    assert _merge_multiword("an ice cream cones".split(), compounds) == (
        ["an", "ice cream cones"],
        [None, Pos.NOUN],
    )
    assert _merge_multiword("ice cream on a cone".split(), compounds) == (
        ["ice cream", "on", "a", "cone"],
        [Pos.NOUN, None, None, None],
    )
    assert _merge_multiword("in the middle of it".split(), lexicon) == (
        ["in the middle of", "it"],
        [Pos.PREP, None],
    )


def reference_head(name, lexicon):
    """The seen layer's head-noun rule before `name_keys`: the head noun of
    the name's one noun phrase, else the name's lemma."""
    try:
        return simplify_np(tokenize_and_tag(name, lexicon))
    except (EmptyPhrase, NotAnNP):
        return lemmatize(name, lexicon)


@pytest.mark.parametrize(
    "name, keys",
    [
        ("cars", ("car", "car")),
        ("men", ("man", "man")),
        ("yellow cars", ("yellow car", "car")),
        ("man's shirt", ("man's shirt", "shirt")),
        ("traffic lights", ("traffic light", "traffic light")),
        ("running", ("running", "running")),
        ("the", ("the", "the")),
        ("!!!", ("!!!", "!!!")),
        ("", ("", "")),
    ],
)
def test_name_keys_examples(lexicon, name, keys):
    assert name_keys(name, lexicon) == keys


# Plurals, an irregular plural, modifiers, a possessive, a multiword compound,
# and words that make no noun phrase on their own; or any text at all.
_NAME_WORDS = (
    "car", "cars", "man", "men", "shirt", "yellow", "man's", "women's",
    "traffic lights", "glasses", "running", "the", "!!!",
)
_NAMES = st.lists(st.sampled_from(_NAME_WORDS), min_size=1, max_size=3).map(" ".join) | st.text(
    max_size=12
)


@settings(max_examples=400)
@given(_NAMES)
def test_name_keys_are_lemma_and_head_noun(lexicon, name):
    keys = (lemmatize(name, lexicon), reference_head(name, lexicon))
    assert name_keys(name, lexicon) == keys
    assert name_keys(name, lexicon) == keys  # the memoized answer


def test_name_keys_belong_to_their_lexicon(lexicon):
    plurals = {word: lemma for word, lemma in lexicon.irregular_plurals.items() if word != "men"}
    other = dataclasses.replace(lexicon, irregular_plurals=plurals)
    assert name_keys("yellow men", lexicon) == ("yellow man", "man")
    assert name_keys("yellow men", other) == ("yellow men", "men")
    assert name_keys("yellow men", lexicon) == ("yellow man", "man")
