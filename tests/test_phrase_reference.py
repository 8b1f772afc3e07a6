"""The tagger and the parser against `phrase_reference`.

Phrases are drawn as words from the lexicon's own tables: adjectives (some of
them nouns too) with and without a nominal after them, multiword prepositions
and compounds, plurals and possessives, -ing and -ed words, digits,
determiners, function words and unknown words. Token sequences for the
parser are drawn over all seven tags, of length 0 to 9, each token with a
surface and a lemma of its own, so that a token read at the wrong index
shows.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from vckb import Lexicon, Pos, TaggedToken, parse_region_phrase, simplify_np, tokenize_and_tag
from vckb.errors import EmptyPhrase, NotAnNP
from vckb.phrase import _FUNCTION_WORDS

from phrase_reference import (
    reference_parse_np,
    reference_parse_region_phrase,
    reference_tokenize_and_tag,
)

LEXICON = Lexicon.default()

NOUNS = sorted(LEXICON.known_nouns)
WORDS = st.one_of(
    st.sampled_from(sorted(LEXICON.adjectives)),
    st.sampled_from(sorted(LEXICON.adjectives & LEXICON.known_nouns) or ["orange"]),
    st.sampled_from(NOUNS),
    st.sampled_from(["man", "car", "dog", "shirt", "tree", "zorb", "table"]),
    st.builds("{}s".format, st.sampled_from(NOUNS)),
    st.builds("{}es".format, st.sampled_from(NOUNS)),
    st.sampled_from(sorted(LEXICON.irregular_plurals)),
    st.builds("{}'s".format, st.sampled_from(NOUNS + ["men", "dogs"])),
    st.builds("{}'".format, st.sampled_from(["dogs", "cars", "kids"])),
    st.sampled_from(sorted(LEXICON.prepositions)),
    st.sampled_from(sorted(LEXICON.determiners)),
    st.sampled_from(sorted(LEXICON.irregular_participles)),
    st.sampled_from(["running", "walking", "parked", "jumped", "tied", "sitting", "ring", "red"]),
    st.builds("{}ing".format, st.sampled_from(NOUNS)),
    st.builds("{}ed".format, st.sampled_from(NOUNS)),
    st.sampled_from(["2", "10", "3rd", "x-ray", "t-shirt"]),
    st.sampled_from(sorted(_FUNCTION_WORDS)),
)
phrases = st.builds(
    "".join,
    st.lists(st.tuples(WORDS, st.sampled_from([" ", " ", " ", ", ", " - ", "."])), max_size=8)
    .map(lambda pairs: [part for pair in pairs for part in pair]),
)


def _tagged(tag, phrase):
    try:
        return tag(phrase, LEXICON)
    except EmptyPhrase:
        return "empty"


@settings(max_examples=400, deadline=None)
@given(phrases)
def test_tagger_matches_reference(phrase):
    assert _tagged(tokenize_and_tag, phrase) == _tagged(reference_tokenize_and_tag, phrase)


# Tags drawn one by one, or as a whole noun phrase, so that many sequences
# are in the grammar and many are one tag away from it.
_ONE_TAG = st.sampled_from(list(Pos)).map(lambda pos: [pos])
_NOUN_PHRASE = st.builds(
    lambda dets, modifiers, nouns: dets + modifiers + nouns,
    st.lists(st.just(Pos.DET), max_size=2),
    st.lists(st.sampled_from([Pos.ADJ, Pos.VBG, Pos.VBN]), max_size=2),
    st.lists(st.just(Pos.NOUN), min_size=1, max_size=2),
)
tag_sequences = st.lists(st.one_of(_ONE_TAG, _NOUN_PHRASE), max_size=5).map(
    lambda pieces: [pos for piece in pieces for pos in piece][:9]
)


def _tokens(tags):
    return [TaggedToken(f"w{i}", f"l{i}", pos) for i, pos in enumerate(tags)]


@settings(max_examples=600, deadline=None)
@given(tag_sequences)
def test_parser_matches_reference(tags):
    tokens = _tokens(tags)
    assert parse_region_phrase(tokens) == reference_parse_region_phrase(tokens)


@settings(max_examples=300, deadline=None)
@given(tag_sequences)
def test_simplify_np_matches_reference(tags):
    tokens = _tokens(tags)
    span = reference_parse_np(tokens, 0)
    expected = span.head if span is not None and span.end == len(tokens) else "not an NP"
    try:
        got = simplify_np(tokens)
    except NotAnNP:
        got = "not an NP"
    assert got == expected
