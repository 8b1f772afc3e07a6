"""Tokenizer, part-of-speech tagger, and constrained phrase parser.

Region phrases in scene-graph corpora have a narrow linguistic range, so a
deterministic lexicon-plus-suffix tagger and a small grammar cover them
without any external NLP dependency. The grammar recognizes

    Phrase := NP
            | NP PREP NP                  (prepositional phrase)
            | NP VBG NP? (PREP NP)?       (active verbal phrase)
            | NP VBN (PREP NP)?           (passive verbal phrase)
    NP     := DET* (ADJ | VBG | VBN)* NOUN+

The four patterns are one production, NP (VBG NP? | VBN)? (PREP NP)?, which
the parser walks once, left to right, per distinct tag sequence. Anything
else is rejected as unparseable rather than guessed. Pre-noun VBN
participles are treated like adjectives ("a striped shirt"); suffix tagging
makes many bare adjectives look like participles and rejecting those noun
phrases would lose far too much.

Tokens are memoized per distinct word and keys per distinct name on the
lexicon (`lexicon.words`, `lexicon.names`), parse plans per tag sequence once
per process (`_PLANS`); each memo is a `memo.Memo`, cleared at its cap.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from .errors import EmptyPhrase, NotAnNP
from .lexicon import Lexicon
from .memo import Memo

_VOWELS = "aeiou"

# Copulas, conjunctions, and similar function words that carry no
# commonsense content; phrases containing them are skipped.
_FUNCTION_WORDS = frozenset(
    """
    is are was were am be been being and or nor but not as if so
    it he she they there who whom whose which while when where
    """.split()
)

_WORD_RE = re.compile(r"[^\W_]+(?:['-][^\W_]+)*", re.UNICODE)


class Pos(enum.Enum):
    DET = "DET"
    ADJ = "ADJ"
    NOUN = "NOUN"
    PREP = "PREP"
    VBG = "VBG"
    VBN = "VBN"
    OTHER = "OTHER"


@dataclass(frozen=True)
class TaggedToken:
    surface: str
    lemma: str
    pos: Pos


class PhraseKind(enum.Enum):
    NP = "NP"
    PP_PHRASE = "PP_PHRASE"
    VP_PHRASE = "VP_PHRASE"


@dataclass(slots=True)
class VerbInfo:
    lemma: str
    surface: str
    pos: Pos  # VBG or VBN
    complement: str  # full simplified verbal text, e.g. "hit by a car"


@dataclass(slots=True)
class PhraseParse:
    kind: PhraseKind
    root_noun: str
    adjectives: tuple[str, ...] = ()
    np_participle: str | None = None
    prep: str | None = None
    tail_head_noun: str | None = None
    verb: VerbInfo | None = None


def lemmatize(name: str, lexicon: Lexicon) -> str:
    """Singularize an object name; multiword names singularize their last word."""
    name = name.strip()
    if not name:
        return name
    words = name.split(" ")
    words[-1] = _singularize(words[-1], lexicon)
    return " ".join(words)


def _singularize(word: str, lexicon: Lexicon) -> str:
    irregular = lexicon.irregular_plurals.get(word)
    if irregular is not None:
        return irregular
    known = lexicon.known_nouns
    if word in known or not word.endswith("s") or len(word) <= 2:
        return word
    if word.endswith(("ss", "us", "is")):
        return word[:-1] if word[:-1] in known else word  # skis; glass, tennis
    if word.endswith("ies") and len(word) > 4:
        if word[:-1] in known:
            return word[:-1]  # cookies, movies
        return word[:-3] + "y"
    if word.endswith("ves"):
        stem = word[:-3]
        for candidate in (stem + "f", stem + "fe", word[:-1]):
            if candidate in known:
                return candidate
        if word.endswith(("elves", "olves", "alves", "arves")):
            return stem + "f"
        if word.endswith("ives"):
            return stem + "fe"
        if word.endswith("eaves") and not word.endswith("deaves"):
            return stem + "f"
        return word[:-1]
    if word.endswith("oes"):
        if word[:-2] in known:
            return word[:-2]
        return word[:-1]
    if word.endswith(("ses", "xes", "zes", "ches", "shes")):
        stripped_es, stripped_s = word[:-2], word[:-1]
        if stripped_es in known:
            return stripped_es
        if stripped_s in known:
            return stripped_s
        # "houses" must keep its e; only sibilant stems drop the whole -es.
        if word.endswith("ses") and not word.endswith("sses"):
            return stripped_s
        return stripped_es
    return word[:-1]


def _vowel_groups(word: str) -> int:
    return len(re.findall(f"[{_VOWELS}]+", word))


def _deinflect(word: str, suffix_len: int) -> str:
    """Strip a participle suffix and repair the stem heuristically."""
    if word.endswith("ied") and suffix_len == 2:
        return word[:-3] + "y"
    stem = word[:-suffix_len]
    if (
        len(stem) >= 3
        and stem[-1] == stem[-2]
        and stem[-1] not in _VOWELS
        and stem[-1] not in "ls"
    ):
        return stem[:-1]
    if (
        len(stem) >= 2
        and _vowel_groups(stem) == 1
        and stem[-1] not in _VOWELS
        and stem[-1] not in "wxy"
        and stem[-2] in _VOWELS
        and (len(stem) == 2 or stem[-3] not in _VOWELS)
    ):
        return stem + "e"
    return stem


def _split_words(phrase: str) -> list[str]:
    words = _WORD_RE.findall(phrase.lower())
    if "'" not in phrase:
        return words
    cleaned = []
    for word in words:
        if word.endswith("'s"):
            word = word[:-2]
        elif word.endswith("s'"):
            word = word[:-1]
        if word:
            cleaned.append(word)
    return cleaned


def _merge_multiword(words: list[str], lexicon: Lexicon):
    """Join multiword prepositions and known compounds into single tokens."""
    index = lexicon.multiword
    if index.keys().isdisjoint(words):
        return words, [None] * len(words)
    merged: list[str] = []
    forced: list[Pos | None] = []
    i = 0
    while i < len(words):
        hit = None
        for parts, noun in index.get(words[i], ()):
            n = len(parts)
            if i + n > len(words):
                continue
            window = words[i : i + n]
            if noun:
                window[-1] = _singularize(window[-1], lexicon)
            if tuple(window) == parts:
                hit = (n, Pos.NOUN if noun else Pos.PREP)
                break
        if hit is None:
            merged.append(words[i])
            forced.append(None)
            i += 1
        else:
            n, pos = hit
            merged.append(" ".join(words[i : i + n]))
            forced.append(pos)
            i += n
    return merged, forced


def _provisional_pos(word: str, lexicon: Lexicon) -> Pos:
    if word in _FUNCTION_WORDS:
        return Pos.OTHER
    if word in lexicon.determiners or word.isdigit():
        return Pos.DET
    if word in lexicon.prepositions:
        return Pos.PREP
    if word in lexicon.irregular_participles:
        return Pos.VBG if word.endswith("ing") else Pos.VBN
    # Adjective/noun ambiguity ("glass", "orange") is decided positionally
    # later; nouns like "building" must beat the -ing suffix rule.
    if word in lexicon.adjectives:
        return Pos.ADJ
    if word in lexicon.known_nouns:
        return Pos.NOUN
    if word.endswith("ing") and len(word) >= 5:
        return Pos.VBG
    if word.endswith("ed") and len(word) >= 5:
        return Pos.VBN
    return Pos.NOUN


def _lemma_for(word: str, pos: Pos, lexicon: Lexicon) -> str:
    if pos is Pos.VBG or pos is Pos.VBN:
        irregular = lexicon.irregular_participles.get(word)
        if irregular is not None:
            return irregular
        return _deinflect(word, 3 if pos is Pos.VBG else 2)
    if pos is Pos.NOUN:
        return lemmatize(word, lexicon)
    return word


def _token_as(word: str, pos: Pos, memo: Memo, lexicon: Lexicon) -> TaggedToken:
    """The word's token under a tag that is not its provisional one, made on
    first use and memoized under (word, tag)."""
    key = (word, pos)
    token = memo.get(key)
    if token is None:
        token = memo.put(key, TaggedToken(word, _lemma_for(word, pos, lexicon), pos))
    return token


# The tags after which a word from the adjective set stays an adjective.
_NOMINAL = (Pos.ADJ, Pos.NOUN, Pos.VBG, Pos.VBN)


def tokenize_and_tag(phrase: str, lexicon: Lexicon) -> list[TaggedToken]:
    """Lowercase, strip punctuation, tag, and lemmatize a phrase.

    One right-to-left pass over the merged words tags them. Each distinct
    word's token under its provisional tag is memoized in `lexicon.words`,
    keyed by the word; a merged multiword token, and the noun token of an
    adjective that nothing nominal follows, are memoized under (word, tag)
    once first used. The memo grows with the vocabulary, not with the number
    of phrases, and is cleared at its cap. The tokens are immutable and
    shared; the returned list is fresh.

    Raises EmptyPhrase when nothing tokenizable remains.
    """
    words = _split_words(phrase)
    if not words:
        raise EmptyPhrase(f"no tokens in phrase: {phrase!r}")
    words, forced = _merge_multiword(words, lexicon)
    memo = lexicon.words
    cached = memo.get
    tokens = []
    nominal_follows = False
    for word, pos in zip(reversed(words), reversed(forced)):
        if pos is None:
            token = cached(word)
            if token is None:
                pos = _provisional_pos(word, lexicon)
                token = memo.put(word, TaggedToken(word, _lemma_for(word, pos, lexicon), pos))
            # Adjective/noun ambiguity is positional: a word from the
            # adjective set is an adjective only when something nominal
            # follows it.
            if token.pos is Pos.ADJ and not nominal_follows:
                token = _token_as(word, Pos.NOUN, memo, lexicon)
        else:
            token = _token_as(word, pos, memo, lexicon)
        tokens.append(token)
        nominal_follows = token.pos in _NOMINAL
    tokens.reverse()
    return tokens


_MODIFIERS = (Pos.ADJ, Pos.VBG, Pos.VBN)


def _np_walk(tags: tuple[Pos, ...], i: int):
    """The noun phrase that starts at tags[i], DET* (ADJ | VBG | VBN)* NOUN+,
    as token indices: (end, first determiner, properties, first VBG, head).
    Properties are (index, read its surface) pairs: an adjective gives its
    lemma and a pre-noun VBN its surface. None when no noun follows."""
    end = len(tags)
    det = None
    while i < end and tags[i] is Pos.DET:
        if det is None:
            det = i
        i += 1
    properties = []
    vbg = None
    while i < end and (tag := tags[i]) in _MODIFIERS:
        if tag is not Pos.VBG:
            properties.append((i, tag is Pos.VBN))
        elif vbg is None:
            vbg = i
        i += 1
    start = i
    while i < end and tags[i] is Pos.NOUN:
        i += 1
    if i == start:
        return None
    return i, det, tuple(properties), vbg, i - 1


def simplify_np(tokens: list[TaggedToken]) -> str:
    """Reduce a noun-phrase span to its head noun lemma.

    "the yellow car" simplifies to "car". Raises NotAnNP when the span is
    not a single noun phrase.
    """
    span = _np_walk(tuple([token.pos for token in tokens]), 0)
    if span is None or span[0] != len(tokens):
        raise NotAnNP(" ".join(t.surface for t in tokens))
    return tokens[span[4]].lemma


def name_keys(name: str, lexicon: Lexicon) -> tuple[str, str]:
    """An object name's join keys: its lemma and its head-noun lemma.

    "yellow cars" keys as ("yellow car", "car"); a name that is not one noun
    phrase keeps its lemma as its head. Each distinct name is keyed once per
    lexicon (`lexicon.names`), until the memo is cleared at its cap, and every
    layer that matches objects by name reads these keys.
    """
    keys = lexicon.names.get(name)
    if keys is None:
        lemma = lemmatize(name, lexicon)
        try:
            head = simplify_np(tokenize_and_tag(name, lexicon))
        except (EmptyPhrase, NotAnNP):
            head = lemma
        keys = lexicon.names.put(name, (lemma, head))
    return keys


# Each tag sequence's parse plan (`_plan`), or None for a sequence outside
# the grammar. Plans depend on the tags alone, and a few sequences cover
# almost every phrase; the memo is cleared at its cap.
_PLAN_CAP = 1 << 12
_PLANS = Memo(_PLAN_CAP)
_UNPLANNED = object()


def _plan(tags: tuple[Pos, ...]):
    """One left-to-right walk of NP (VBG NP? | VBN)? (PREP NP)? over the tags,
    as the token indices a parse reads: (root properties, root's first VBG,
    root head, verb, preposition, tail head, verb complement), each None
    where the phrase has none; None when the tags are outside the grammar.
    Properties and the complement are (index, read its surface) pairs."""
    root = _np_walk(tags, 0)
    if root is None:
        return None
    end = len(tags)
    i, _, properties, participle, head = root
    verb = prep = tail = None
    complement = []
    if i < end and tags[i] in (Pos.VBG, Pos.VBN):
        verb = i
        complement.append((verb, True))
        i += 1
        if tags[verb] is Pos.VBG and i < end and tags[i] is not Pos.PREP:
            span = _np_walk(tags, i)
            if span is None:
                return None
            i = span[0]
            complement.append((span[4], False))
    if i < end:
        if tags[i] is not Pos.PREP:
            return None
        span = _np_walk(tags, i + 1)
        if span is None or span[0] != end:
            return None
        prep, tail = i, span[4]
        complement.append((prep, True))
        # Passive agents keep their determiner: "hit by a car".
        if verb is not None and tags[verb] is Pos.VBN and span[1] is not None:
            complement.append((span[1], True))
        complement.append((tail, False))
    return properties, participle, head, verb, prep, tail, tuple(complement)


def _texts(tokens: list[TaggedToken], picks) -> list[str]:
    """The picked tokens' texts, for (index, read its surface) pairs."""
    return [tokens[i].surface if surface else tokens[i].lemma for i, surface in picks]


def parse_region_phrase(tokens: list[TaggedToken]) -> PhraseParse | None:
    """Parse tagged tokens against the region-phrase grammar.

    The tokens' tag sequence is walked once per process (`_plan`) into the
    indices of the tokens a parse reads, and the parse is filled from the
    tokens by index. Returns None for token sequences outside the grammar;
    callers count those in their diagnostics and skip the phrase.
    """
    tags = tuple([token.pos for token in tokens])
    plan = _PLANS.get(tags, _UNPLANNED)
    if plan is _UNPLANNED:
        plan = _PLANS.put(tags, _plan(tags))
    if plan is None:
        return None
    properties, participle, head, verb, prep, tail, complement = plan
    root = tokens[head].lemma
    adjectives = tuple(_texts(tokens, properties))
    if participle is not None:
        participle = tokens[participle].lemma
    if verb is not None:
        verb = tokens[verb]
        info = VerbInfo(verb.lemma, verb.surface, verb.pos, " ".join(_texts(tokens, complement)))
        return PhraseParse(PhraseKind.VP_PHRASE, root, adjectives, participle, verb=info)
    if prep is not None:
        return PhraseParse(
            PhraseKind.PP_PHRASE, root, adjectives, participle, tokens[prep].surface,
            tokens[tail].lemma,
        )
    return PhraseParse(PhraseKind.NP, root, adjectives, participle)
