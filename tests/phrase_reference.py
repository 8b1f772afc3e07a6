"""The tagger and the region-phrase parser, worked out word by word and token
by token.

`reference_tokenize_and_tag` is the reference for `tokenize_and_tag`, and
`reference_parse_region_phrase` (with `reference_parse_np`) the reference for
`parse_region_phrase` and `simplify_np`. They are the three-pass tagger and
the span-walking parser the package had before it tagged in one pass and
parsed through a plan per tag sequence; only their names changed, and the
tagger keeps no memo, so that it never reads a token the tagger under test
made. The word-level helpers (splitting, multiword
merging, the provisional tag, lemmas) are shared with the package; their own
tests guard them.

The rules they state:

- a word's tag is its multiword tag if it was merged, else its provisional
  tag, except that an adjective takes the noun tag unless the word after it
  ends up an adjective, noun, VBG or VBN;
- a token's lemma follows its final tag;
- an NP is DET* (ADJ | VBG | VBN)* NOUN+; its head is its last noun's lemma,
  its properties are its adjectives' lemmas and its VBNs' surfaces in order,
  and its participle is its first VBG's lemma;
- a phrase is NP (VBG NP? | VBN)? (PREP NP)?, where a VBG's object is any NP
  that does not start with a preposition; a passive agent keeps its first
  determiner in the complement.
"""

from dataclasses import dataclass

from vckb.errors import EmptyPhrase
from vckb.lexicon import Lexicon
from vckb.phrase import (
    PhraseKind,
    PhraseParse,
    Pos,
    TaggedToken,
    VerbInfo,
    _lemma_for,
    _merge_multiword,
    _provisional_pos,
    _split_words,
)


def reference_tokenize_and_tag(phrase: str, lexicon: Lexicon) -> list[TaggedToken]:
    words = _split_words(phrase)
    if not words:
        raise EmptyPhrase(f"no tokens in phrase: {phrase!r}")
    words, tags = _merge_multiword(words, lexicon)
    for i, word in enumerate(words):
        if tags[i] is None:
            tags[i] = _provisional_pos(word, lexicon)
    # Adjective/noun ambiguity is positional: a word from the adjective set
    # is an adjective only when something nominal can follow it.
    for i in range(len(words) - 1, -1, -1):
        if tags[i] is Pos.ADJ:
            if i == len(words) - 1 or tags[i + 1] not in (
                Pos.ADJ,
                Pos.NOUN,
                Pos.VBG,
                Pos.VBN,
            ):
                tags[i] = Pos.NOUN
    return [
        TaggedToken(word, _lemma_for(word, tag, lexicon), tag) for word, tag in zip(words, tags)
    ]


@dataclass(frozen=True)
class ReferenceNPSpan:
    end: int
    det_surface: str | None
    properties: tuple[str, ...]  # ADJ lemmas and pre-noun VBN surfaces
    vbg_lemmas: tuple[str, ...]
    head: str


def reference_parse_np(tokens: list[TaggedToken], start: int) -> ReferenceNPSpan | None:
    i = start
    det_surface = None
    while i < len(tokens) and tokens[i].pos is Pos.DET:
        if det_surface is None:
            det_surface = tokens[i].surface
        i += 1
    properties: list[str] = []
    vbg_lemmas: list[str] = []
    while i < len(tokens) and tokens[i].pos in (Pos.ADJ, Pos.VBG, Pos.VBN):
        token = tokens[i]
        if token.pos is Pos.ADJ:
            properties.append(token.lemma)
        elif token.pos is Pos.VBN:
            properties.append(token.surface)
        else:
            vbg_lemmas.append(token.lemma)
        i += 1
    nouns = []
    while i < len(tokens) and tokens[i].pos is Pos.NOUN:
        nouns.append(tokens[i])
        i += 1
    if not nouns:
        return None
    return ReferenceNPSpan(
        end=i,
        det_surface=det_surface,
        properties=tuple(properties),
        vbg_lemmas=tuple(vbg_lemmas),
        head=nouns[-1].lemma,
    )


def reference_parse_region_phrase(tokens: list[TaggedToken]) -> PhraseParse | None:
    tokens = list(tokens)
    root = reference_parse_np(tokens, 0)
    if root is None:
        return None
    end = len(tokens)
    i = root.end
    verb = None
    parts: list[str] = []
    if i < end and tokens[i].pos in (Pos.VBG, Pos.VBN):
        verb = tokens[i]
        parts.append(verb.surface)
        i += 1
        if verb.pos is Pos.VBG and i < end and tokens[i].pos is not Pos.PREP:
            obj = reference_parse_np(tokens, i)
            if obj is None:
                return None
            parts.append(obj.head)
            i = obj.end
    prep = tail = None
    if i < end:
        if tokens[i].pos is not Pos.PREP:
            return None
        tail = reference_parse_np(tokens, i + 1)
        if tail is None or tail.end != end:
            return None
        prep = tokens[i].surface
        parts.append(prep)
        # Passive agents keep their determiner: "hit by a car".
        if verb is not None and verb.pos is Pos.VBN and tail.det_surface is not None:
            parts.append(tail.det_surface)
        parts.append(tail.head)
    base = dict(
        root_noun=root.head,
        adjectives=root.properties,
        np_participle=root.vbg_lemmas[0] if root.vbg_lemmas else None,
    )
    if verb is not None:
        info = VerbInfo(verb.lemma, verb.surface, verb.pos, complement=" ".join(parts))
        return PhraseParse(kind=PhraseKind.VP_PHRASE, verb=info, **base)
    if tail is not None:
        return PhraseParse(kind=PhraseKind.PP_PHRASE, prep=prep, tail_head_noun=tail.head, **base)
    return PhraseParse(kind=PhraseKind.NP, **base)
