"""Lexicon tables driving the tagger and lemmatizer.

The tables ship as editable plain-text files (one word per line, or
word<TAB>lemma for the irregular maps; ``#`` starts a comment). A lexicon
directory can be swapped in at runtime; `Lexicon.default()` loads the
bundled tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from pathlib import Path

from .errors import MalformedRecord, VckbError
from .ingest import _read_lines
from .memo import Memo

_SET_FILES = ("determiners", "prepositions", "adjectives", "known_nouns")
_MAP_FILES = ("irregular_participles", "irregular_plurals")

# Distinct keys each of a lexicon's memos holds at most. A phrase's reading
# takes about 250 bytes besides its key, so a full phrase memo holds about 8 MB.
_WORDS_MEMO_CAP = 1 << 16
_NAMES_MEMO_CAP = 1 << 16
_PHRASE_MEMO_CAP = 1 << 15
_PREDICATE_MEMO_CAP = 1 << 15
_TAIL_LEMMAS_CAP = 1 << 16


@dataclass(frozen=True, eq=False)
class Lexicon:
    determiners: frozenset[str]
    prepositions: frozenset[str]
    adjectives: frozenset[str]
    irregular_participles: dict[str, str] = field(default_factory=dict)
    irregular_plurals: dict[str, str] = field(default_factory=dict)
    known_nouns: frozenset[str] = frozenset()
    # What these tables give each distinct key, worked out once per lexicon
    # (README, "Memos"): tagged words by word and by (word, tag), name keys,
    # region phrase and predicate readings, and tail lemmas.
    words: Memo = field(default_factory=lambda: Memo(_WORDS_MEMO_CAP), init=False, repr=False)
    names: Memo = field(default_factory=lambda: Memo(_NAMES_MEMO_CAP), init=False, repr=False)
    phrases: Memo = field(default_factory=lambda: Memo(_PHRASE_MEMO_CAP), init=False, repr=False)
    predicates: Memo = field(
        default_factory=lambda: Memo(_PREDICATE_MEMO_CAP), init=False, repr=False
    )
    tail_lemmas: Memo = field(
        default_factory=lambda: Memo(_TAIL_LEMMAS_CAP), init=False, repr=False
    )

    def __post_init__(self):
        # Word classes must not overlap; only adjectives/nouns may (the
        # tagger resolves those positionally).
        named = {
            "determiners": self.determiners,
            "prepositions": self.prepositions,
            "adjectives": self.adjectives,
            "known_nouns": self.known_nouns,
        }
        allowed = {frozenset(("adjectives", "known_nouns"))}
        names = list(named)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                if frozenset((a, b)) in allowed:
                    continue
                clash = named[a] & named[b]
                if clash:
                    raise VckbError(
                        f"lexicon sets {a} and {b} overlap: {sorted(clash)[:5]}"
                    )

    @cached_property
    def multiword(self) -> dict[str, tuple[tuple[tuple[str, ...], bool], ...]]:
        """Multiword prepositions and compounds keyed by first word, longest
        first, each as (its words, whether it is a noun); built on first use.
        Every entry has at least two words, so a window's first word is never
        the singularized one and only entries keyed by it can match."""
        buckets: dict[str, list[tuple[tuple[str, ...], bool]]] = {}
        for table, noun in ((self.prepositions, False), (self.known_nouns, True)):
            for entry in table:
                if " " in entry:
                    parts = tuple(entry.split(" "))
                    buckets.setdefault(parts[0], []).append((parts, noun))
        return {
            first: tuple(sorted(bucket, key=lambda item: (-len(item[0]), item[0])))
            for first, bucket in buckets.items()
        }

    @classmethod
    def load(cls, directory) -> "Lexicon":
        """Load a lexicon from a directory of the six table files."""
        files = _table_files(directory)
        sets = {name: frozenset(word for word, _ in _read_entries(files[name]))
                for name in _SET_FILES}
        maps = {name: dict(_read_entries(files[name], require_lemma=True))
                for name in _MAP_FILES}
        return cls(**sets, **maps)

    @classmethod
    def default(cls) -> "Lexicon":
        """Load the tables bundled with the package."""
        with resources.as_file(_bundled_tables()) as path:
            return cls.load(path)


def _bundled_tables():
    """The directory of the tables bundled with the package."""
    return resources.files("vckb").joinpath("data/lexicon")


def _table_files(directory) -> dict[str, Path]:
    """Each table's name and the file of `directory` that `Lexicon.load` reads it from."""
    return {name: Path(directory, f"{name}.txt") for name in (*_SET_FILES, *_MAP_FILES)}


def _read_entries(path: Path, require_lemma: bool = False):
    entries = []
    for number, raw in _read_lines(path):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split("\t")
        if require_lemma:
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise MalformedRecord(path, number, "expected word<TAB>lemma")
            entries.append((parts[0].lower(), parts[1].lower()))
        else:
            if len(parts) != 1:
                raise MalformedRecord(path, number, "expected a single word")
            entries.append((parts[0].lower(), None))
    return entries
