"""Lexicon tables driving the tagger and lemmatizer.

The tables ship as editable plain-text files (one word per line, or
word<TAB>lemma for the irregular maps; ``#`` starts a comment). A lexicon
directory can be swapped in at runtime; `Lexicon.default()` loads the
bundled tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .errors import MalformedRecord, VckbError
from .ingest import _read_lines

_SET_FILES = ("determiners", "prepositions", "adjectives", "known_nouns")
_MAP_FILES = ("irregular_participles", "irregular_plurals")


@dataclass(frozen=True, eq=False)
class Lexicon:
    determiners: frozenset[str]
    prepositions: frozenset[str]
    adjectives: frozenset[str]
    irregular_participles: dict[str, str] = field(default_factory=dict)
    irregular_plurals: dict[str, str] = field(default_factory=dict)
    known_nouns: frozenset[str] = frozenset()
    # Tables derived from this lexicon (multiword index, tagged words, name
    # keys, tail lemmas), by name.
    _memo: dict = field(default_factory=dict, init=False, repr=False)

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

    @classmethod
    def load(cls, directory) -> "Lexicon":
        """Load a lexicon from a directory of the six table files."""
        directory = Path(directory)
        sets = {}
        for name in _SET_FILES:
            sets[name] = frozenset(word for word, _ in _read_entries(directory / name))
        maps = {}
        for name in _MAP_FILES:
            table = {}
            for word, lemma in _read_entries(directory / name, require_lemma=True):
                table[word] = lemma
            maps[name] = table
        return cls(
            determiners=sets["determiners"],
            prepositions=sets["prepositions"],
            adjectives=sets["adjectives"],
            irregular_participles=maps["irregular_participles"],
            irregular_plurals=maps["irregular_plurals"],
            known_nouns=sets["known_nouns"],
        )

    @classmethod
    def default(cls) -> "Lexicon":
        """Load the tables bundled with the package."""
        root = resources.files("vckb").joinpath("data/lexicon")
        with resources.as_file(root) as path:
            return cls.load(path)


def _read_entries(stem: Path, require_lemma: bool = False):
    path = stem.with_suffix(".txt")
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
