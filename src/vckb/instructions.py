"""Instruction-tuning sample generation.

`instruction_lines` is the one sampler: it renders a dataset record's
samples straight to lines. Every (object, category) pair with at least one
triple yields one `instruction <tab> target` line, both fields escaped as in
the dataset file. Seen targets sample m tails uniformly without replacement;
unseen targets take the top-k tails of the sorted list plus j random tails
from the remainder. Tails are joined with the separator token. Sampling is
seeded per pair from a hash of (seed, image id, object id, category), so
output does not depend on iteration order. `ExportConfig` holds these
sampling parameters only, and is checked whole when it is made; the build's
overlap threshold tau is no part of it.
"""

from __future__ import annotations

import hashlib
import json
import random
import string
from dataclasses import dataclass, fields
from importlib import resources

from .errors import InvalidConfig, IoFailure, MalformedRecord
from .dataset import DatasetRecord, _escape, _unescape
from .ingest import _read_lines
from .taxonomy import CategoryPath, Visibility

DEFAULT_SEP = "[sep]"


def _read_json(path):
    """Parse a UTF-8 JSON file (optional byte-order mark)."""
    try:
        with open(path, encoding="utf-8-sig") as handle:
            return json.load(handle)
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise InvalidConfig(f"bad JSON in {path}: {exc}") from exc


@dataclass(frozen=True)
class ExportConfig:
    m: int = 3  # seen tails sampled per pair
    k: int = 5  # top unseen tails kept
    j: int = 2  # random extra unseen tails
    seed: int = 0
    sep_token: str = DEFAULT_SEP
    template_path: str | None = None

    def __post_init__(self):
        for name in ("m", "k", "j"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise InvalidConfig(f"{name} must be an integer, got {value!r}")
        if self.m < 1:
            raise InvalidConfig(f"m must be >= 1, got {self.m}")
        if self.k < 0 or self.j < 0:
            raise InvalidConfig(f"k and j must be >= 0, got k={self.k} j={self.j}")
        if self.k + self.j < 1:
            raise InvalidConfig(f"unseen export needs k + j >= 1, got k={self.k} j={self.j}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise InvalidConfig(f"seed must be an integer, got {self.seed!r}")
        if self.seed.bit_length() > 64:
            raise InvalidConfig(f"seed must fit in 64 bits, got {self.seed}")
        if not isinstance(self.sep_token, str) or not self.sep_token:
            raise InvalidConfig("sep_token must be a non-empty string")
        if self.template_path is not None and not isinstance(self.template_path, str):
            raise InvalidConfig(
                f"template_path must be a string or null, got {self.template_path!r}"
            )

    @classmethod
    def load(cls, config_path=None, **overrides) -> "ExportConfig":
        """Build a config from an optional JSON file plus keyword overrides."""
        values = {} if config_path is None else _read_json(config_path)
        if not isinstance(values, dict):
            raise InvalidConfig(f"config must be a JSON object: {config_path}")
        unknown = set(values) - {f.name for f in fields(cls)}
        if unknown:
            raise InvalidConfig(f"unknown config keys: {sorted(unknown)}")
        for key, value in overrides.items():
            if value is not None:
                values[key] = value
        return cls(**values)


# The keyword arguments instruction_lines passes to template.format.
_TEMPLATE_FIELDS = frozenset({"image_id", "description", "name", "x", "y", "w", "h"})


def _template_fields(template: str) -> set[str]:
    """Every replacement field a format string names, nested specs included."""
    try:
        parsed = list(string.Formatter().parse(template))
    except ValueError as exc:  # unbalanced braces
        raise InvalidConfig(f"bad template {template!r}: {exc}") from None
    names = set()
    for _, name, spec, _ in parsed:
        if name is not None:
            names.add(name)
            names |= _template_fields(spec)
    return names


@dataclass(frozen=True)
class InstructionTemplates:
    template: str
    descriptions: dict[str, str]

    def __post_init__(self):
        missing = [c.text for c in CategoryPath if c.text not in self.descriptions]
        if missing:
            raise InvalidConfig(f"template file lacks descriptions for: {missing}")
        if not isinstance(self.template, str):
            raise InvalidConfig("template must be a string")
        unknown = sorted(_template_fields(self.template) - _TEMPLATE_FIELDS)
        if unknown:
            raise InvalidConfig(
                f"unknown template fields {unknown}; allowed: {sorted(_TEMPLATE_FIELDS)}"
            )
        try:  # a format spec that does not fit the field's type, e.g. "{x:zz}"
            self.template.format(image_id="", description="", name="", x=0, y=0, w=0, h=0)
        except ValueError as exc:
            raise InvalidConfig(f"bad template {self.template!r}: {exc}") from None

    @classmethod
    def load(cls, path=None) -> "InstructionTemplates":
        """Load a template file; with no path, the one bundled with the package."""
        if path is None:
            bundled = resources.files("vckb").joinpath("data/instruction_templates.json")
            with resources.as_file(bundled) as bundled_path:
                return cls.load(bundled_path)
        payload = _read_json(path)
        try:
            template, descriptions = payload["template"], payload["descriptions"]
        except (KeyError, TypeError) as exc:
            raise InvalidConfig(f"template file {path} needs 'template' and 'descriptions': {exc}")
        if not isinstance(descriptions, dict) or not all(
            isinstance(text, str) for text in descriptions.values()
        ):
            raise InvalidConfig(f"descriptions must be a JSON object of strings: {path}")
        return cls(template=template, descriptions=descriptions)


def _pair_rng(seed: int, image_id: str, object_id: str, category: str) -> random.Random:
    key = "\x1f".join((str(seed), image_id, object_id, category)).encode("utf-8")
    digest = hashlib.sha256(key).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def instruction_lines(
    record: DatasetRecord, config: ExportConfig, templates: InstructionTemplates
) -> list[str]:
    """One `instruction <tab> target` line per non-empty (object, category)
    of a record, both fields escaped as in the dataset file."""
    lines = []
    for entry in record.entries:
        obj = entry.obj
        for group in entry.groups:
            tails = [triple.tail for triple in group.triples]
            if not tails:
                continue
            category = group.category
            # The generator is seeded only when its draw can change the
            # target; it is discarded after each pair, so a skipped draw
            # changes no other pair's target.
            if category.visibility is Visibility.SEEN:
                if len(tails) == 1:
                    chosen = tails
                else:
                    rng = _pair_rng(config.seed, record.image_id, obj.object_id, category.text)
                    chosen = rng.sample(tails, min(config.m, len(tails)))
            else:
                chosen = tails[: config.k]
                rest = tails[config.k :]
                if rest and config.j:
                    rng = _pair_rng(config.seed, record.image_id, obj.object_id, category.text)
                    chosen += rng.sample(rest, min(config.j, len(rest)))
            box = obj.bbox
            instruction = templates.template.format(
                image_id=record.image_id,
                description=templates.descriptions[category.text],
                name=obj.name,
                x=box.x,
                y=box.y,
                w=box.w,
                h=box.h,
            )
            lines.append(f"{_escape(instruction)}\t{_escape(config.sep_token.join(chosen))}")
    return lines


def read_instruction_samples(path) -> list[tuple[str, str]]:
    """Read back the (instruction, target) pairs of a samples file.

    No command reads a samples file; this stays because the benchmark
    harness checks its instructions output with it.
    """
    pairs = []
    for line_number, line in _read_lines(path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise MalformedRecord(path, line_number, "expected instruction<TAB>target")
        pairs.append((_unescape(parts[0]), _unescape(parts[1])))
    return pairs
