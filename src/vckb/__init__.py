"""Grounded visual-commonsense dataset construction.

Turns a scene-graph corpus plus a commonsense edge file into a dataset of
(grounded object, category, tail) triples organized by a two-visibility,
three-aspect taxonomy, with deterministic export and instruction-sample
generation on top.
"""

from .dataset import (
    CategoryGroup,
    DatasetRecord,
    ObjectEntry,
    Stats,
    compute_stats,
    group_triples,
    import_dataset,
    iter_dataset,
    query,
)
from .geometry import BBox, overlap_ratio
from .ingest import (
    GroundedObject,
    KbIndex,
    Region,
    SceneTriple,
    TripleKind,
    load_kb,
    load_scene_corpus,
    save_scene_corpus,
)
from .instructions import (
    ExportConfig,
    InstructionTemplates,
    instruction_lines,
    read_instruction_samples,
)
from .lexicon import Lexicon
from .phrase import (
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
from .pipeline import build_image_record, export_records
from .seen import (
    BuildDiagnostics,
    CommonsenseTriple,
    MatchFailure,
    Provenance,
    build_seen,
    cooccurrence_triples,
    extract_region_triples,
    localize,
    map_scene_triple,
    pos_to_seen_category,
)
from .taxonomy import (
    Aspect,
    CategoryPath,
    Relation,
    Visibility,
    kb_relation_to_category,
    parse_category,
)
from .unseen import build_unseen, make_synset

__version__ = "0.1.0"
