"""
End-to-end: corpus to dataset to instruction samples
====================================================

Runs the bundled 50-image fixture through the whole pipeline the way the CLI
does, streaming: the loader returns the scene's images as a list, the build
writes each record's line to disk as it is done, and the dataset file is
read back one record at a time. The CLI equivalent
is `vckb export --scene ... --kb ... --out dataset.tsv`, then `vckb stats`,
`vckb query` and `vckb export-instructions --data dataset.tsv`.
"""

import tempfile
from itertools import islice
from pathlib import Path

from vckb import (
    ExportConfig,
    InstructionTemplates,
    Lexicon,
    compute_stats,
    export_records,
    instruction_lines,
    iter_dataset,
    load_kb,
    load_scene_corpus,
    query,
    parse_category,
)

data = Path(__file__).resolve().parent.parent / "tests" / "data"
lexicon = Lexicon.default()

images = load_scene_corpus(data / "fixture_scene.tsv")
kb = load_kb(data / "fixture_kb.tsv")
boxes = sum(len(entry.objects) for entry in images)
print(f"loaded {len(images)} images, {boxes} boxes, {len(kb)} KB edges")

config = ExportConfig(m=3, k=2, j=1, seed=13)
templates = InstructionTemplates.load()

with tempfile.TemporaryDirectory() as tmp:
    dataset_path = Path(tmp) / "dataset.tsv"
    diagnostics = export_records(images, lexicon, dataset_path, kb=kb)
    print("diagnostics:", diagnostics.as_dict())

    # Each pass reads the file again; no pass holds the whole dataset.
    print(compute_stats(iter_dataset(dataset_path)).to_json())

    category = parse_category("/Unseen/Action/UsedFor")
    hits = query(iter_dataset(dataset_path), "car", category, lexicon)
    # Each hit is (image id, object, triple).
    print("\ncar is used for:", sorted({t.tail for _, _, t in hits}))

    # The lines export-instructions writes for the first three images.
    lines = [
        line
        for record in islice(iter_dataset(dataset_path), 3)
        for line in instruction_lines(record, config, templates)
    ]
    instruction, target = lines[0].split("\t")
    print(f"\nfirst instruction of {len(lines)} from three images:")
    print(" ", instruction)
    print(" ", target)
