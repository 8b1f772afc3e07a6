"""
End-to-end: corpus to dataset to instruction samples
====================================================

Runs the bundled 50-image fixture through the whole pipeline. The CLI does
the same: `vckb export --scene ... --kb ... --out dataset.tsv` followed by
`vckb export-instructions --data dataset.tsv --out samples.tsv`.
"""

import tempfile
from pathlib import Path

from vckb import (
    ExportConfig,
    Lexicon,
    build_instruction_samples,
    build_records,
    compute_stats,
    export_dataset,
    import_dataset,
    load_kb,
    load_scene_corpus,
    query,
    parse_category,
)

data = Path(__file__).resolve().parent.parent / "tests" / "data"
lexicon = Lexicon.default()

corpus = load_scene_corpus(data / "fixture_scene.tsv")
kb = load_kb(data / "fixture_kb.tsv")
print(f"loaded {len(corpus)} images, {corpus.bbox_count} boxes, {len(kb)} KB edges")

config = ExportConfig(m=3, k=2, j=1, seed=13)
records, diagnostics = build_records(corpus, lexicon, kb=kb, config=config)
print("diagnostics:", diagnostics.as_dict())

print(compute_stats(records).to_json())

with tempfile.TemporaryDirectory() as tmp:
    dataset_path = Path(tmp) / "dataset.tsv"
    export_dataset(records, dataset_path)
    again = import_dataset(dataset_path)
    print("round-trip intact:", again == records)

# Query the built dataset.
hits = query(records, "car", parse_category("/Unseen/Action/UsedFor"), lexicon)
print("\ncar is used for:", sorted({t.tail for t in hits}))

samples = []
for record in records[:3]:
    samples.extend(build_instruction_samples(record, config))
print(f"\nfirst instruction of {len(samples)} from three images:")
print(" ", samples[0].instruction)
print(" ", samples[0].target)
