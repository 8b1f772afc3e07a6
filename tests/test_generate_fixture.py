"""The committed pipeline fixture is what its seeded generator writes."""

import importlib.util
import random
from pathlib import Path

from conftest import DATA_DIR

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "generate_fixture.py"


def test_generator_reproduces_committed_fixture():
    spec = importlib.util.spec_from_file_location("generate_fixture", SCRIPT)
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    rng = random.Random(generator.SEED)  # scene then KB from one stream, as main() does
    scene = generator.make_scene(rng)
    kb = generator.make_kb(rng)
    assert scene.encode("utf-8") == (DATA_DIR / "fixture_scene.tsv").read_bytes()
    assert kb.encode("utf-8") == (DATA_DIR / "fixture_kb.tsv").read_bytes()
