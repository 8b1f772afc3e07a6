import os
import tempfile
from pathlib import Path
from typing import NamedTuple

import pytest

from vckb import BBox, GroundedObject, Lexicon, load_kb
from vckb.dataset import _unescape, record_line
from vckb.instructions import instruction_lines

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def lexicon():
    return Lexicon.default()


@pytest.fixture(scope="session")
def data_dir():
    return DATA_DIR


def write_dataset(records, path):
    """Write records as a dataset file: one `record_line` each, as
    `export_records` writes them."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(record_line(record) + "\n" for record in records)


def keyed_samples(record, config, templates):
    """A record's `instruction_lines`, unescaped and keyed by the non-empty
    group each comes from, since the lines follow those groups in order:
    {(object_id, category text): (instruction, target)}."""
    groups = [
        (entry.obj.object_id, group.category.text)
        for entry in record.entries
        for group in entry.groups
        if group.triples
    ]
    lines = instruction_lines(record, config, templates)
    assert len(lines) == len(groups)
    return {
        key: tuple(map(_unescape, line.split("\t")))
        for key, line in zip(groups, lines)
    }


def make_object(object_id="o1", name="man", box=(0, 0, 10, 10)):
    return GroundedObject(object_id=object_id, name=name, bbox=BBox(*box))


def assert_no_child_processes():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class KbRow(NamedTuple):
    head: str
    relation: str
    tail: str
    weight: float = 1.0


def make_kb(rows):
    """`load_kb` of a temporary file holding each (head, relation, tail,
    weight) row as a KB line, the weight written as its repr, which reads
    back as the same float."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "kb.tsv"
        path.write_text(
            "".join(
                f"{head}\t{relation}\t{tail}\t{weight!r}\n"
                for head, relation, tail, weight in rows
            ),
            encoding="utf-8",
        )
        return load_kb(path)


@pytest.fixture
def toy_scene(tmp_path):
    """Two objects, one attribute, one relationship, one region."""
    path = tmp_path / "scene.tsv"
    path.write_text(
        "I\timg1\t640\t480\n"
        "O\timg1\to1\tman\t10\t10\t50\t100\n"
        "O\timg1\to2\tcar\t200\t150\t120\t80\n"
        "T\timg1\tA\to1\tis\ttall\n"
        "T\timg1\tR\to1\ton\to2\n"
        "R\timg1\t0\t0\t70\t120\ta thin man\n",
        encoding="utf-8",
    )
    return path


@pytest.fixture
def toy_kb(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_text(
        "car\tUsedFor\tdrive to work\t2.0\n"
        "car\tCreatedBy\tfactory\n"
        "dog\tCapableOf\tbark\t3.0\n"
        "car\tAtLocation\tgarage\t1.0\n"
        "man\tCapableOf\tgrow up\t1.0\n"
        "man\tReceivesAction\thit by a car\t2.0\n",
        encoding="utf-8",
    )
    return path
