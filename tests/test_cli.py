import argparse
import dataclasses
import hashlib
import json
import multiprocessing
import os
import re
import shlex
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import vckb.ingest as ingest
from vckb import (
    CommonsenseTriple,
    DatasetRecord,
    ExportConfig,
    InstructionTemplates,
    Provenance,
    group_triples,
    import_dataset,
    parse_category,
)
from vckb.cli import _build_parser, main
from vckb.dataset import _unescape

from conftest import DATA_DIR, make_object, write_dataset


@pytest.fixture
def fixture_paths():
    return str(DATA_DIR / "fixture_scene.tsv"), str(DATA_DIR / "fixture_kb.tsv")


def test_ingest_reports_counts(fixture_paths, capsys):
    scene, kb = fixture_paths
    assert main(["ingest", "--scene", scene, "--kb", kb]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["images"] == 50
    assert summary["bboxes"] > 0
    assert summary["kb_edges"] == 48


def test_ingest_writes_normalized_copy(fixture_paths, tmp_path, capsys):
    scene, _ = fixture_paths
    out = tmp_path / "normalized.tsv"
    assert main(["ingest", "--scene", scene, "--out", str(out)]) == 0
    assert out.exists()
    in_place = tmp_path / "in_place.tsv"  # --scene may be --out: normalized in place
    in_place.write_bytes(Path(scene).read_bytes())
    assert main(["ingest", "--scene", str(in_place), "--out", str(in_place)]) == 0
    assert in_place.read_bytes() == out.read_bytes()


def test_ingest_does_not_read_lexicon(fixture_paths, tmp_path, capsys):
    scene, _ = fixture_paths
    out = tmp_path / "normalized.tsv"
    argv = ["ingest", "--scene", scene, "--out", str(out),
            "--lexicon", str(tmp_path / "missing")]
    assert main(argv) == 1
    assert "usage:" in capsys.readouterr().err
    assert not out.exists()


def test_build_seen_does_not_read_kb(fixture_paths, tmp_path, capsys):
    scene, _ = fixture_paths
    bad_kb = tmp_path / "bad_kb.tsv"
    bad_kb.write_text("not\ta kb line\n", encoding="utf-8")
    out = tmp_path / "seen.tsv"
    argv = ["build-seen", "--scene", scene, "--kb", str(bad_kb), "--out", str(out)]
    assert main(argv) == 1
    assert "usage:" in capsys.readouterr().err
    assert not out.exists()


def test_export_stats_query_round_trip(fixture_paths, tmp_path, capsys):
    scene, kb = fixture_paths
    data = tmp_path / "dataset.tsv"
    assert main(["export", "--scene", scene, "--kb", kb, "--out", str(data)]) == 0
    capsys.readouterr()

    assert main(["stats", "--data", str(data)]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["image_count"] == 50
    assert set(stats["per_category"]) == {
        c
        for c in stats["per_category"]
        if c.startswith("/Seen/") or c.startswith("/Unseen/")
    }
    assert len(stats["per_category"]) == 11

    assert (
        main(["query", "--data", str(data), "--name", "car",
              "--category", "/Unseen/Action/UsedFor"])
        == 0
    )
    out = capsys.readouterr().out
    assert "drive to work" in out


def test_query_escapes_name_and_tail(tmp_path, capsys):
    category = parse_category("/Seen/Property/HasProperty")
    tails = ["ta\tll\nx", "carriage\rreturn", "back\\slash", "all\\\t\n\r", "plain"]
    car = make_object("o1", name="car")
    triples = [CommonsenseTriple(car, category, tail, Provenance.SCENE_TRIPLE) for tail in tails]
    data = tmp_path / "dataset.tsv"
    write_dataset([DatasetRecord("img1", [group_triples(car, triples)])], data)
    argv = ["query", "--data", str(data), "--name", "car", "--category", category.text]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n")
    # image id, object id, name, category, tail, score: one line per triple.
    rows = [line.split("\t") for line in out[:-1].split("\n")]
    assert [len(row) for row in rows] == [6] * len(tails)
    assert [_unescape(row[4]) for row in rows] == tails
    assert {(row[0], row[1], _unescape(row[2]), row[3]) for row in rows} == {
        ("img1", "o1", "car", category.text)
    }


def test_build_seen_has_no_unseen(fixture_paths, tmp_path, capsys):
    scene, _ = fixture_paths
    data = tmp_path / "seen.tsv"
    assert main(["build-seen", "--scene", scene, "--out", str(data)]) == 0
    capsys.readouterr()
    assert main(["stats", "--data", str(data)]) == 0
    stats = json.loads(capsys.readouterr().out)
    for category, count in stats["per_category"].items():
        if category.startswith("/Unseen/"):
            assert count == 0


def test_build_unseen_has_no_seen(fixture_paths, tmp_path, capsys):
    scene, kb = fixture_paths
    data = tmp_path / "unseen.tsv"
    assert main(["build-unseen", "--scene", scene, "--kb", kb, "--out", str(data)]) == 0
    capsys.readouterr()
    assert main(["stats", "--data", str(data)]) == 0
    stats = json.loads(capsys.readouterr().out)
    for category, count in stats["per_category"].items():
        if category.startswith("/Seen/"):
            assert count == 0


def test_build_unseen_is_export_without_seen_groups(fixture_paths, tmp_path, capsys):
    scene, kb = fixture_paths
    full, unseen = tmp_path / "full.tsv", tmp_path / "unseen.tsv"
    for command, out in (("export", full), ("build-unseen", unseen)):
        argv = [command, "--scene", scene, "--kb", kb, "--out", str(out)]
        assert main(argv) == 0
    records = import_dataset(full)
    for record in records:
        for entry in record.entries:
            entry.groups = [
                g for g in entry.groups if not g.category.text.startswith("/Seen/")
            ]
    expected = tmp_path / "expected.tsv"
    write_dataset(records, expected)
    assert unseen.read_bytes() == expected.read_bytes() != full.read_bytes()
    assert _sha256(unseen) == FIXTURE_UNSEEN_SHA256


@pytest.mark.parametrize(
    "command",
    [["stats"], ["query", "--name", "car", "--category", "/Unseen/Action/UsedFor"]],
    ids=["stats", "query"],
)
def test_malformed_dataset_prints_nothing(tmp_path, capsys, command):
    data = tmp_path / "dataset.tsv"
    data.write_text("img1\t0\nimg2\t0\nimg3\tx\n", encoding="utf-8")
    assert main([*command, "--data", str(data)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert ":3: object count" in err


def test_export_instructions_from_data(fixture_paths, tmp_path, capsys):
    scene, kb = fixture_paths
    data = tmp_path / "dataset.tsv"
    samples = tmp_path / "samples.tsv"
    main(["export", "--scene", scene, "--kb", kb, "--out", str(data)])
    assert (
        main(
            ["export-instructions", "--data", str(data), "--out", str(samples),
             "--m", "2", "--k", "2", "--j", "1", "--seed", "3", "--sep", "[sep]"]
        )
        == 0
    )
    lines = samples.read_text(encoding="utf-8").splitlines()
    assert lines
    assert all("\t" in line for line in lines)


# sha256 of the fixture export and of its instruction samples. A change
# that alters either file on purpose updates these values and records why.
FIXTURE_DATASET_SHA256 = "0d269430f3c35ff56b9d9c79cf811ddcb06ea6f6b0f3365ff09f5bceb6e76241"
FIXTURE_SAMPLES_SHA256 = "fcdc496bcfa7da88e19f3c1d44139226d4fc4e5387dc776c667d0a6cba483857"
# sha256 of the fixture's build-unseen output.
FIXTURE_UNSEEN_SHA256 = "85f2cd211ce2c2c2b7a66d2c09149b7357fb65ddc5820eb119788b218dab9aa8"
# sha256 of the fixture's build-seen output, built without a KB, at each tau.
FIXTURE_SEEN_SHA256 = {
    None: "7fd0aedfd735bc19b585d15c099c2c55f8ba155c8e3aa4ac3d9f30497146fa7c",
    "0.9": "71860200c6ebec9244c0437d6ed19400f145bc15f82cf3e809b336ad99f7e00e",
}


@pytest.fixture(scope="module")
def fixture_export(tmp_path_factory):
    """The fixture corpus exported."""
    data = tmp_path_factory.mktemp("export") / "dataset.tsv"
    argv = ["export", "--scene", str(DATA_DIR / "fixture_scene.tsv"),
            "--kb", str(DATA_DIR / "fixture_kb.tsv"), "--out", str(data)]
    assert main(argv) == 0
    return data


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_fixture_output_bytes_are_pinned(fixture_export, tmp_path):
    samples = tmp_path / "samples.tsv"
    argv = ["export-instructions", "--data", str(fixture_export), "--out", str(samples),
            "--m", "3", "--k", "2", "--j", "1", "--seed", "13"]
    assert main(argv) == 0
    assert _sha256(fixture_export) == FIXTURE_DATASET_SHA256
    assert _sha256(samples) == FIXTURE_SAMPLES_SHA256


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("tau", list(FIXTURE_SEEN_SHA256), ids=lambda tau: f"tau-{tau}")
def test_build_seen_output_bytes_are_pinned(fixture_paths, tmp_path, capsys, two_cpus,
                                            tau, workers):
    scene, _ = fixture_paths
    out = tmp_path / "seen.tsv"
    argv = ["build-seen", "--scene", scene, "--out", str(out), "--workers", workers]
    if tau is not None:
        argv += ["--tau", tau]
    assert main(argv) == 0
    assert _sha256(out) == FIXTURE_SEEN_SHA256[tau]


@pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("source", ["flags", "config"])
def test_k_plus_j_below_one_writes_nothing(fixture_export, tmp_path, capsys, two_cpus,
                                           source, workers, existing):
    out = tmp_path / "samples.tsv"
    if existing:
        out.write_bytes(b"keep\n")
    argv = ["export-instructions", "--data", str(fixture_export), "--out", str(out),
            "--workers", workers]
    if source == "flags":
        argv += ["--k", "0", "--j", "0"]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"k": 0, "j": 0}))
        argv += ["--config", str(config)]
    assert main(argv) == 1
    assert "unseen export needs k + j >= 1" in capsys.readouterr().err
    if existing:
        assert out.read_bytes() == b"keep\n"
    else:
        assert not out.exists()


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"template_path": 0}, "template_path must be a string or null"),
        ({"tau": True}, "unknown config keys: ['tau']"),  # --tau is the build's alone
        ({"dedup_unseen": "no"}, "unknown config keys: ['dedup_unseen']"),
    ],
    ids=["template-path-number", "tau-bool", "dedup-unseen-string"],
)
def test_mistyped_config_field_is_input_error(fixture_export, tmp_path, capsys, payload, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    argv = ["export-instructions", "--data", str(fixture_export),
            "--out", str(tmp_path / "samples.tsv"), "--config", str(config)]
    assert main(argv) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "samples.tsv").exists()


def test_missing_scene_flag_is_input_error(capsys):
    assert main(["export", "--kb", "x", "--out", "y"]) == 1
    assert "missing required flags" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["export", "--bogus"],
        ["query", "--data", "x", "--category", "/Unseen/Action/UsedFor"],
        ["no-such-command"],
        [],
    ],
    ids=["unknown-flag", "missing-name", "unknown-command", "no-command"],
)
def test_usage_error_is_input_error(argv, capsys):
    assert main(argv) == 1
    assert "usage:" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["export", "--help"]) == 0
    assert "usage:" in capsys.readouterr().out


# The flags each command accepts, each of which it reads.
_BUILD = {"--scene", "--lexicon", "--out", "--tau", "--workers"}
_SAMPLING = {"--m", "--k", "--j", "--seed", "--sep"}
ACCEPTED_FLAGS = {
    "ingest": {"--scene", "--kb", "--out"},
    "build-seen": _BUILD,
    "build-unseen": {"--kb", *_BUILD},
    "export": {"--kb", *_BUILD},
    "stats": {"--data"},
    "export-instructions": {"--data", "--out", "--config", "--workers", *_SAMPLING},
    "query": {"--data", "--lexicon", "--name", "--category"},
}
# The 13 flags that every command used to accept, read or not.
_FORMER_COMMON = {"--scene", "--kb", "--lexicon", "--data", "--out", "--config", "--tau",
                  "--workers", *_SAMPLING}
REMOVED_FLAGS = [
    (command, flag)
    for command, accepted in ACCEPTED_FLAGS.items()
    for flag in sorted(_FORMER_COMMON - accepted)
]
FILE_FLAGS = ("--scene", "--kb", "--lexicon", "--data", "--config", "--out")


def _accepted_flags() -> dict[str, set[str]]:
    """The flags each command accepts, read from the parser itself."""
    parser = _build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: {flag for action in command._actions for flag in action.option_strings}
        - {"-h", "--help"}
        for name, command in commands.choices.items()
    }


def test_each_command_accepts_only_the_flags_it_reads():
    accepted = _accepted_flags()
    assert accepted == ACCEPTED_FLAGS
    assert sum(len(flags) for flags in accepted.values()) == 34
    assert len(REMOVED_FLAGS) == 93 - 34


def _valid_args(command, tmp_path, data, scene=DATA_DIR / "fixture_scene.tsv",
                kb=DATA_DIR / "fixture_kb.tsv"):
    """Arguments with which `command` succeeds, writing its --out under tmp_path."""
    scene, kb = ["--scene", str(scene)], ["--kb", str(kb)]
    out = ["--out", str(tmp_path / "out.tsv")]
    return {
        "ingest": scene,
        "build-seen": scene + out,
        "build-unseen": scene + kb + out,
        "export": scene + kb + out,
        "stats": ["--data", str(data)],
        # --k 1: every fixture unseen group has at most two tails, so --j changes
        # the samples only while k < 2.
        "export-instructions": ["--data", str(data), "--m", "3", "--k", "1", "--j", "1",
                                "--seed", "13"] + out,
        "query": ["--data", str(data), "--name", "car", "--category", "/Unseen/Action/UsedFor"],
    }[command]


@pytest.mark.parametrize("command, flag", REMOVED_FLAGS)
def test_removed_flag_is_usage_error(fixture_export, tmp_path, capsys, command, flag):
    numeric = {"--tau", "--m", "--k", "--j", "--seed", "--workers"}
    value = "1" if flag in numeric else str(tmp_path / "x")
    argv = [command, *_valid_args(command, tmp_path, fixture_export), flag, value]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert f"unrecognized arguments: {flag} {value}" in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command, flag",
    [(c, f) for c, accepted in ACCEPTED_FLAGS.items() for f in FILE_FLAGS if f in accepted],
)
def test_kept_file_flag_is_read(fixture_export, tmp_path, capsys, command, flag):
    missing = str(tmp_path / "missing" / "file")  # its directory does not exist either
    # argparse keeps a repeated flag's last value.
    argv = [command, *_valid_args(command, tmp_path, fixture_export), flag, missing]
    assert main(argv) == 1
    assert missing in capsys.readouterr().err


# A value for each kept value flag other than the one `_valid_args` runs with
# (the default, for a flag it leaves out: --tau and --sep).
_OTHER_VALUE = {"--tau": "0.9", "--m": "1", "--k": "0", "--j": "0", "--seed": "14",
                "--sep": "|", "--name": "man", "--category": "/Unseen/Action/CapableOf"}
# File flags are checked by test_kept_file_flag_is_read, --workers by the
# tests that log the worker pids; --config's value is a file that matters.
VALUE_FLAGS = [
    (command, flag)
    for command, accepted in _accepted_flags().items()
    for flag in sorted(accepted)
    if flag == "--config" or flag not in {"--workers", *FILE_FLAGS}
]


def _half_covered_scene(tmp_path):
    """A scene whose one region covers half of its one object, and a KB edge
    that the region's tail duplicates. At the default tau (0.5) the region is
    grounded: "tall" is a seen property, and the KB edge is dropped as its
    duplicate. At tau 0.9 nothing is grounded and the KB edge is kept. The
    fixture's build-unseen output is the same at every tau."""
    scene, kb = tmp_path / "scene.tsv", tmp_path / "kb.tsv"
    scene.write_text("I\timg1\t640\t480\nO\timg1\to1\tman\t0\t0\t100\t100\n"
                     "R\timg1\t0\t0\t50\t100\ta tall man\n", encoding="utf-8")
    kb.write_text("man\tHasProperty\ttall\t1.0\n", encoding="utf-8")
    return scene, kb


@pytest.mark.parametrize("command, flag", VALUE_FLAGS)
def test_kept_value_flag_changes_output(fixture_export, tmp_path, capsys, command, flag):
    args = _valid_args(command, tmp_path, fixture_export, *_half_covered_scene(tmp_path))
    value = _OTHER_VALUE.get(flag)
    if flag == "--config":  # test_each_config_field_changes_samples tries every field
        value = str(tmp_path / "config.json")
        Path(value).write_text(json.dumps({"sep_token": "|"}))
    outputs = []
    for argv in ([command, *args], [command, *args, flag, value]):
        assert main(argv) == 0
        out = tmp_path / "out.tsv"
        outputs.append((capsys.readouterr().out, out.read_bytes() if out.exists() else b""))
    assert outputs[0] != outputs[1]


# For each ExportConfig field: a value other than its default, and flags that
# the base run sets so that the field shows in the samples. Every fixture
# unseen group has at most two tails, so k shows only at j = 0, and j only at
# k < 2. template_path's file is written by the test.
_OTHER_CONFIG = {
    "m": (1, []),
    "k": (1, ["--j", "0"]),
    "j": (1, ["--k", "0"]),
    "seed": (14, []),
    "sep_token": ("|", []),
    "template_path": (None, []),
}


@pytest.mark.parametrize("field", [field.name for field in dataclasses.fields(ExportConfig)])
def test_each_config_field_changes_samples(fixture_export, tmp_path, field):
    assert field in _OTHER_CONFIG, f"no other value for config field {field!r}"
    value, base_flags = _OTHER_CONFIG[field]
    if field == "template_path":
        value = str(tmp_path / "templates.json")
        descriptions = InstructionTemplates.load().descriptions
        Path(value).write_text(json.dumps({"template": "{name}?", "descriptions": descriptions}))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({field: value}))
    base = ["export-instructions", "--data", str(fixture_export), *base_flags]
    outputs = []
    for extra in ([], ["--config", str(config)]):
        out = tmp_path / f"samples{len(outputs)}.tsv"
        assert main([*base, "--out", str(out), *extra]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] != outputs[1]


@pytest.mark.parametrize(
    "command, flag",
    [("ingest", "--kb")]  # ingest's --scene may be its --out: it is normalized in place
    + [
        (c, f)
        for c in ("build-seen", "build-unseen", "export", "export-instructions")
        for f in ("--scene", "--kb", "--data", "--config")
        if f in ACCEPTED_FLAGS[c]
    ],
)
def test_out_naming_an_input_is_input_error(fixture_export, tmp_path, capsys, command, flag):
    source = {
        "--scene": DATA_DIR / "fixture_scene.tsv",
        "--kb": DATA_DIR / "fixture_kb.tsv",
        "--data": fixture_export,
    }.get(flag)
    same = tmp_path / "input"
    same.write_bytes(source.read_bytes() if source else b"{}")
    before = same.read_bytes()
    argv = [command, *_valid_args(command, tmp_path, fixture_export),
            flag, str(same), "--out", str(same)]
    assert main(argv) == 1
    assert f"{flag} and --out name the same file: {same}" in capsys.readouterr().err
    assert same.read_bytes() == before


@pytest.mark.parametrize("command", ["build-seen", "build-unseen", "export"])
def test_out_naming_a_refused_config_leaves_it_unchanged(fixture_export, tmp_path, capsys,
                                                         command):
    # The build commands take no --config; a config file that --out also names
    # is refused before it is opened for writing.
    same = tmp_path / "config.json"
    same.write_text(json.dumps({"tau": 0.9}))
    before = same.read_bytes()
    argv = [command, *_valid_args(command, tmp_path, fixture_export),
            "--config", str(same), "--out", str(same)]
    assert main(argv) == 1
    assert f"unrecognized arguments: --config {same}" in capsys.readouterr().err
    assert same.read_bytes() == before
    assert list(tmp_path.iterdir()) == [same]


def test_out_naming_the_config_template_is_input_error(fixture_export, tmp_path, capsys):
    template = tmp_path / "templates.json"
    template.write_text(json.dumps(vars(InstructionTemplates.load())))
    before = _sha256(template)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"template_path": str(template)}))
    argv = ["export-instructions", "--data", str(fixture_export), "--config", str(config),
            "--out", str(template)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"the config's template_path and --out name the same file: {template}" in err
    assert _sha256(template) == before


def _readme_cli_lines() -> list[str]:
    """Each `vckb ...` line of README's CLI block, with continuations joined."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("vckb ")]


def test_readme_documents_every_command():
    assert {line.split()[1] for line in _readme_cli_lines()} == set(ACCEPTED_FLAGS)


@pytest.mark.parametrize("line", _readme_cli_lines(), ids=lambda line: line.split()[1])
def test_readme_cli_line_parses(line):
    # "[--flag VALUE]" marks an optional flag. Parsing opens no file, so the
    # README's example paths stand as they are.
    argv = shlex.split(re.sub(r"\[(--[^\[\]]*)\]", r"\1", line))[1:]
    try:
        _build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"README documents a flag that {argv[0]} does not accept: {line}")


def test_missing_file_is_input_error(tmp_path, capsys):
    assert (
        main(["ingest", "--scene", str(tmp_path / "nope.tsv")]) == 1
    )


def test_bad_category_is_input_error(fixture_paths, tmp_path, capsys):
    scene, kb = fixture_paths
    data = tmp_path / "dataset.tsv"
    main(["export", "--scene", scene, "--kb", kb, "--out", str(data)])
    capsys.readouterr()
    assert (
        main(["query", "--data", str(data), "--name", "car",
              "--category", "/Seen/Action/UsedFor"])
        == 1
    )


def test_malformed_corpus_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("O\timg1\to1\tman\t0\t0\n")
    assert main(["ingest", "--scene", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_invalid_utf8_corpus_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_bytes(b"I\timg1\nO\timg1\to1\t\xffman\t0\t0\t5\t5\n")
    assert main(["ingest", "--scene", str(bad)]) == 1
    assert ":2: not valid UTF-8" in capsys.readouterr().err


def test_invalid_utf8_config_is_input_error(fixture_export, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_bytes(b'{"sep_token": "\xff"}')
    argv = ["export-instructions", "--data", str(fixture_export),
            "--out", str(tmp_path / "x"), "--config", str(config)]
    assert main(argv) == 1
    assert "bad JSON" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("payload", ["3", "[]"], ids=["number", "list"])
def test_non_object_config_is_input_error(fixture_export, tmp_path, capsys, payload):
    config = tmp_path / "config.json"
    config.write_text(payload)
    argv = ["export-instructions", "--data", str(fixture_export),
            "--out", str(tmp_path / "x"), "--config", str(config)]
    assert main(argv) == 1
    assert "config must be a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_unknown_template_field_is_input_error(fixture_export, tmp_path, capsys):
    template = tmp_path / "templates.json"
    template.write_text(json.dumps({
        "template": "what is {bogus} about the {name}?",
        "descriptions": InstructionTemplates.load().descriptions,
    }))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"template_path": str(template)}))
    argv = ["export-instructions", "--data", str(fixture_export),
            "--out", str(tmp_path / "x"), "--config", str(config)]
    assert main(argv) == 1
    assert "unknown template fields ['bogus']" in capsys.readouterr().err


def test_line_only_the_one_pass_reader_refuses_is_internal_error(
    fixture_export, capsys, monkeypatch
):
    import vckb.dataset as dataset_module

    def refuse(fields):
        raise ValueError

    monkeypatch.setattr(dataset_module, "_read_record", refuse)
    assert main(["stats", "--data", str(fixture_export)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{fixture_export}:1: the one-pass reader refused a line the field walk accepts" in err


def test_internal_error_is_exit_2(fixture_paths, tmp_path, capsys, monkeypatch):
    import vckb.cli as cli_module

    def boom(*args, **kwargs):
        raise RuntimeError("invariant violated")

    monkeypatch.setattr(cli_module, "export_records", boom)
    scene, kb = fixture_paths
    rc = main(["export", "--scene", scene, "--kb", kb, "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "internal error" in capsys.readouterr().err


@pytest.fixture
def two_cpus(monkeypatch):
    """Let a two-worker export start a pool of two even on a one-CPU host, and
    make two the default --workers."""
    import vckb.cli as cli
    import vckb.pipeline as pipeline

    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)


def _patch_build(monkeypatch, in_child, name="build_image_record"):
    """Call in_child() before each image built outside this process, or,
    with name "_chunk_records", before each dataset range read outside it.

    Pool workers are forked, so they inherit the patched function.
    """
    import vckb.pipeline as pipeline

    parent = os.getpid()
    build = getattr(pipeline, name)

    def patched(*args, **kwargs):
        if os.getpid() != parent:
            in_child()
        return build(*args, **kwargs)

    monkeypatch.setattr(pipeline, name, patched)


def test_worker_counts_give_identical_export(fixture_paths, tmp_path, capsys, two_cpus):
    scene, kb = fixture_paths
    outputs = {}
    for workers in ("1", "2"):
        out = tmp_path / f"dataset_w{workers}.tsv"
        argv = ["export", "--scene", scene, "--kb", kb, "--out", str(out),
                "--workers", workers]
        assert main(argv) == 0
        outputs[workers] = (out.read_bytes(), capsys.readouterr().err)
    # 50 fixture images make seven chunks.
    assert outputs["1"] == outputs["2"]
    assert _sha256(tmp_path / "dataset_w2.tsv") == FIXTURE_DATASET_SHA256


def _log_child_pids(monkeypatch, log, name="build_image_record"):
    """Append to log the pid of every other process that builds an image
    (or reads a dataset range, as in `_patch_build`)."""

    def record_pid():
        with open(log, "a", encoding="ascii") as handle:
            handle.write(f"{os.getpid()}\n")

    _patch_build(monkeypatch, record_pid, name)


def test_export_builds_images_in_worker_processes(fixture_export, tmp_path, monkeypatch, two_cpus):
    log = tmp_path / "pids"
    _log_child_pids(monkeypatch, log)
    for command in ("build-seen", "build-unseen", "export"):
        argv = [command, *_valid_args(command, tmp_path, fixture_export), "--workers", "2"]
        assert main(argv) == 0
        pids = log.read_text(encoding="ascii").split()
        log.unlink()
        assert len(pids) == 50  # every fixture image, none of them in this process
        assert str(os.getpid()) not in pids


@pytest.fixture
def small_chunks(monkeypatch):
    """Cut the 50-line, 68 KB fixture export into 13 byte ranges."""
    monkeypatch.setattr(ingest, "_CHUNK_BYTES", 4096)


@pytest.mark.parametrize("workers", ["1", "2", "8", None], ids=lambda w: f"workers-{w}")
def test_export_instructions_from_data_at_every_worker_count(
    fixture_export, tmp_path, monkeypatch, two_cpus, small_chunks, workers
):
    log = tmp_path / "pids"
    _log_child_pids(monkeypatch, log, "_chunk_records")
    samples = tmp_path / "samples.tsv"
    argv = ["export-instructions", "--data", str(fixture_export), "--out", str(samples),
            "--m", "3", "--k", "2", "--j", "1", "--seed", "13"]
    if workers is not None:
        argv += ["--workers", workers]
    assert main(argv) == 0
    assert _sha256(samples) == FIXTURE_SAMPLES_SHA256
    ranges = len(ingest._line_chunks(fixture_export))
    pids = log.read_text(encoding="ascii").split() if log.exists() else []
    # The default is the CPU count, two here: every range is read in a worker.
    assert len(pids) == (0 if workers == "1" else ranges)


def test_malformed_data_line_is_input_error_at_every_worker_count(
    fixture_export, tmp_path, capsys, two_cpus, small_chunks
):
    lines = fixture_export.read_bytes().splitlines(keepends=True)
    lines[39] = lines[39].replace(b"\n", b"\textra\n")
    data = tmp_path / "dataset.tsv"
    data.write_bytes(b"".join(lines))
    assert ingest._line_chunks(data)[2][2] < 40  # line 40 lies in a later range
    results = {}
    for workers in ("1", "2"):
        out = tmp_path / f"samples_w{workers}.tsv"
        argv = ["export-instructions", "--data", str(data), "--out", str(out),
                "--m", "3", "--k", "2", "--j", "1", "--seed", "13", "--workers", workers]
        assert main(argv) == 1
        results[workers] = (capsys.readouterr().err, out.read_bytes())
    assert results["1"] == results["2"]
    err, samples = results["1"]
    assert err == f"error: {data}:40: trailing fields after record\n"
    assert samples  # the ranges before line 40's were written


@pytest.mark.parametrize("alias", ["same-path", "symlink", "dot-segment"])
def test_export_instructions_refuses_data_as_out(fixture_export, tmp_path, capsys, alias):
    data = tmp_path / "dataset.tsv"
    data.write_bytes(fixture_export.read_bytes())
    out = {
        "same-path": data,
        "symlink": tmp_path / "link.tsv",
        "dot-segment": tmp_path / "." / "dataset.tsv",
    }[alias]
    if alias == "symlink":
        out.symlink_to(data)
    argv = ["export-instructions", "--data", str(data), "--out", str(out), "--seed", "13"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "--data and --out name the same file" in err
    assert _sha256(data) == FIXTURE_DATASET_SHA256


def _raise_in_worker():
    raise RuntimeError("invariant violated in a worker")


def _kill_worker():
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("in_child", [_raise_in_worker, _kill_worker])
def test_worker_failure_is_exit_2(fixture_paths, tmp_path, capsys, monkeypatch, two_cpus, in_child):
    _patch_build(monkeypatch, in_child)
    scene, kb = fixture_paths
    argv = ["export", "--scene", scene, "--kb", kb, "--out", str(tmp_path / "x"),
            "--workers", "2"]
    assert main(argv) == 2
    assert "internal error" in capsys.readouterr().err
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", ["0", "-3", "two"])
def test_bad_worker_count_is_usage_error(fixture_paths, tmp_path, capsys, workers):
    scene, kb = fixture_paths
    argv = ["export", "--scene", scene, "--kb", kb, "--out", str(tmp_path / "x"),
            "--workers", workers]
    assert main(argv) == 1
    assert "--workers" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_cli_import_leaves_process_pools_unloaded():
    # Serial runs must not pay for importing the pool machinery.
    code = (
        "import sys, vckb.cli; "
        "print([m for m in sys.modules if m.startswith(('multiprocessing', 'concurrent'))])"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "[]"


def test_diagnostics_summary_on_stderr(fixture_paths, tmp_path, capsys):
    scene, kb = fixture_paths
    data = tmp_path / "dataset.tsv"
    assert main(["export", "--scene", scene, "--kb", kb, "--out", str(data)]) == 0
    err = capsys.readouterr().err
    payload = json.loads(err.strip().splitlines()[-1])
    assert set(payload["diagnostics"]) >= {
        "unparseable",
        "no_match",
        "ambiguous",
        "not_mapped",
    }
