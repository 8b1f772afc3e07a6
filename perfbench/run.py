#!/usr/bin/env python3
"""Benchmark for vckb: seeded inputs, the real CLI, checked outputs.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

The run generates the workload's inputs from the seed (``gen.py``), then
runs the CLI command of the workload in a fresh process per iteration
(``child.py``) for about S seconds, and checks every distinct output. With
``--trace 0`` it reports the end-to-end metrics over the iterations. With
``--trace 1`` it alternates an untraced and a traced iteration, both with
one worker, and reports the per-layer metrics.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Working files go to
``.perfbench/<workload>/`` under the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

MIN_ITERATIONS = 3
CHILD_TIMEOUT_S = 60
# An iteration during which the hypervisor ran something else on this
# machine's CPUs for more than this share of its wall time measured the
# host, not the program: it is checked and counted but left out of the
# metrics, and the run goes on until it has --seconds of undisturbed
# iterations, but starts no iteration that would end after MAX_RUN_FACTOR
# times --seconds.
STEAL_LIMIT = 0.05
MAX_RUN_FACTOR = 1.4
# Sampling flags of the instructions workload.
M, K, J, SAMPLE_SEED, SEP = 3, 5, 2, 13, "[sep]"

END_TO_END = {
    "images_per_s": "1/s",
    "triples_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics, in the order BENCHMARK.json lists them.
PER_LAYER = {
    "phrase.tokenize_and_tag.from_seen.calls": "count",
    "phrase.tokenize_and_tag.from_seen.self_s": "s",
    "phrase.tokenize_and_tag.from_unseen.calls": "count",
    "phrase.tokenize_and_tag.from_unseen.self_s": "s",
    "unseen.object_aware_sort.calls": "count",
    "unseen.object_aware_sort.self_s": "s",
    "unseen.tail_repeat_ratio": "ratio",
    "phrase.parse_region_phrase.calls": "count",
    "phrase.parse_region_phrase.self_s": "s",
    "phrase.parse_yield": "ratio",
    "seen.localize.calls": "count",
    "seen.localize.self_s": "s",
    "seen.ground_yield": "ratio",
    "geometry.overlap_ratio.calls": "count",
    "seen.map_scene_triple.calls": "count",
    "seen.map_scene_triple.self_s": "s",
    "seen.cooccurrence_triples.calls": "count",
    "seen.cooccurrence_triples.self_s": "s",
    "seen.build_seen.self_s": "s",
    "phrase.lemmatize.calls": "count",
    "phrase.lemmatize.self_s": "s",
    "unseen.retrieve_unseen.calls": "count",
    "unseen.retrieve_unseen.self_s": "s",
    "unseen.dedup_against_seen.calls": "count",
    "unseen.dedup_against_seen.self_s": "s",
    "unseen.dedup_kept_ratio": "ratio",
    "unseen.build_unseen.self_s": "s",
    "lexicon.Lexicon.default.s": "s",
    "ingest.load_scene_corpus.s": "s",
    "ingest.load_kb.s": "s",
    "ingest.kb_edges": "count",
    "pipeline.build_records.s": "s",
    "pipeline.build_image_record.calls": "count",
    "pipeline.build_image_record.p50_ms": "ms",
    "pipeline.build_image_record.tail_ms": "ms",
    "pipeline.build_image_record.tail_pct": "%",
    "dataset.group_triples.calls": "count",
    "dataset.group_triples.self_s": "s",
    "dataset.export_dataset.s": "s",
    "dataset.bytes_written": "bytes",
    "dataset.import_dataset.s": "s",
    "dataset.bytes_read": "bytes",
    "instructions.build_instruction_samples.calls": "count",
    "instructions.build_instruction_samples.self_s": "s",
    "instructions.write_instruction_samples.s": "s",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
    "input.distinct_phrase_share": "ratio",
    "input.tail_repeat_share": "ratio",
    "input.heavy_head_edge_share": "ratio",
}


class Workload:
    """Inputs, CLI command and output check of one workload."""

    def __init__(self, spec: dict, input_dir: Path, out_path: Path):
        self.spec = spec
        self.input_dir = input_dir
        self.out_path = out_path

    @property
    def builds(self) -> bool:
        return "scene" in self.spec

    @property
    def items(self) -> int:
        """Images (or dataset records) one iteration processes."""
        return len(self.spec["images"] if self.builds else self.spec["records"])

    def argv(self, workers: int) -> list[str]:
        if self.builds:
            return [
                "export",
                "--scene", str(self.input_dir / self.spec["scene"]),
                "--kb", str(self.input_dir / self.spec["kb"]),
                "--out", str(self.out_path),
                "--workers", str(workers),
            ]
        return [
            "export-instructions",
            "--data", str(self.input_dir / self.spec["data"]),
            "--out", str(self.out_path),
            "--m", str(M), "--k", str(K), "--j", str(J), "--seed", str(SAMPLE_SEED),
        ]

    def verify(self) -> tuple[list[str], dict]:
        """Problems found in the output, plus counts taken from it."""
        if self.builds:
            return _verify_build(self.out_path, self.spec["images"])
        return _verify_instructions(self.out_path, self.spec["records"])


def _verify_build(path: Path, images: list[dict]) -> tuple[list[str], dict]:
    from vckb.dataset import import_dataset

    records = import_dataset(path)
    problems = []
    if [r.image_id for r in records] != [i["image_id"] for i in images]:
        problems.append(f"image ids differ: {len(records)} records for {len(images)} images")
        return problems, {"triples": 0}
    triples = 0
    for record, image in zip(records, images):
        expected = image["objects"]
        got = [(e.obj.object_id, e.obj.name) for e in record.entries]
        if got != [(o["object_id"], o["name"]) for o in expected]:
            problems.append(f"{record.image_id}: objects {got} differ from the input")
            continue
        for entry, obj in zip(record.entries, expected):
            groups = {g.category.text: g.triples for g in entry.groups}
            triples += sum(len(t) for t in groups.values())
            # Co-occurrence law: one LocatedNear tail per other distinct name.
            near = {t.tail for t in groups.get("/Seen/Space/LocatedNear", ())}
            others = {o["name"] for o in expected} - {obj["name"]}
            if near != others:
                problems.append(f"{obj['object_id']}: LocatedNear {sorted(near)} != {sorted(others)}")
            has_unseen = any(text.startswith("/Unseen/") for text in groups)
            if has_unseen != (obj["kb_head"] is not None):
                problems.append(
                    f"{obj['object_id']} ({obj['name']!r}): unseen triples present={has_unseen},"
                    f" KB head {obj['kb_head']!r}"
                )
    return problems, {"triples": triples}


def _chosen(category: str, n: int) -> int:
    if category.startswith("/Seen/"):
        return min(M, n)
    return min(K, n) + min(J, max(n - K, 0))


def _verify_instructions(path: Path, records: list[dict]) -> tuple[list[str], dict]:
    from vckb.instructions import read_instruction_samples

    pairs = read_instruction_samples(path)
    expected = [
        (obj, category, tails)
        for record in records
        for obj in record["objects"]
        for category, tails in obj["groups"]
        if tails
    ]
    problems = []
    if len(pairs) != len(expected):
        problems.append(f"{len(pairs)} samples for {len(expected)} non-empty groups")
        return problems, {"samples": len(pairs)}
    for (instruction, target), (obj, category, tails) in zip(pairs, expected):
        where = f"{obj['object_id']} {category}"
        chosen = _chosen(category, len(tails))
        if target.count(SEP) != chosen - 1:
            problems.append(f"{where}: {target.count(SEP)} separators, expected {chosen - 1}")
            continue
        pieces = target.split(SEP)
        if any(piece not in tails for piece in pieces):
            problems.append(f"{where}: target {target!r} holds a tail not in its group")
        elif category.startswith("/Unseen/") and pieces[: min(K, len(tails))] != tails[:K]:
            problems.append(f"{where}: target {target!r} does not start with the top {K} tails")
        if obj["name"] not in instruction:
            problems.append(f"{where}: instruction {instruction!r} lacks the object name")
    return problems, {"samples": len(pairs)}


def _steal_s() -> float:
    """CPU time the hypervisor has taken from this machine; 0 where unknown."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Runner:
    """Runs iterations in fresh processes and checks each distinct output once."""

    def __init__(self, workload: Workload, work_dir: Path):
        self.workload = workload
        self.work_dir = work_dir
        self.checked: dict[str, tuple[list[str], dict]] = {}
        self.iterations: list[dict] = []

    def run(self, workers: int, traced: bool) -> dict:
        report_path = self.work_dir / "report.json"
        report_path.unlink(missing_ok=True)
        self.workload.out_path.unlink(missing_ok=True)
        command = [
            sys.executable, str(HERE / "child.py"), str(SRC), str(report_path),
            str(self.work_dir) if traced else "-", "--", *self.workload.argv(workers),
        ]
        steal, start = _steal_s(), time.perf_counter()
        try:
            proc = subprocess.run(
                command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
            )
            returncode, stderr = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired as exc:
            returncode, stderr = -1, f"timed out after {exc.timeout} s"
        elapsed = time.perf_counter() - start
        stolen = _steal_s() - steal
        result = {
            "traced": traced, "ok": False, "problems": [], "elapsed_s": elapsed,
            "disturbed": stolen > STEAL_LIMIT * elapsed,
        }
        if returncode == 0 and report_path.exists():
            result.update(json.loads(report_path.read_text(encoding="utf-8")))
        if result.get("code") != 0:
            result["problems"].append(f"command failed ({returncode}): {stderr.strip()[-2000:]}")
        elif not self.workload.out_path.exists():
            result["problems"].append("command wrote no output")
        else:
            sha = _sha256(self.workload.out_path)
            if sha not in self.checked:
                try:
                    self.checked[sha] = self.workload.verify()
                except Exception as exc:  # a malformed output is a failed check
                    self.checked[sha] = ([f"check raised {type(exc).__name__}: {exc}"], {})
            problems, counts = self.checked[sha]
            result.update(sha256=sha, problems=list(problems), **counts)
            result["ok"] = not problems
        self.iterations.append(result)
        return result

    @property
    def correct(self) -> bool:
        good = [it for it in self.iterations if it["ok"]]
        return len(good) == len(self.iterations) and len({it["sha256"] for it in good}) == 1

    def problems(self) -> list[str]:
        found = [p for it in self.iterations for p in it["problems"]]
        if len({it.get("sha256") for it in self.iterations if it["ok"]}) > 1:
            found.append("outputs differ between iterations of the same inputs")
        return found


def _measured(iterations: list[dict]) -> list[dict]:
    """Iterations the metrics use: the undisturbed ones, if there are any."""
    timed = [it for it in iterations if "wall_s" in it]
    return [it for it in timed if not it["disturbed"]] or timed


def _end_to_end(runner: Runner, workload: Workload) -> tuple[dict, dict]:
    """End-to-end metrics over the run's measured iterations, plus extras.

    Rates are work done over busy time (wall minus set-up) summed across the
    iterations; set-up time and peak RSS are medians.
    """
    measured = _measured(runner.iterations)
    if not measured:
        return {name: 0.0 for name in END_TO_END}, {}
    busy = sum(it["wall_s"] - it["setup_s"] for it in measured)
    if workload.builds:
        triples = sum(it.get("triples", 0) for it in measured)
    else:
        triples = workload.spec["triples"] * len(measured)
    metrics = {
        "images_per_s": workload.items * len(measured) / busy,
        "triples_per_s": triples / busy,
        "setup_s": statistics.median(it["setup_s"] for it in measured),
        "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in measured),
    }
    extras = {}
    if not workload.builds:
        extras["samples_per_s"] = sum(it.get("samples", 0) for it in measured) / busy
    return metrics, extras


def _per_layer(runner: Runner, properties: dict) -> dict[str, float]:
    traced = [it for it in runner.iterations if it["traced"] and "layers" in it]
    untraced = [it for it in runner.iterations if not it["traced"] and "wall_s" in it]
    out = {}
    for name in PER_LAYER:
        values = [it["layers"].get(name, 0.0) for it in traced]
        out[name] = statistics.median(values) if values else 0.0
    if traced and untraced:
        out["trace.traced_wall_s"] = statistics.median(it["wall_s"] for it in traced)
        out["trace.untraced_wall_s"] = statistics.median(it["wall_s"] for it in untraced)
        pairs = zip(traced, untraced)
        out["trace.overhead_s"] = statistics.median(t["wall_s"] - u["wall_s"] for t, u in pairs)
    for key, value in properties.items():
        out[f"input.{key}"] = value
    return out


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> None:
    """Run one workload and print its report, ending with the JSON result line."""
    work_dir = ROOT / ".perfbench" / name
    shutil.rmtree(work_dir, ignore_errors=True)
    input_dir = work_dir / "input"
    input_dir.mkdir(parents=True)
    started = time.perf_counter()
    spec = gen.GENERATORS[name](seed, input_dir)
    generated = time.perf_counter() - started
    workload = Workload(spec, input_dir, work_dir / "output.tsv")
    runner = Runner(workload, work_dir)

    started = time.perf_counter()
    while True:
        if trace:
            runner.run(workers=1, traced=False)
            runner.run(workers=1, traced=True)
            if time.perf_counter() - started >= seconds:
                break
            continue
        runner.run(workers=2, traced=False)
        undisturbed = [it["elapsed_s"] for it in runner.iterations if not it["disturbed"]]
        if len(undisturbed) >= MIN_ITERATIONS and sum(undisturbed) >= seconds:
            break
        typical = statistics.median(it["elapsed_s"] for it in runner.iterations)
        late = time.perf_counter() - started + typical > MAX_RUN_FACTOR * seconds
        if late and len(runner.iterations) >= MIN_ITERATIONS:
            break
    measured = time.perf_counter() - started
    disturbed = sum(it["disturbed"] for it in runner.iterations)

    extras = {}
    if trace:
        metrics, units = _per_layer(runner, spec["properties"]), PER_LAYER
    else:
        (metrics, extras), units = _end_to_end(runner, workload), END_TO_END
    attempted = workload.items * len(runner.iterations)
    failed = workload.items * sum(not it["ok"] for it in runner.iterations)

    print(f"workload {name}  seed {seed}  trace {int(trace)}")
    print(
        f"inputs generated in {generated:.2f} s; {len(runner.iterations)} iterations"
        f" in {measured:.2f} s, {disturbed} disturbed by CPU steal"
    )
    for key, value in spec["properties"].items():
        print(f"input {key} {value:.4f}")
    for sha in sorted({it["sha256"] for it in runner.iterations if "sha256" in it}):
        print(f"output sha256 {sha}")
    for key, value in extras.items():
        print(f"{key} {value:.6g} 1/s")
    print(f"failed_ratio {failed / attempted:.4f} ({failed} of {attempted} inputs)")
    for problem in runner.problems()[:20]:
        print(f"problem: {problem}")
    for key, value in metrics.items():
        print(f"{key} {value:.6g} {units[key]}")
    result = {
        "correct": runner.correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[*gen.GENERATORS, "all"],
        help="one workload, or all of them in turn (one report each)",
    )
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "vckb" / "cli.py").is_file():
        print(f"error: no vckb sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    # Compile the package's bytecode once so no iteration pays for it.
    subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import vckb.cli",
         str(SRC)],
        check=False, capture_output=True, timeout=CHILD_TIMEOUT_S,
    )
    names = list(gen.GENERATORS) if args.workload == "all" else [args.workload]
    for name in names:
        run_workload(name, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
