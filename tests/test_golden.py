"""Golden digests: every subcommand, run in-process on fixed inputs, writes
the bytes recorded in tests/golden.json.

For each argv in ARGVS the manifest holds the exit code and the sha256 of
stdout and of every file the call wrote or changed. Stderr is not hashed,
because its log lines name temporary paths. `stats` and `compare` print numpy
floats, so the manifest also records the numpy version it was made with. Each
subcommand's `--help` is hashed too, at COLUMNS=80 because argparse wraps help
to the terminal width; its layout varies between Python versions, so the
manifest records the Python minor version as well.

A change that alters an output on purpose rewrites the manifest, and says
which digest moved and why:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import importlib.metadata
import importlib.util
import io
import json
import os
import random
import shutil
import sys
import tempfile
from pathlib import Path

import deidkit
from deidkit.annot_io import write_corpus
from deidkit.cli import build_parser, main
from deidkit.core import CANONICAL_SCHEMA, Corpus

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "golden.json"
MOCK = f"{sys.executable} -m deidkit.mock_backend"
# the mock runs in the work directory, so it finds deidkit by an absolute path
MOCK_PATH = os.pathsep.join(filter(None, [str(Path(deidkit.__file__).parents[1]),
                                          os.environ.get("PYTHONPATH")]))
REWRITE = "PYTHONPATH=src python tests/test_golden.py"
PYTHON = "{}.{}".format(*sys.version_info)

# run in this order in one directory: later calls read what earlier ones wrote
ARGVS = [
    ["convert", "--in", "gold.jsonl", "--out", "gold.conll"],
    ["convert", "--in", "gold.jsonl", "--out", "xml"],
    ["convert", "--in", "xml", "--out", "from_xml.jsonl", "--schema", "infer"],
    ["map-tags", "--in", "gold.jsonl", "--out", "mapped.jsonl", "--audit", "audit.json"],
    ["map-tags", "--in", "gold.jsonl", "--out", "commercial.jsonl", "--commercial"],
    ["map-tags", "--in", "gold.jsonl", "--out", "coarse.jsonl", "--map", "coarse_map.json",
     "--audit", "coarse_audit.json"],
    ["deidentify", "--in", "gold.jsonl", "--out", "scrubbed.jsonl", "--seed", "11",
     "--date-offset", "9", "--time-offset", "30"],
    ["deidentify", "--in", "gold.jsonl", "--out", "redacted.jsonl", "--mode", "redact"],
    ["deidentify", "--in", "gold.jsonl", "--out", "jittered.jsonl", "--config", "config.json"],
    # every date layout, shifted forwards and backwards past year and month ends
    ["deidentify", "--in", "dates.jsonl", "--out", "dates_later.jsonl",
     "--date-offset", "400", "--time-offset", "1441"],
    ["deidentify", "--in", "dates.jsonl", "--out", "dates_earlier.jsonl",
     "--date-offset", "-400", "--time-offset", "-61"],
    ["recognize", "--in", "gold.jsonl", "--out", "pred_rules.jsonl",
     "--report", "rules_report.json"],
    ["recognize", "--in", "gold.jsonl", "--out", "pred_mock.jsonl",
     "--backend", "{mock} --gold gold.jsonl --script faults.json",
     "--report", "mock_report.json"],
    ["evaluate", "--gold", "gold.jsonl", "--pred", "pred_rules.jsonl", "--out", "token.json"],
    ["evaluate", "--gold", "gold.jsonl", "--pred", "pred_rules.jsonl",
     "--mode", "entity_strict", "--out", "strict.json"],
    ["kappa", "--a", "labels_a.txt", "--b", "labels_b.txt", "--out", "kappa.json"],
    ["stats", "--in", "gold.jsonl", "--out", "stats.json"],
    ["stats", "--in", "scrubbed.jsonl"],
    ["ngrams", "--in", "gold.jsonl", "--n", "2", "--k", "15", "--stoplist", "stoplist.txt"],
    ["ngrams", "--in", "gold.jsonl", "--n", "1", "--scope", "phi_adjacent", "--window", "2",
     "--out", "ngrams.csv"],
    ["ngrams", "--in", "gold.jsonl", "--n", "1", "--k", "-1"],
    ["ngrams", "--in", "gold.jsonl", "--n", "1", "--scope", "phi_adjacent", "--window", "-2"],
    ["compare", "--a", "gold.jsonl", "--b", "scrubbed.jsonl", "--bertscore",
     "--out", "compare.json"],
    ["weights", "--in", "gold.jsonl", "--out", "weights.json"],
    ["split", "--in", "gold.jsonl", "--out-dir", "split", "--ratios", "40,10,10",
     "--seed", "3"],
    ["split", "--in", "gold.jsonl", "--out-dir", "split_frac", "--ratios", "0.5,0.3,0.2"],
    ["generate", "--template", "A", "--exemplars", "split/val.jsonl", "--backend",
     "{mock} --script faults.json", "--fanout", "2", "--out-dir", "gen"],
    ["filter", "--raw", "gen", "--out-dir", "filtered", "--min-annotations", "3"],
    ["run-matrix", "matrix.json"],
    ["run-matrix", "matrix_mock.json"],
]
ARGVS += [[name, "--help"] for name in dict.fromkeys(argv[0] for argv in ARGVS)]


def _load_synth_doc():
    path = HERE.parent / "scripts" / "make_demo_corpus.py"
    spec = importlib.util.spec_from_file_location("make_demo_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.synth_doc


def write_inputs(workdir: Path) -> None:
    """The files the argvs read: a seeded 60-note demo corpus and small
    settings, label and date files."""
    synth_doc, rng = _load_synth_doc(), random.Random(20)
    gold = Corpus(documents=tuple(synth_doc(rng, f"demo-{i:03d}") for i in range(60)),
                  schema=CANONICAL_SCHEMA)
    write_corpus(gold, workdir / "gold.jsonl")
    shutil.copyfile(HERE / "golden_dates.jsonl", workdir / "dates.jsonl")
    labels = rng.choices(CANONICAL_SCHEMA.tags, k=300)
    (workdir / "labels_a.txt").write_text(" ".join(labels) + "\n")
    labels[::7] = rng.choices(CANONICAL_SCHEMA.tags, k=len(labels[::7]))
    (workdir / "labels_b.txt").write_text("\n".join(labels) + "\n")
    (workdir / "stoplist.txt").write_text("was\non\nby\nthe\n")
    settings = {
        "faults.json": {"demo-001": "token_form", "demo-002": "error",
                        "demo-003": "overlap", "demo-004": "oversize",
                        "demo-000:0": "no_envelope", "demo-000:1": "malformed",
                        "demo-012:0": "short", "demo-012:1": "error"},
        "config.json": {"surrogate": {"seed": 5, "age_policy": "jitter",
                                      "age_jitter_years": 3}},
        "coarse_map.json": {"rows": {"NAME": ["PATIENT", "DOCTOR"], "PLACE": ["HOSPITAL"],
                                     "WHEN": ["DATE"], "OTHERS": []}, "name": "coarse"},
        "matrix.json": {"train_sets": {"train": "split/train.jsonl",
                                       "both": ["split/train.jsonl", "split/val.jsonl"]},
                        "test_sets": {"test": "split/test.jsonl", "conll": "gold.conll"},
                        "mode": "entity_strict", "out_dir": "matrix"},
        "matrix_mock.json": {"train_sets": {"train": "split/train.jsonl"},
                             "test_sets": {"all": "gold.jsonl"}, "out_dir": "matrix_mock",
                             "backend": f"{MOCK} --gold gold.jsonl --script faults.json"},
    }
    for name, value in settings.items():
        (workdir / name).write_text(json.dumps(value))


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digests(workdir: Path) -> dict:
    return {path.relative_to(workdir).as_posix(): _digest(path.read_bytes())
            for path in sorted(workdir.rglob("*")) if path.is_file()}


def run_all(workdir: Path, argvs=ARGVS) -> list:
    """One record per argv, run in order with `workdir` as the current directory."""
    write_inputs(workdir)
    records = []
    before = _file_digests(workdir)
    for argv in argvs:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main([arg.replace("{mock}", MOCK) for arg in argv])
        after = _file_digests(workdir)
        records.append({
            "argv": argv, "exit": code,
            "stdout": _digest(stdout.getvalue().encode("utf-8")),
            "files": {path: d for path, d in after.items() if before.get(path) != d},
        })
        before = after
    return records


def _mismatches(expected: dict, got: dict) -> list:
    where = f"argv {expected['argv']}"
    problems = [f"{where}: {key} {got[key]} != recorded {expected[key]}"
                for key in ("exit", "stdout") if got[key] != expected[key]]
    for path in sorted(expected["files"].keys() | got["files"].keys()):
        old, new = expected["files"].get(path), got["files"].get(path)
        if old != new:
            problems.append(f"{where}: file {path}: sha256 {new} != recorded {old}")
    return problems


def _versions() -> dict:
    return {"numpy": importlib.metadata.version("numpy"), "python": PYTHON}


def test_outputs_match_golden_digests(tmp_path, monkeypatch):
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    for name, version in _versions().items():
        assert manifest[name] == version, (
            f"{MANIFEST.name} was recorded with {name} {manifest[name]}, this is {name} "
            f"{version}: stats and compare print numpy floats and help layout varies with "
            f"Python, so rewrite it with `{REWRITE}`")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setenv("PYTHONPATH", MOCK_PATH)
    monkeypatch.delenv("DEIDKIT_BACKEND", raising=False)
    recorded = {json.dumps(r["argv"]): r for r in manifest["runs"]}
    problems = []
    for got in run_all(tmp_path):
        expected = recorded.pop(json.dumps(got["argv"]), None)
        if expected is None:
            problems.append(f"argv {got['argv']}: no digests recorded")
        else:
            problems += _mismatches(expected, got)
    problems += [f"argv {argv}: recorded but no longer run" for argv in recorded]
    assert not problems, "\n".join(problems + [f"(an intended change: `{REWRITE}`)"])


def test_golden_argvs_run_every_subcommand():
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    parser = build_parser()
    (subcommands,) = (a.choices for a in parser._actions if a.dest == "command")
    assert {run["argv"][0] for run in manifest["runs"]} == set(subcommands)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        os.environ.update(PYTHONPATH=MOCK_PATH, COLUMNS="80")
        os.environ.pop("DEIDKIT_BACKEND", None)
        runs = run_all(Path(tmp))
    MANIFEST.write_text(json.dumps({**_versions(), "runs": runs}, indent=1, sort_keys=True)
                        + "\n", encoding="utf-8")
    print(f"wrote {len(runs)} runs to {MANIFEST}")
