import dataclasses
import json
import sys

import pytest

from deidkit import recognize
from deidkit.annot_io import as_corpus, read_corpus, read_jsonl, write_corpus, write_jsonl
from deidkit.cli import ConfigError, PipelineConfig, main
from deidkit.core import CANONICAL_SCHEMA, Corpus, Document, EntitySpan


@pytest.fixture()
def corpus_path(tmp_path, sample_corpus):
    path = tmp_path / "corpus.jsonl"
    write_corpus(sample_corpus, path)
    return path


def run(*argv):
    return main([str(a) for a in argv])


def test_convert_jsonl_to_conll_and_back(tmp_path, corpus_path):
    conll = tmp_path / "c.conll"
    assert run("convert", "--in", corpus_path, "--out", conll) == 0
    back = tmp_path / "back.jsonl"
    assert run("convert", "--in", conll, "--out", back) == 0
    assert len(read_corpus(back)) == 2


def test_convert_missing_input_is_io_error(tmp_path):
    assert run("convert", "--in", tmp_path / "none.jsonl",
               "--out", tmp_path / "o.jsonl") == 2


def test_bad_flags_exit_one(capsys):
    assert run("convert", "--in-only-half") == 1
    assert run("not-a-command") == 1


def test_map_tags_with_audit(tmp_path):
    doc = Document(id="d", text="a b",
                   entities=(EntitySpan(0, 1, "Patient_Name", "a"),
                             EntitySpan(2, 3, "Blood_Group", "b")))
    src = tmp_path / "raw.jsonl"
    src.write_text(json.dumps({
        "id": "d", "text": "a b",
        "entities": [{"start": 0, "end": 1, "tag": "Patient_Name"},
                     {"start": 2, "end": 3, "tag": "Blood_Group"}],
    }) + "\n")
    out, audit = tmp_path / "mapped.jsonl", tmp_path / "audit.json"
    assert run("map-tags", "--in", src, "--out", out, "--audit", audit) == 0
    mapped = read_corpus(out)
    assert [e.tag for e in mapped.get("d").entities] == ["PATIENT", "OTHERS"]
    report = json.loads(audit.read_text())
    assert report["total"] == 2
    assert report["unmapped"] == {"Blood_Group": 1}


SOURCE_TAGS = {"PATIENT": "Patient_Name", "AGE": "Age", "DATE": "Treatment_Date",
               "HOSPITAL": "Hospital_Name", "ID": "Patient_ID", "CONTACT": "Phone_No",
               "DOCTOR": "Doctor_Name", "LOCATION": "Native_Place"}


def _tree_bytes(path):
    if path.is_dir():
        return {p.name: p.read_bytes() for p in sorted(path.iterdir())}
    return path.read_bytes()


def test_schema_infer_reads_back_source_tags_in_every_format(tmp_path, sample_corpus):
    # source tags survive convert --schema infer into XML and CoNLL, and
    # map-tags then reads each of those as it reads the JSONL
    def relabel(doc):
        return dataclasses.replace(doc, entities=tuple(
            dataclasses.replace(e, tag=SOURCE_TAGS[e.tag]) for e in doc.entities))

    for docs, name in ((sample_corpus.documents, "records"),
                       (sample_corpus.documents[:1], "one.xml"),
                       (sample_corpus.documents, "c.conll")):
        src = tmp_path / f"src-{name}.jsonl"
        src.write_text(write_jsonl(as_corpus([relabel(d) for d in docs], None)))
        converted = tmp_path / name
        assert run("convert", "--schema", "infer", "--in", src, "--out", converted) == 0
        want, got = tmp_path / f"want-{name}", tmp_path / f"got-{name}"
        assert run("map-tags", "--in", src, "--out", want) == 0
        assert run("map-tags", "--in", converted, "--out", got) == 0
        assert _tree_bytes(got) == _tree_bytes(want)
    stats = tmp_path / "stats.json"
    assert run("stats", "--in", tmp_path / "records", "--out", stats) == 0
    assert json.loads(stats.read_text())["tag_distribution"]["Patient_Name"]["entities"] == 1


def test_map_tags_rejects_misspelt_map_key(tmp_path, corpus_path, caplog):
    bad = tmp_path / "map.json"
    bad.write_text(json.dumps({"rows": {"DATE": ["Visit_Date"]}, "defualt": "DATE"}))
    assert run("map-tags", "--in", corpus_path, "--out", tmp_path / "o.jsonl",
               "--map", bad) == 1
    assert "'defualt'" in caplog.text


def test_map_tags_commercial(tmp_path, corpus_path):
    out = tmp_path / "six.jsonl"
    assert run("map-tags", "--in", corpus_path, "--out", out, "--commercial") == 0
    mapped = read_corpus(out, schema=None)
    tags = {e.tag for d in mapped for e in d.entities}
    assert "PATIENT" not in tags and "DOCTOR" not in tags
    assert "NAME" in tags
    # title stripped from the mapped doctor span
    surfaces = {e.surface for d in mapped for e in d.entities if e.tag == "NAME"}
    assert "Verma" in surfaces


def test_deidentify_deterministic(tmp_path, corpus_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (a, b):
        assert run("deidentify", "--in", corpus_path, "--out", out,
                   "--mode", "surrogate", "--seed", 5, "--date-offset", 3) == 0
    assert a.read_bytes() == b.read_bytes()
    scrubbed = read_corpus(a)
    assert "Asha" not in scrubbed.get("d1").text


def test_deidentify_redact(tmp_path, corpus_path):
    out = tmp_path / "red.jsonl"
    assert run("deidentify", "--in", corpus_path, "--out", out,
               "--mode", "redact") == 0
    assert "[PATIENT]" in read_corpus(out).get("d1").text


def test_recognize_rules_then_evaluate(tmp_path, corpus_path):
    pred = tmp_path / "pred.jsonl"
    assert run("recognize", "--in", corpus_path, "--out", pred,
               "--backend", "rules") == 0
    docs = read_corpus(pred)
    assert len(docs) == 2
    assert docs.get("d1").meta["backend"] == "rules"
    metrics = tmp_path / "metrics.json"
    assert run("evaluate", "--gold", corpus_path, "--pred", pred,
               "--out", metrics) == 0
    payload = json.loads(metrics.read_text())
    assert "micro" in payload["metrics"]
    assert payload["confusion"]["labels"][-1] == "OTHERS"


def test_recognize_env_override(tmp_path, corpus_path, mock_cmd, monkeypatch):
    gold = tmp_path / "gold.jsonl"
    gold.write_text(write_jsonl(read_corpus(corpus_path)))
    monkeypatch.setenv("DEIDKIT_BACKEND", f"{mock_cmd} --gold {gold}")
    pred = tmp_path / "pred.jsonl"
    assert run("recognize", "--in", corpus_path, "--out", pred) == 0
    docs = read_corpus(pred)
    assert docs.get("d1").entities == read_corpus(corpus_path).get("d1").entities
    assert docs.get("d1").meta["backend"] == "external"
    assert str(tmp_path) not in pred.read_text()


def test_recognize_dead_backend_excludes_all(tmp_path, corpus_path):
    pred, report = tmp_path / "pred.jsonl", tmp_path / "report.json"
    assert run("recognize", "--in", corpus_path, "--out", pred,
               "--backend", f"{sys.executable} -c pass", "--timeout-ms", 5000,
               "--report", report) == 0
    payload = json.loads(report.read_text())
    assert payload["predicted"] == 0
    assert [doc_id for doc_id, _ in payload["excluded"]] == ["d1", "d2"]
    assert all(r.startswith("ProtocolViolation") for _, r in payload["excluded"])


def test_kappa_command(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("x\nx\ny\ny\n")
    b.write_text("x\ny\nx\ny\n")
    out = tmp_path / "k.json"
    assert run("kappa", "--a", a, "--b", b, "--out", out) == 0
    assert json.loads(out.read_text())["kappa"] == pytest.approx(0.0, abs=1e-12)


def test_stats_command(tmp_path, corpus_path):
    out = tmp_path / "stats.json"
    assert run("stats", "--in", corpus_path, "--out", out) == 0
    payload = json.loads(out.read_text())
    assert payload["summary"]["n_summaries"] == 2
    assert payload["tag_distribution"]["DATE"]["entities"] == 2


def test_ngrams_csv(tmp_path):
    src = tmp_path / "c.jsonl"
    doc = {"id": "d", "text": "mg po mg po", "entities": []}
    src.write_text(json.dumps(doc) + "\n")
    out = tmp_path / "grams.csv"
    assert run("ngrams", "--in", src, "--n", 2, "--k", 3, "--out", out) == 0
    assert out.read_text() == "ngram,count\nmg po,2\npo mg,1\n"


def test_compare_command(tmp_path, corpus_path):
    out = tmp_path / "cmp.json"
    assert run("compare", "--a", corpus_path, "--b", corpus_path,
               "--bertscore", "--out", out) == 0
    payload = json.loads(out.read_text())
    assert payload["jaccard_distance"] == 0.0
    assert payload["bertscore"]["bert_f1_mean"] == pytest.approx(1.0, abs=1e-12)


def test_weights_command(tmp_path, corpus_path):
    out = tmp_path / "w.json"
    assert run("weights", "--in", corpus_path, "--out", out) == 0
    payload = json.loads(out.read_text())
    assert set(payload["per_tag"]) == set(CANONICAL_SCHEMA.tags)
    assert all(v["w_t"] >= 0 for v in payload["per_tag"].values())


def test_split_command(tmp_path):
    docs = [{"id": f"d{i}", "text": f"note {i}", "entities": []} for i in range(10)]
    src = tmp_path / "all.jsonl"
    src.write_text("".join(json.dumps(d) + "\n" for d in docs))
    out_dir = tmp_path / "splits"
    assert run("split", "--in", src, "--out-dir", out_dir,
               "--ratios", "6,2,2", "--seed", 3) == 0
    sizes = {name: len(read_corpus(out_dir / f"{name}.jsonl"))
             for name in ("train", "val", "test")}
    assert sizes == {"train": 6, "val": 2, "test": 2}
    assert read_corpus(out_dir / "val.jsonl").documents[0].meta["split"] == "val"


def test_generate_and_filter_commands(tmp_path, corpus_path, mock_cmd, capsys):
    out_dir = tmp_path / "gen"
    assert run("generate", "--template", "A", "--exemplars", corpus_path,
               "--backend", mock_cmd, "--fanout", 2, "--out-dir", out_dir) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["scheduled"] == 4
    assert summary["accepted"] == 4
    refiltered = tmp_path / "refiltered"
    assert run("filter", "--raw", out_dir, "--out-dir", refiltered) == 0
    assert len(read_jsonl((refiltered / "accepted.jsonl").read_text())) == 4


def test_generate_requires_external_backend(tmp_path, corpus_path):
    assert run("generate", "--template", "A", "--exemplars", corpus_path,
               "--backend", "rules", "--out-dir", tmp_path / "g") == 1


def test_run_matrix_reports_byte_identical(tmp_path, corpus_path):
    matrix = {
        "train_sets": {"real": [str(corpus_path)]},
        "test_sets": {"dev": str(corpus_path), "holdout": str(corpus_path)},
        "mode": "token", "out_dir": str(tmp_path / "mx"),
    }
    matrix_path = tmp_path / "matrix.json"
    matrix_path.write_text(json.dumps(matrix))
    assert run("run-matrix", matrix_path) == 0
    reports_dir = tmp_path / "mx" / "reports"
    names = sorted(p.name for p in reports_dir.iterdir())
    assert names == ["real__dev.json", "real__holdout.json"]
    first = {p.name: p.read_bytes() for p in reports_dir.iterdir()}
    assert run("run-matrix", matrix_path) == 0
    again = {p.name: p.read_bytes() for p in reports_dir.iterdir()}
    assert first == again
    assert (tmp_path / "mx" / "train" / "real.conll").exists()
    assert (tmp_path / "mx" / "train" / "real.weights.json").exists()


def test_run_matrix_recognizes_each_test_set_once(tmp_path, corpus_path, monkeypatch):
    calls = []
    real = recognize.recognize_corpus
    monkeypatch.setattr(recognize, "recognize_corpus",
                        lambda *a, **kw: calls.append(a[0]) or real(*a, **kw))
    matrix = {
        "train_sets": {"a": [str(corpus_path)], "b": [str(corpus_path)]},
        "test_sets": {"dev": str(corpus_path), "holdout": str(corpus_path)},
        "out_dir": str(tmp_path / "mx"),
    }
    matrix_path = tmp_path / "matrix.json"
    matrix_path.write_text(json.dumps(matrix))
    assert run("run-matrix", matrix_path) == 0
    assert len(calls) == 2
    assert len(list((tmp_path / "mx" / "reports").iterdir())) == 4


def test_run_matrix_report_names_backend_kind_not_endpoint(tmp_path, corpus_path, mock_cmd):
    gold = tmp_path / "gold.jsonl"
    gold.write_text(write_jsonl(read_corpus(corpus_path)))
    matrix_path = tmp_path / "matrix.json"
    matrix_path.write_text(json.dumps({
        "train_sets": {"a": [str(corpus_path)]}, "test_sets": {"dev": str(corpus_path)},
        "backend": f"{mock_cmd} --gold {gold}", "out_dir": str(tmp_path / "mx"),
    }))
    assert run("run-matrix", matrix_path) == 0
    report = (tmp_path / "mx" / "reports" / "a__dev.json").read_text()
    assert json.loads(report)["backend"] == "external"
    assert json.loads(report)["metrics"]["micro"]["f1"] == 1.0
    assert str(tmp_path) not in report


def test_run_matrix_rejects_unknown_keys(tmp_path, corpus_path):
    matrix_path = tmp_path / "matrix.json"
    matrix_path.write_text(json.dumps({
        "train_sets": {}, "test_sets": {}, "gpu": True,
    }))
    assert run("run-matrix", matrix_path) == 1


def test_run_matrix_rejects_seed(tmp_path, caplog):
    # nothing in a matrix run takes a seed, so the key is not accepted
    matrix_path = tmp_path / "matrix.json"
    matrix_path.write_text(json.dumps({"train_sets": {}, "test_sets": {}, "seed": 0}))
    assert run("run-matrix", matrix_path) == 1
    assert "'seed'" in caplog.text


def test_run_matrix_unions_conll_files(tmp_path, corpus_path):
    # read_conll numbers documents doc-0, doc-1, ... in every file
    a, b = tmp_path / "a.conll", tmp_path / "b.conll"
    for path in (a, b):
        assert run("convert", "--in", corpus_path, "--out", path) == 0
    matrix_path = tmp_path / "matrix.json"
    matrix_path.write_text(json.dumps({
        "train_sets": {"ab": [str(a), str(b)]},
        "test_sets": {"ab": [str(a), str(b)]},
        "out_dir": str(tmp_path / "mx"),
    }))
    assert run("run-matrix", matrix_path) == 0
    train = tmp_path / "mx" / "train" / "ab.conll"
    assert train.read_text() == a.read_text() + "\n" + b.read_text()
    report = json.loads((tmp_path / "mx" / "reports" / "ab__ab.json").read_text())
    assert "seed" not in report


def test_pipeline_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"concurrency": 1, "typo_key": 2}))
    with pytest.raises(ConfigError):
        PipelineConfig.load(path)
    for dead in ("seed", "mode", "out_dir"):
        path.write_text(json.dumps({dead: 4}))
        with pytest.raises(ConfigError, match=dead):
            PipelineConfig.load(path)
    path.write_text(json.dumps({"surrogate": {"seed": 3, "bogus": 1}}))
    with pytest.raises(ConfigError):
        PipelineConfig.load(path)
    path.write_text(json.dumps({"concurrency": 2, "surrogate": {"date_offset_days": 2}}))
    cfg = PipelineConfig.load(path)
    assert cfg.concurrency == 2 and cfg.surrogate == {"date_offset_days": 2}


def test_deidentify_config_rejects_top_level_seed(tmp_path, corpus_path, caplog):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7}))
    assert run("deidentify", "--in", corpus_path, "--out", tmp_path / "o.jsonl",
               "--config", cfg) == 1
    assert "'seed'" in caplog.text


def test_config_feeds_deidentify(tmp_path, corpus_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"surrogate": {"seed": 9, "date_offset_days": 4}}))
    a = tmp_path / "a.jsonl"
    assert run("deidentify", "--in", corpus_path, "--out", a, "--config", cfg) == 0
    b = tmp_path / "b.jsonl"
    assert run("deidentify", "--in", corpus_path, "--out", b,
               "--seed", 9, "--date-offset", 4) == 0
    assert a.read_bytes() == b.read_bytes()


def test_console_entry_point():
    import subprocess

    proc = subprocess.run([sys.executable, "-m", "deidkit.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "run-matrix" in proc.stdout
