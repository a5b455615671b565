import contextlib
import dataclasses
import io
import json
import os
import sys
import threading
from pathlib import Path
from typing import Optional, get_type_hints

import pytest
from hypothesis import given, settings, strategies as st

from deidkit import cli, recognize
from deidkit.annot_io import (
    BadRecordLine, FilterPolicy, as_corpus, read_corpus, read_jsonl, write_conll, write_corpus,
    write_inline_xml, write_jsonl,
)
from deidkit.cli import MATRIX_FIELDS, ConfigError, PipelineConfig, main
from deidkit.core import CANONICAL_SCHEMA, Corpus, Document, EntitySpan, read_fields
from deidkit.surrogate import SurrogateConfig
from deidkit.syngen import load_template
from deidkit.tagmap import FLAT_MAP, ROWS_MAP


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


def test_convert_conll_entity_edges_on_whitespace(tmp_path, caplog):
    def convert(text, start, end, out):
        src = tmp_path / "in.jsonl"
        write_corpus(Corpus(documents=(
            Document(id="d", text=text, entities=(EntitySpan(start, end, "PATIENT",
                                                             text[start:end]),)),)), src)
        return run("convert", "--in", src, "--out", out)

    # an entity that starts on whitespace begins on its first token, and reads back
    conll = tmp_path / "lead.conll"
    assert convert("Name:  Asha Rao today", 5, 15, conll) == 0
    assert "Asha\tB-PATIENT\nRao\tI-PATIENT\n" in conll.read_text()
    assert run("convert", "--in", conll, "--out", tmp_path / "back.jsonl") == 0
    assert [e.surface for e in read_corpus(tmp_path / "back.jsonl").documents[0].entities] \
        == ["Asha Rao"]
    # one that covers whitespace only is refused, not dropped
    assert convert("Name: Asha  Rao", 10, 12, tmp_path / "gap.conll") == 1
    assert "doc 'd': entity [10,12) covers no token" in caplog.text
    assert not (tmp_path / "gap.conll").exists()


def test_convert_missing_input_is_io_error(tmp_path):
    assert run("convert", "--in", tmp_path / "none.jsonl",
               "--out", tmp_path / "o.jsonl") == 2


def test_convert_directory_without_xml_exits_one(tmp_path, corpus_path):
    src = tmp_path / "demo"
    src.mkdir()
    (src / "gold.jsonl").write_text(corpus_path.read_text())
    out = tmp_path / "x.jsonl"
    assert run("convert", "--in", src, "--out", out) == 1
    assert not out.exists()


@pytest.mark.parametrize("bad", ["../escape", "a/b", "a\x00b"])
def test_convert_to_xml_dir_refuses_ids_outside_it(tmp_path, caplog, bad):
    # "." and ".." gain ".xml" and stay inside the directory
    docs = [Document(id=i, text="note") for i in ("fine", ".", "..", bad)]
    src = tmp_path / "in.jsonl"
    write_corpus(Corpus(documents=tuple(docs)), src)
    out = tmp_path / "xml"
    assert run("convert", "--in", src, "--out", out) == 1
    assert f"[{bad!r}]" in caplog.text
    assert not out.exists()
    assert not (tmp_path / "escape.xml").exists()


@pytest.mark.parametrize("line", [
    "5", "null", '"note"', '["a", "b"]', '{"id": "a", "text": 12}', '{"id": 7, "text": "x"}',
    '{"id": "a", "text": "abc", "entities": [{"start": 0, "end": 1, "tag": 5}]}',
    '{"id": "a", "text": "abc", "meta": [["k", 1]]}', '{"id": "a", "text": "abc", "meta": null}',
    '{"id": "a", "text": "abc", "entities": [{"start": true, "end": 3, "tag": "ID"}]}',
    '{"id": "a", "text": "abc", "entities": [{"start": 0, "end": true, "tag": "ID"}]}',
])
def test_malformed_jsonl_record_is_a_bad_line(tmp_path, line):
    raw = '{"id": "ok", "text": "fine"}\n' + line + "\n"
    with pytest.raises(BadRecordLine, match="line 2"):
        read_jsonl(raw)
    src = tmp_path / "bad.jsonl"
    src.write_text(raw)
    out = tmp_path / "o.jsonl"
    assert run("convert", "--in", src, "--out", out) == 1
    assert not out.exists()


@pytest.mark.parametrize("record,field", [
    ({"id": "a", "text": "abc", "entities": [{"start": 0, "end": 1, "tag": "X\ud800"}]},
     "entity tag"),
    ({"id": "a", "text": "abc", "meta": {"k": "\ud800"}}, "field 'meta'"),
    ({"id": "a", "text": "abc", "meta": {"k": [1, {"\udc00": None}]}}, "field 'meta'"),
], ids=["tag", "meta-value", "meta-nested-key"])
def test_convert_rejects_lone_surrogate_at_read(tmp_path, caplog, record, field):
    src = tmp_path / "in.jsonl"
    src.write_text(json.dumps(record) + "\n")  # the surrogate travels as a \u escape
    out = tmp_path / "out.jsonl"
    assert run("convert", "--schema", "infer", "--in", src, "--out", out) == 1
    assert f"line 1: {field} holds a lone surrogate" in caplog.text
    assert not out.exists()


def test_convert_xml_dir_rejects_file_name_that_is_not_utf8(tmp_path, caplog):
    src = tmp_path / "xml"
    src.mkdir()
    (src / "fine.xml").write_text("<RECORD>note</RECORD>")
    # the id would be the file name decoded with surrogateescape: "\udcff"
    with open(os.path.join(os.fsencode(src), b"\xff.xml"), "w") as fh:
        fh.write("<RECORD>note</RECORD>")
    out = tmp_path / "out.jsonl"
    assert run("convert", "--in", src, "--out", out) == 1
    assert "document id from file name '\\udcff.xml' holds a lone surrogate" in caplog.text
    assert not out.exists()


def test_bad_flags_exit_one(capsys):
    assert run("convert", "--in-only-half") == 1
    assert run("not-a-command") == 1


(SUBPARSERS,) = (a.choices for a in cli.build_parser()._actions if a.dest == "command")
NAMES = list(SUBPARSERS)
TOKENS = sorted({*NAMES, "-h", "--help", "-v", "--verbose", "--verb", "--", "x", "1", "-1",
                 "0.5", "token", "rules", "infer",
                 *(flag for sub in SUBPARSERS.values() for action in sub._actions
                   for flag in action.option_strings)})


def _parsed(parser, argv):
    """The namespace `parser` makes of `argv`, or its exit code and output."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit as exc:
            return exc.code, stdout.getvalue(), stderr.getvalue()


@given(st.lists(st.sampled_from(["-v", "--verbose"]), max_size=2),
       st.sampled_from(NAMES) | st.sampled_from(TOKENS),
       st.lists(st.sampled_from(TOKENS), max_size=8))
def test_parser_built_for_argv_parses_it_as_the_full_parser(lead, first, rest):
    argv = [*lead, first, *rest]
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("COLUMNS", "80")
        assert _parsed(cli.build_parser(argv), argv) == _parsed(cli.build_parser(), argv)


def test_main_builds_the_parser_of_its_subcommand_only(monkeypatch, corpus_path, capsys):
    built, init = [], cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    for argv, parsers in ((["stats", "--in", corpus_path], 2),
                          (["-v", "stats", "--in", corpus_path], 2),
                          (["--help"], 15), (["bogus"], 15)):
        built.clear()
        run(*argv)
        assert len(built) == parsers, (argv, built)


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
    assert [e.tag for e in {d.id: d for d in mapped}["d"].entities] == ["PATIENT", "OTHERS"]
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


def test_map_tags_refuses_map_with_commercial(tmp_path, corpus_path, caplog):
    coarse = tmp_path / "map.json"
    coarse.write_text(json.dumps({"rows": {"NAME": ["PATIENT", "DOCTOR"]}}))
    out = tmp_path / "o.jsonl"
    assert run("map-tags", "--in", corpus_path, "--out", out, "--map", coarse,
               "--commercial") == 1
    assert "--map or --commercial" in caplog.text
    assert not out.exists()


def test_deidentify_deterministic(tmp_path, corpus_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (a, b):
        assert run("deidentify", "--in", corpus_path, "--out", out,
                   "--mode", "surrogate", "--seed", 5, "--date-offset", 3) == 0
    assert a.read_bytes() == b.read_bytes()
    scrubbed = read_corpus(a)
    assert "Asha" not in {d.id: d for d in scrubbed}["d1"].text


def test_deidentify_redact(tmp_path, corpus_path):
    out = tmp_path / "red.jsonl"
    assert run("deidentify", "--in", corpus_path, "--out", out,
               "--mode", "redact") == 0
    assert "[PATIENT]" in {d.id: d for d in read_corpus(out)}["d1"].text


def test_recognize_rules_then_evaluate(tmp_path, corpus_path):
    pred = tmp_path / "pred.jsonl"
    assert run("recognize", "--in", corpus_path, "--out", pred,
               "--backend", "rules") == 0
    docs = {d.id: d for d in read_corpus(pred)}
    assert len(docs) == 2
    assert docs["d1"].meta["backend"] == "rules"
    metrics = tmp_path / "metrics.json"
    assert run("evaluate", "--gold", corpus_path, "--pred", pred,
               "--out", metrics) == 0
    payload = json.loads(metrics.read_text())
    assert set(payload) == {"metrics", "confusion"}
    assert set(payload["metrics"]) == {"mode", "per_tag", "micro", "macro", "weighted",
                                       "accuracy"}
    assert payload["confusion"] == {"labels": list(CANONICAL_SCHEMA.tags),
                                    "counts": payload["confusion"]["counts"]}


def test_recognize_env_override(tmp_path, corpus_path, mock_cmd, monkeypatch):
    gold = tmp_path / "gold.jsonl"
    gold.write_text(write_jsonl(read_corpus(corpus_path)))
    monkeypatch.setenv("DEIDKIT_BACKEND", f"{mock_cmd} --gold {gold}")
    pred = tmp_path / "pred.jsonl"
    assert run("recognize", "--in", corpus_path, "--out", pred) == 0
    docs = {d.id: d for d in read_corpus(pred)}
    assert docs["d1"].entities == {d.id: d for d in read_corpus(corpus_path)}["d1"].entities
    assert docs["d1"].meta["backend"] == "external"
    assert str(tmp_path) not in pred.read_text()


@pytest.mark.parametrize("backend", ["rules", "mock"])
def test_recognize_builds_each_document_twice(tmp_path, corpus_path, mock_cmd, monkeypatch,
                                              backend):
    # once when read, once as the prediction: the wire's checked document is
    # the one written, not rebuilt
    endpoint = f"{mock_cmd} --gold {corpus_path}" if backend == "mock" else backend
    built, real = [], Document.__init__
    monkeypatch.setattr(Document, "__init__",
                        lambda doc, *args, **kwargs: real(doc, *args, **kwargs) or
                        built.append(doc.id))
    assert run("recognize", "--in", corpus_path, "--out", tmp_path / "pred.jsonl",
               "--backend", endpoint) == 0
    assert sorted(built) == ["d1", "d1", "d2", "d2"]


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
    assert set(payload) == {"summary", "tag_distribution"}
    assert set(payload["summary"]) == {"n_summaries", "n_tokens_total", "n_unique_tokens",
                                       "max_len", "min_len", "avg_len", "n_original_tags",
                                       "char_counts", "word_length"}
    assert set(payload["summary"]["word_length"]) == {"mean", "se", "median", "min", "max"}
    assert payload["summary"]["n_summaries"] == 2
    assert payload["tag_distribution"]["DATE"]["entities"] == 2


def test_ngrams_csv(tmp_path):
    src = tmp_path / "c.jsonl"
    doc = {"id": "d", "text": "mg po mg po", "entities": []}
    src.write_text(json.dumps(doc) + "\n")
    out = tmp_path / "grams.csv"
    assert run("ngrams", "--in", src, "--n", 2, "--k", 3, "--out", out) == 0
    assert out.read_text() == "ngram,count\nmg po,2\npo mg,1\n"


@pytest.mark.parametrize("flags", [["--k", -1], ["--scope", "phi_adjacent", "--window", -2]])
def test_ngrams_refuses_negative_k_and_window(corpus_path, capsys, caplog, flags):
    assert run("ngrams", "--in", corpus_path, "--n", 1, *flags) == 1
    assert capsys.readouterr().out == ""
    assert "must be >= 0" in caplog.text


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
    # unseen tags get the cap, so a cap that is not a finite weight >= 0 is refused
    for cap in ("nan", "inf", "-3"):
        assert run("weights", "--in", corpus_path, "--cap", cap, "--out", out) == 1


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


@pytest.mark.parametrize("line,message", [
    ("5", "expected a JSON object"),
    ('{"id": "x:0", "text": 7}', "field 'text' is not a string"),
    ('{"text": "t"}', "missing field 'id'"),
    ('{"id": "x:0"}', "missing field 'text'"),
    ('{"id": "ok:0", "text": "again"}', "duplicate id 'ok:0'"),
    ('{"id": "x:0", "text": ', "Expecting value"),
    ('{"id": "x:0", "text": "a\\ud800"}', "field 'text' holds a lone surrogate"),
    ('{"id": "x\\udc00:0", "text": "t"}', "field 'id' holds a lone surrogate"),
], ids=["not-object", "text-not-string", "no-id", "no-text", "duplicate-id", "not-json",
        "text-lone-surrogate", "id-lone-surrogate"])
def test_filter_raw_jsonl_bad_line_exits_one(tmp_path, caplog, line, message):
    src = tmp_path / "raw.jsonl"
    src.write_text('{"id": "ok:0", "text": "fine"}\n' + line + "\n")
    out = tmp_path / "filtered"
    assert run("filter", "--raw", src, "--out-dir", out) == 1
    assert f"line 2: {message}" in caplog.text
    assert not out.exists()


def test_filter_raw_run_dir_equals_raw_jsonl(tmp_path, corpus_path, mock_cmd):
    gen = tmp_path / "gen"
    assert run("generate", "--template", "A", "--exemplars", corpus_path,
               "--backend", mock_cmd, "--fanout", 2, "--out-dir", gen) == 0
    assert run("filter", "--raw", gen, "--out-dir", tmp_path / "d") == 0
    # a line separator inside a text is not a line break of the JSONL file
    src = tmp_path / "raw.jsonl"
    src.write_text((gen / "raw.jsonl").read_text(encoding="utf-8")
                   + json.dumps({"id": "sep:0", "text": "a\u2028b"}, ensure_ascii=False)
                   + "\n", encoding="utf-8")
    assert run("filter", "--raw", src, "--out-dir", tmp_path / "f") == 0
    assert (tmp_path / "f" / "accepted.jsonl").read_bytes() == \
        (tmp_path / "d" / "accepted.jsonl").read_bytes() == (gen / "accepted.jsonl").read_bytes()
    rejects = (tmp_path / "f" / "rejects.jsonl").read_text().splitlines()
    assert [json.loads(r)["id"] for r in rejects] == ["sep:0"]


def test_filter_raw_old_tree_exits_two(tmp_path, caplog):
    old = tmp_path / "gen"
    (old / "raw" / "e").mkdir(parents=True)
    (old / "raw" / "e" / "0.txt").write_text("<RECORD>note</RECORD>")
    assert run("filter", "--raw", old, "--out-dir", tmp_path / "f") == 2
    assert str(old / "raw.jsonl") in caplog.text


def exemplars_with_ids(path, ids):
    text = "Patient Asha Rao was seen."
    docs = [Document(id=i, text=text, entities=(EntitySpan(8, 16, "PATIENT", "Asha Rao"),))
            for i in ids]
    write_corpus(Corpus(documents=tuple(docs)), path)
    return path


def test_generate_keeps_raw_layout_and_ids(tmp_path, mock_cmd):
    # no id becomes a file name, so "/", "..", NUL and the rest round-trip
    ids = ["a/b", "/a", ".", "..", "a\x00b", "a:b", "é", "x y", "a_b", "...", ".a"]
    src = exemplars_with_ids(tmp_path / "ex.jsonl", ids)
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"a\x00b:0": "malformed", "..:0": "short"}))
    gen = tmp_path / "gen"
    assert run("generate", "--template", "A", "--exemplars", src,
               "--backend", f"{mock_cmd} --script {script}", "--out-dir", gen) == 0
    assert sorted(p.name for p in gen.iterdir()) == \
        ["accepted.jsonl", "raw.jsonl", "rejects.jsonl"]
    raw = [json.loads(line) for line in (gen / "raw.jsonl").read_text().splitlines()]
    assert [r["id"] for r in raw] == sorted(f"{i}:0" for i in ids)
    assert len((gen / "rejects.jsonl").read_text().splitlines()) == 2
    assert run("filter", "--raw", gen, "--out-dir", tmp_path / "f") == 0
    assert (tmp_path / "f" / "accepted.jsonl").read_bytes() == \
        (gen / "accepted.jsonl").read_bytes()
    assert (tmp_path / "f" / "rejects.jsonl").read_bytes() == \
        (gen / "rejects.jsonl").read_bytes()


def test_generate_raw_jsonl_is_byte_stable(tmp_path, corpus_path, mock_cmd):
    runs = [tmp_path / "g1", tmp_path / "g2"]
    for gen in runs:
        assert run("generate", "--template", "B", "--exemplars", corpus_path,
                   "--backend", mock_cmd, "--fanout", 3, "--out-dir", gen) == 0
    raw = (runs[0] / "raw.jsonl").read_text(encoding="utf-8")
    assert raw == (runs[1] / "raw.jsonl").read_text(encoding="utf-8")
    records = [json.loads(line) for line in raw.splitlines()]
    assert [r["id"] for r in records] == sorted(f"d{i}:{k}" for i in (1, 2) for k in range(3))
    assert raw == "".join(json.dumps(r, sort_keys=True, ensure_ascii=False) + "\n"
                          for r in records)


def test_generate_all_failed_writes_empty_raw_jsonl(tmp_path, corpus_path, mock_cmd, capsys):
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"d1:0": "error", "d2:0": "error"}))
    gen = tmp_path / "gen"
    assert run("generate", "--template", "A", "--exemplars", corpus_path,
               "--backend", f"{mock_cmd} --script {script}", "--out-dir", gen) == 0
    assert json.loads(capsys.readouterr().out)["failures"] == 2
    assert (gen / "raw.jsonl").read_bytes() == b""
    assert run("filter", "--raw", gen, "--out-dir", tmp_path / "f") == 0
    assert json.loads(capsys.readouterr().out)["accepted"] == 0


@pytest.mark.parametrize("command", ["recognize", "generate"])
def test_timeout_past_the_clock_limit_exits_one(tmp_path, corpus_path, mock_cmd, caplog,
                                                command):
    # select and socket timeouts overflow past threading.TIMEOUT_MAX seconds
    limit_ms = int(threading.TIMEOUT_MAX * 1000)

    def call(backend, timeout_ms, out):
        io_flags = (["--in", corpus_path, "--out", f"{out}.jsonl"] if command == "recognize" else
                    ["--template", "A", "--exemplars", corpus_path, "--out-dir", out])
        return run(command, *io_flags, "--backend", backend, "--timeout-ms", timeout_ms)

    # spawning a backend that does not exist exits 2: 1 shows that nothing was spawned
    assert call(tmp_path / "no-such-backend", limit_ms + 1000, tmp_path / "past") == 1
    assert "bad backend limits" in caplog.text
    assert call(mock_cmd, limit_ms, tmp_path / "limit") == 0


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


def test_run_matrix_scores_the_documents_the_backend_answered(tmp_path, corpus_path, mock_cmd,
                                                             caplog):
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"d2": "error"}))
    matrix_path = tmp_path / "matrix.json"
    matrix_path.write_text(json.dumps({
        "train_sets": {"a": [str(corpus_path)]}, "test_sets": {"dev": str(corpus_path)},
        "backend": f"{mock_cmd} --gold {corpus_path} --script {script}",
        "mode": "entity_strict", "out_dir": str(tmp_path / "mx"),
    }))
    assert run("run-matrix", matrix_path) == 0
    report = json.loads((tmp_path / "mx" / "reports" / "a__dev.json").read_text())
    reason = "ProtocolViolation: backend_error: scripted recognizer failure"
    assert report["excluded"] == [["d2", reason]]
    assert f"excluded d2: {reason}" in caplog.text
    # d1 alone, echoed back: its 7 entities, each matched exactly
    assert sum(map(sum, report["confusion"]["counts"])) == 7
    assert report["metrics"]["micro"]["f1"] == 1.0


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


@pytest.mark.parametrize("side", ["train_sets", "test_sets"])
@pytest.mark.parametrize("name", ["../../escaped", "a/b", ".", "..", "a\0b"])
def test_run_matrix_refuses_set_names_outside_out_dir(tmp_path, corpus_path, caplog, side, name):
    grid = {"train_sets": {}, "test_sets": {}}
    grid[side][name] = str(corpus_path)
    matrix_path = tmp_path / "matrix.json"
    matrix_path.write_text(json.dumps(grid))
    assert run("run-matrix", matrix_path, "--out-dir", tmp_path / "work" / "mx" / "sub") == 1
    assert repr(name) in caplog.text
    assert not (tmp_path / "work").exists()  # nothing written, not even the out dir


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


def load_config(*argv) -> PipelineConfig:
    """The config that PipelineConfig.load gives the command `argv`."""
    argv = [str(arg) for arg in argv]
    return PipelineConfig.load(cli.build_parser(argv).parse_args(argv))


def test_pipeline_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    recognize_argv = ("recognize", "--in", "c.jsonl", "--out", "o.jsonl", "--config", path)
    path.write_text(json.dumps({"concurrency": 1, "typo_key": 2}))
    with pytest.raises(ConfigError):
        load_config(*recognize_argv)
    for dead in ("seed", "mode", "out_dir"):
        path.write_text(json.dumps({dead: 4}))
        with pytest.raises(ConfigError, match=dead):
            load_config(*recognize_argv)
    path.write_text(json.dumps({"surrogate": {"seed": 3, "bogus": 1}}))
    with pytest.raises(ConfigError):
        load_config(*recognize_argv)
    path.write_text(json.dumps({"concurrency": 2, "surrogate": {"date_offset_days": 2}}))
    cfg = load_config(*recognize_argv)
    assert cfg.concurrency == 2 and cfg.surrogate == SurrogateConfig(date_offset_days=2)


def test_config_load_builds_each_section_once_with_the_flags_over_it(tmp_path, corpus_path,
                                                                     monkeypatch):
    from deidkit import surrogate

    lexicon = tmp_path / "names.txt"
    lexicon.write_text("Ravi Menon\n")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"surrogate": {"seed": 5, "age_policy": "jitter",
                                              "locale_lexicons": {"PATIENT": str(lexicon)}},
                                "filter": {"min_annotations": 1, "max_repeat_ratio": 0.5}}))
    reads = []
    read = surrogate.load_lexicon
    monkeypatch.setattr(surrogate, "load_lexicon", lambda source: reads.append(source) or
                        read(source))
    assert run("deidentify", "--in", corpus_path, "--out", tmp_path / "o.jsonl",
               "--config", path, "--seed", 3) == 0
    assert reads.count(str(lexicon)) == 1
    cfg = load_config("deidentify", "--in", "c.jsonl", "--out", "o.jsonl", "--config", path,
                      "--seed", 3, "--time-offset", 0)
    assert cfg.surrogate == SurrogateConfig(seed=3, age_policy="jitter",
                                            locale_lexicons={"PATIENT": str(lexicon)})
    cfg = load_config("filter", "--raw", "r.jsonl", "--out-dir", "o", "--config", path,
                      "--min-annotations", 2)
    assert cfg.filter == FilterPolicy(min_annotations=2, max_repeat_ratio=0.5)
    assert load_config("deidentify", "--in", "c.jsonl", "--out", "o.jsonl").surrogate == \
        SurrogateConfig()
    # a command with no surrogate flags builds the section only from a file that has one
    assert load_config("recognize", "--in", "c.jsonl", "--out", "o.jsonl").surrogate == {}


@pytest.mark.parametrize("command", ["recognize", "generate", "filter", "deidentify"])
def test_config_with_a_missing_lexicon_exits_one(tmp_path, corpus_path, caplog, command):
    # the config loads first: a backend that does not exist or a raw file that
    # is missing would exit 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"surrogate": {"locale_lexicons": {"PATIENT": "nosuch.txt"}}}))
    out = ["--in", corpus_path, "--out", tmp_path / "o.jsonl"]
    argv = {"recognize": out, "deidentify": out,
            "generate": ["--template", "A", "--exemplars", corpus_path,
                         "--backend", tmp_path / "no-such-backend", "--out-dir", tmp_path / "g"],
            "filter": ["--raw", tmp_path / "raw.jsonl", "--out-dir", tmp_path / "f"]}[command]
    assert run(command, *argv, "--config", cfg) == 1
    assert "nosuch.txt" in caplog.text


def test_deidentify_config_rejects_top_level_seed(tmp_path, corpus_path, caplog):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7}))
    assert run("deidentify", "--in", corpus_path, "--out", tmp_path / "o.jsonl",
               "--config", cfg) == 1
    assert "'seed'" in caplog.text


@pytest.mark.parametrize("flag", ["--map", "--config"])
def test_deeply_nested_json_exits_one(tmp_path, corpus_path, caplog, flag):
    # json.loads raises RecursionError on it, not JSONDecodeError
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    command = "map-tags" if flag == "--map" else "deidentify"
    assert run(command, "--in", corpus_path, "--out", tmp_path / "o.jsonl", flag, deep) == 1
    errors = [r for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "recursion" in errors[0].getMessage()


@pytest.mark.parametrize("lexicons, named", [
    ({"PATEINT": "names.txt"}, "PATEINT"),
    ({"PATIENT": "nosuch.txt"}, "nosuch.txt"),
], ids=["misspelt-tag", "missing-file"])
def test_deidentify_config_refuses_bad_locale_lexicons(tmp_path, caplog, lexicons, named):
    # no PATIENT in the corpus, so a lexicon read only on use would never be read
    text = "seen on 01-02-2024"
    src = tmp_path / "in.jsonl"
    write_corpus(Corpus(documents=(
        Document(id="d", text=text, entities=(EntitySpan(8, 18, "DATE", text[8:18]),)),)), src)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"surrogate": {"locale_lexicons": lexicons}}))
    out = tmp_path / "out.jsonl"
    assert run("deidentify", "--in", src, "--out", out, "--config", cfg) == 1
    assert named in caplog.text
    assert not out.exists()


def test_config_feeds_deidentify(tmp_path, corpus_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"surrogate": {"seed": 9, "date_offset_days": 4}}))
    a = tmp_path / "a.jsonl"
    assert run("deidentify", "--in", corpus_path, "--out", a, "--config", cfg) == 0
    b = tmp_path / "b.jsonl"
    assert run("deidentify", "--in", corpus_path, "--out", b,
               "--seed", 9, "--date-offset", 4) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv, payload", [
    (["deidentify", "--config", "{cfg}"], []),
    (["deidentify", "--config", "{cfg}"], {"surrogate": []}),
    (["deidentify", "--config", "{cfg}"], {"surrogate": {"locale_lexicons": []}}),
    (["recognize", "--config", "{cfg}", "--backend", "{mock}"], {"concurrency": "4"}),
    (["map-tags", "--map", "{cfg}"], []),
    (["map-tags", "--map", "{cfg}"], {"rows": []}),
    (["map-tags", "--map", "{cfg}"], {"rules": ["DATE"]}),
    (["run-matrix", "{cfg}"], []),
    (["run-matrix", "{cfg}"], {"train_sets": [], "test_sets": {}}),
    (["run-matrix", "{cfg}"], {"train_sets": {}, "test_sets": "a.jsonl"}),
    # well-shaped files holding a value of the wrong type
    (["deidentify", "--config", "{cfg}"], {"surrogate": {"seed": "x"}}),
    (["recognize", "--config", "{cfg}"], {"backend": 5}),
    (["deidentify", "--config", "{cfg}"], {"surrogate": {"locale_lexicons": {"PATIENT": 5}}}),
    (["deidentify", "--config", "{cfg}"], {"filter": {"length_bounds": 5}}),
    (["map-tags", "--map", "{cfg}"], {"rows": {"DATE": 5}}),
    (["map-tags", "--map", "{cfg}"], {"rules": {}, "target": 5}),
    (["run-matrix", "{cfg}"], {"train_sets": {"a": 5}, "test_sets": {}}),
    (["run-matrix", "{cfg}"], {"train_sets": {}, "test_sets": {"a": [5]}}),
    # ... and ones that used to exit 0 with wrong output
    (["map-tags", "--map", "{cfg}"], {"rows": {"DATE": "Visit"}}),
    (["map-tags", "--map", "{cfg}"], {"rules": {"a": "DATE"}, "default": 5}),
    (["deidentify", "--config", "{cfg}"], {"filter": {"require_record_envelope": "no"}}),
    (["deidentify", "--config", "{cfg}"], {"filter": {"min_annotations": 2.5}}),
    (["deidentify", "--config", "{cfg}"], {"surrogate": {"age_jitter_years": True}}),
], ids=["deidentify-list", "deidentify-surrogate-list", "deidentify-lexicons-list",
        "recognize-concurrency-str", "map-list", "map-rows-list", "map-rules-list",
        "matrix-list", "matrix-train-list", "matrix-test-str",
        "deidentify-seed-str", "recognize-backend-int", "deidentify-lexicon-int",
        "deidentify-length-bounds-int", "map-row-int", "map-target-int", "matrix-train-int",
        "matrix-test-list-int", "map-row-str", "map-default-int", "deidentify-envelope-str",
        "deidentify-min-annotations-float", "deidentify-age-jitter-bool"])
def test_malformed_config_file_exits_one(tmp_path, corpus_path, mock_cmd, caplog, argv,
                                         payload):
    # valid JSON of the wrong shape is a one-line error, not a traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    argv = [arg.format(cfg=cfg, mock=mock_cmd) for arg in argv]
    if argv[0] != "run-matrix":
        argv += ["--in", str(corpus_path), "--out", str(tmp_path / "out.jsonl")]
    assert main(argv) == 1
    assert [r.levelname for r in caplog.records] == ["ERROR"]


SETTINGS_SPECS = (PipelineConfig, SurrogateConfig, FilterPolicy, MATRIX_FIELDS, ROWS_MAP, FLAT_MAP)


def test_every_settings_field_has_a_type_the_reader_decides():
    # read_fields builds the check of every field on each read, so a field
    # whose type it cannot decide fails here rather than in a user's run
    for spec in SETTINGS_SPECS:
        assert read_fields({}, spec, "spec") == {}
    for undecidable in (Optional[int], Path, set, tuple[int, ...], dict[int, str]):
        with pytest.raises(TypeError):
            read_fields({}, {"key": undecidable}, "spec")


@pytest.mark.parametrize("typ, good, bad", [
    (int, [0, -3, 2**70], [True, 1.0, "1", None]),
    (float, [0.5, 2, float("nan")], [False, "0.5", [0.5]]),
    (bool, [True, False], [0, "no", None]),
    (tuple[int, int], [[1, 2]], [[1], [1, 2, 3], [1, True], 5]),
    (dict[str, str | list[str]], [{}, {"a": "x", "b": ["x", "y"]}], [{"a": 5}, {"a": [5]}, []]),
])
def test_read_fields_checks_json_types(typ, good, bad):
    for value in good:
        assert read_fields({"key": value}, {"key": typ}, "spec") == {"key": value}
    for value in bad:
        with pytest.raises(ConfigError, match="'key' must be"):
            read_fields({"key": value}, {"key": typ}, "spec")


def json_values(strings, keys=None):
    """Any JSON value whose strings and object keys are drawn from the given strategies."""
    return st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | strings,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(strings if keys is None else keys, inner, max_size=3),
        max_leaves=6)


def fields_of(keys, values):
    """An object with any subset of `keys`, each holding a value from `values`."""
    return st.fixed_dictionaries({}, optional={key: values for key in keys})


ANY_JSON = json_values(st.text(max_size=4))
# grid set names and corpus paths come from fixed lists, so no drawn string
# names a file that run-matrix reads or writes; --out-dir and --backend rules
# win over the drawn ones, so none reaches an output directory or a backend
CORPUS_SETS = json_values(st.just("c.jsonl"), st.sampled_from(["a", "b"]))
SETTINGS_FILES = {
    "config": (
        st.fixed_dictionaries({}, optional={
            "concurrency": ANY_JSON, "backend": ANY_JSON,
            "surrogate": fields_of(get_type_hints(SurrogateConfig), ANY_JSON) | ANY_JSON,
            "filter": fields_of(get_type_hints(FilterPolicy), ANY_JSON) | ANY_JSON}) | ANY_JSON,
        [["deidentify", "--config", "cfg.json", "--in", "c.jsonl", "--out", "o.jsonl"],
         ["recognize", "--backend", "rules", "--config", "cfg.json", "--in", "c.jsonl",
          "--out", "o.jsonl"],
         ["filter", "--config", "cfg.json", "--raw", "raw.jsonl", "--out-dir", "filtered"]]),
    "grid": (
        st.fixed_dictionaries({}, optional={
            "train_sets": CORPUS_SETS, "test_sets": CORPUS_SETS, "mode": ANY_JSON,
            "out_dir": ANY_JSON, "backend": json_values(st.just("rules"))}),
        [["run-matrix", "cfg.json", "--out-dir", "matrix"]]),
    "tagmap": (
        fields_of(ROWS_MAP, ANY_JSON) | fields_of(FLAT_MAP, ANY_JSON) | ANY_JSON,
        [["map-tags", "--map", "cfg.json", "--in", "c.jsonl", "--out", "o.jsonl"]]),
}


@pytest.mark.parametrize("kind", sorted(SETTINGS_FILES))
def test_any_settings_file_exits_0_1_or_2(tmp_path, monkeypatch, sample_corpus, kind):
    monkeypatch.delenv("DEIDKIT_BACKEND", raising=False)
    monkeypatch.chdir(tmp_path)
    write_corpus(sample_corpus, "c.jsonl")
    body = "<TYPE='Date'>01-02-2024</TYPE> seen" * 3 + " w" * 100
    Path("raw.jsonl").write_text(json.dumps({"id": "e:0", "text": f"<RECORD>{body}</RECORD>"}))
    payloads, argvs = SETTINGS_FILES[kind]

    @given(payloads)
    def exits_0_1_or_2(payload):
        Path("cfg.json").write_text(json.dumps(payload))
        for argv in argvs:
            assert main(argv) in (0, 1, 2)

    exits_0_1_or_2()


# pieces that break a record, a marker, a CoNLL line or the encoding: NUL,
# a lone surrogate written raw (not UTF-8) and as a JSON escape, a byte order
# mark, markup halves, JSON punctuation and out-of-range numbers
BREAKERS = ["\x00", "\ud800", "\\ud800", "\ufeff", "<RECORD>", "</RECORD>", "<TYPE='",
            "<TYPE=\"DATE\">", "</TYPE>", "'>", "\t", "\n", "\r", '"', "{", "}", "[", "]",
            ",", ":", "B-", "I-DATE", "O", "-1", "1e400", "true", "null", " "]


def mutated(text: str):
    """`text` with up to four slices replaced by breakers or arbitrary text."""
    edit = st.tuples(st.integers(0, len(text)), st.integers(0, 12),
                     st.lists(st.sampled_from(BREAKERS) | st.text(max_size=3), max_size=3))

    def apply(edits) -> str:
        out = text
        for at, cut, pieces in edits:
            at = min(at, len(out))
            out = out[:at] + "".join(pieces) + out[at + cut:]
        return out

    return st.lists(edit, max_size=4).map(apply)


def any_file(text: str):
    """Arbitrary bytes, or `text` mutated and written as UTF-8 with any lone
    surrogate passed through as the bytes no decoder accepts."""
    return st.binary(max_size=40) | mutated(text).map(
        lambda t: t.encode("utf-8", "surrogatepass"))


INPUT_FILE_ARGVS = [
    ["stats", "--in", "c.jsonl", "--out", "s.json"],
    ["stats", "--in", "c.conll", "--out", "s.json"],
    ["ngrams", "--in", "v.jsonl", "--n", "1", "--stoplist", "stop.txt", "--out", "n.csv"],
    ["deidentify", "--in", "c.jsonl", "--out", "o.jsonl"],
    ["convert", "--in", "c.jsonl", "--out", "o.conll"],
    ["convert", "--in", "c.conll", "--out", "o.jsonl"],
    ["convert", "--in", "x", "--out", "o.jsonl"],
    ["filter", "--raw", "raw.jsonl", "--out-dir", "filtered"],
    # no backend: generate reads the template and the exemplars, then exits 1
    ["generate", "--template", "t.txt", "--exemplars", "e.jsonl", "--out-dir", "gen"],
]


def test_any_input_file_exits_0_1_or_2(tmp_path, monkeypatch, sample_corpus):
    monkeypatch.delenv("DEIDKIT_BACKEND", raising=False)
    monkeypatch.chdir(tmp_path)
    write_corpus(sample_corpus, "v.jsonl")
    Path("x").mkdir()
    body = "<TYPE='Date'>01-02-2024</TYPE> seen" * 3 + " w" * 100
    seeds = {
        "c.jsonl": write_jsonl(sample_corpus),
        "c.conll": write_conll(sample_corpus),
        "x/a.xml": write_inline_xml(sample_corpus.documents[0]),
        "stop.txt": "Patient\nthe\non\n",
        "raw.jsonl": json.dumps({"id": "e:0", "text": f"<RECORD>{body}</RECORD>"}) + "\n",
        "t.txt": load_template("A").body,
        "e.jsonl": write_jsonl(sample_corpus),
    }

    @settings(max_examples=60)
    @given(st.fixed_dictionaries({name: any_file(text) for name, text in seeds.items()}))
    def exits_0_1_or_2(files):
        for name, data in files.items():
            Path(name).write_bytes(data)
        for argv in INPUT_FILE_ARGVS:
            assert main(argv) in (0, 1, 2), argv

    exits_0_1_or_2()


def test_console_entry_point():
    import subprocess

    proc = subprocess.run([sys.executable, "-m", "deidkit.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "run-matrix" in proc.stdout
