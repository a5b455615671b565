import ast
import json
import re
import shlex
import sys

import pytest
from hypothesis import given, strategies as st

from deidkit.annot_io import parse_inline_xml
from deidkit.core import CANONICAL_SCHEMA, Corpus, Document, EntitySpan
from deidkit.corpusstats import score_generation_quality
from deidkit import syngen
from deidkit.recognize import EXTERNAL, RecognizerBackend
from deidkit.syngen import (
    EXEMPLAR_SLOT,
    HIGH_REPETITION,
    LENGTH_OUT_OF_BOUNDS,
    LOW_PRINTABLE_RATIO,
    MALFORMED_MARKUP,
    NO_ENVELOPE,
    TOO_FEW_ANNOTATIONS,
    UNKNOWN_TAG,
    FilterPolicy,
    GenerationJob,
    PromptTemplate,
    SlotMissing,
    attempt_id,
    filter_outputs,
    generate,
    load_template,
    render_prompt,
    run_generation_job,
)

from _oracles import oracle_filter_outputs


def exemplar_corpus(n=2):
    docs = []
    for i in range(n):
        text = f"Patient Asha Rao number {i} was admitted on 01-02-2024."
        docs.append(Document(
            id=f"ex-{i}", text=text,
            entities=(EntitySpan(8, 16, "PATIENT", "Asha Rao"),
                      EntitySpan(text.index("01-02"), text.index("01-02") + 10,
                                 "DATE", "01-02-2024")),
        ))
    return Corpus(documents=tuple(docs), schema=CANONICAL_SCHEMA)


def wrap(body):
    return f"<RECORD>{body}</RECORD>"


GOOD_BODY = ("Discharge note. <TYPE='Patient_Name'>Asha Rao</TYPE> aged "
             "<TYPE='Age'>44</TYPE> seen on <TYPE='Date'>01-02-2024</TYPE>. "
             + " ".join(f"finding{i} detail{i}" for i in range(70)))


# --- templates -------------------------------------------------------------

@pytest.mark.parametrize("which", ["A", "B", "C"])
def test_shipped_templates_have_one_slot(which):
    template = load_template(which)
    assert template.body.count(EXEMPLAR_SLOT) == 1
    assert template.id == which


def test_template_b_c_carry_required_sections():
    assert "Admission Details" not in load_template("A").body
    for which in ("B", "C"):
        body = load_template(which).body
        for section in ("Admission Details", "Medical History", "Special Instructions"):
            assert section in body


def test_template_c_lists_entity_inventory():
    body = load_template("C").body
    inventory = ast.literal_eval(re.search(r"entities= (\[.*?\])", body).group(1))
    assert len(inventory) == 35
    assert "Aadhar" in inventory


def test_custom_template_from_file(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text(f"Generate like this: {EXEMPLAR_SLOT}\n")
    assert load_template(str(path)).id == "custom"


@pytest.mark.parametrize("body", ["no slot here", f"{EXEMPLAR_SLOT} and {EXEMPLAR_SLOT}"])
def test_template_rejects_wrong_slot_count(body):
    with pytest.raises(SlotMissing):
        PromptTemplate(id="bad", body=body)


def test_render_prompt_embeds_exemplar_markup():
    template = PromptTemplate(id="t", body=f"Before {EXEMPLAR_SLOT} after")
    doc = exemplar_corpus(1).documents[0]
    prompt = render_prompt(template, doc)
    assert "<RECORD>" in prompt and "</RECORD>" in prompt
    assert "<TYPE='PATIENT'>Asha Rao</TYPE>" in prompt
    assert prompt.startswith("Before ") and prompt.endswith(" after")


def test_attempt_id_format():
    assert attempt_id("ex-3", 2) == "ex-3:2"


# --- filtering -------------------------------------------------------------

def test_filter_accepts_and_maps_tags():
    corpus, report = filter_outputs({"e:0": wrap(GOOD_BODY)})
    assert report.rejects == []
    (doc,) = corpus
    assert doc.id == "e:0"
    assert [e.tag for e in doc.entities] == ["PATIENT", "AGE", "DATE"]
    assert doc.meta == {"exemplar": "e", "replicate": "0"}
    assert corpus.schema.tags == CANONICAL_SCHEMA.tags


@pytest.mark.parametrize("text,code", [
    ("A summary without any markup at all.", NO_ENVELOPE),
    (wrap("<TYPE='Patient_Name'>Asha is stable."), MALFORMED_MARKUP),
    (wrap("stray close</TYPE> here"), MALFORMED_MARKUP),
    (wrap("<TYPE='Patient_Name'></TYPE> empty"), MALFORMED_MARKUP),
])
def test_filter_markup_rejects(text, code):
    _, report = filter_outputs({"e:0": text})
    assert report.rejects == [("e:0", code)]


def test_filter_too_few_annotations():
    body = "<TYPE='Patient_Name'>Asha</TYPE> only one. " + "word " * 150
    _, report = filter_outputs({"e:0": wrap(body)})
    assert report.rejects == [("e:0", TOO_FEW_ANNOTATIONS)]


def test_filter_under_length():
    body = ("<TYPE='Patient_Name'>Asha</TYPE> <TYPE='Age'>44</TYPE> "
            "<TYPE='Date'>01-02-2024</TYPE> brief.")
    _, report = filter_outputs({"e:0": wrap(body)})
    assert report.rejects == [("e:0", LENGTH_OUT_OF_BOUNDS)]


def test_filter_over_length():
    policy = FilterPolicy(length_bounds=(1, 50))
    _, report = filter_outputs({"e:0": wrap(GOOD_BODY)}, policy)
    assert report.rejects == [("e:0", LENGTH_OUT_OF_BOUNDS)]


def test_filter_low_printable_ratio():
    noisy = GOOD_BODY + "\x00" * 200
    _, report = filter_outputs({"e:0": wrap(noisy)})
    assert report.rejects == [("e:0", LOW_PRINTABLE_RATIO)]


def test_filter_high_repetition():
    body = ("<TYPE='Patient_Name'>Asha</TYPE> <TYPE='Age'>44</TYPE> "
            "<TYPE='Date'>01-02-2024</TYPE> " + "again " * 150)
    _, report = filter_outputs({"e:0": wrap(body)})
    assert report.rejects == [("e:0", HIGH_REPETITION)]


def test_filter_unknown_tag_policies():
    body = GOOD_BODY + " <TYPE='Blood_Group'>B+</TYPE>"
    corpus, report = filter_outputs({"e:0": wrap(body)})
    assert report.rejects == []
    assert {doc.id: doc for doc in corpus}["e:0"].entities[-1].tag == "OTHERS"
    policy = FilterPolicy(unknown_tags="reject")
    _, report = filter_outputs({"e:0": wrap(body)}, policy)
    assert report.rejects == [("e:0", UNKNOWN_TAG)]


def test_filter_first_failed_check_names_the_reason():
    # malformed markup masks the length problem; length masks repetition
    _, report = filter_outputs({"e:0": wrap("<TYPE='X'>a few words")})
    assert report.rejects == [("e:0", MALFORMED_MARKUP)]
    short_and_repetitive = wrap(
        "<TYPE='Patient_Name'>A</TYPE> <TYPE='Age'>4</TYPE> "
        "<TYPE='Date'>01-02-2024</TYPE> go go go go")
    _, report = filter_outputs({"e:0": short_and_repetitive})
    assert report.rejects == [("e:0", LENGTH_OUT_OF_BOUNDS)]


def test_filter_envelope_optional_when_configured():
    policy = FilterPolicy(require_record_envelope=False)
    corpus, report = filter_outputs({"e:0": GOOD_BODY}, policy)
    assert report.rejects == []
    assert len(corpus) == 1


# shipped source tags in two spellings, canonical tags, and tags no rule knows
FUZZ_TAGS = ["Patient_Name", "patient name", "AGE", "Age", "DATE", "Phone_No",
             "PHONE NO", "DOCTOR", "HOSPITAL", "Blood_Group", "x", "Others"]
pieces = st.one_of(
    st.sampled_from(["go", "Go", "GO", "w1", "w2", "w3", "120/80", "Dr.", "--", "a_b"]),
    st.text(alphabet="\x00\x07\x85\x9f\t\r\n \u2028", min_size=1, max_size=3),
    st.builds("<TYPE='{}'>{}</TYPE>".format, st.sampled_from(FUZZ_TAGS),
              st.sampled_from(["Asha", "44", "01-02-2024", "x y", "\x00"])),
)
BROKEN = ["</TYPE>", "<TYPE='Age'>", "<TYPE=Age>", "<TYPE=''>z</TYPE>",
          "<TYPE='Age'></TYPE>", "<RECORD>", "</RECORD>"]


def raw_text(parts, broken, envelope):
    body = " ".join(parts) + broken
    return wrap(body) if envelope else body


# one text in four carries a piece of broken markup
raw_texts = st.builds(raw_text, st.lists(pieces, max_size=40),
                      st.sampled_from([""] * (3 * len(BROKEN)) + BROKEN), st.booleans())
policies = st.builds(
    FilterPolicy,
    require_record_envelope=st.booleans(),
    min_annotations=st.integers(0, 3),
    length_bounds=st.tuples(st.integers(0, 8), st.integers(8, 40)),
    printable_ratio_min=st.sampled_from([0.0, 0.9, 0.97, 1.0]),
    max_repeat_ratio=st.sampled_from([0.15, 0.5, 1.0]),
    unknown_tags=st.sampled_from(["map_to_others", "reject"]),
)


@given(st.dictionaries(st.sampled_from(["e:0", "e:1", "f:0", "a:b:2", "g"]), raw_texts),
       policies)
def test_filter_outputs_equals_three_build_oracle(raw, policy):
    corpus, report = filter_outputs(raw, policy)
    want, want_rejects = oracle_filter_outputs(raw, policy)
    assert corpus.documents == want.documents
    assert corpus.schema == want.schema
    assert report.rejects == want_rejects


# --- generation against the mock backend -----------------------------------

def backend_for(mock_cmd, tmp_path, script=None, **kw):
    cmd = mock_cmd
    if script is not None:
        path = tmp_path / "script.json"
        path.write_text(json.dumps(script))
        cmd += f" --script {path}"
    kw.setdefault("timeout_ms", 15_000)
    return RecognizerBackend(kind=EXTERNAL, endpoint=cmd, **kw)


def test_generate_schedules_fanout_times_exemplars(mock_cmd, tmp_path):
    job = GenerationJob(template=load_template("A"), exemplars=exemplar_corpus(2),
                        backend=backend_for(mock_cmd, tmp_path), fanout=3)
    assert job.scheduled == 6
    result = generate(job)
    assert sorted(result.raw) == sorted(
        f"ex-{i}:{k}" for i in range(2) for k in range(3))
    assert result.failures == []


def test_generate_persists_raw_before_filtering(mock_cmd, tmp_path, monkeypatch):
    script = {"ex-0:0": "malformed"}
    job = GenerationJob(template=load_template("A"), exemplars=exemplar_corpus(1),
                        backend=backend_for(mock_cmd, tmp_path, script), fanout=2)
    out = tmp_path / "run"
    filtered = []  # (raw generations, files in out) at the time filter_outputs runs

    def filter_after_persist(raw, policy):
        filtered.append((raw, sorted(p.name for p in out.iterdir())))
        return filter_outputs(raw, policy)

    monkeypatch.setattr(syngen, "filter_outputs", filter_after_persist)
    run_generation_job(job, out)
    ((raw, files),) = filtered
    assert len(raw) == 2
    assert files == ["raw.jsonl"]
    records = [json.loads(line) for line in (out / "raw.jsonl").read_text().splitlines()]
    assert records == [{"id": aid, "text": raw[aid]} for aid in ("ex-0:0", "ex-0:1")]
    # the malformed output is persisted verbatim even though it cannot parse
    assert "Asha Rao is stable" in records[0]["text"]


# Replies "fine" to ex-0:0 and, for every other attempt, a text holding a lone
# surrogate, which json.dumps sends as the escape \ud800.
SURROGATE_BACKEND = f"{sys.executable} -c " + shlex.quote(
    "import json, sys\n"
    "for line in sys.stdin:\n"
    "    rid = json.loads(line)['id']\n"
    "    text = 'fine' if rid == 'ex-0:0' else 'bad \\ud800'\n"
    "    print(json.dumps({'id': rid, 'text': text}), flush=True)\n"
)


def test_generate_fails_an_attempt_whose_text_is_not_unicode(tmp_path):
    job = GenerationJob(template=load_template("A"), exemplars=exemplar_corpus(1),
                        backend=RecognizerBackend(kind=EXTERNAL, endpoint=SURROGATE_BACKEND,
                                                  timeout_ms=15_000),
                        fanout=2)
    out = tmp_path / "run"
    summary = run_generation_job(job, out)
    assert (summary["generated"], summary["failures"]) == (1, 1)
    assert (out / "raw.jsonl").read_text() == '{"id": "ex-0:0", "text": "fine"}\n'
    assert (out / "rejects.jsonl").read_text() == \
        '{"id": "ex-0:0", "reason": "no_envelope"}\n'
    assert (out / "accepted.jsonl").read_text() == ""
    result = generate(job)
    assert result.failures == [("ex-0:1", "ProtocolViolation: text holds a lone surrogate")]


def test_generate_records_backend_failures(mock_cmd, tmp_path):
    script = {"ex-0:1": "error"}
    job = GenerationJob(template=load_template("A"), exemplars=exemplar_corpus(1),
                        backend=backend_for(mock_cmd, tmp_path, script), fanout=2)
    result = generate(job)
    assert len(result.raw) == 1
    assert len(result.failures) == 1
    assert result.failures[0][0] == "ex-0:1"


def test_run_generation_job_end_to_end(mock_cmd, tmp_path):
    script = {"ex-0:1": "malformed", "ex-1:0": "short"}
    job = GenerationJob(template=load_template("B"), exemplars=exemplar_corpus(2),
                        backend=backend_for(mock_cmd, tmp_path, script), fanout=2)
    out = tmp_path / "run"
    summary = run_generation_job(job, out)
    assert summary["scheduled"] == 4
    assert summary["generated"] == 4
    assert summary["accepted"] == 2
    assert summary["reject_counts"] == {MALFORMED_MARKUP: 1, LENGTH_OUT_OF_BOUNDS: 1}
    accepted = (out / "accepted.jsonl").read_text().strip().split("\n")
    assert len(accepted) == 2
    rejects = [json.loads(l) for l in (out / "rejects.jsonl").read_text().splitlines()]
    assert {r["id"]: r["reason"] for r in rejects} == {
        "ex-0:1": MALFORMED_MARKUP, "ex-1:0": LENGTH_OUT_OF_BOUNDS}


def test_mock_outputs_parse_as_canonical(mock_cmd, tmp_path):
    job = GenerationJob(template=load_template("A"), exemplars=exemplar_corpus(1),
                        backend=backend_for(mock_cmd, tmp_path), fanout=1)
    result = generate(job)
    doc = parse_inline_xml(result.raw["ex-0:0"], doc_id="x")
    assert len(doc.entities) >= 3
    assert {e.tag for e in doc.entities} <= set(CANONICAL_SCHEMA.tags)


def test_score_generation_quality_self_is_one():
    corpus = exemplar_corpus(2)
    score = score_generation_quality(corpus, corpus)
    assert score["bert_f1_mean"] == pytest.approx(1.0, abs=1e-12)
    assert score["avg_length_words"] > 0


def test_filter_policy_validation():
    with pytest.raises(ValueError):
        FilterPolicy(length_bounds=(10, 5))
    with pytest.raises(ValueError):
        FilterPolicy(printable_ratio_min=1.5)
    with pytest.raises(ValueError):
        FilterPolicy(unknown_tags="ignore")
