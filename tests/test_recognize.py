import contextlib
import json
import random
import re
import socket
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from deidkit.annot_io import write_jsonl
from deidkit.core import CANONICAL_SCHEMA, Corpus, Document, EntitySpan
from deidkit.recognize import (
    BUILTIN_RULES,
    EXTERNAL,
    BackendTimeout,
    InvalidPattern,
    ProtocolViolation,
    RecognizerBackend,
    Rule,
    Rulebook,
    _SubprocessWire,
    align_token_predictions,
    default_rulebook,
    load_rulebook,
    recognize_corpus,
    recognize_external,
    recognize_rules,
)

from _oracles import oracle_recognize_rules


NOTE = ("Patient Asha Rao, CRNO: 483920, aged 42 years, phone 9876543210, "
        "email asha.rao@example.com, seen 25-08-2023 at 560001 Bengaluru.")


# --- rules -----------------------------------------------------------------

def test_rules_find_expected_classes():
    by_tag = {}
    for span in recognize_rules(NOTE):
        by_tag.setdefault(span.tag, []).append(span.surface)
    assert "483920" in by_tag["ID"]
    assert "42" in by_tag["AGE"]
    assert "9876543210" in by_tag["CONTACT"]
    assert "asha.rao@example.com" in by_tag["CONTACT"]
    assert "25-08-2023" in by_tag["DATE"]
    assert "560001" in by_tag["CONTACT"] or "560001" in by_tag.get("LOCATION", [])


def test_rules_doctor_pattern():
    spans = recognize_rules("Reviewed by Dr. Anil Kumar on rounds.")
    assert any(s.tag == "DOCTOR" and "Anil" in s.surface for s in spans)


def test_rules_output_sorted_and_disjoint():
    spans = recognize_rules(NOTE)
    for prev, cur in zip(spans, spans[1:]):
        assert prev.start <= cur.start
        assert prev.end <= cur.start


def test_rules_longest_match_wins():
    # the full date must not be carved into a bare number + fragments
    spans = recognize_rules("On 25-08-2023 exactly.")
    dates = [s for s in spans if s.tag == "DATE"]
    assert [d.surface for d in dates] == ["25-08-2023"]


def test_rules_empty_text():
    assert recognize_rules("") == []


def test_default_rulebook_cached():
    assert default_rulebook() is default_rulebook()


def test_load_rulebook_rejects_bad_pattern(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps({
        "name": "broken", "priority": ["ID"],
        "patterns": [{"tag": "ID", "pattern": "(unclosed"}],
    }))
    with pytest.raises(InvalidPattern):
        load_rulebook(path)


def test_custom_rulebook(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps({
        "name": "tiny", "priority": ["ID"],
        "patterns": [{"tag": "ID", "pattern": r"\\bX\\d{3}\\b"}],
    }).replace("\\\\", "\\"))
    rb = load_rulebook(path)
    spans = recognize_rules("codes X123 and X999", rb)
    assert [s.surface for s in spans] == ["X123", "X999"]


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_rules_overlap_resolution_matches_scan_oracle(seed):
    # few letters and short patterns give many equal-length, equal-start
    # candidates; ID and AGE share a pattern, and the tags left out of the
    # priority list tie with each other
    rng = random.Random(seed)
    patterns = ["a+", "b+", "ab", "ba", "[ab]{2}", "[ab]{3}", "a[bc]*", r"\w+", "c"]
    rules = []
    for _ in range(rng.randint(1, 8)):
        tag = rng.choice(["ID", "AGE", "DATE", "PATIENT", "CONTACT"])
        rules.append(Rule(tag=tag, pattern=re.compile(rng.choice(patterns))))
    rules.append(Rule(tag="AGE", pattern=rules[0].pattern))
    priority = rng.sample(["ID", "AGE", "DATE"], rng.randint(0, 3))
    book = Rulebook(name="fuzz", rules=tuple(rules), priority=tuple(priority))
    text = "".join(rng.choice("aabbc ") for _ in range(rng.randint(0, 60)))
    assert recognize_rules(text, book) == oracle_recognize_rules(text, book)


def test_rules_match_scan_oracle_on_default_rulebook():
    assert recognize_rules(NOTE * 3) == oracle_recognize_rules(NOTE * 3)


# --- token alignment -------------------------------------------------------

def test_align_token_predictions():
    text = "Asha Rao left"
    records = [
        {"surface": "Asha", "start": 0, "end": 4, "label": "B-PATIENT"},
        {"surface": "Rao", "start": 5, "end": 8, "label": "I-PATIENT"},
        {"surface": "left", "start": 9, "end": 13, "label": "O"},
    ]
    spans = align_token_predictions(records, text)
    assert [(s.start, s.end, s.tag) for s in spans] == [(0, 8, "PATIENT")]


def test_align_token_predictions_surface_mismatch():
    from deidkit.core import DeidError

    records = [{"surface": "XXXX", "start": 0, "end": 4, "label": "O"}]
    with pytest.raises(DeidError):
        align_token_predictions(records, "Asha Rao")


# --- external backends -----------------------------------------------------

@pytest.fixture()
def note_corpus():
    docs = tuple(
        Document(id=f"doc-{i}", text=NOTE, entities=()) for i in range(6)
    )
    return Corpus(documents=docs, schema=CANONICAL_SCHEMA)


def subprocess_backend(mock_cmd, tmp_path, script=None, gold=None, **kw):
    cmd = mock_cmd
    if script is not None:
        path = tmp_path / "script.json"
        path.write_text(json.dumps(script))
        cmd += f" --script {path}"
    if gold is not None:
        path = tmp_path / "gold.jsonl"
        path.write_text(write_jsonl(gold))
        cmd += f" --gold {path}"
    kw.setdefault("timeout_ms", 10_000)
    return RecognizerBackend(kind=EXTERNAL, endpoint=cmd, **kw)


def test_subprocess_round_trip(mock_cmd, tmp_path, note_corpus):
    backend = subprocess_backend(mock_cmd, tmp_path, gold=note_corpus)
    result = recognize_external(note_corpus, backend)
    assert len(result.predictions) == 6
    assert result.excluded == []
    assert [p.doc_id for p in result.predictions] == [d.id for d in note_corpus]


def test_subprocess_echoes_gold(mock_cmd, tmp_path):
    doc = Document(id="g1", text="Asha Rao visited.",
                   entities=(EntitySpan(0, 8, "PATIENT", "Asha Rao"),))
    corpus = Corpus(documents=(doc,), schema=CANONICAL_SCHEMA)
    backend = subprocess_backend(mock_cmd, tmp_path, gold=corpus)
    result = recognize_external(corpus, backend)
    assert result.predictions[0].spans == doc.entities


def test_conservation_docs_equals_preds_plus_excluded(mock_cmd, tmp_path, note_corpus):
    script = {"doc-1": "error", "doc-3": "oversize", "doc-4": "overlap"}
    backend = subprocess_backend(mock_cmd, tmp_path, script=script, gold=note_corpus)
    result = recognize_external(note_corpus, backend)
    assert len(result.predictions) + len(result.excluded) == len(note_corpus)
    reasons = dict(result.excluded)
    assert "backend_error" in reasons["doc-1"]
    assert reasons["doc-3"].startswith("SpanOutOfRange")
    assert "overlap" in reasons["doc-4"].lower()


def test_timeout_then_retry_succeeds(mock_cmd, tmp_path, note_corpus):
    # the first request for doc-2 is swallowed; the retry is answered
    script = {"doc-2": "drop_once"}
    backend = subprocess_backend(mock_cmd, tmp_path, script=script, gold=note_corpus,
                                 timeout_ms=700, retry=1)
    result = recognize_external(note_corpus, backend)
    assert result.excluded == []
    assert result.retries >= 1


def test_timeout_without_retry_excludes(mock_cmd, tmp_path, note_corpus):
    script = {"doc-2": "drop"}
    backend = subprocess_backend(mock_cmd, tmp_path, script=script, gold=note_corpus,
                                 timeout_ms=2000, retry=0)
    result = recognize_external(note_corpus, backend)
    excluded_ids = [doc_id for doc_id, _ in result.excluded]
    assert excluded_ids == ["doc-2"]
    assert "BackendTimeout" in dict(result.excluded)["doc-2"]


def test_token_form_responses_align(mock_cmd, tmp_path):
    doc = Document(id="t1", text="Asha Rao visited Pune",
                   entities=(EntitySpan(0, 8, "PATIENT", "Asha Rao"),
                             EntitySpan(17, 21, "LOCATION", "Pune")))
    corpus = Corpus(documents=(doc,), schema=CANONICAL_SCHEMA)
    backend = subprocess_backend(mock_cmd, tmp_path, script={"t1": "token_form"},
                                 gold=corpus)
    result = recognize_external(corpus, backend)
    assert result.predictions[0].spans == doc.entities


def test_recognize_repeated_runs_isolated(mock_cmd, tmp_path, note_corpus):
    backend = subprocess_backend(mock_cmd, tmp_path, gold=note_corpus)
    runs = [recognize_external(note_corpus, backend) for _ in range(3)]
    assert len(runs) == 3
    texts = [[tuple(p.spans) for p in r.predictions] for r in runs]
    assert texts[0] == texts[1] == texts[2]


FAULTS = ("echo", "error", "oversize", "overlap", "drop", "garbage", "exit")
START_UP_ALLOWANCE_S = 3.0  # spawning the backend, the pool, and closing both


@settings(max_examples=6)
@given(st.lists(st.sampled_from(FAULTS), min_size=1, max_size=6), st.integers(0, 1))
def test_faulty_backend_accounts_for_every_document(mock_cmd, tmp_path_factory,
                                                    behaviors, retry):
    docs = [Document(id=f"doc-{i}", text=NOTE, entities=()) for i in range(len(behaviors))]
    script = dict(zip((d.id for d in docs), behaviors))
    path = tmp_path_factory.mktemp("faults") / "script.json"
    path.write_text(json.dumps(script))
    # one slot per document, so no request queues behind a timed-out one
    backend = RecognizerBackend(kind=EXTERNAL, endpoint=f"{mock_cmd} --script {path}",
                                timeout_ms=500, retry=retry, max_in_flight=len(docs))
    t0 = time.monotonic()
    result = recognize_external(docs, backend)
    elapsed = time.monotonic() - t0
    predicted = [p.doc_id for p in result.predictions]
    excluded = [doc_id for doc_id, _ in result.excluded]
    assert len(predicted) + len(excluded) == len(docs)
    assert sorted(predicted + excluded) == sorted(script)
    assert all(script[doc_id] == "echo" for doc_id in predicted)
    assert all(reason.startswith(("BackendTimeout: ", "ProtocolViolation: ",
                                  "SpanOutOfRange: "))
               for _, reason in result.excluded)
    assert elapsed < (retry + 1) * 0.5 + START_UP_ALLOWANCE_S


def test_dead_backend_excludes_every_document_at_once(note_corpus):
    backend = RecognizerBackend(kind=EXTERNAL, endpoint=f"{sys.executable} -c pass",
                                timeout_ms=5000)
    for _ in range(5):
        t0 = time.monotonic()
        result = recognize_external(note_corpus, backend)
        assert time.monotonic() - t0 < 2.0
        assert result.predictions == []
        assert [doc_id for doc_id, _ in result.excluded] == [d.id for d in note_corpus]
        assert all(r.startswith("ProtocolViolation: backend process exited")
                   for _, r in result.excluded)


def test_subprocess_wire_drops_late_replies_and_closes_stdout(mock_cmd, tmp_path):
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"late": "sleep_once:1000"}))
    wire = _SubprocessWire(f"{mock_cmd} --script {script}", timeout_ms=500)
    try:
        for _ in range(20):  # until the mock has started and answers in time
            try:
                wire.request({"id": "warm", "text": "x", "schema": []})
                break
            except BackendTimeout:
                pass
        with pytest.raises(BackendTimeout):
            wire.request({"id": "late", "text": "x", "schema": []})
        time.sleep(1.0)  # the late reply lands while no request waits for it
        assert wire.request({"id": "next", "text": "x", "schema": []}) == {
            "id": "next", "spans": []}
        assert wire._responses == {}
    finally:
        wire.close()
    assert wire.proc.stdout.closed


def test_subprocess_wire_drops_undecodable_lines():
    wire = _SubprocessWire(f"{sys.executable} -c \"print('not json')\"", timeout_ms=5000)
    try:
        with pytest.raises(ProtocolViolation):
            wire.request({"id": "a", "text": "x", "schema": []})
        assert wire._responses == {}
    finally:
        wire.close()


def test_http_round_trip(mock_cmd, tmp_path, note_corpus):
    gold_path = tmp_path / "gold.jsonl"
    gold_path.write_text(write_jsonl(note_corpus))
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "deidkit.mock_backend",
         "--gold", str(gold_path), "--http", str(port)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                with socket.create_connection(("127.0.0.1", port), timeout=0.2):
                    break
            except OSError:
                time.sleep(0.05)
        backend = RecognizerBackend(kind=EXTERNAL,
                                    endpoint=f"http://127.0.0.1:{port}/",
                                    timeout_ms=5000, retry=2)
        result = recognize_external(note_corpus, backend)
        assert len(result.predictions) + len(result.excluded) == len(note_corpus)
        assert result.excluded == []
    finally:
        proc.terminate()
        proc.wait(timeout=5)


@contextlib.contextmanager
def http_mock(*args):
    """A mock_backend serving HTTP on a free local port; yields its URL."""
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "deidkit.mock_backend", *args, "--http", str(port)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                with socket.create_connection(("127.0.0.1", port), timeout=0.2):
                    break
            except OSError:
                time.sleep(0.05)
        yield f"http://127.0.0.1:{port}/"
    finally:
        proc.terminate()
        proc.wait(timeout=5)


def test_http_dropped_connection_excludes_document(tmp_path, note_corpus):
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"doc-1": "drop"}))
    docs = note_corpus.documents[:3]
    with http_mock("--script", str(script)) as url:
        backend = RecognizerBackend(kind=EXTERNAL, endpoint=url, timeout_ms=5000)
        result = recognize_external(docs, backend)
    assert [p.doc_id for p in result.predictions] == ["doc-0", "doc-2"]
    assert [doc_id for doc_id, _ in result.excluded] == ["doc-1"]
    assert result.excluded[0][1].startswith("ProtocolViolation: http error")


def test_recognize_corpus_builtin_never_excludes(note_corpus):
    backend = RecognizerBackend(kind=BUILTIN_RULES, name="rules")
    result = recognize_corpus(note_corpus, backend)
    assert result.excluded == []
    assert len(result.predictions) == len(note_corpus)
