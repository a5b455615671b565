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

from deidkit.annot_io import document_from_record, write_jsonl
from deidkit.cli import main
from deidkit.core import CANONICAL_SCHEMA, CANONICAL_TAGS, Corpus, Document, EntitySpan
from deidkit.recognize import (
    BUILTIN_RULES,
    EXTERNAL,
    BackendTimeout,
    InvalidPattern,
    ProtocolViolation,
    RecognizerBackend,
    Rule,
    Rulebook,
    SpanOutOfRange,
    _lexicon_pattern,
    _parse_response,
    _SubprocessWire,
    align_token_predictions,
    default_rulebook,
    load_rulebook,
    recognize_corpus,
    recognize_external,
    recognize_rules,
)

from _oracles import (
    oracle_document_from_record, oracle_lexicon_pattern, oracle_recognize_rules,
    oracle_validate_spans,
)


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


# re.I treats s, S and ſ as one letter, k, K and the Kelvin sign as another,
# and i, I and the dotless ı as a third; the rest are spaces, punctuation and
# regex metacharacters
LEXICON_CHARS = "abkK\u212asSſiIı .-'*?+()[]{}|\\^$"
# each letter to one that re.I equates with it but str.lower does not
IGNORECASE_TWIN = str.maketrans({"s": "ſ", "S": "ſ", "ſ": "s", "k": "\u212a", "K": "\u212a",
                                 "\u212a": "k", "i": "ı", "I": "ı", "ı": "i"})


@settings(max_examples=300)
@given(st.lists(st.text(LEXICON_CHARS, min_size=1, max_size=5), min_size=1, max_size=6),
       st.data())
def test_lexicon_trie_finds_what_the_alternation_finds(words, data):
    entries = {}  # insertion-ordered, as a lexicon file is
    for word in words:
        cut = data.draw(st.integers(1, len(word)))
        tail, twin_tail = (data.draw(st.text(LEXICON_CHARS, min_size=1, max_size=4))
                           for _ in range(2))
        # the word, a prefix of it, longer entries that start with it as re.I
        # reads it, a case variant
        entries.update(dict.fromkeys((word, word[:cut], word + tail,
                                      word.translate(IGNORECASE_TWIN) + twin_tail,
                                      word.swapcase())))
    entries = [e for e in entries if e]
    pieces = data.draw(st.lists(st.sampled_from(entries) | st.text(LEXICON_CHARS, max_size=3),
                                max_size=8))
    text = "".join(pieces)
    trie = re.compile(_lexicon_pattern(entries), re.I)
    alternation = re.compile(oracle_lexicon_pattern(entries), re.I)
    assert [m.span() for m in trie.finditer(text)] == \
        [m.span() for m in alternation.finditer(text)]


def test_lexicon_entries_equal_under_ignorecase_share_a_trie_node(tmp_path):
    # keyed by str.lower, "st" and "ſt x" would sit in two branches and the
    # trie would stop at "st"; the longest entry wins, as in the alternation
    lexicon = tmp_path / "places.txt"
    lexicon.write_text("st\nſt x\n", encoding="utf-8")
    path = tmp_path / "rules.json"
    path.write_text(json.dumps({"patterns": [], "lexicons": {"LOCATION": str(lexicon)}}))
    spans = recognize_rules("go to st x, not sty", load_rulebook(path))
    assert [(s.start, s.end, s.surface) for s in spans] == [(6, 10, "st x")]


@pytest.mark.parametrize("entries", [
    ["a" * i for i in range(1, 700)],  # each entry a prefix of the next
    ["a" * i + "b" for i in range(1, 700)],  # a branch point at every step of one path
], ids=["prefix-chain", "branch-chain"])
def test_lexicon_that_nests_too_deep_is_an_invalid_pattern(tmp_path, entries):
    lexicon = tmp_path / "deep.txt"
    lexicon.write_text("\n".join(entries) + "\n")
    path = tmp_path / "rules.json"
    path.write_text(json.dumps({"patterns": [], "lexicons": {"PATIENT": str(lexicon)}}))
    with pytest.raises(InvalidPattern, match=f"PATIENT lexicon {lexicon}: entries nest too deep"):
        load_rulebook(path)
    shallow = tmp_path / "shallow.txt"
    shallow.write_text("\n".join(entries[:100]) + "\n")
    path.write_text(json.dumps({"patterns": [], "lexicons": {"PATIENT": str(shallow)}}))
    assert recognize_rules("x " + entries[99] + " y", load_rulebook(path))[0].start == 2


def called_below(frames: int, fn):
    """fn() from `frames` frames below this call."""
    return fn() if frames == 0 else called_below(frames - 1, fn)


def test_lexicon_nesting_is_decided_by_the_bound_not_the_stack(tmp_path):
    # from the test's own frame and from 500 frames down, chains of up to 101
    # entries compile and longer chains are refused; re.purge empties re's
    # cache, so each pattern is compiled again
    chain = ["a" * i for i in range(1, 700)]
    path = tmp_path / "rules.json"
    for n in (100, 101, 102, 150, 699):
        lexicon = tmp_path / f"chain{n}.txt"
        lexicon.write_text("\n".join(chain[:n]) + "\n")
        path.write_text(json.dumps({"patterns": [], "lexicons": {"PATIENT": str(lexicon)}}))
        for frames in (0, 500):
            re.purge()
            if n <= 101:
                book = called_below(frames, lambda: load_rulebook(path))
                assert recognize_rules("x " + chain[n - 1] + " y", book)[0].start == 2
            else:
                with pytest.raises(InvalidPattern, match="entries nest too deep"):
                    called_below(frames, lambda: load_rulebook(path))


def test_a_rewritten_lexicon_file_is_read_again(tmp_path):
    lexicon = tmp_path / "names.txt"
    path = tmp_path / "rules.json"
    path.write_text(json.dumps({"patterns": [], "lexicons": {"PATIENT": str(lexicon)}}))
    text = "Asha Rao met Ravi Menon"
    for name in ("Asha Rao", "Ravi Menon"):
        lexicon.write_text(name + "\n")
        assert [s.surface for s in recognize_rules(text, load_rulebook(path))] == [name]


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


def tok(surface, start, label="O"):
    return {"surface": surface, "start": start, "end": start + len(surface), "label": label}


@pytest.mark.parametrize("records, message", [
    ([tok("Asha", 0, "Q-DATE")], "bad label 'Q-DATE'"),
    ([tok("Asha", 0, "B-")], "bad label 'B-'"),
    ([tok("Rao", 5), tok("Asha", 0)], "tokens overlap or are unordered at offset 0"),
    ([tok("Asha", 0), tok("Asha Rao", 0)], "tokens overlap or are unordered at offset 0"),
    # order is checked over all tokens before any label
    ([tok("Asha", 0, "Q-DATE"), tok("Rao", 5), tok("Rao", 5)],
     "tokens overlap or are unordered at offset 5"),
], ids=["label-q", "label-empty-tag", "unordered", "overlap", "order-before-label"])
def test_token_reply_checks_keep_their_messages(records, message):
    # the exclusion reason of a malformed token reply quotes these messages
    with pytest.raises(ValueError) as exc:
        align_token_predictions(records, "Asha Rao left")
    assert str(exc.value) == message


# --- span records: one decoder for JSONL lines and backend replies ---------

RECORD_FAULTS = ("none", "missing_key", "bool_offset", "float_offset", "out_of_range",
                 "overlap", "non_string_tag", "unknown_tag")


@st.composite
def span_records(draw):
    """(text, span records, fault): disjoint in-range records in any order,
    then at most one fault applied to one of them."""
    text = draw(st.text(alphabet="ab c.", min_size=1, max_size=30))
    cuts = sorted(draw(st.sets(st.integers(0, len(text)), max_size=8)))
    records = [{"start": a, "end": b, "tag": draw(st.sampled_from(CANONICAL_TAGS))}
               for a, b in zip(cuts[::2], cuts[1::2])]
    records = draw(st.permutations(records)) or [{"start": 0, "end": len(text), "tag": "ID"}]
    fault = draw(st.sampled_from(RECORD_FAULTS))
    rec = records[draw(st.integers(0, len(records) - 1))]
    if fault == "missing_key":
        del rec[draw(st.sampled_from(["start", "end", "tag"]))]
    elif fault == "bool_offset":  # [0, 1) written as [false, true): in range, not integers
        records = [r for r in records if r["start"] >= 1]
        records.insert(draw(st.integers(0, len(records))),
                       {"start": False, "end": True, "tag": rec["tag"]})
    elif fault == "float_offset":
        key = draw(st.sampled_from(["start", "end"]))
        rec[key] = float(rec[key])
    elif fault == "out_of_range":
        start, end, k = rec["start"], rec["end"], draw(st.integers(1, 3))
        rec["start"], rec["end"] = draw(st.sampled_from([
            (-k, end), (start, len(text) + k), (start, start), (end, start),
            (len(text) + k - 1, len(text) + k)]))
    elif fault == "overlap":
        start = draw(st.integers(rec["start"], rec["end"] - 1))
        records.append({"start": start, "end": draw(st.integers(start + 1, len(text))),
                        "tag": rec["tag"]})
    elif fault == "non_string_tag":
        rec["tag"] = draw(st.sampled_from([5, None, True, ["ID"]]))
    elif fault == "unknown_tag":
        rec["tag"] = "NOT_A_TAG"
    return text, records, fault


def _file_outcome(decode, rec):
    try:
        return decode(rec, 3)
    except Exception as exc:  # class and message are the outcome
        return type(exc), str(exc)


def _old_wire_verdict(doc, records):
    try:
        return "accept", oracle_validate_spans(doc, records, CANONICAL_SCHEMA)
    except (ProtocolViolation, SpanOutOfRange) as exc:
        return "exclude", type(exc).__name__
    except (KeyError, TypeError):
        return "aborted the run", None


@settings(max_examples=300)
@given(span_records())
def test_span_records_decode_as_the_two_old_decoders_did(case):
    text, records, fault = case
    # JSONL: an equal Document, or the same exception class and message
    rec = {"id": "d", "text": text, "entities": records}
    assert _file_outcome(document_from_record, rec) == \
        _file_outcome(oracle_document_from_record, rec)
    # wire: the same verdict and reason class on every reply the old code
    # handled, and an exclusion where it aborted the run
    doc = Document(id="d", text=text)
    try:
        reply = {"id": "d", "spans": records}
        new = "accept", _parse_response(doc, reply, RecognizerBackend(EXTERNAL, "x")).entities
    except (ProtocolViolation, SpanOutOfRange) as exc:
        new = "exclude", type(exc).__name__
    old = _old_wire_verdict(doc, records)
    if fault == "bool_offset" and old[0] == "accept":
        # the one intended difference: the old isinstance check let bools through
        assert new == ("exclude", "ProtocolViolation")
    elif old[0] == "aborted the run":
        assert new == ("exclude", "ProtocolViolation")
    else:
        assert new == old


SCRIPTED_BACKEND = """\
import json, sys
replies = json.load(open(sys.argv[1]))
for line in sys.stdin:
    request = json.loads(line)
    reply = replies.get(request["id"], {"spans": []})
    sys.stdout.write(json.dumps({"id": request["id"], **reply}) + "\\n")
    sys.stdout.flush()
"""


@pytest.mark.parametrize("reply", [
    {"spans": [{"end": 4, "tag": "PATIENT"}]},
    {"spans": [5]},
    {"spans": 5},
    {"spans": [{"start": False, "end": True, "tag": "PATIENT"}]},
    {"tokens": [{"surface": "Asha", "start": 0, "end": 4, "label": "Q-DATE"}]},
    {"tokens": [{"surface": "Rao", "start": 5, "end": 8, "label": "O"},
                {"surface": "Asha", "start": 0, "end": 4, "label": "O"}]},
    {"tokens": [{"surface": "Asha", "start": 0, "end": 4, "label": 7}]},
    {"spans": {}},
    {"spans": ""},
    {"tokens": {}},
    {"tokens": ""},
    {"tokens": [{"surface": "A", "start": False, "end": True, "label": "B-PATIENT"}]},
    {"tokens": [{"surface": "Asha", "start": 0.0, "end": 4.0, "label": "B-PATIENT"}]},
    {"tokens": [{"surface": 4, "start": 0, "end": 4, "label": "O"}]},
], ids=["span-without-start", "span-not-object", "spans-not-list", "span-bool-offsets",
        "token-label-q", "tokens-out-of-order", "token-label-int", "spans-object",
        "spans-string", "tokens-object", "tokens-string", "token-bool-offsets",
        "token-float-offsets", "token-surface-int"])
def test_malformed_reply_excludes_only_its_document(tmp_path, reply):
    script = tmp_path / "backend.py"
    script.write_text(SCRIPTED_BACKEND)
    replies = tmp_path / "replies.json"
    replies.write_text(json.dumps({"d1": reply}))
    docs = [Document(id=f"d{i}", text="Asha Rao left on 01-02-2024") for i in range(3)]
    src, pred, report = tmp_path / "in.jsonl", tmp_path / "pred.jsonl", tmp_path / "report.json"
    src.write_text(write_jsonl(Corpus(documents=tuple(docs))))
    assert main(["recognize", "--in", str(src), "--out", str(pred), "--report", str(report),
                 "--backend", f"{sys.executable} {script} {replies}"]) == 0
    predicted = [json.loads(line)["id"] for line in pred.read_text().splitlines()]
    excluded = json.loads(report.read_text())["excluded"]
    assert len(predicted) + len(excluded) == len(docs)
    assert predicted == ["d0", "d2"]
    assert [doc_id for doc_id, _ in excluded] == ["d1"]
    assert excluded[0][1].startswith("ProtocolViolation: ")


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
                                 timeout_ms=2000, retry=1)
    result = recognize_external(note_corpus, backend)
    assert result.excluded == []
    assert result.retries == 1


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
        assert wire.receive(0) == [] and wire._held == b""  # no reply held
    finally:
        wire.close()
    assert wire.proc.stdout.closed


def test_subprocess_wire_drops_undecodable_lines():
    wire = _SubprocessWire(f"{sys.executable} -c \"print('not json')\"", timeout_ms=5000)
    try:
        with pytest.raises(ProtocolViolation):
            wire.request({"id": "a", "text": "x", "schema": []})
        assert wire._held == b""  # no reply held
    finally:
        wire.close()


def test_backend_that_never_reads_times_out():
    # 120,000-char requests fill the pipe: the clock must run while they wait
    docs = [Document(id=f"big-{i}", text="x" * 120_000, entities=()) for i in range(3)]
    backend = RecognizerBackend(kind=EXTERNAL,
                                endpoint=f"{sys.executable} -c \"import time; time.sleep(8)\"",
                                timeout_ms=1000, max_in_flight=2)
    t0 = time.monotonic()
    result = recognize_external(docs, backend)
    assert time.monotonic() - t0 < 3.0
    assert result.predictions == []
    assert [doc_id for doc_id, _ in result.excluded] == [d.id for d in docs]
    assert all(r.startswith("BackendTimeout: ") for _, r in result.excluded)


# Holds requests until `cap` (or all that remain) are unanswered and no more
# arrive for 50 ms, then answers them in reverse order: one span per request,
# as long as its text. Holding more than `cap` turns every answer into an error.
HOLDING_BACKEND = """
import json, os, select, sys
cap, total = int(sys.argv[1]), int(sys.argv[2])
rest, held, answered = b"", [], 0
while answered < total:
    full = len(held) >= min(cap, total - answered)
    if select.select([0], [], [], 0.05 if full else None)[0]:
        chunk = os.read(0, 1 << 16)
        if not chunk:
            break
        *lines, rest = (rest + chunk).split(b"\\n")
        held += [json.loads(line) for line in lines if line.strip()]
        continue
    for req in reversed(held):
        if len(held) > cap:
            reply = {"id": req["id"], "error": f"{len(held)} held, cap {cap}"}
        else:
            reply = {"id": req["id"], "spans": [{"start": 0, "end": len(req["text"]), "tag": "ID"}]}
        sys.stdout.write(json.dumps(reply) + "\\n")
    sys.stdout.flush()
    answered, held = answered + len(held), []
"""


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_replies_out_of_order_join_in_input_order_within_cap(tmp_path, cap):
    docs = [Document(id=f"doc-{i}", text="x" * (i + 1), entities=()) for i in range(7)]
    script = tmp_path / "holding.py"
    script.write_text(HOLDING_BACKEND)
    backend = RecognizerBackend(kind=EXTERNAL,
                                endpoint=f"{sys.executable} {script} {cap} {len(docs)}",
                                timeout_ms=10_000, max_in_flight=cap)
    result = recognize_external(docs, backend)
    assert result.excluded == []
    assert [p.doc_id for p in result.predictions] == [d.id for d in docs]
    assert [p.spans[0].end for p in result.predictions] == [len(d.text) for d in docs]


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


def test_http_requests_run_concurrently(tmp_path, note_corpus):
    docs = note_corpus.documents[:4]
    script = tmp_path / "script.json"
    script.write_text(json.dumps({d.id: "sleep_once:1000" for d in docs}))
    with http_mock("--script", str(script)) as url:
        backend = RecognizerBackend(kind=EXTERNAL, endpoint=url, timeout_ms=5000,
                                    max_in_flight=4)
        t0 = time.monotonic()
        result = recognize_external(docs, backend)
        elapsed = time.monotonic() - t0
    assert [p.doc_id for p in result.predictions] == [d.id for d in docs]
    assert elapsed < 2.5  # one after another would take 4 s


def test_recognize_corpus_builtin_never_excludes(note_corpus):
    backend = RecognizerBackend(kind=BUILTIN_RULES)
    result = recognize_corpus(note_corpus, backend)
    assert result.excluded == []
    assert len(result.predictions) == len(note_corpus)
    # the meta names the backend as `recognize --backend rules` does
    assert {p.document.meta["backend"] for p in result.predictions} == {"rules"}
