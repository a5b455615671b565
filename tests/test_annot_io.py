import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from deidkit.annot_io import (
    BadColumnCount,
    BadRecordLine,
    EmptyEntity,
    InvalidLabel,
    MalformedMarkup,
    MissingEnvelope,
    UnknownTag,
    parse_inline_xml,
    read_conll,
    read_corpus,
    read_jsonl,
    write_conll,
    write_corpus,
    write_inline_xml,
    write_jsonl,
)
from deidkit.core import CANONICAL_SCHEMA, Corpus, Document, EntitySpan

from _oracles import oracle_parse_inline_xml, random_doc


XML = ("<RECORD>Patient <TYPE='PATIENT'>Asha Rao</TYPE> seen on "
       "<TYPE='DATE'>25-08-2023</TYPE>.</RECORD>")


def test_parse_inline_xml_offsets():
    doc = parse_inline_xml(XML, doc_id="d1")
    assert doc.text == "Patient Asha Rao seen on 25-08-2023."
    assert [(e.start, e.end, e.tag) for e in doc.entities] == [
        (8, 16, "PATIENT"), (25, 35, "DATE"),
    ]
    assert doc.entities[0].surface == "Asha Rao"


def test_parse_inline_xml_double_quotes():
    doc = parse_inline_xml('<RECORD><TYPE="ID">77</TYPE></RECORD>')
    assert doc.entities[0].tag == "ID"


def test_envelope_optional_by_default():
    doc = parse_inline_xml("No markup at all.")
    assert doc.text == "No markup at all."
    assert doc.entities == ()


def test_envelope_required_when_strict():
    with pytest.raises(MissingEnvelope):
        parse_inline_xml("No markup.", require_envelope=True)


def test_text_outside_envelope_dropped():
    doc = parse_inline_xml("Sure, here you go:\n" + XML + "\nHope it helps!")
    assert doc.text.startswith("Patient") and doc.text.endswith(".")


@pytest.mark.parametrize("raw", [
    "<RECORD>a</RECORD><RECORD>b</RECORD>",
    "</RECORD>a<RECORD>",
    "<RECORD>unclosed",
    "<RECORD><TYPE='ID'>x</RECORD>",                  # unclosed entity
    "<RECORD>stray </TYPE></RECORD>",                 # close without open
    "<RECORD><TYPE='ID'>a <TYPE='DATE'>b</TYPE></TYPE></RECORD>",  # nested
])
def test_malformed_markup_rejected(raw):
    with pytest.raises(MalformedMarkup):
        parse_inline_xml(raw)


def test_empty_entity_rejected():
    with pytest.raises(EmptyEntity):
        parse_inline_xml("<RECORD><TYPE='ID'></TYPE></RECORD>")


def test_unknown_tag_actions(tmp_path):
    raw = "<RECORD><TYPE='Blood_Group'>B+</TYPE></RECORD>"
    assert parse_inline_xml(raw).entities[0].tag == "Blood_Group"
    path = tmp_path / "note.xml"
    path.write_text(raw)
    with pytest.raises(UnknownTag, match="'Blood_Group' not in schema 'canonical-9'"):
        read_corpus(path)
    corpus = read_corpus(path, schema=None)
    assert corpus.documents[0].entities[0].tag == "Blood_Group"
    assert corpus.schema.tags == ("Blood_Group", "OTHERS")


def test_write_inline_xml_round_trip(sample_doc):
    raw = write_inline_xml(sample_doc)
    assert raw.startswith("<RECORD>") and raw.endswith("</RECORD>")
    back = parse_inline_xml(raw, doc_id=sample_doc.id)
    assert back.text == sample_doc.text
    assert back.entities == sample_doc.entities


def test_conll_round_trip_shape():
    raw = "Asha\tB-PATIENT\nRao\tI-PATIENT\nleft\tO\n\non\tO\n01-01-2024\tB-DATE\n"
    corpus = read_conll(raw)
    assert len(corpus) == 2
    assert corpus.get("doc-0").text == "Asha Rao left"
    assert corpus.get("doc-1").entities[0].tag == "DATE"
    assert write_conll(corpus) == raw


def test_conll_bad_columns():
    with pytest.raises(BadColumnCount):
        read_conll("token\n")
    with pytest.raises(BadColumnCount):
        read_conll("a\tb\tc\n")


def test_conll_bad_label():
    with pytest.raises(InvalidLabel):
        read_conll("a\tB_DATE\n")


def test_conll_strict_vs_lenient():
    raw = "a\tO\nb\tI-DATE\n"
    from deidkit.core import InvalidBioSequence

    with pytest.raises(InvalidBioSequence):
        read_conll(raw)
    corpus = read_conll(raw, strict=False)
    assert corpus.get("doc-0").entities[0].tag == "DATE"


def test_jsonl_round_trip(sample_corpus):
    raw = write_jsonl(sample_corpus)
    lines = raw.strip().split("\n")
    assert len(lines) == 2
    rec = json.loads(lines[0])
    assert set(rec) == {"id", "text", "entities", "meta"}
    back = read_jsonl(raw)
    assert back.documents == sample_corpus.documents


def test_jsonl_meta_keys_sorted():
    doc = Document(id="d", text="x", meta={"z": 1, "a": 2})
    raw = write_jsonl(Corpus(documents=(doc,), schema=CANONICAL_SCHEMA))
    assert raw.index('"a"') < raw.index('"z"')


def test_jsonl_bad_lines():
    with pytest.raises(BadRecordLine):
        read_jsonl("not json\n")
    with pytest.raises(BadRecordLine):
        read_jsonl('{"text": "missing id"}\n')
    with pytest.raises(BadRecordLine):
        read_jsonl('{"id": "d", "text": "ab", "entities": [{"start": 0, "end": 9, "tag": "ID"}]}\n')


def test_jsonl_unknown_tag_vs_inferred():
    raw = '{"id": "d", "text": "B+", "entities": [{"start": 0, "end": 2, "tag": "Blood_Group"}]}\n'
    with pytest.raises(UnknownTag):
        read_jsonl(raw)
    corpus = read_jsonl(raw, schema=None)
    assert "Blood_Group" in corpus.schema.tags
    assert corpus.schema.other == "OTHERS"


def test_read_write_corpus_by_suffix(tmp_path, sample_corpus):
    for name in ("c.jsonl", "c.conll"):
        path = tmp_path / name
        write_corpus(sample_corpus, path)
        back = read_corpus(path)
        assert [d.id for d in back] == ["d1", "d2"] or len(back) == 2

    xml_dir = tmp_path / "records"
    write_corpus(sample_corpus, xml_dir)
    back = read_corpus(xml_dir)
    assert len(back) == 2
    assert {d.text for d in back} == {d.text for d in sample_corpus}


def test_read_corpus_unknown_suffix(tmp_path):
    from deidkit.core import DeidError

    path = tmp_path / "c.csv"
    path.write_text("x")
    with pytest.raises(DeidError):
        read_corpus(path)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_xml_round_trip_property(seed):
    doc = random_doc(random.Random(seed), "doc-0")
    back = parse_inline_xml(write_inline_xml(doc), doc_id="doc-0")
    assert back.text == doc.text
    assert back.entities == doc.entities


def _mutate(raw: str, rng: random.Random) -> str:
    """One edit that can break the markup: drop, duplicate or strand a
    close tag, open a nested or empty element, lose a quote or a '>', name
    an unknown tag, or wrap the envelope in chatter."""
    def cut(s, marker, repl):
        hits = [k for k in range(len(s)) if s.startswith(marker, k)]
        if not hits:
            return s
        k = rng.choice(hits)
        return s[:k] + repl(marker) + s[k + len(marker):]

    def insert(s, piece):
        k = rng.randint(0, len(s))
        return s[:k] + piece + s[k:]

    edits = [
        lambda s: cut(s, "</TYPE>", lambda m: ""),
        lambda s: cut(s, "</TYPE>", lambda m: m + m),
        lambda s: insert(s, "</TYPE>"),
        lambda s: insert(s, "<TYPE='DATE'>"),
        lambda s: insert(s, "<TYPE='ID'>x</TYPE>"),
        lambda s: insert(s, "<TYPE='ID'></TYPE>"),
        lambda s: insert(s, rng.choice(["<TYPE=", "</TYP", "<", "'", ">", "<TYPE=''>"])),
        lambda s: cut(s, "<TYPE='", lambda m: "<TYPE="),
        lambda s: cut(s, "'>", lambda m: "'"),
        lambda s: cut(s, "'>", lambda m: "\">"),
        lambda s: cut(s, "<TYPE='", lambda m: "<TYPE='Blood_" if rng.random() < 0.5 else m),
        lambda s: insert(s, "<TYPE=\"Blood_Group\">B+</TYPE>"),
        lambda s: "Sure, here it is:\n" + s + "\nHope it helps!",
        lambda s: cut(s, rng.choice(["<RECORD>", "</RECORD>"]), lambda m: ""),
        lambda s: insert(s, "<RECORD>"),
    ]
    return rng.choice(edits)(raw)


@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_parse_inline_xml_matches_char_oracle(seed):
    rng = random.Random(seed)
    raw = write_inline_xml(random_doc(rng, "doc-0", max_tokens=30))
    for _ in range(rng.choice([0, 1, 1, 2, 3])):
        raw = _mutate(raw, rng)
    require_envelope = rng.random() < 0.3

    def outcome(parse):
        try:
            return parse(raw, require_envelope, doc_id="doc-0")
        except Exception as exc:  # compared by class and message
            return type(exc), str(exc)

    assert outcome(parse_inline_xml) == outcome(oracle_parse_inline_xml)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_jsonl_round_trip_property(seed):
    doc = random_doc(random.Random(seed), "doc-0")
    corpus = Corpus(documents=(doc,), schema=CANONICAL_SCHEMA)
    back = read_jsonl(write_jsonl(corpus))
    assert back.documents == corpus.documents


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_conll_round_trip_property(seed):
    doc = random_doc(random.Random(seed), "doc-0")
    corpus = Corpus(documents=(doc,), schema=CANONICAL_SCHEMA)
    back = read_conll(write_conll(corpus))
    # single-space join preserves these texts exactly
    assert back.get("doc-0").text == doc.text
    assert back.get("doc-0").entities == doc.entities
