import dataclasses
import logging
import random

import pytest
from hypothesis import example, given, strategies as st

from deidkit.core import (
    CANONICAL_SCHEMA,
    CANONICAL_TAGS,
    Corpus,
    Document,
    EntitySpan,
    EntityTokenMisalignment,
    InvalidBioSequence,
    UnknownTag,
    bio_to_spans,
    build_schema,
    spans_to_bio,
    tokenize,
)

from _oracles import OracleDocument, OracleEntitySpan, oracle_check_bio, random_doc


def surfaces(text):
    return [text[start:end] for start, end in tokenize(text)]


def test_canonical_schema_shape():
    assert len(CANONICAL_TAGS) == 9
    assert CANONICAL_SCHEMA.other == "OTHERS"
    assert CANONICAL_SCHEMA.tags[-1] == "OTHERS"
    assert "OTHERS" not in CANONICAL_SCHEMA.phi_tags
    assert len(CANONICAL_SCHEMA.phi_tags) == 8


def test_schema_membership():
    assert "DATE" in CANONICAL_SCHEMA
    assert "date" not in CANONICAL_SCHEMA


@pytest.mark.parametrize("text,expect", [
    ("BP: 120/80 mmHg", [(0, 2), (2, 3), (4, 10), (11, 15)]),
    ("Dr. Verma", [(0, 2), (2, 3), (4, 9)]),
    ("25-08-2023", [(0, 10)]),
    ("(42)", [(0, 1), (1, 3), (3, 4)]),
    ("", []),
    ("   ", []),
    ("a", [(0, 1)]),
])
def test_tokenize_offsets(text, expect):
    assert tokenize(text) == expect


def test_tokenize_surfaces():
    assert surfaces("BP: 120/80 mmHg") == ["BP", ":", "120/80", "mmHg"]
    assert surfaces("Dr. Verma.") == ["Dr", ".", "Verma", "."]


def test_tokenize_internal_punctuation_kept():
    assert surfaces("dr.k@example.com") == ["dr.k@example.com"]
    assert surfaces("ADM-482910") == ["ADM-482910"]


@given(st.text(min_size=0, max_size=80))
def test_tokenize_partitions_text(text):
    prev = 0
    for start, end in tokenize(text):
        assert prev <= start < end <= len(text)
        surface = text[start:end]
        assert surface.strip() == surface and surface
        # the skipped gap is pure whitespace
        assert text[prev:start].strip() == ""
        prev = end
    assert text[prev:].strip() == ""


def test_document_sorts_entities():
    doc = Document(
        id="d",
        text="a b c",
        entities=(EntitySpan(4, 5, "ID", "c"), EntitySpan(0, 1, "AGE", "a")),
    )
    assert [e.tag for e in doc.entities] == ["AGE", "ID"]


@pytest.mark.parametrize("bad", [
    (EntitySpan(0, 1, "AGE", "b"),),                       # surface mismatch
    (EntitySpan(0, 3, "AGE", "a b"), EntitySpan(2, 5, "ID", "b c")),  # overlap
    (EntitySpan(0, 99, "AGE", "x"),),                      # out of range
])
def test_document_rejects_bad_spans(bad):
    with pytest.raises(ValueError):
        Document(id="d", text="a b c", entities=bad)


def _built(make, *args):
    """("ok", the fields, nested spans as tuples) or (error class, message)."""
    try:
        return "ok", dataclasses.astuple(make(*args))
    except Exception as exc:  # the classes are what is compared
        return type(exc), str(exc)


@example("abcdef", "d", [(2 / 7, 2, "ID", None), (2 / 7, 1, "ID", "a")])  # one start, two ends
@given(st.text("ab \n", min_size=1, max_size=12), st.sampled_from(["d", "d", "d", ""]),
       st.lists(st.tuples(st.floats(0, 1), st.integers(-1, 4), st.sampled_from(["AGE", "ID"]),
                          st.sampled_from([None, None, None, "", "a", "ab"])), max_size=5))
def test_constructors_match_the_post_init_versions(text, doc_id, raw_spans):
    # valid and invalid spans, in any order; a span starts at a share of the
    # text (or one before it), and a surface of None is the exact slice
    new_spans, old_spans = [], []
    for at, length, tag, surface in raw_spans:
        start = round(at * (len(text) + 1)) - 1
        end = start + length
        fields = (start, end, tag, text[max(start, 0):end] if surface is None else surface)
        built = _built(EntitySpan, *fields)
        assert built == _built(OracleEntitySpan, *fields)
        if built[0] == "ok":
            new_spans.append(EntitySpan(*fields))
            old_spans.append(OracleEntitySpan(*fields))
    assert _built(Document, doc_id, text, tuple(new_spans), {"k": 1}) == \
        _built(OracleDocument, doc_id, text, tuple(old_spans), {"k": 1})


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_document_constructor_matches_on_valid_shuffled_entities(seed):
    rng = random.Random(seed)
    doc = random_doc(rng, "d")
    fields = [dataclasses.astuple(e) for e in doc.entities]
    rng.shuffle(fields)
    new = Document(doc.id, doc.text, tuple(EntitySpan(*f) for f in fields), doc.meta)
    old = OracleDocument(doc.id, doc.text, tuple(OracleEntitySpan(*f) for f in fields), doc.meta)
    assert dataclasses.astuple(new) == dataclasses.astuple(old)
    assert new == doc and hash(new.entities) == hash(doc.entities)


def test_corpus_names_the_first_fault_in_document_order():
    a = Document(id="a", text="x", entities=(EntitySpan(0, 1, "NAME", "x"),))
    b = Document(id="b", text="y")
    with pytest.raises(UnknownTag, match="tag 'NAME'"):
        Corpus(documents=(b, a, b), schema=CANONICAL_SCHEMA)
    with pytest.raises(ValueError, match="duplicate document id 'b'"):
        Corpus(documents=(b, b, a), schema=CANONICAL_SCHEMA)


def test_entity_span_rejects_empty():
    with pytest.raises(ValueError):
        EntitySpan(3, 3, "AGE", "")


def test_corpus_len_and_order(sample_corpus):
    assert [doc.id for doc in sample_corpus] == ["d1", "d2"]
    assert len(sample_corpus) == 2


def test_corpus_rejects_duplicate_ids(sample_doc):
    with pytest.raises(ValueError):
        Corpus(documents=(sample_doc, sample_doc), schema=CANONICAL_SCHEMA)


def test_corpus_rejects_tag_outside_schema():
    doc = Document(id="d", text="x", entities=(EntitySpan(0, 1, "NAME", "x"),))
    with pytest.raises(ValueError):
        Corpus(documents=(doc,), schema=CANONICAL_SCHEMA)


def test_build_schema_appends_other():
    schema = build_schema(["NAME", "DATE"], name="custom")
    assert schema.tags == ("NAME", "DATE", "OTHERS")
    assert schema.other == "OTHERS"


def test_spans_to_bio_hand_case(sample_doc):
    labels = spans_to_bio(sample_doc, tokenize(sample_doc.text))
    by_surface = dict(zip(surfaces(sample_doc.text), labels))
    assert by_surface["Asha"] == "B-PATIENT"
    assert by_surface["Rao"] == "I-PATIENT"
    assert by_surface["42"] == "B-AGE"
    assert by_surface["Patient"] == "O"


def test_spans_to_bio_misalignment():
    doc = Document(id="d", text="abcdef", entities=(EntitySpan(2, 4, "ID", "cd"),))
    with pytest.raises(EntityTokenMisalignment):
        spans_to_bio(doc, tokenize(doc.text))


def test_bio_to_spans_strict_rejects_dangling_i():
    with pytest.raises(InvalidBioSequence):
        bio_to_spans(tokenize("a b"), ("O", "I-DATE"), "a b", strict=True)


def test_bio_to_spans_lenient_repairs_dangling_i(caplog):
    with caplog.at_level(logging.DEBUG, logger="deidkit.core"):
        spans = bio_to_spans(tokenize("a b c"), ("O", "I-DATE", "I-DATE"), "a b c",
                             strict=False)
    assert [(s.start, s.end, s.tag) for s in spans] == [(2, 5, "DATE")]
    assert [r.getMessage() for r in caplog.records] == ["bio repair: dangling I-DATE at token 1"]


def test_bio_adjacent_entities_stay_separate():
    text = "x y"
    spans = bio_to_spans(tokenize(text), ("B-ID", "B-ID"), text)
    assert [(s.start, s.end) for s in spans] == [(0, 1), (2, 3)]


def test_bio_to_spans_rejects_label_count_mismatch():
    bounds = tokenize("a b")
    for labels in (("O",), ("O", "O", "O"), ("B-ID",), ("B-ID", "I-ID", "O")):
        for strict in (True, False):
            with pytest.raises(ValueError):
                bio_to_spans(bounds, labels, "a b", strict=strict)


@given(st.lists(st.sampled_from(["O", "B-ID", "I-ID", "B-DATE", "I-DATE"]), max_size=8))
def test_strict_bio_to_spans_rejects_what_check_bio_rejected(labels):
    text = " ".join("x" * len(labels))
    bounds = tokenize(text)

    def rejects(check) -> bool:
        try:
            check()
        except InvalidBioSequence:
            return True
        return False

    assert rejects(lambda: bio_to_spans(bounds, labels, text, strict=True)) == \
        rejects(lambda: oracle_check_bio(labels))


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_bio_round_trip_property(seed):
    rng = random.Random(seed)
    doc = random_doc(rng, "doc-0", max_tokens=40)
    bounds = tokenize(doc.text)
    back = bio_to_spans(bounds, spans_to_bio(doc, bounds), doc.text)
    assert tuple(back) == doc.entities
