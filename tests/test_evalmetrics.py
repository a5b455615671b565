import dataclasses
import json
import random

import pytest
from hypothesis import given, strategies as st

from deidkit.core import CANONICAL_SCHEMA, Corpus, Document, EntitySpan, tokenize
from deidkit.evalmetrics import (
    ENTITY_STRICT,
    TOKEN,
    ConfusionMatrix,
    EmptyInput,
    LengthMismatch,
    MissingDocument,
    SchemaMismatch,
    cohens_kappa,
    evaluate,
    format_confusion,
    format_report,
    label_tokens,
    report_from_confusion,
    review_metrics_from_counts,
)

from _oracles import (
    PHI_TAGS,
    oracle_kappa,
    oracle_label_tokens,
    oracle_report,
    oracle_token_confusion,
    random_pair,
)


def cell(matrix, gold, pred):
    """The count in row `gold`, column `pred`."""
    return matrix.counts[matrix.labels.index(gold)][matrix.labels.index(pred)]


def test_confusion_matrix_basics():
    cm = ConfusionMatrix(labels=("A", "B"))
    cm.add("A", "A", 3)
    cm.add("A", "B")
    assert cell(cm, "A", "A") == 3
    assert cm.row_sum("A") == 4
    assert cm.col_sum("B") == 1
    assert cm.diagonal("A") == 3
    assert cm.total == 4


def test_confusion_matrix_unknown_label():
    cm = ConfusionMatrix(labels=("A",))
    with pytest.raises(KeyError):
        cm.add("A", "Z")


def test_label_tokens_overlap_tolerant():
    text = "abcd efgh ijkl"
    # span cuts into the middle of the second token
    spans = [EntitySpan(5, 7, "ID", "ef")]
    labels = label_tokens(text, spans, "OTHERS")
    assert labels == ["OTHERS", "ID", "OTHERS"]


def test_label_tokens_earliest_span_wins():
    text = "abcdef"
    spans = [EntitySpan(0, 2, "ID", "ab"), EntitySpan(3, 6, "DATE", "def")]
    assert label_tokens(text, spans, "OTHERS") == ["ID"]


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_label_tokens_matches_nested_loop_oracle(seed):
    # spans that overlap, nest, share a start (also with equal length and a
    # different tag), come unsorted and cut into tokens
    rng = random.Random(seed)
    words = ["".join(rng.choice("ab.,-") for _ in range(rng.randint(1, 4)))
             for _ in range(rng.randint(1, 25))]
    text = "".join(w + rng.choice([" ", "  ", "\n"]) for w in words)
    spans = []
    for _ in range(rng.randint(0, 12)):
        if spans and rng.random() < 0.3:
            twin = rng.choice(spans)
            start, end = twin.start, rng.choice([twin.end, rng.randint(twin.start + 1, len(text))])
        else:
            start = rng.randrange(len(text))
            end = rng.randint(start + 1, min(len(text), start + rng.choice([1, 3, 10, 40])))
        spans.append(EntitySpan(start, end, rng.choice(PHI_TAGS), text[start:end]))
    rng.shuffle(spans)
    assert label_tokens(text, spans, "OTHERS") == oracle_label_tokens(text, spans, "OTHERS")
    # the bounds= path, with the full tokenization and with every other token
    bounds = tokenize(text)
    for offsets in (bounds, bounds[::2]):
        assert label_tokens(text, tuple(spans), "OTHERS", offsets) == \
            oracle_label_tokens(text, spans, "OTHERS", offsets)


def test_token_mode_perfect_prediction(sample_corpus):
    preds = {d.id: list(d.entities) for d in sample_corpus}
    report, matrix = evaluate(sample_corpus, preds, mode=TOKEN)
    assert report.micro == {"precision": 1.0, "recall": 1.0, "f1": 1.0}
    assert report.accuracy == 1.0
    assert cell(matrix, "PATIENT", "PATIENT") == 2


def test_token_mode_counts_misses(sample_corpus):
    preds = {d.id: [] for d in sample_corpus}
    report, matrix = evaluate(sample_corpus, preds, mode=TOKEN)
    assert report.micro["recall"] == 0.0
    assert cell(matrix, "DATE", "OTHERS") == 2


def test_entity_strict_requires_exact_span(sample_doc):
    corpus = Corpus(documents=(sample_doc,), schema=CANONICAL_SCHEMA)
    off = EntitySpan(sample_doc.entities[0].start,
                     sample_doc.entities[0].end - 1, "PATIENT", "Asha Ra")
    report, _ = evaluate(corpus, {"d1": [off]}, mode=ENTITY_STRICT)
    assert report.per_tag["PATIENT"]["precision"] == 0.0
    exact = list(sample_doc.entities)
    report, _ = evaluate(corpus, {"d1": exact}, mode=ENTITY_STRICT)
    assert report.micro["f1"] == 1.0


def test_entity_strict_wrong_tag_is_fp_plus_fn(sample_doc):
    # a same-span prediction under the wrong tag is not a match; it shows up
    # as a missed gold entity and a spurious prediction
    corpus = Corpus(documents=(sample_doc,), schema=CANONICAL_SCHEMA)
    pred = [EntitySpan(e.start, e.end, "DOCTOR" if e.tag == "PATIENT" else e.tag,
                       e.surface) for e in sample_doc.entities]
    report, matrix = evaluate(corpus, {"d1": pred}, mode=ENTITY_STRICT)
    assert cell(matrix, "PATIENT", "OTHERS") == 1
    assert cell(matrix, "OTHERS", "DOCTOR") == 1
    assert report.per_tag["PATIENT"]["recall"] == 0.0


def test_entity_strict_off_by_one_span():
    text = "abcde fgh"
    doc = Document(id="A", text=text, entities=(EntitySpan(0, 5, "DATE", "abcde"),))
    corpus = Corpus(documents=(doc,), schema=CANONICAL_SCHEMA)
    report, _ = evaluate(corpus, {"A": [EntitySpan(0, 4, "DATE", "abcd")]},
                         mode=ENTITY_STRICT)
    m = report.per_tag["DATE"]
    assert (m["precision"], m["recall"], m["f1"]) == (0.0, 0.0, 0.0)


def test_evaluate_rejects_id_mismatch(sample_corpus):
    with pytest.raises(MissingDocument):
        evaluate(sample_corpus, {"d1": []}, mode=TOKEN)
    preds = {d.id: [] for d in sample_corpus}
    preds["ghost"] = []
    with pytest.raises(MissingDocument):
        evaluate(sample_corpus, preds, mode=TOKEN)


def test_evaluate_rejects_foreign_tags(sample_corpus):
    preds = {d.id: [] for d in sample_corpus}
    preds["d1"] = [EntitySpan(0, 7, "NAME", "Patient")]
    with pytest.raises(SchemaMismatch):
        evaluate(sample_corpus, preds, mode=TOKEN)


def test_evaluate_bad_mode(sample_corpus):
    with pytest.raises(ValueError):
        evaluate(sample_corpus, {d.id: [] for d in sample_corpus}, mode="span")


def test_report_matches_recount_on_fuzz():
    rng = random.Random(12)
    for _ in range(30):
        gold, preds = random_pair(rng, max_docs=8, max_tokens=30)
        report, matrix = evaluate(gold, preds, mode=TOKEN)
        want = oracle_report(oracle_token_confusion(gold, preds))
        for agg in ("micro", "macro", "weighted"):
            for key, val in want[agg].items():
                assert abs(getattr(report, agg)[key] - val) <= 1e-12


def test_macro_f1_is_harmonic_of_macro_pr():
    cm = ConfusionMatrix(labels=CANONICAL_SCHEMA.tags)
    cm.add("DATE", "DATE", 9)
    cm.add("DATE", "OTHERS", 1)
    cm.add("ID", "DATE", 2)
    cm.add("ID", "ID", 2)
    report = report_from_confusion(cm, CANONICAL_SCHEMA)
    mp, mr = report.macro["precision"], report.macro["recall"]
    assert report.macro["f1"] == pytest.approx(2 * mp * mr / (mp + mr), abs=1e-15)


def test_zero_support_tags_do_not_crash():
    cm = ConfusionMatrix(labels=CANONICAL_SCHEMA.tags)
    cm.add("OTHERS", "OTHERS", 10)
    report = report_from_confusion(cm, CANONICAL_SCHEMA)
    assert report.micro == {"precision": 0.0, "recall": 0.0, "f1": 0.0}
    assert report.weighted == {"precision": 0.0, "recall": 0.0, "f1": 0.0}


def test_review_metrics_published_case():
    m = review_metrics_from_counts(25, 10, 5)
    assert m["precision"] == pytest.approx(0.714, abs=1e-3)
    assert m["recall"] == pytest.approx(0.833, abs=1e-3)
    assert m["f1"] == pytest.approx(0.769, abs=1e-3)


# --- kappa -----------------------------------------------------------------

def test_kappa_identical_is_one():
    rep = cohens_kappa(["x", "y", "x"], ["x", "y", "x"])
    assert rep.kappa == 1.0
    assert rep.observed_agreement == 1.0


def test_kappa_hand_zero():
    rep = cohens_kappa(["x", "x", "y", "y"], ["x", "y", "x", "y"])
    assert abs(rep.kappa - 0.0) <= 1e-12


def test_kappa_hand_minus_one():
    rep = cohens_kappa(["x", "y"], ["y", "x"])
    assert abs(rep.kappa - (-1.0)) <= 1e-12


def test_kappa_degenerate_single_label():
    rep = cohens_kappa(["x", "x"], ["x", "x"])
    assert rep.kappa == 1.0
    assert rep.degenerate


def test_kappa_rejects_bad_input():
    with pytest.raises(LengthMismatch):
        cohens_kappa(["x"], ["x", "y"])
    with pytest.raises(EmptyInput):
        cohens_kappa([], [])


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_kappa_matches_oracle_and_renaming(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 40)
    labels = ["a", "b", "c", "d"][: rng.randint(2, 4)]
    a = [rng.choice(labels) for _ in range(n)]
    b = [rng.choice(labels) for _ in range(n)]
    rep = cohens_kappa(a, b)
    assert abs(rep.kappa - oracle_kappa(a, b)) <= 1e-12
    mapping = dict(zip(labels, ["w", "x", "y", "z"]))
    renamed = cohens_kappa([mapping[x] for x in a], [mapping[x] for x in b])
    assert abs(rep.kappa - renamed.kappa) <= 1e-12


# --- formatting ------------------------------------------------------------

def test_format_report_lists_all_tags(sample_corpus):
    preds = {d.id: list(d.entities) for d in sample_corpus}
    report, matrix = evaluate(sample_corpus, preds, mode=TOKEN)
    text = format_report(report, matrix)
    for tag in CANONICAL_SCHEMA.tags:
        assert tag in text
    assert "micro" in text and "accuracy" in text


def test_confusion_to_dict_round_trips_counts(sample_corpus):
    # evaluate --out writes the matrix dataclass, labels and counts
    preds = {d.id: list(d.entities) for d in sample_corpus}
    _, matrix = evaluate(sample_corpus, preds, mode=TOKEN)
    d = json.loads(json.dumps(dataclasses.asdict(matrix)))
    assert d["labels"] == list(CANONICAL_SCHEMA.tags)
    assert sum(sum(row) for row in d["counts"]) == matrix.total
    assert ConfusionMatrix(tuple(d["labels"]), d["counts"]).counts == matrix.counts
    assert format_confusion(matrix)
