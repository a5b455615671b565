import dataclasses
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from deidkit.core import CANONICAL_SCHEMA, Corpus, Document, EntitySpan, tokenize
from deidkit.corpusstats import (
    PHI_ADJACENT,
    WHOLE_TEXT,
    BothEmpty,
    DimensionMismatch,
    EmptyCorpus,
    EmptySide,
    RatioMismatch,
    bertscore_greedy,
    class_weights,
    hash_embedding,
    jaccard_distance,
    ngram_profile,
    split,
    summarize,
    tag_weight,
    vocabulary,
)

from _oracles import oracle_bertscore, oracle_phi_adjacent_counts, random_doc


def corpus_of(*texts, entities=None):
    docs = []
    for i, text in enumerate(texts):
        ents = tuple(entities.get(i, ())) if entities else ()
        docs.append(Document(id=f"d{i}", text=text, entities=ents))
    return Corpus(documents=tuple(docs), schema=CANONICAL_SCHEMA)


# --- summary ---------------------------------------------------------------

def test_summarize_counts():
    corpus = corpus_of("one two three", "four five")
    s = summarize(corpus)
    assert s.n_summaries == 2
    assert s.n_tokens_total == 5
    assert s.n_unique_tokens == 5
    assert (s.min_len, s.max_len) == (2, 3)
    assert s.avg_len == pytest.approx(2.5)
    assert s.char_counts == len("one two three") + len("four five")


def test_summarize_word_length_stats():
    corpus = corpus_of("ab abcd")  # lengths 2 and 4
    s = summarize(corpus)
    assert s.word_length["mean"] == pytest.approx(3.0)
    assert s.word_length["median"] == pytest.approx(3.0)
    assert (s.word_length["min"], s.word_length["max"]) == (2, 4)
    # sample standard error with ddof=1: std([2,4]) / sqrt(2) = 1.0
    assert s.word_length["se"] == pytest.approx(1.0)


def test_summarize_counts_original_tags(sample_corpus):
    s = summarize(sample_corpus)
    assert s.n_original_tags == 8


def test_summary_to_dict_round_trip():
    # the stats JSON is the summary dataclass, written field for field
    s = summarize(corpus_of("a b"))
    d = json.loads(json.dumps(dataclasses.asdict(s)))
    assert d["n_tokens_total"] == 2
    assert set(d["word_length"]) == {"mean", "se", "median", "min", "max"}
    assert summarize(corpus_of("a b")) == type(s)(**d)


# --- n-grams ---------------------------------------------------------------

def test_ngram_hand_case():
    profile = ngram_profile(corpus_of("mg po mg po"), n=2, k=5)
    assert profile.top == (("mg po", 2), ("po mg", 1))


def test_ngram_ties_alphabetical():
    profile = ngram_profile(corpus_of("b a b a"), n=1, k=5)
    assert profile.top == (("a", 2), ("b", 2))


def test_ngram_stoplist_and_cleaning():
    profile = ngram_profile(corpus_of("The DOSE, the dose."), n=1, k=5,
                            stoplist={"the"})
    assert profile.top == (("dose", 2),)


def test_ngram_phi_adjacent_scope():
    text = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    ent = EntitySpan(0, 5, "PATIENT", "alpha")
    corpus = corpus_of(text, entities={0: [ent]})
    near = ngram_profile(corpus, n=1, k=20, scope=PHI_ADJACENT, window=2)
    got = {g for g, _ in near.top}
    assert got == {"alpha", "beta", "gamma"}
    whole = ngram_profile(corpus, n=1, k=20, scope=WHOLE_TEXT)
    assert len(whole.top) == 10


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_ngram_phi_adjacent_matches_char_recount(seed):
    rng = random.Random(seed)
    docs = []
    for i in range(rng.randint(1, 4)):
        doc = random_doc(rng, f"d{i}", max_tokens=40, jitter=True)
        # some entities become OTHERS, which never count as PHI
        ents = tuple(EntitySpan(e.start, e.end, "OTHERS" if rng.random() < 0.3 else e.tag,
                                e.surface) for e in doc.entities)
        docs.append(Document(id=doc.id, text=doc.text, entities=ents))
    corpus = Corpus(documents=tuple(docs), schema=CANONICAL_SCHEMA)
    stop = {d.text[s:e] for d in docs for s, e in tokenize(d.text) if rng.random() < 0.1}
    n, window = rng.randint(1, 3), rng.randint(0, 4)
    profile = ngram_profile(corpus, n=n, k=10**6, scope=PHI_ADJACENT, stoplist=stop,
                            window=window)
    assert dict(profile.top) == oracle_phi_adjacent_counts(corpus, n, window, stop)


def test_ngram_bad_args():
    with pytest.raises(ValueError):
        ngram_profile(corpus_of("a"), n=0)
    with pytest.raises(ValueError):
        ngram_profile(corpus_of("a"), n=1, scope="sideways")
    with pytest.raises(ValueError, match="k must be >= 0"):
        ngram_profile(corpus_of("a b"), n=1, k=-1)
    with pytest.raises(ValueError, match="window must be >= 0"):
        ngram_profile(corpus_of("a b"), n=1, scope=PHI_ADJACENT, window=-2)


# --- vocabulary distance ---------------------------------------------------

def test_jaccard_hand_values():
    a = corpus_of("a b c")
    b = corpus_of("b c d")
    assert jaccard_distance(a, b) == pytest.approx(0.5)
    assert jaccard_distance(a, a) == 0.0
    assert jaccard_distance(a, corpus_of("x y z")) == 1.0


def test_jaccard_case_sensitive_vocab():
    assert vocabulary(corpus_of("Dose dose")) == {"Dose", "dose"}
    assert jaccard_distance(corpus_of("Dose"), corpus_of("dose")) == 1.0


def test_jaccard_both_empty():
    with pytest.raises(BothEmpty):
        jaccard_distance(corpus_of(""), corpus_of(""))


# --- greedy matching score -------------------------------------------------

def test_bertscore_self_is_exactly_one():
    rows = hash_embedding(["alpha", "beta", "gamma"], dim=16)
    got = bertscore_greedy(rows, rows)
    assert got == {"precision": 1.0, "recall": 1.0, "f1": 1.0}


def test_bertscore_matches_oracle():
    rng = random.Random(77)
    for _ in range(40):
        n, m, d = rng.randint(1, 10), rng.randint(1, 10), rng.randint(2, 6)
        c = [[rng.uniform(-1, 1) for _ in range(d)] for _ in range(n)]
        r = [[rng.uniform(-1, 1) for _ in range(d)] for _ in range(m)]
        got = bertscore_greedy(np.array(c), np.array(r))
        want = oracle_bertscore(c, r)
        for key in got:
            assert abs(got[key] - want[key]) <= 1e-12


def test_bertscore_orthogonal_is_zero():
    c = np.array([[1.0, 0.0]])
    r = np.array([[0.0, 1.0]])
    assert bertscore_greedy(c, r) == {"precision": 0.0, "recall": 0.0, "f1": 0.0}


def test_bertscore_input_validation():
    with pytest.raises(EmptySide):
        bertscore_greedy(np.zeros((0, 4)), np.ones((2, 4)))
    with pytest.raises(DimensionMismatch):
        bertscore_greedy(np.ones((2, 4)), np.ones((2, 5)))


def test_hash_embedding_properties():
    rows = hash_embedding(["mg", "po", "mg"], dim=32)
    assert rows.shape == (3, 32)
    np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-12)
    np.testing.assert_array_equal(rows[0], rows[2])
    assert not np.array_equal(rows[0], rows[1])


# --- class weights ---------------------------------------------------------

def test_tag_weight_formula():
    assert tag_weight(4, 1) == math.log(16)
    assert tag_weight(4, 1) == pytest.approx(2.772588722239781, abs=1e-15)
    assert tag_weight(100, 400) == 0.0


def test_tag_weight_scale_invariant():
    rng = random.Random(5)
    for _ in range(100):
        n_t = rng.randint(1, 10_000)
        n = n_t + rng.randint(0, 10_000)
        for scale in (2, 10, 1000):
            assert tag_weight(n, n_t) == tag_weight(scale * n, scale * n_t)


def test_class_weights_counts_and_cap(caplog):
    text = "Asha saw Pune"
    corpus = corpus_of(text, entities={0: [EntitySpan(0, 4, "PATIENT", "Asha"),
                                           EntitySpan(9, 13, "LOCATION", "Pune")]})
    w = class_weights(corpus, cap=20.0)
    assert w.n == 3
    assert w.per_tag["PATIENT"]["n_t"] == 1
    assert w.per_tag["PATIENT"]["w_t"] == math.log(12)   # 4*3/1
    assert w.per_tag["OTHERS"]["n_t"] == 1
    assert w.per_tag["DATE"] == {"n_t": 0, "w_t": 20.0}


@pytest.mark.parametrize("cap", [math.nan, math.inf, -math.inf, -3.0])
def test_class_weights_rejects_a_cap_that_is_no_weight(cap):
    corpus = corpus_of("Asha", entities={0: [EntitySpan(0, 4, "PATIENT", "Asha")]})
    with pytest.raises(ValueError, match="cap"):
        class_weights(corpus, cap=cap)


def test_class_weights_empty_corpus():
    empty = Corpus(documents=(), schema=CANONICAL_SCHEMA)
    with pytest.raises(EmptyCorpus):
        class_weights(empty)


# --- splits ----------------------------------------------------------------

def make_corpus(n):
    rng = random.Random(13)
    return Corpus(documents=tuple(random_doc(rng, f"doc-{i:03d}") for i in range(n)),
                  schema=CANONICAL_SCHEMA)


def test_split_int_ratios_exact():
    parts = split(make_corpus(10), (6, 2, 2), seed=0)
    assert [len(parts[k]) for k in ("train", "val", "test")] == [6, 2, 2]


def test_split_float_ratios_largest_remainder():
    parts = split(make_corpus(10), (0.5, 0.25, 0.25), seed=0)
    # 2.5/2.5 remainders tie; the earlier bucket wins the spare document
    assert [len(parts[k]) for k in ("train", "val", "test")] == [5, 3, 2]


def test_split_disjoint_exhaustive_deterministic():
    corpus = make_corpus(23)
    a = split(corpus, (0.7, 0.1, 0.2), seed=9)
    b = split(corpus, (0.7, 0.1, 0.2), seed=9)
    ids = [d.id for part in a.values() for d in part]
    assert sorted(ids) == sorted(d.id for d in corpus)
    assert len(set(ids)) == len(ids)
    for name in a:
        assert [d.id for d in a[name]] == [d.id for d in b[name]]
    c = split(corpus, (0.7, 0.1, 0.2), seed=10)
    assert any([d.id for d in a[k]] != [d.id for d in c[k]] for k in a)


def test_split_records_membership_in_meta():
    parts = split(make_corpus(6), (4, 1, 1), seed=0)
    for name, part in parts.items():
        for doc in part:
            assert doc.meta["split"] == name


@pytest.mark.parametrize("ratios", [(1, 2), (3, 3, 3), (0.5, 0.2, 0.2), (-1, 5, 6),
                                    (0.5, math.nan, 0.5), (math.nan, 1, 1), (math.inf, 0, 0)])
def test_split_bad_ratios(ratios):
    with pytest.raises(RatioMismatch):
        split(make_corpus(10), ratios, seed=0)


@given(st.integers(min_value=3, max_value=60), st.integers(min_value=0, max_value=99))
def test_split_fraction_property(n, seed):
    corpus = make_corpus(n)
    parts = split(corpus, (0.7, 0.1, 0.2), seed=seed)
    assert sum(len(p) for p in parts.values()) == n
