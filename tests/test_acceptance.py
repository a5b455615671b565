"""Acceptance gate: ten end-to-end behavior checks at fixed tolerances.

Each test prints a single PASS/FAIL verdict line (bypassing capture) so a
plain pytest run yields a criterion-by-criterion scoreboard. Tolerances are
pinned here on purpose; loosening them is a behavior change, not a cleanup.
"""

import json
import math
import random
import time

import numpy as np
import pytest

from deidkit import (
    AGE_JITTER,
    CANONICAL_SCHEMA,
    SURROGATE,
    TOKEN,
    Corpus,
    Document,
    EntitySpan,
    GenerationJob,
    SurrogateConfig,
    apply_tagmap,
    bertscore_greedy,
    bio_to_spans,
    build_schema,
    builtin_canonical_map,
    cohens_kappa,
    evaluate,
    jaccard_distance,
    load_template,
    parse_inline_xml,
    read_conll,
    read_corpus,
    read_jsonl,
    review_metrics_from_counts,
    run_generation_job,
    scrub,
    scrub_corpus,
    spans_to_bio,
    tag_weight,
    tokenize,
    write_conll,
    write_corpus,
    write_inline_xml,
    write_jsonl,
)
from deidkit.cli import main as cli_main

from _oracles import (
    oracle_bertscore,
    oracle_kappa,
    oracle_report,
    oracle_token_confusion,
    random_doc,
    random_pair,
)
from test_syngen import backend_for, exemplar_corpus
from test_tagmap import SHIPPED_TABLE

SUITE_START = time.perf_counter()


@pytest.fixture()
def verdict(capsys):
    def _report(num: int, name: str, ok: bool) -> None:
        with capsys.disabled():
            print(f"[acceptance] {num:02d} {name}: {'PASS' if ok else 'FAIL'}",
                  flush=True)
    return _report


def _close(a: float, b: float, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol


# 1 ------------------------------------------------------------------------

def test_c01_metrics_match_brute_force_recount(verdict):
    rng = random.Random(1201)
    start = time.perf_counter()
    bad = []
    for i in range(500):
        gold, preds = random_pair(rng, max_docs=20, max_tokens=60)
        report, _ = evaluate(gold, preds, mode=TOKEN)
        want = oracle_report(oracle_token_confusion(gold, preds))
        for tag, ref in want["per_tag"].items():
            got = report.per_tag[tag]
            for key in ("precision", "recall", "f1", "support"):
                if not _close(got[key], ref[key]):
                    bad.append((i, tag, key, got[key], ref[key]))
        for agg in ("micro", "macro", "weighted"):
            for key, val in want[agg].items():
                if not _close(getattr(report, agg)[key], val):
                    bad.append((i, agg, key))
        if not _close(report.accuracy, want["accuracy"]):
            bad.append((i, "accuracy"))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 10.0
    verdict(1, "metric recount equivalence on 500 fuzz pairs", ok)
    assert not bad, bad[:5]
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


# 2 ------------------------------------------------------------------------

def test_c02_review_metrics_from_counts(verdict):
    m = review_metrics_from_counts(tp=25, fp=10, fn=5)
    ok = (_close(m["precision"], 0.714, 1e-3)
          and _close(m["recall"], 0.833, 1e-3)
          and _close(m["f1"], 0.769, 1e-3))
    verdict(2, "review counts 25/10/5 give P/R/F1 .714/.833/.769", ok)
    assert ok, m


# 3 ------------------------------------------------------------------------

def test_c03_kappa_hand_values_and_renaming(verdict):
    hand = [
        (["x", "x", "y", "y"], ["x", "x", "y", "y"], 1.0),
        (["x", "x", "y", "y"], ["x", "y", "x", "y"], 0.0),
        (["x", "y"], ["y", "x"], -1.0),
    ]
    bad = [(a, b, want) for a, b, want in hand
           if not _close(cohens_kappa(a, b).kappa, want)]
    rng = random.Random(33)
    for _ in range(100):
        n = rng.randint(2, 40)
        labels = ["a", "b", "c", "d", "e"][: rng.randint(1, 5)]
        a = [rng.choice(labels) for _ in range(n)]
        b = [rng.choice(labels) for _ in range(n)]
        names = ["v", "w", "x", "y", "z"]
        rng.shuffle(names)
        mapping = dict(zip(labels, names))
        plain = cohens_kappa(a, b).kappa
        renamed = cohens_kappa([mapping[x] for x in a],
                               [mapping[x] for x in b]).kappa
        if not _close(plain, renamed):
            bad.append((a, b, plain, renamed))
    verdict(3, "kappa hand cases exact and renaming invariant", not bad)
    assert not bad, bad[:3]


# 4 ------------------------------------------------------------------------

def test_c04_bio_and_serialization_round_trips(verdict):
    rng = random.Random(44)
    bad = []
    docs = []
    for i in range(1000):
        doc = random_doc(rng, f"doc-{i:04d}", max_tokens=40)
        docs.append(doc)
        bounds = tokenize(doc.text)
        back = bio_to_spans(bounds, spans_to_bio(doc, bounds), doc.text)
        if tuple(back) != doc.entities:
            bad.append(("bio", doc.id))
        reparsed = parse_inline_xml(write_inline_xml(doc), doc_id=doc.id)
        if reparsed.text != doc.text or reparsed.entities != doc.entities:
            bad.append(("xml", doc.id))
    corpus = Corpus(documents=tuple(docs), schema=CANONICAL_SCHEMA)
    if read_jsonl(write_jsonl(corpus)) != corpus:
        bad.append(("jsonl", "corpus"))
    verdict(4, "BIO and XML/JSONL round trips exact on 1000 docs", not bad)
    assert not bad, bad[:5]


# 5 ------------------------------------------------------------------------

def test_c05_tag_mapping_table_totality_idempotence(verdict):
    tm = builtin_canonical_map()
    bad = [(src, tm.map_tag(src)) for src, target in SHIPPED_TABLE.items()
           if tm.map_tag(src) != (target, True)]

    doc = Document(id="d", text="a b",
                   entities=(EntitySpan(0, 1, "Blood_Group", "a"),
                             EntitySpan(2, 3, "Patient_Name", "b")))
    src = Corpus(documents=(doc,),
                 schema=build_schema(["Blood_Group", "Patient_Name"]))
    once, audit = apply_tagmap(src, builtin_canonical_map())
    once_d = {d.id: d for d in once}["d"]
    if [e.tag for e in once_d.entities] != ["OTHERS", "PATIENT"]:
        bad.append(("fallback", once_d.entities))
    if audit.unmapped != {"Blood_Group": 1}:
        bad.append(("audit", audit.unmapped))
    twice, _ = apply_tagmap(once, builtin_canonical_map())
    if {d.id: d for d in twice}["d"].entities != once_d.entities:
        bad.append(("idempotence",))
    verdict(5, "published tag table total with audited OTHERS fallback",
            not bad)
    assert not bad, bad


# 6 ------------------------------------------------------------------------

def test_c06_surrogate_engine_guarantees(verdict):
    bad = []
    cfg = SurrogateConfig(seed=23, date_offset_days=9,
                          age_policy=AGE_JITTER, age_jitter_years=5)

    # (a) repeated surface co-replaces inside a document
    rng = random.Random(66)
    for i in range(20):
        base = random_doc(rng, f"co-{i}", max_tokens=30)
        phi = [e for e in base.entities if e.tag != "OTHERS"]
        if not phi:
            continue
        picked = rng.choice(phi)
        text = base.text + " " + picked.surface
        ents = base.entities + (EntitySpan(len(base.text) + 1, len(text),
                                           picked.tag, picked.surface),)
        doc = Document(id=base.id, text=text, entities=ents)
        out = scrub(doc, SURROGATE, cfg)
        by_old = {}
        for before, after in zip(doc.entities, out.entities):
            by_old.setdefault((before.tag, before.surface),
                              set()).add(after.surface)
        if len(by_old[(picked.tag, picked.surface)]) != 1:
            bad.append(("co-replacement", doc.id))

    # (b) byte-identical under reruns
    docs = tuple(random_doc(rng, f"det-{i}") for i in range(30))
    corpus = Corpus(documents=docs, schema=CANONICAL_SCHEMA)
    outs = [write_jsonl(scrub_corpus(corpus, SURROGATE, cfg)) for _ in range(3)]
    if len({o.encode() for o in outs}) != 1:
        bad.append(("determinism",))

    # (c) exact date arithmetic
    text = "Seen on 25-08-2023 for review."
    doc = Document(id="dt", text=text,
                   entities=(EntitySpan(8, 18, "DATE", "25-08-2023"),))
    shifted = scrub(doc, SURROGATE, SurrogateConfig(seed=1, date_offset_days=5))
    if shifted.entities[0].surface != "30-08-2023":
        bad.append(("date", shifted.entities[0].surface))

    # (d) leak check on 200 fuzz docs
    for i in range(200):
        doc = random_doc(rng, f"leak-{i}")
        out = scrub(doc, SURROGATE, cfg)
        for before, after in zip(doc.entities, out.entities):
            if before.tag == "OTHERS" or len(before.surface) < 4:
                continue
            if out.text[after.start:after.end] == before.surface:
                bad.append(("leak", doc.id, before.surface))
    verdict(6, "surrogates co-replace, deterministic, exact dates, no leaks",
            not bad)
    assert not bad, bad[:5]


# 7 ------------------------------------------------------------------------

def test_c07_class_weight_formula(verdict):
    rng = random.Random(77)
    bad = []
    for _ in range(100):
        n = rng.randint(1, 10**6)
        n_t = rng.randint(1, 8 * n)
        if not _close(tag_weight(n, n_t), math.log(4 * n / n_t)):
            bad.append((n, n_t))
    if tag_weight(100, 400) != 0.0:
        bad.append(("quarter", tag_weight(100, 400)))
    for _ in range(100):
        n = rng.randint(1, 10**4)
        n_t = rng.randint(1, 4 * n)
        for k in (2, 10, 1000):
            if tag_weight(k * n, k * n_t) != tag_weight(n, n_t):
                bad.append(("scale", n, n_t, k))
    verdict(7, "class weights ln(4n/n_t) exact and scale invariant", not bad)
    assert not bad, bad[:5]


# 8 ------------------------------------------------------------------------

def test_c08_jaccard_and_bertscore(verdict):
    bad = []
    a = Corpus(documents=(Document(id="a", text="alpha beta gamma"),),
               schema=CANONICAL_SCHEMA)
    b = Corpus(documents=(Document(id="b", text="delta epsilon"),),
               schema=CANONICAL_SCHEMA)
    if jaccard_distance(a, a) != 0.0:
        bad.append(("identical", jaccard_distance(a, a)))
    if jaccard_distance(a, b) != 1.0:
        bad.append(("disjoint", jaccard_distance(a, b)))

    rng = np.random.default_rng(88)
    for i in range(200):
        cand = rng.normal(size=(int(rng.integers(1, 12)),
                                int(rng.integers(2, 8))))
        ref = rng.normal(size=(int(rng.integers(1, 12)), cand.shape[1]))
        got = bertscore_greedy(cand, ref)
        want = oracle_bertscore(cand.tolist(), ref.tolist())
        for key in ("precision", "recall", "f1"):
            if not _close(got[key], want[key]):
                bad.append((i, key, got[key], want[key]))
    x = rng.normal(size=(7, 5))
    self_score = bertscore_greedy(x, x)
    if self_score != {"precision": 1.0, "recall": 1.0, "f1": 1.0}:
        bad.append(("self", self_score))
    verdict(8, "jaccard endpoints and greedy-match oracle agreement", not bad)
    assert not bad, bad[:5]


# 9 ------------------------------------------------------------------------

def test_c09_generation_pipeline_with_scripted_faults(verdict, mock_cmd,
                                                      tmp_path):
    script = {"ex-0:1": "malformed", "ex-2:3": "malformed",
              "ex-4:0": "malformed", "ex-1:2": "short", "ex-3:1": "short"}
    job = GenerationJob(template=load_template("B"),
                        exemplars=exemplar_corpus(5),
                        backend=backend_for(mock_cmd, tmp_path, script),
                        fanout=4)
    out = tmp_path / "run"
    summary = run_generation_job(job, out)
    bad = []
    if summary["scheduled"] != 20 or summary["accepted"] != 15:
        bad.append(("counts", summary))
    if summary["reject_counts"] != {"malformed_markup": 3,
                                    "length_out_of_bounds": 2}:
        bad.append(("reasons", summary["reject_counts"]))
    rejects = {json.loads(l)["id"]: json.loads(l)["reason"]
               for l in (out / "rejects.jsonl").read_text().splitlines()}
    want = {k: ("malformed_markup" if v == "malformed"
                else "length_out_of_bounds") for k, v in script.items()}
    if rejects != want:
        bad.append(("reject-ids", rejects))

    # CoNLL rejoins tokens with single spaces, so compare token streams
    accepted = read_corpus(out / "accepted.jsonl")
    reparsed = read_conll(write_conll(accepted))
    if [[d.text[s:e] for s, e in tokenize(d.text)] for d in reparsed] != \
            [[d.text[s:e] for s, e in tokenize(d.text)] for d in accepted]:
        bad.append(("conll-tokens",))
    if [[e.tag for e in d.entities] for d in reparsed] != \
            [[e.tag for e in d.entities] for d in accepted]:
        bad.append(("conll-tags",))
    verdict(9, "5x4 generation run accepts 15 and codes 5 rejects", not bad)
    assert not bad, bad


# 10 -----------------------------------------------------------------------

def test_c10_matrix_runs_reproduce_and_suite_is_fast(verdict, tmp_path,
                                                     sample_corpus):
    half_a = Corpus(documents=sample_corpus.documents[:1],
                    schema=CANONICAL_SCHEMA)
    half_b = Corpus(documents=sample_corpus.documents[1:],
                    schema=CANONICAL_SCHEMA)
    paths = {}
    for name, corpus in (("a", half_a), ("b", half_b),
                         ("full", sample_corpus)):
        paths[name] = tmp_path / f"{name}.jsonl"
        write_corpus(corpus, paths[name])
    matrix = {
        "train_sets": {"a": [str(paths["a"])], "b": [str(paths["b"])]},
        "test_sets": {"dev": str(paths["full"]), "holdout": str(paths["a"])},
        "mode": "token", "out_dir": str(tmp_path / "mx"),
    }
    matrix_path = tmp_path / "matrix.json"
    matrix_path.write_text(json.dumps(matrix))

    bad = []
    if cli_main(["run-matrix", str(matrix_path)]) != 0:
        bad.append(("first-run",))
    reports = sorted((tmp_path / "mx" / "reports").iterdir())
    if [p.name for p in reports] != ["a__dev.json", "a__holdout.json",
                                     "b__dev.json", "b__holdout.json"]:
        bad.append(("cells", [p.name for p in reports]))
    first = {p.name: p.read_bytes() for p in reports}
    if cli_main(["run-matrix", str(matrix_path)]) != 0:
        bad.append(("second-run",))
    again = {p.name: p.read_bytes()
             for p in (tmp_path / "mx" / "reports").iterdir()}
    if first != again:
        bad.append(("bytes",))

    elapsed = time.perf_counter() - SUITE_START
    if elapsed >= 120.0:
        bad.append(("runtime", elapsed))
    verdict(10, "2x2 matrix reports byte-stable, criteria under 2 min",
            not bad)
    assert not bad, bad
