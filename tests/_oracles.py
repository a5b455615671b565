"""Independent brute-force reference implementations used to cross-check
the package. Everything here recomputes results from first principles with
different mechanics than the library code: character arrays instead of span
sorting, nested Python loops instead of matmul, dict counters instead of
ConfusionMatrix. Keep it slow and obvious."""

from __future__ import annotations

import math
import random
import string

from deidkit.annot_io import (
    ENTITY_ELEMENT,
    EmptyEntity,
    MalformedMarkup,
    _extract_envelope,
)
from deidkit.core import CANONICAL_SCHEMA, Corpus, Document, EntitySpan, tokenize
from deidkit.corpusstats import _clean_token
from deidkit.recognize import default_rulebook

PHI_TAGS = [t for t in CANONICAL_SCHEMA.tags if t != CANONICAL_SCHEMA.other]


# --- fuzz corpus generation ------------------------------------------------

def random_word(rng: random.Random) -> str:
    n = rng.randint(1, 8)
    return "".join(rng.choice(string.ascii_lowercase + string.digits) for _ in range(n))


def random_doc(rng: random.Random, doc_id: str, max_tokens: int = 60,
               jitter: bool = False) -> Document:
    """Single-space-joined alnum words with disjoint entities on token
    boundaries. With jitter=True span edges may move one char off-boundary
    (still disjoint) to exercise overlap labeling."""
    n_tokens = rng.randint(1, max_tokens)
    words = [random_word(rng) for _ in range(n_tokens)]
    text = " ".join(words)
    toks = tokenize(text).tokens

    spans = []
    i = 0
    while i < len(toks):
        if rng.random() < 0.25:
            width = min(rng.randint(1, 3), len(toks) - i)
            start, end = toks[i].start, toks[i + width - 1].end
            if jitter:
                if rng.random() < 0.3 and end - start > 2:
                    start += 1
                if rng.random() < 0.3 and end - start > 2:
                    end -= 1
            spans.append(EntitySpan(start, end, rng.choice(PHI_TAGS),
                                    text[start:end]))
            i += width + 1  # leave a gap token so spans stay disjoint
        else:
            i += 1
    return Document(id=doc_id, text=text, entities=tuple(spans))


def random_pair(rng: random.Random, max_docs: int = 20, max_tokens: int = 60):
    """A (gold corpus, prediction map) pair over the same texts."""
    n = rng.randint(1, max_docs)
    gold_docs, preds = [], {}
    for i in range(n):
        doc = random_doc(rng, f"doc-{i:03d}", max_tokens)
        gold_docs.append(doc)
        pred_doc = Document(id=doc.id, text=doc.text,
                            entities=random_doc_spans_for(doc, rng))
        preds[doc.id] = list(pred_doc.entities)
    return Corpus(documents=tuple(gold_docs), schema=CANONICAL_SCHEMA), preds


def random_doc_spans_for(doc: Document, rng: random.Random):
    """Fresh disjoint spans over an existing text, sometimes off token
    boundaries, sometimes copying a gold span with a different tag."""
    toks = tokenize(doc.text).tokens
    spans = []
    i = 0
    while i < len(toks):
        if rng.random() < 0.25:
            width = min(rng.randint(1, 2), len(toks) - i)
            start, end = toks[i].start, toks[i + width - 1].end
            if rng.random() < 0.3 and end - start > 2:
                start += 1
            spans.append(EntitySpan(start, end, rng.choice(PHI_TAGS),
                                    doc.text[start:end]))
            i += width + 1
        else:
            i += 1
    return tuple(spans)


# --- token-mode metric recount --------------------------------------------

def char_tags(text: str, spans, other: str) -> list:
    tags = [other] * len(text)
    for span in spans:
        for k in range(span.start, span.end):
            tags[k] = span.tag
    return tags


def token_label_by_chars(tok, ctags, other: str) -> str:
    """Tag at the first covered non-other character; equals earliest-start
    overlap resolution for disjoint spans."""
    for k in range(tok.start, tok.end):
        if ctags[k] != other:
            return ctags[k]
    return other


def oracle_token_confusion(gold: Corpus, preds: dict) -> dict:
    """{(gold_tag, pred_tag): count} built from per-character tag arrays."""
    other = gold.schema.other
    counts: dict = {}
    for doc in gold:
        g = char_tags(doc.text, doc.entities, other)
        p = char_tags(doc.text, preds[doc.id], other)
        for tok in tokenize(doc.text).tokens:
            key = (token_label_by_chars(tok, g, other),
                   token_label_by_chars(tok, p, other))
            counts[key] = counts.get(key, 0) + 1
    return counts


def prf_from_counts(tp: int, fp: int, fn: int) -> tuple:
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def oracle_report(counts: dict, schema=CANONICAL_SCHEMA) -> dict:
    """Per-tag and aggregate P/R/F1 recounted from a confusion dict. PHI
    tags only in the aggregates; accuracy over everything."""
    other = schema.other
    per_tag = {}
    for tag in schema.tags:
        tp = counts.get((tag, tag), 0)
        fp = sum(c for (g, p), c in counts.items() if p == tag and g != tag)
        fn = sum(c for (g, p), c in counts.items() if g == tag and p != tag)
        support = sum(c for (g, _), c in counts.items() if g == tag)
        p, r, f = prf_from_counts(tp, fp, fn)
        per_tag[tag] = {"precision": p, "recall": r, "f1": f,
                        "support": support, "tp": tp, "fp": fp, "fn": fn}

    phi = [t for t in schema.tags if t != other]
    tp = sum(per_tag[t]["tp"] for t in phi)
    fp = sum(per_tag[t]["fp"] for t in phi)
    fn = sum(per_tag[t]["fn"] for t in phi)
    micro = dict(zip(("precision", "recall", "f1"), prf_from_counts(tp, fp, fn)))

    mp = sum(per_tag[t]["precision"] for t in phi) / len(phi)
    mr = sum(per_tag[t]["recall"] for t in phi) / len(phi)
    mf = 2 * mp * mr / (mp + mr) if mp + mr else 0.0
    macro = {"precision": mp, "recall": mr, "f1": mf}

    total_support = sum(per_tag[t]["support"] for t in phi)
    if total_support:
        wp = sum(per_tag[t]["precision"] * per_tag[t]["support"] for t in phi) / total_support
        wr = sum(per_tag[t]["recall"] * per_tag[t]["support"] for t in phi) / total_support
        wf = sum(per_tag[t]["f1"] * per_tag[t]["support"] for t in phi) / total_support
    else:
        wp = wr = wf = 0.0
    weighted = {"precision": wp, "recall": wr, "f1": wf}

    total = sum(counts.values())
    diag = sum(c for (g, p), c in counts.items() if g == p)
    accuracy = diag / total if total else 0.0
    return {"per_tag": per_tag, "micro": micro, "macro": macro,
            "weighted": weighted, "accuracy": accuracy}


# --- label_tokens: the nested-loop reference ------------------------------

def oracle_label_tokens(doc_text: str, spans, other: str, toks=None) -> list:
    """Rescan the (start, -len)-sorted span list from the front for every
    token; the first span that overlaps the token gives its tag. O(tokens x
    spans), and exact for unsorted, overlapping and off-boundary spans."""
    if toks is None:
        toks = tokenize(doc_text)
    ordered = sorted(spans, key=lambda s: (s.start, -(s.end - s.start)))
    labels = []
    for tok in toks.tokens:
        label = other
        for span in ordered:
            if span.start >= tok.end:
                break
            if span.end > tok.start:
                label = span.tag
                break
        labels.append(label)
    return labels


# --- inline XML: the character-at-a-time reference -------------------------

def oracle_parse_inline_xml(raw: str, require_envelope: bool = False,
                            doc_id: str = "doc") -> Document:
    """Test for a marker at every offset, copy one character otherwise, and
    re-join the whole output at every close tag to cut out the surface."""
    body = _extract_envelope(raw, require_envelope)
    elem = ENTITY_ELEMENT
    open_prefix = f"<{elem}="
    close_marker = f"</{elem}>"

    out: list = []
    out_len = 0
    entities: list = []
    i = 0
    n = len(body)
    open_start = None
    open_tag = ""
    while i < n:
        if body.startswith(open_prefix, i):
            if open_start is not None:
                raise MalformedMarkup(f"nested {elem} element at offset {i}")
            j = i + len(open_prefix)
            if j >= n or body[j] not in "'\"":
                raise MalformedMarkup(f"missing attribute quote at offset {i}")
            quote = body[j]
            k = body.find(quote, j + 1)
            if k == -1:
                raise MalformedMarkup(f"unterminated attribute at offset {i}")
            tag = body[j + 1 : k]
            if k + 1 >= n or body[k + 1] != ">":
                raise MalformedMarkup(f"missing '>' after attribute at offset {i}")
            if not tag:
                raise MalformedMarkup(f"empty tag name at offset {i}")
            open_start = out_len
            open_tag = tag
            i = k + 2
        elif body.startswith(close_marker, i):
            if open_start is None:
                raise MalformedMarkup(f"stray {close_marker} at offset {i}")
            if out_len == open_start:
                raise EmptyEntity(f"empty {elem} element ending at offset {i}")
            surface = "".join(out)[open_start:out_len]
            entities.append(EntitySpan(start=open_start, end=out_len, tag=open_tag, surface=surface))
            open_start = None
            i += len(close_marker)
        else:
            out.append(body[i])
            out_len += 1
            i += 1
    if open_start is not None:
        raise MalformedMarkup(f"unclosed {elem} element (tag {open_tag!r})")
    return Document(id=doc_id, text="".join(out), entities=tuple(entities))


# --- rule overlap resolution: the scan-everything reference ----------------

def oracle_recognize_rules(text: str, rulebook=None) -> list:
    """Same candidates and order as recognize_rules; a candidate is kept
    unless it overlaps any span kept so far (checked against all of them),
    and the result is sorted by start at the end."""
    book = rulebook if rulebook is not None else default_rulebook()
    prio = {tag: i for i, tag in enumerate(book.priority)}
    candidates = []
    for rule in book.rules:
        for start, end in rule.matches(text):
            candidates.append((end - start, start, end, rule.tag))
    candidates.sort(key=lambda c: (-c[0], c[1], prio.get(c[3], len(prio))))
    kept: list = []
    for _, start, end, tag in candidates:
        if any(k.start < end and start < k.end for k in kept):
            continue
        kept.append(EntitySpan(start=start, end=end, tag=tag, surface=text[start:end]))
    kept.sort(key=lambda s: s.start)
    return kept


# --- near-PHI n-gram recount ----------------------------------------------

def oracle_phi_adjacent_counts(corpus: Corpus, n: int, window: int, stoplist=()) -> dict:
    """{ngram: count} over windows with a kept token no more than `window`
    kept tokens away from a token that has a non-OTHERS character, read
    from a per-character tag array."""
    other = corpus.schema.other
    stop = {s.lower() for s in stoplist}
    counts: dict = {}
    for doc in corpus:
        ctags = char_tags(doc.text, doc.entities, other)
        kept = []
        for tok in tokenize(doc.text).tokens:
            c = _clean_token(tok.surface)
            if c and c not in stop:
                kept.append((c, token_label_by_chars(tok, ctags, other) != other))
        for i in range(len(kept) - n + 1):
            lo, hi = max(0, i - window), min(len(kept), i + n + window)
            if any(phi for _, phi in kept[lo:hi]):
                gram = " ".join(c for c, _ in kept[i : i + n])
                counts[gram] = counts.get(gram, 0) + 1
    return counts


# --- kappa -----------------------------------------------------------------

def oracle_kappa(a, b) -> float:
    n = len(a)
    po = sum(1 for x, y in zip(a, b) if x == y) / n
    labels = set(a) | set(b)
    pe = sum((a.count(l) / n) * (b.count(l) / n) for l in labels)
    if pe == 1.0:
        return 1.0
    return (po - pe) / (1 - pe)


# --- greedy matching score -------------------------------------------------

def _cosine(u, v) -> float:
    dot = sum(x * y for x, y in zip(u, v))
    nu = math.sqrt(sum(x * x for x in u))
    nv = math.sqrt(sum(x * x for x in v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return max(-1.0, min(1.0, dot / (nu * nv)))


def oracle_bertscore(cand, ref) -> dict:
    """O(n*m) loops. A row equal to one on the other side scores exactly 1,
    matching the library convention."""
    def best(row, others):
        if any(all(x == y for x, y in zip(row, o)) for o in others):
            return 1.0
        return max(_cosine(row, o) for o in others)

    p_scores = [best(c, ref) for c in cand]
    r_scores = [best(r, cand) for r in ref]
    precision = sum(p_scores) / len(p_scores)
    recall = sum(r_scores) / len(r_scores)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"precision": precision, "recall": recall, "f1": f1}
