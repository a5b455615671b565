"""Independent brute-force reference implementations used to cross-check
the package. Everything here recomputes results from first principles with
different mechanics than the library code: character arrays instead of span
sorting, nested Python loops instead of matmul, dict counters instead of
ConfusionMatrix. Keep it slow and obvious."""

from __future__ import annotations

import math
import random
import re
import string
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta

from deidkit.annot_io import (
    ENTITY_ELEMENT,
    BadRecordLine,
    EmptyEntity,
    MalformedMarkup,
    MissingEnvelope,
    _extract_envelope,
    as_corpus,
    has_lone_surrogate,
    parse_inline_xml,
)
from deidkit.core import (
    CANONICAL_SCHEMA,
    Corpus,
    Document,
    EntitySpan,
    InvalidBioSequence,
    tokenize,
)
from deidkit.recognize import ProtocolViolation, SpanOutOfRange, default_rulebook
from deidkit.surrogate import UnparseableDate
from deidkit.syngen import (
    HIGH_REPETITION,
    LENGTH_OUT_OF_BOUNDS,
    LOW_PRINTABLE_RATIO,
    MALFORMED_MARKUP,
    NO_ENVELOPE,
    TOO_FEW_ANNOTATIONS,
    UNKNOWN_TAG,
    FilterPolicy,
)
from deidkit.tagmap import MappingAudit, builtin_canonical_map, normalize_tag

PHI_TAGS = [t for t in CANONICAL_SCHEMA.tags if t != CANONICAL_SCHEMA.other]


# --- tokenizer and per-character counts, one character at a time -----------

def oracle_tokenize(text: str) -> tuple:
    """(surface, start, end) of each token: whitespace chunks, each with
    its leading and trailing non-alnum runs peeled off as their own tokens."""
    tokens: list = []
    n = len(text)
    i = 0
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        j = i
        while j < n and not text[j].isspace():
            j += 1
        a = i
        while a < j and not text[a].isalnum():
            a += 1
        if a == j:
            tokens.append((text[i:j], i, j))
        else:
            b = j
            while b > a and not text[b - 1].isalnum():
                b -= 1
            if a > i:
                tokens.append((text[i:a], i, a))
            tokens.append((text[a:b], a, b))
            if b < j:
                tokens.append((text[b:j], b, j))
        i = j
    return tuple(tokens)


def oracle_clean_token(surface: str) -> str:
    return "".join(ch for ch in surface.lower() if ch.isalnum())


def oracle_printable_ratio(text: str) -> float:
    if not text:
        return 1.0
    ok = sum(1 for ch in text if ch.isprintable() or ch in "\n\t\r")
    return ok / len(text)


def oracle_repeat_ratio(surfaces: list) -> float:
    if not surfaces:
        return 0.0
    counts: dict = {}
    for s in surfaces:
        key = s.casefold()
        counts[key] = counts.get(key, 0) + 1
    return max(counts.values()) / len(surfaces)


def oracle_gate_reason(text: str, policy):
    """The reject code of the length, printable and repetition gates, in
    filter order, for a parsed document's text; None when all pass."""
    surfaces = [surface for surface, _, _ in oracle_tokenize(text)]
    lo, hi = policy.length_bounds
    if not (lo <= len(surfaces) <= hi):
        return LENGTH_OUT_OF_BOUNDS
    if oracle_printable_ratio(text) < policy.printable_ratio_min:
        return LOW_PRINTABLE_RATIO
    if oracle_repeat_ratio(surfaces) > policy.max_repeat_ratio:
        return HIGH_REPETITION
    return None


# --- tag mapping and the filter, one entity and one build at a time --------

def oracle_map_tag(tag_map, tag: str) -> tuple:
    """The rule lookup redone from normalize_tag on every call."""
    key = normalize_tag(tag)
    if key in tag_map.rules:
        return tag_map.rules[key], True
    return tag_map.default, False


def oracle_apply_tagmap(corpus, tag_map):
    """Each entity looked up and rebuilt with dataclasses.replace, and each
    document rebuilt with it, whether or not any tag changed."""
    audit = MappingAudit()
    docs = []
    for doc in corpus:
        ents = []
        for ent in doc.entities:
            target, matched = oracle_map_tag(tag_map, ent.tag)
            bucket = audit.rule_hits if matched else audit.unmapped
            bucket[ent.tag] = bucket.get(ent.tag, 0) + 1
            ents.append(replace(ent, tag=target))
        docs.append(replace(doc, entities=tuple(ents)))
    return Corpus(documents=tuple(docs), schema=tag_map.target_schema), audit


def oracle_filter_outputs(raw: dict, policy=None):
    """The filter that builds each accepted document three times (parse,
    with_meta, the tag-map rebuild), with the gates of oracle_gate_reason.
    Returns the canonical corpus and the (attempt id, reason) rejects."""
    if policy is None:
        policy = FilterPolicy()
    tag_map = builtin_canonical_map()
    accepted = []
    rejects = []
    for aid in sorted(raw):
        try:
            doc = parse_inline_xml(raw[aid], policy.require_record_envelope, doc_id=aid)
        except MissingEnvelope:
            rejects.append((aid, NO_ENVELOPE))
            continue
        except (MalformedMarkup, EmptyEntity):
            rejects.append((aid, MALFORMED_MARKUP))
            continue
        if policy.unknown_tags == "reject" and \
                any(not oracle_map_tag(tag_map, e.tag)[1] for e in doc.entities):
            rejects.append((aid, UNKNOWN_TAG))
            continue
        if len(doc.entities) < policy.min_annotations:
            rejects.append((aid, TOO_FEW_ANNOTATIONS))
            continue
        reason = oracle_gate_reason(doc.text, policy)
        if reason is not None:
            rejects.append((aid, reason))
            continue
        exemplar, _, replicate = aid.rpartition(":")
        accepted.append(doc.with_meta(exemplar=exemplar, replicate=replicate))
    canonical, _audit = oracle_apply_tagmap(as_corpus(accepted, None), tag_map)
    return canonical, rejects


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
    toks = tokenize(text)

    spans = []
    i = 0
    while i < len(toks):
        if rng.random() < 0.25:
            width = min(rng.randint(1, 3), len(toks) - i)
            start, end = toks[i][0], toks[i + width - 1][1]
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
    toks = tokenize(doc.text)
    spans = []
    i = 0
    while i < len(toks):
        if rng.random() < 0.25:
            width = min(rng.randint(1, 2), len(toks) - i)
            start, end = toks[i][0], toks[i + width - 1][1]
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


def token_label_by_chars(bounds, ctags, other: str) -> str:
    """Tag at the first non-other character of the token with (start, end)
    `bounds`; equals earliest-start overlap resolution for disjoint spans."""
    for k in range(*bounds):
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
        for tok in tokenize(doc.text):
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

def oracle_label_tokens(doc_text: str, spans, other: str, bounds=None) -> list:
    """Rescan the (start, -len)-sorted span list from the front for every
    token, given by its (start, end) offsets; the first span that overlaps
    the token gives its tag. O(tokens x spans), and exact for unsorted,
    overlapping and off-boundary spans."""
    if bounds is None:
        bounds = tokenize(doc_text)
    ordered = sorted(spans, key=lambda s: (s.start, -(s.end - s.start)))
    labels = []
    for start, end in bounds:
        label = other
        for span in ordered:
            if span.start >= end:
                break
            if span.end > start:
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


# --- span records: the two decoders that one replaced ----------------------

def oracle_document_from_record(rec: dict, lineno: int = 0) -> Document:
    """The JSONL decoder that built every entity first and then made two
    more passes over them for the tag and offset types."""
    where = f"line {lineno}: " if lineno else ""
    if not isinstance(rec, dict):
        raise BadRecordLine(f"{where}expected a JSON object, got {type(rec).__name__}")
    for field_name in ("id", "text"):
        if field_name not in rec:
            raise BadRecordLine(f"{where}missing field {field_name!r}")
        if not isinstance(rec[field_name], str):
            raise BadRecordLine(f"{where}field {field_name!r} is not a string")
        if has_lone_surrogate(rec[field_name]):
            raise BadRecordLine(f"{where}field {field_name!r} holds a lone surrogate")
    meta = rec.get("meta", {})
    if not isinstance(meta, dict):
        raise BadRecordLine(f"{where}field 'meta' is not an object")
    try:
        entities = tuple(
            EntitySpan(
                start=e["start"],
                end=e["end"],
                tag=e["tag"],
                surface=rec["text"][e["start"] : e["end"]],
            )
            for e in rec.get("entities", [])
        )
        if not all(isinstance(e.tag, str) for e in entities):
            raise BadRecordLine(f"{where}entity tag is not a string")
        if not all(type(e.start) is int and type(e.end) is int for e in entities):
            raise BadRecordLine(f"{where}entity offset is not an integer")
        return Document(id=rec["id"], text=rec["text"], entities=entities, meta=dict(meta))
    except (KeyError, TypeError, ValueError) as exc:
        raise BadRecordLine(f"{where}{exc}") from exc


def oracle_validate_spans(doc: Document, raw_spans, schema) -> tuple:
    """The wire's own span decoder: isinstance offsets (so bools passed),
    then range, then schema, then a sorted overlap scan. A record that is
    not an object with all three keys escaped as KeyError or TypeError."""
    spans = []
    for rec in raw_spans:
        start, end, tag = rec["start"], rec["end"], rec["tag"]
        if not (isinstance(start, int) and isinstance(end, int)):
            raise ProtocolViolation(f"non-integer offsets in {rec}")
        if not (0 <= start < end <= len(doc.text)):
            raise SpanOutOfRange(f"span {start}:{end} outside text of {len(doc.text)}")
        if tag not in schema:
            raise ProtocolViolation(f"tag {tag!r} outside backend schema {schema.name!r}")
        spans.append(EntitySpan(start=start, end=end, tag=tag, surface=doc.text[start:end]))
    spans.sort(key=lambda s: (s.start, s.end))
    for prev, cur in zip(spans, spans[1:]):
        if cur.start < prev.end:
            raise ProtocolViolation(f"overlapping spans {prev} / {cur}")
    return tuple(spans)


def oracle_check_bio(labels) -> None:
    """Raise InvalidBioSequence on any I-tag without a matching B/I before it."""
    prev = "O"
    for i, lab in enumerate(labels):
        if lab.startswith("I-"):
            tag = lab[2:]
            if prev == "O" or prev[2:] != tag:
                raise InvalidBioSequence(f"dangling {lab} at token {i} (previous label {prev})")
        prev = lab


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
        for tok in tokenize(doc.text):
            c = oracle_clean_token(doc.text[tok[0]:tok[1]])
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


# --- lexicon patterns: the length-sorted alternation ------------------------

def oracle_lexicon_pattern(entries) -> str:
    """Every entry as one alternative, longest first, to compile with re.I:
    at each start the regex tries the alternatives in order, so it takes
    the longest entry that ends on a word boundary."""
    alternation = "|".join(re.escape(e) for e in sorted(entries, key=len, reverse=True))
    return rf"\b(?:{alternation})\b"


# --- title stripping: the policy object's method ----------------------------

def oracle_strip_titles(doc: Document, titles=("Dr", "Mr", "Mrs", "Ms", "Prof", "B/O"),
                        applies_to=("NAME",)) -> Document:
    """The pattern rebuilt from the title list on every call, longest title
    first and anchored with ^, matched against a slice of each span that is
    cut again after every title."""
    alts = "|".join(re.escape(t) for t in sorted(titles, key=len, reverse=True))
    pat = re.compile(rf"^(?:{alts})(?:\.\s*|\s+)", re.IGNORECASE)
    out = []
    for ent in doc.entities:
        if ent.tag not in applies_to:
            out.append(ent)
            continue
        start = ent.start
        while True:
            m = pat.match(doc.text[start : ent.end])
            if m is None or start + m.end() >= ent.end:
                break
            start += m.end()
        if start == ent.start:
            out.append(ent)
        else:
            out.append(EntitySpan(start=start, end=ent.end, tag=ent.tag,
                                  surface=doc.text[start : ent.end]))
    return replace(doc, entities=tuple(out))


# --- span and document checks in __post_init__ ------------------------------

@dataclass(frozen=True)
class OracleEntitySpan:
    start: int
    end: int
    tag: str
    surface: str

    def __post_init__(self) -> None:
        if self.start < 0 or self.start >= self.end:
            raise SpanOutOfRange(f"bad span offsets [{self.start}, {self.end})")
        if not self.surface:
            raise SpanOutOfRange("span surface must be non-empty")


@dataclass(frozen=True)
class OracleDocument:
    """Sorts every entity tuple, then checks each entity in that order."""

    id: str
    text: str
    entities: tuple = ()
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("document id must be non-empty")
        ents = tuple(sorted(self.entities, key=lambda e: (e.start, e.end)))
        object.__setattr__(self, "entities", ents)
        prev_end = 0
        for ent in ents:
            if ent.end > len(self.text):
                raise SpanOutOfRange(
                    f"span {ent.start}:{ent.end} outside text of {len(self.text)}")
            if ent.start < prev_end:
                raise ValueError(f"doc {self.id!r}: overlapping entities at offset {ent.start}")
            if self.text[ent.start : ent.end] != ent.surface:
                raise ValueError(
                    f"doc {self.id!r}: surface mismatch at [{ent.start},{ent.end}): "
                    f"{self.text[ent.start:ent.end]!r} != {ent.surface!r}"
                )
            prev_end = ent.end


# --- age jitter from the list of candidates ----------------------------------

def oracle_jitter_age(age: int, k: int, stream):
    """Every age within k years of `age`, other than age itself and not
    negative, listed; the stream picks one. None when there is none."""
    candidates = [a for a in range(max(age - k, 0), age + k + 1) if a != age]
    if not candidates:
        return None
    return str(candidates[stream.index(len(candidates))])


# --- dates parsed into a shape record, then rendered field by field ----------

_MONTH_FULL = (
    "January", "February", "March", "April", "May", "June",
    "July", "August", "September", "October", "November", "December",
)
_MONTH_INDEX = {name.lower(): i + 1 for i, name in enumerate(_MONTH_FULL)}
_MONTH_INDEX.update({name[:3].lower(): i + 1 for i, name in enumerate(_MONTH_FULL)})

_TIME_TAIL = r"(?:(?P<tsep>[ T])(?P<hh>\d{1,2}):(?P<mm>\d{2})(?::(?P<ss>\d{2}))?)?"
_DMY_NUM_RE = re.compile(r"^(?P<d>\d{1,2})(?P<sep>[-/.])(?P<m>\d{1,2})(?P=sep)(?P<y>\d{4})" + _TIME_TAIL + "$")
_YMD_NUM_RE = re.compile(r"^(?P<y>\d{4})-(?P<m>\d{1,2})-(?P<d>\d{1,2})" + _TIME_TAIL + "$")
_DMY_TEXT_RE = re.compile(r"^(?P<d>\d{1,2})\s+(?P<mon>[A-Za-z]{3,9})\s+(?P<y>\d{4})" + _TIME_TAIL + "$")


@dataclass(frozen=True)
class _DateShape:
    order: str  # dmy_num | ymd_num | dmy_text
    sep: str = "-"
    day_pad: bool = True
    month_pad: bool = True
    month_full: bool = False  # textual month: full name vs 3-letter
    month_case: str = "title"  # title | upper | lower
    time_sep: str = ""
    hour_pad: bool = True
    has_seconds: bool = False
    has_time: bool = False


def _month_style(token: str) -> tuple:
    case = "upper" if token.isupper() else "lower" if token.islower() else "title"
    return len(token) > 3, case


def oracle_parse_date_text(text: str) -> tuple:
    """Parse day-first numeric, ISO, or day-month-name forms, remembering
    enough of the layout to re-render a shifted date identically styled."""
    s = text.strip()
    for order, pat in (("dmy_num", _DMY_NUM_RE), ("ymd_num", _YMD_NUM_RE), ("dmy_text", _DMY_TEXT_RE)):
        m = pat.match(s)
        if m is None:
            continue
        g = m.groupdict()
        if order == "dmy_text":
            month = _MONTH_INDEX.get(g["mon"].lower())
            if month is None:
                raise UnparseableDate(f"unknown month {g['mon']!r} in {text!r}")
            month_full, month_case = _month_style(g["mon"])
            sep, month_pad = " ", False
        else:
            month = int(g["m"])
            month_full, month_case = False, "title"
            sep = g.get("sep") or "-"
            month_pad = len(g["m"]) == 2
        try:
            dt = datetime(
                int(g["y"]), month, int(g["d"]),
                int(g["hh"]) if g.get("hh") else 0,
                int(g["mm"]) if g.get("mm") else 0,
                int(g["ss"]) if g.get("ss") else 0,
            )
        except ValueError as exc:
            raise UnparseableDate(f"{text!r}: {exc}") from exc
        shape = _DateShape(
            order=order,
            sep=sep,
            day_pad=len(g["d"]) == 2,
            month_pad=month_pad,
            month_full=month_full,
            month_case=month_case,
            time_sep=g.get("tsep") or "",
            hour_pad=len(g["hh"]) == 2 if g.get("hh") else True,
            has_seconds=bool(g.get("ss")),
            has_time=bool(g.get("hh")),
        )
        return dt, shape
    raise UnparseableDate(f"unsupported date format: {text!r}")


def _render_month_name(month: int, shape: _DateShape) -> str:
    name = _MONTH_FULL[month - 1]
    if not shape.month_full:
        name = name[:3]
    if shape.month_case == "upper":
        return name.upper()
    if shape.month_case == "lower":
        return name.lower()
    return name


def oracle_render_date(dt: datetime, shape: _DateShape) -> str:
    day = f"{dt.day:02d}" if shape.day_pad else str(dt.day)
    year = f"{dt.year:04d}"
    if shape.order == "dmy_text":
        body = f"{day} {_render_month_name(dt.month, shape)} {year}"
    else:
        month = f"{dt.month:02d}" if shape.month_pad else str(dt.month)
        if shape.order == "ymd_num":
            body = f"{year}-{month}-{day}"
        else:
            body = f"{day}{shape.sep}{month}{shape.sep}{year}"
    if shape.has_time:
        hour = f"{dt.hour:02d}" if shape.hour_pad else str(dt.hour)
        body += f"{shape.time_sep}{hour}:{dt.minute:02d}"
        if shape.has_seconds:
            body += f":{dt.second:02d}"
    return body


def oracle_shift_date_text(text: str, days: int = 0, minutes: int = 0) -> str:
    dt, shape = oracle_parse_date_text(text)
    dt = dt + timedelta(days=days, minutes=minutes if shape.has_time else 0)
    return oracle_render_date(dt, shape)
